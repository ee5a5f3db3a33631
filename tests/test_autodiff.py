"""Engine tests: primitive values and input checks, paused recording, the single backward sweep, tape ownership."""

import sys
import threading
import warnings

import numpy as np
import pytest

import lcsb.autodiff as ad
from lcsb.autodiff import Tape, Tensor, backward, paused
from lcsb.errors import DimensionError, DivergenceError, TapeError
from lcsb.gradcheck import GRAD_TOL, finite_difference_grad, micro_config
from lcsb.model import Linear, ModelConfig, init_model
from lcsb.quant import quantize_weights
from scalar_loss import weighted_sum
from traced import traced


@pytest.mark.parametrize("shape", [(), (1,), (1, 1), (2,)], ids=["0d", "1", "1x1", "2"])
def test_item_reads_any_one_element_tensor(shape):
    # (1,) and (1, 1) raised numpy's bare TypeError from float() on numpy 2.x
    t = Tensor(np.full(shape, 2.5))
    if t.data.size != 1:
        with pytest.raises(DimensionError, match=r"item\(\) on tensor of shape \(2,\)"):
            t.item()
    else:
        value = t.item()
        assert type(value) is float and value == 2.5


def test_cross_entropy_uniform_logits_is_log_vocab():
    logits = Tensor(np.zeros((3, 32)))
    loss = ad.cross_entropy_logits(logits, np.array([0, 5, 31]))
    assert np.isclose(loss.item(), np.log(32), atol=1e-6)


@pytest.mark.parametrize("targets", [[0, 5, -1], [0, 5, 32], [0.0, 5.0, 2.7], [True, False, True],
                                     [[0], [5, 1], [2]]],
                         ids=["minus_one", "n_classes", "float", "bool", "ragged"])
def test_cross_entropy_rejects_targets_that_are_not_class_indices(targets):
    # -1 would otherwise score the last class; the rest were bare numpy
    # IndexErrors, or ValueErrors for a ragged nesting
    logits = Tensor(np.zeros((3, 32)), requires_grad=True)
    with Tape(), pytest.raises(DimensionError, match="targets? (must be integers|out of range)"):
        ad.cross_entropy_logits(logits, targets)


def test_cross_entropy_rejects_an_empty_batch():
    # its mean would be nan, reported only by backward as a divergence
    with pytest.raises(DimensionError, match="at least one row"):
        ad.cross_entropy_logits(Tensor(np.zeros((0, 4))), np.zeros(0, dtype=np.int64))


def test_rms_norm_gradients_are_float32_with_unchanged_bits():
    # the model's output norm, in norm_head, with its value
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal((6, 16)), requires_grad=True)
    head = rng.standard_normal((16, 24)).astype(np.float32)
    w = rng.standard_normal((6, 24)).astype(np.float32)
    with Tape() as tape:
        out = ad.norm_head(x, lambda: head)
        loss = weighted_sum(out, w)
    grads = backward(loss, tape)
    # the same float32 arithmetic, cast to float32 at the end
    xd = x.data
    inv = 1.0 / np.sqrt(np.einsum("...i,...i->...", xd, xd)[..., None] / np.float32(16)
                        + np.float32(1e-5))
    assert out.data.tobytes() == (xd * inv @ head).tobytes()
    gx = w @ head.T
    s = np.sum(gx * xd, axis=-1, keepdims=True)
    want_x = (inv * gx - (inv ** 3) * xd * (s / 16)).astype(np.float32)
    assert grads[x].dtype == np.float32
    assert grads[x].tobytes() == want_x.tobytes()


def test_lora_forward_reads_its_adapters_in_place():
    # a (d_in, rank) and b (rank, d_out) are the right operands of the two
    # products as held, so the projection copies neither
    rng = np.random.default_rng(6)
    x = rng.standard_normal((12, 32)).astype(np.float32)
    w = rng.standard_normal((32, 48)).astype(np.float32)
    a = rng.standard_normal((32, 4)).astype(np.float32)
    b = rng.standard_normal((4, 48)).astype(np.float32)
    out, _ = ad._lora_forward(x, Linear(w, Tensor(a), Tensor(b), 0.5), "projection")
    xas = x @ a
    xas *= np.float32(0.5)
    want = x @ w
    want += xas @ b
    assert out.tobytes() == want.tobytes()
    # at T=128, 128 -> 256 and rank 16: the output, the (T, rank) product,
    # one (T, d_out) delta and 4 KiB of small objects; 280.8 KiB while it
    # also held a 16 KiB copy of b's transpose
    x = rng.standard_normal((128, 128)).astype(np.float32)
    lin = Linear(rng.standard_normal((128, 256)).astype(np.float32),
                 Tensor(rng.standard_normal((128, 16))), Tensor(rng.standard_normal((16, 256))), 0.5)
    (out, xas), _, peak = traced(ad._lora_forward, x, lin, "projection")
    assert peak < 2 * out.nbytes + xas.nbytes + 4096


def test_norm_head_hand_value():
    # x = (3, 4), identity head: x / sqrt(mean(x^2) + 1e-5) = x / sqrt(12.50001)
    out = ad.norm_head(Tensor([[3.0, 4.0]]), lambda: np.eye(2, dtype=np.float32))
    np.testing.assert_allclose(out.data, [[0.84852780, 1.13137040]], atol=1e-6)


def test_norm_head_shape_mismatch_reports_shapes():
    x, w = Tensor(np.ones((2, 3))), np.ones((2, 3), dtype=np.float32)
    with pytest.raises(DimensionError, match=r"x \(2, 3\), base \(2, 3\)"):
        ad.norm_head(x, lambda: w)
    q = Linear(w, Tensor(np.ones((3, 1))), Tensor(np.ones((1, 3))), 0.5)
    with pytest.raises(DimensionError, match=r"x \(2, 3\), base \(2, 3\), a \(3, 1\), b \(1, 3\)"):
        ad.self_attention(x, q, q, q, q, 1)


def test_norm_head_fetches_its_weight_on_each_use_and_keeps_none():
    # as a 4-bit model's head decompresses the embedding: a fresh weight per fetch
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((8, 64)), requires_grad=True)
    w = rng.standard_normal((64, 4096)).astype(np.float32)  # 1 MiB
    fetches = []

    def head():
        fetches.append(None)
        return w.copy()

    with Tape() as tape:
        out, kept, _ = traced(ad.norm_head, x, head)
    # the 128 KiB logits and each row's inverse norm; keeping the fetched weight took 1 MiB more
    assert kept - out.data.nbytes < w.nbytes / 8
    assert len(fetches) == 1
    grad_x, = tape.nodes[-1][1](np.ones(out.shape, dtype=np.float32), (True,))
    assert len(fetches) == 2 and grad_x.shape == x.shape


def _linears(rng, rank, dims, quantize=False):
    """Projections of the given (d_in, d_out), scale 0.5, with nonzero adapters.

    A 4-bit base is quantized in groups of 2.  Each adapter is drawn as a
    checkpoint keeps it, A (rank, d_in) and B (d_out, rank), and held as
    its transpose.
    """
    linears = []
    for d_in, d_out in dims:
        w = rng.standard_normal((d_in, d_out)).astype(np.float32)
        linears.append(Linear(quantize_weights(w, 2) if quantize else w,
                              Tensor(rng.standard_normal((rank, d_in)).T * 0.5, requires_grad=True),
                              Tensor(rng.standard_normal((d_out, rank)).T * 0.5, requires_grad=True),
                              0.5))
    return tuple(linears)


def _projections(rng, d, d_ff, rank, quantize=False):
    """Gate, up and down projections (d -> d_ff, d -> d_ff, d_ff -> d)."""
    return _linears(rng, rank, ((d, d_ff), (d, d_ff), (d_ff, d)), quantize)


def _attention_projections(rng, d, rank, quantize=False):
    """q, k, v and o projections, each d -> d."""
    return _linears(rng, rank, ((d, d),) * 4, quantize)


def _adapters(projections):
    return [m for p in projections for m in (p.a, p.b)]


def test_swiglu_saturates_exactly_without_warnings():
    # sigmoid(-100) is 0 and sigmoid(100) is 1 in float32: silu(-100) = 0, silu(100) = 100.
    # x normalizes to (1, -1) exactly: its mean square 2 ** 22 absorbs the eps.
    # The bases make gate (100, -100), up (3, -3) and down the identity; with
    # B zero the deltas add exact zeros, and rank-1 A = (1, 0) makes dB of
    # gate and up equal to the gradients of the gate and up values.
    eye = np.eye(2, dtype=np.float32)
    gate, up, down = (Linear(w * eye, Tensor([[1.0], [0.0]], requires_grad=True),
                             Tensor(np.zeros((1, 2)), requires_grad=True), 1.0)
                      for w in (100.0, 3.0, 1.0))
    x = Tensor([[2048.0, -2048.0]], requires_grad=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with Tape() as tape:
            out = ad.swiglu_mlp(x, gate, up, down)
            loss = weighted_sum(out, [2.0, 2.0])
        grads = backward(loss, tape)
    assert out.data.tolist() == [[300.0, 0.0]]
    # d/dgate = 2 * up * silu'(gate), with silu'(100) = 1 and silu'(-100) = 0
    assert grads[gate.b].tolist() == [[6.0, 0.0]]
    # d/dup = 2 * silu(gate)
    assert grads[up.b].tolist() == [[200.0, 0.0]]


def test_swiglu_tape_keeps_nothing_beyond_its_output():
    # the fused MLP node keeps its input and each row's inverse norm, but no
    # gate, up or SwiGLU array of width d_ff and no (T, rank) product
    rng = np.random.default_rng(4)
    projections = _projections(rng, 128, 256, 16)
    x = Tensor(rng.standard_normal((128, 128)), requires_grad=True)
    with Tape() as tape:
        out, kept, _ = traced(ad.swiglu_mlp, x, *projections)
    assert len(tape.nodes) == 1  # the fused node; x and the six LoRA matrices are leaves
    small = 128 * 4  # the inverse norms
    # the output (64 KiB), those 0.5 KiB and a few KiB of Python objects
    assert out.data.nbytes + small <= kept < out.data.nbytes + small + 4096


def test_swiglu_mlp_keeps_gate_and_up_only_while_its_gradients_cover_them():
    # At d=128, d_ff=256 and rank 16, gate, up and their (T, rank) products
    # take 2176 bytes a token, and the gradients the node returns, of x and
    # the six LoRA matrices, 512 bytes a token and 72 KiB: they fit up to T=44
    rng = np.random.default_rng(4)
    projections = _projections(rng, 128, 256, 16)
    xs = {t: Tensor(rng.standard_normal((t, 128)), requires_grad=True) for t in (44, 45)}
    for t, extra in ((44, 2176 * 44), (45, 0)):
        small = t * 4  # the inverse norms
        with Tape():
            out, kept, _ = traced(ad.swiglu_mlp, xs[t], *projections)
        assert out.data.nbytes + small + extra <= kept < out.data.nbytes + small + extra + 4096

    def after_backward(t):
        """The node's backward function, once it has run: what the sweep holds until the next node."""
        with Tape() as tape:
            ad.swiglu_mlp(xs[t], *projections)
        inputs, bw = tape.nodes[-1]
        bw(np.ones((t, 128), dtype=np.float32), (True,) * len(inputs))
        return bw

    # the backward lets go of the kept arrays, as of re-formed ones, after their last use
    assert traced(after_backward, 44)[1] < traced(after_backward, 45)[1] + 1024


def _projection_node(x, lin):
    """``x @ w + (s * x @ a) @ b`` as one node that keeps ``x``: the unfused chain's projection."""
    out, xas = ad._lora_forward(x.data, lin, "projection")

    def bw(g, needs):
        gx, gxa, gb = ad._lora_grads(g, needs, lin, xas)
        return (gx, x.data.T @ gxa if needs[1] else None, gb)

    return ad._finish(out, (x, lin.a, lin.b), bw)


def _norm_node(x):
    """``rms_norm(x)`` as one node that keeps ``x``: the unfused chain's norm."""
    inv = ad._rms_inv(x.data)
    return ad._finish(x.data * inv, (x,),
                      lambda g, needs: (ad._rms_norm_backward(g, x.data, inv),))


def _swiglu_node(gate, up):
    """``silu(gate) * up`` as one node, keeping its two inputs: the unfused chain's SwiGLU."""
    def bw(g, needs):
        sig = ad._sigmoid(gate.data)
        g_up = gate.data * sig
        g_up *= g
        g_gate = g * up.data
        g_gate *= sig
        np.subtract(np.float32(1.0), sig, out=sig)
        sig *= gate.data
        sig += np.float32(1.0)
        g_gate *= sig
        return (g_gate, g_up)

    out = ad._sigmoid(gate.data)
    out *= gate.data
    out *= up.data
    return ad._finish(out, (gate, up), bw)


@pytest.mark.parametrize("t, d_ff", [(1, 48), (7, 48), (128, 48), (128, 200), (5, 4096)],
                         ids=["1", "7", "128", "128-200", "5-4096"])
def test_swiglu_mlp_matches_the_unfused_chain_bit_for_bit(t, d_ff):
    # the backward runs in blocks of 8192 elements: 170 rows of width 48,
    # 40 of width 200 and 2 of width 4096, so T=128 ends in a partial block
    # of 8 rows and T=5 in one of 1.  The shape picks the path: at width 48
    # the node keeps gate and up up to T=13, so T=1 and T=7 keep, both T=128
    # re-form, and T=5 at width 4096 keeps
    rng = np.random.default_rng(t)
    projections = _projections(rng, 32, d_ff, 4)
    x = Tensor(rng.standard_normal((t, 32)), requires_grad=True)
    g = rng.standard_normal((t, 32))
    gate, up, down = projections

    def unfused():
        n = _norm_node(x)
        hidden = _swiglu_node(_projection_node(n, gate), _projection_node(n, up))
        return _projection_node(hidden, down)

    def run(mlp):
        with Tape() as tape:
            out = mlp()
            # x also feeds the residual add, as in a block; its two terms
            # are summed in the sweep's order
            loss = weighted_sum(ad.add(x, out), g)
        return out.data, backward(loss, tape)

    want, want_grads = run(unfused)
    got, got_grads = run(lambda: ad.swiglu_mlp(x, *projections))
    assert got.tobytes() == want.tobytes()
    for p in (x, *_adapters(projections)):
        assert got_grads[p].tobytes() == want_grads[p].tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("op", ["norm_head", "self_attention", "swiglu_mlp"])
def test_zero_width_inputs_raise(op):
    # each divided by zero, with inf or NaN out
    x = Tensor(np.ones((3, 0)), requires_grad=True)
    with Tape(), pytest.raises(DimensionError, match="d >= 1|width >= 1"):
        if op == "norm_head":
            ad.norm_head(x, lambda: np.ones((0, 4), dtype=np.float32))
        elif op == "self_attention":
            ad.self_attention(x, *_attention_projections(np.random.default_rng(0), 0, 1), 1)
        else:
            ad.swiglu_mlp(x, *_projections(np.random.default_rng(0), 0, 4, 1))


def test_rms_norm_backward_works_in_two_buffers():
    # the norm's backward in every node that normalizes its input
    rng = np.random.default_rng(7)
    x = rng.standard_normal((128, 128)).astype(np.float32)
    g = rng.standard_normal((128, 128)).astype(np.float32)
    grad_x, _, peak = traced(ad._rms_norm_backward, g, x, ad._rms_inv(x))
    # grad_x and one (T, d) temporary at a time; forming inv * g - (inv ** 3)
    # * x * (s / dim) out of place held four such arrays at once
    assert peak < 3 * grad_x.nbytes


def _split_heads(m, n_heads):
    t, d = m.shape
    return m.reshape(t, n_heads, d // n_heads).transpose(1, 0, 2)


def _merge_heads(m):
    h, t, d_h = m.shape
    return m.transpose(1, 0, 2).reshape(t, h * d_h)


def _attention_keeping_probs(q, k, v, n_heads):
    """Output of causal attention and a function of its gradient to dq, dk, dv, from probabilities kept in the forward."""
    t, d = q.shape
    c = np.float32(1.0 / np.sqrt(d // n_heads))
    qh, kh, vh = (_split_heads(m, n_heads) for m in (q * c, k, v))
    probs = kh @ qh.transpose(0, 2, 1)  # (head, key, query)
    probs += np.tri(t, k=-1, dtype=np.float32) * np.float32(-1e9)  # the additive mask
    probs -= np.max(probs, axis=1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= np.sum(probs, axis=1, keepdims=True)

    def grads(g):
        gh = _split_heads(g, n_heads)
        gs = vh @ gh.transpose(0, 2, 1)
        gs *= probs
        gs -= probs * np.sum(gs, axis=1, keepdims=True)
        gq = _merge_heads(gs.transpose(0, 2, 1) @ kh)
        gq *= c
        return gq, _merge_heads(gs @ qh), _merge_heads(probs @ gh)

    return _merge_heads(probs.transpose(0, 2, 1) @ vh), grads


@pytest.mark.parametrize("t", [1, 7, 40, 128])
def test_causal_attention_rebuilds_its_probabilities_bit_for_bit(t):
    # self_attention keeps only each query's max and sum, and its backward
    # rebuilds the probabilities from them, a block of heads at a time
    # (at T=40, 3 heads and then 1)
    rng = np.random.default_rng(t)
    q, k, v = (rng.standard_normal((t, 128)).astype(np.float32) for _ in range(3))
    qh, kh, vh = (ad._split_heads(m, 4) for m in (q * np.float32(1.0 / np.sqrt(32)), k, v))
    row_max, row_sum = np.empty((4, 1, t), np.float32), np.empty((4, 1, t), np.float32)
    heads = np.empty((t, 128), np.float32)
    future = np.tri(t, k=-1, dtype=bool)
    for hs in ad._head_blocks(4, t, 128):
        shape = (hs.stop - hs.start, t, t)
        probs = ad._attention_probs(qh[hs], kh[hs], np.empty(shape, np.float32), row_max[hs],
                                    row_sum[hs], future)
        rebuilt = ad._attention_probs(qh[hs], kh[hs], np.empty(shape, np.float32), row_max[hs],
                                      row_sum[hs], future, rebuild=True)
        assert rebuilt.tobytes() == probs.tobytes()
        np.matmul(rebuilt.transpose(0, 2, 1), vh[hs], out=_split_heads(heads, 4)[hs])
    want, _ = _attention_keeping_probs(q, k, v, 4)  # every head at once
    assert heads.tobytes() == want.tobytes()


def _attention_node(q, k, v, n_heads):
    """Causal attention as one node that keeps its probabilities: the unfused chain's."""
    out, grads = _attention_keeping_probs(q.data, k.data, v.data, n_heads)
    return ad._finish(out, (q, k, v), lambda g, needs: grads(g))


@pytest.mark.parametrize("x_tracked", [True, False], ids=["tracked", "constant"])
@pytest.mark.parametrize("quantize", [False, True], ids=["float", "q4"])
@pytest.mark.parametrize("t", [1, 7, 40, 128])
def test_self_attention_matches_the_unfused_chain_bit_for_bit(t, quantize, x_tracked):
    # 4 heads of 32: in blocks of 4 heads up to T=32, of 3 and 1 at T=40, one at a time at T=128
    rng = np.random.default_rng(t)
    projections = _attention_projections(rng, 128, 4, quantize)
    x = Tensor(rng.standard_normal((t, 128)), requires_grad=x_tracked)
    g = rng.standard_normal((t, 128))
    q, k, v, o = projections

    def unfused():
        n = _norm_node(x)
        heads = _attention_node(*(_projection_node(n, p) for p in (q, k, v)), 4)
        return _projection_node(heads, o)

    def run(attention):
        with Tape() as tape:
            out = attention()
            # x also feeds the residual add, as in a block; its two terms
            # are summed in the sweep's order
            loss = weighted_sum(ad.add(x, out), g)
        return out.data, backward(loss, tape)

    got, got_grads = run(lambda: ad.self_attention(x, *projections, 4))
    want, want_grads = run(unfused)
    assert got.tobytes() == want.tobytes()
    assert got_grads.keys() == want_grads.keys()
    for p in got_grads:
        assert got_grads[p].tobytes() == want_grads[p].tobytes()


def test_self_attention_tape_keeps_no_probabilities():
    # self_attention keeps x, each row's inverse norm and each query's softmax
    # max and sum: no q, k, v, heads, (heads, T, T) or (T, rank) array
    rng = np.random.default_rng(8)
    t, d, n_heads, rank = 128, 128, 4, 16
    projections = _attention_projections(rng, d, rank)
    x = Tensor(rng.standard_normal((t, d)), requires_grad=True)
    # numpy's caches of small blocks are shared, not the node's; a first call fills them
    ad.self_attention(x, *projections, n_heads)
    with Tape() as tape:
        out, kept, _ = traced(ad.self_attention, x, *projections, n_heads)
    assert len(tape.nodes) == 1  # the fused node; x and the eight LoRA matrices are leaves
    small = t * 4 + 2 * n_heads * t * 4  # 4.5 KiB
    # the output (64 KiB), those small arrays and a few KiB of Python objects
    assert out.data.nbytes + small <= kept < out.data.nbytes + small + 4096


@pytest.mark.parametrize("t", [7, 128])
@pytest.mark.parametrize("node", ["self_attention", "swiglu_mlp"])
def test_a_tracked_b_beside_a_constant_a_gets_the_all_tracked_gradient(node, t):
    # o's and down's dB read their (T, rank) product, formed again in the
    # backward from the re-formed heads or SwiGLU output, which must be
    # re-formed when only b is tracked too.  At T=7 the MLP keeps gate and
    # up, and at T=128 it re-forms them
    rng = np.random.default_rng(t)
    if node == "self_attention":
        fused, projections, heads = ad.self_attention, _attention_projections(rng, 128, 16), (4,)
    else:
        fused, projections, heads = ad.swiglu_mlp, _projections(rng, 128, 256, 16), ()
    x = Tensor(rng.standard_normal((t, 128)), requires_grad=True)
    g = rng.standard_normal((t, 128))
    last = projections[-1]

    def grad_b(ps):
        with Tape() as tape:
            loss = weighted_sum(fused(x, *ps, *heads), g)
        return backward(loss, tape)[last.b]

    constant_a = Linear(last.weight, Tensor(last.a.data), last.b, last.scale)
    assert grad_b((*projections[:-1], constant_a)).tobytes() == grad_b(projections).tobytes()


@pytest.mark.parametrize("t", [7, 128])
@pytest.mark.parametrize("quantize", [False, True], ids=["float", "q4"])
@pytest.mark.parametrize("node", ["self_attention", "swiglu_mlp"])
def test_constant_adapters_get_no_gradient_and_leave_dx_bit_identical(node, quantize, t):
    # With every adapter a constant, the backward forms dx alone and skips
    # re-forming the heads or the SwiGLU output, which only o's or down's dA
    # and dB read.  At T=7 the MLP keeps gate and up, and at T=128 it re-forms them
    rng = np.random.default_rng(t)
    if node == "self_attention":
        fused, heads = ad.self_attention, (4,)
        projections = _attention_projections(rng, 128, 16, quantize)
    else:
        fused, heads = ad.swiglu_mlp, ()
        projections = _projections(rng, 128, 256, 16, quantize)
    x = Tensor(rng.standard_normal((t, 128)), requires_grad=True)
    g = rng.standard_normal((t, 128)).astype(np.float32)

    def node_grads(ps):
        """The node's backward, given g and the needs the sweep would pass it."""
        with Tape() as tape:
            fused(x, *ps, *heads)
        handles, bw = tape.nodes[-1]
        return bw(g, tuple(h is not None for h in handles))

    constant = [Linear(lin.weight, Tensor(lin.a.data), Tensor(lin.b.data), lin.scale)
                for lin in projections]
    dx, *adapters = node_grads(constant)
    assert len(adapters) == 2 * len(projections) and all(grad is None for grad in adapters)
    assert dx.tobytes() == node_grads(projections)[0].tobytes()


@pytest.mark.parametrize("quantize", [False, True], ids=["float", "q4"])
def test_fused_nodes_scratch_is_bounded_by_their_input(quantize):
    # the default model's shapes at T=128 (d=128, 4 heads, d_ff=256, rank
    # 16); each pass's peak above its start counts what it returns too
    lin = init_model(ModelConfig(quantize_base=quantize), 0).blocks[0]
    rng = np.random.default_rng(9)
    x = Tensor(rng.standard_normal((128, 128)), requires_grad=True)
    g = rng.standard_normal((128, 128)).astype(np.float32)
    peaks = {}
    for node, args in ((ad.self_attention, (lin["q"], lin["k"], lin["v"], lin["o"], 4)),
                       (ad.swiglu_mlp, (lin["gate"], lin["up"], lin["down"]))):
        with Tape() as tape:
            _, _, forward = traced(node, x, *args)
        inputs, bw = tape.nodes[-1]
        _, _, backward = traced(bw, g, (True,) * len(inputs))
        peaks[node.__name__] = forward, backward
    mib = 2 ** 20
    # 356 and 485 KiB, each pass's own (T, T) mask counted (493 while the
    # node kept o's (T, rank) product, 477 while a mask kept across passes
    # was not, 483 while the backward re-formed the
    # normalized input before q's, k's and v's gradients); 607 and 947 KiB while every
    # head's (4, T, T) scores, and in the backward their gradient, were
    # formed at once and the heads were merged into copies
    assert max(peaks["self_attention"]) < 0.5 * mib
    # 537 KiB; 754 KiB while the SwiGLU derivative ran on whole (T, d_ff)
    # arrays with the normalized input held across the node
    assert peaks["swiglu_mlp"][1] < 0.6 * mib


def test_self_attention_rejects_zero_positions():
    # was a bare numpy ValueError from the row maximum of an empty score array
    x = Tensor(np.ones((0, 8)), requires_grad=True)
    projections = _attention_projections(np.random.default_rng(0), 8, 2)
    with Tape(), pytest.raises(DimensionError, match="T >= 1"):
        ad.self_attention(x, *projections, 2)


@pytest.mark.parametrize("n_heads", [2.0, True], ids=["float", "bool"])
def test_causal_attention_rejects_a_head_count_that_is_not_an_int(n_heads):
    # both were bare TypeErrors from numpy
    x = Tensor(np.ones((3, 8)))
    projections = _attention_projections(np.random.default_rng(0), 8, 2)
    with pytest.raises(DimensionError, match="n_heads must be an int"):
        ad.self_attention(x, *projections, n_heads)


@pytest.mark.parametrize("n_heads", [3, 0, -2])
def test_self_attention_rejects_heads_that_do_not_divide_its_width(n_heads):
    x = Tensor(np.ones((3, 8)), requires_grad=True)
    projections = _attention_projections(np.random.default_rng(0), 8, 2)
    with Tape(), pytest.raises(DimensionError, match=rf"{n_heads} heads do not divide d=8"):
        ad.self_attention(x, *projections, n_heads)


@pytest.mark.parametrize("op", ["self_attention", "norm_head"])
def test_linears_reject_a_base_that_is_not_float32(op):
    # a float64 base made a float64 dx
    x = Tensor(np.ones((2, 4)), requires_grad=True)
    w = np.ones((4, 4))
    with Tape(), pytest.raises(DimensionError, match="float64"):
        if op == "self_attention":
            q = Linear(w, Tensor(np.ones((4, 2)), requires_grad=True),
                       Tensor(np.zeros((2, 4)), requires_grad=True), 1.0)
            ad.self_attention(x, q, q, q, q, 1)
        else:
            ad.norm_head(x, lambda: w)


class TestDetach:
    """A value computed under ``paused()`` is a constant: the one way to cut a gradient."""

    def test_values_bit_exact(self):
        t = Tensor(np.random.default_rng(0).standard_normal((5, 3)), requires_grad=True)
        with Tape(), paused():
            d = ad.add(t, Tensor(np.zeros(t.shape)))
        assert d.data.tobytes() == t.data.tobytes()
        assert not d.requires_grad

    def test_gradient_sink(self):
        # loss = sum(t) computed paused: t receives nothing
        t = Tensor(np.ones(4), requires_grad=True)
        with Tape() as tape:
            with paused():
                loss = weighted_sum(t, 1.0)
        grads = backward(loss, tape)
        np.testing.assert_array_equal(grads.get(t, np.zeros(4)), np.zeros(4))

    def test_sum_of_detached_gives_zero_grad(self):
        t = Tensor(np.ones(4), requires_grad=True)
        with Tape() as tape:
            tracked = ad.add(t, Tensor(np.zeros(4)))  # t participates in the graph
            with paused():
                const = ad.add(tracked, tracked)
            loss = weighted_sum(ad.add(const, tracked), 1.0)
        grads = backward(loss, tape)
        # d/dt sum(c + t) with c = 2t held constant is ones; a tracked c would give threes
        np.testing.assert_array_equal(grads[t], np.ones(4, dtype=np.float32))

    def test_residual_identity_jacobian(self):
        # y = x + f(x) with f paused: gradient of sum(y) w.r.t. x is all ones
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((3, 6)), requires_grad=True)
        projections = _projections(rng, 6, 8, 2)
        with Tape() as tape:
            with paused():
                fx = ad.swiglu_mlp(x, *projections)
            y = ad.add(x, fx)
            loss = weighted_sum(y, 1.0)
        grads = backward(loss, tape)
        assert list(grads) == [x]
        np.testing.assert_array_equal(grads[x], np.ones((3, 6), dtype=np.float32))


class TestBackward:
    def test_linear(self):
        theta = Tensor(3.0, requires_grad=True)
        with Tape() as tape:
            loss = weighted_sum(ad.add(theta, theta), 1.0)
        grads = backward(loss, tape)
        assert grads[theta] == pytest.approx(2.0)

    def test_quadratic(self):
        # theta is both adapters of a 1 x 1 projection with a zero base: s * theta ** 2
        theta = Tensor([[3.0]], requires_grad=True)
        with Tape() as tape:
            out = _projection_node(Tensor([[1.0]]), Linear(np.zeros((1, 1), dtype=np.float32),
                                                           theta, theta, 1.0))
            loss = weighted_sum(out, 1.0)
        grads = backward(loss, tape)
        assert grads[theta].item() == pytest.approx(6.0)

    def test_loss_gradient_is_exactly_one(self):
        theta = Tensor(2.0, requires_grad=True)
        with Tape() as tape:
            loss = weighted_sum(theta, 5.0)
        # the loss node must seed with exactly 1.0: grad(theta) = 5.0 exactly
        assert backward(loss, tape)[theta] == np.float32(5.0)

    def test_parameter_as_loss_gets_gradient_one(self):
        w = Tensor(2.0, requires_grad=True)
        with Tape() as tape:
            pass
        grads = backward(w, tape)
        assert list(grads) == [w] and grads[w] == np.float32(1.0)

    def test_non_scalar_loss_raises(self):
        theta = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            out = ad.add(theta, theta)
        with pytest.raises(DimensionError, match="scalar"):
            backward(out, tape)

    def test_non_finite_loss_raises_divergence(self):
        theta = Tensor(np.float32(3e38), requires_grad=True)
        with Tape() as tape, np.errstate(over="ignore"):
            loss = weighted_sum(ad.add(theta, theta), 1.0)  # overflows to inf
        with pytest.raises(DivergenceError):
            backward(loss, tape)

    def test_non_finite_gradient_raises_divergence(self):
        # the loss is 0, but b's two gradient terms, 2e38 each, overflow float32 when summed
        b = Tensor(np.zeros(3), requires_grad=True)
        with Tape() as tape:
            loss = weighted_sum(ad.add(b, b), np.full(3, 2e38))
        assert np.isfinite(loss.data)
        with np.errstate(over="ignore"), pytest.raises(DivergenceError, match="non-finite"):
            backward(loss, tape)

    def test_accumulation_parameter_used_twice(self):
        theta = Tensor(np.array([1.5, -0.5]), requires_grad=True)
        w = np.array([0.25, 4.0])
        with Tape() as tape:
            loss = ad.add(weighted_sum(ad.add(theta, theta), w), weighted_sum(theta, 3.0))
        grads = backward(loss, tape)
        np.testing.assert_allclose(grads[theta], 2.0 * w + 3.0, rtol=1e-6)

    def test_unreachable_parameter_gets_exact_zero(self):
        used = Tensor(np.ones(2), requires_grad=True)
        unused = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            weighted_sum(unused, 1.0)  # on the tape, but not feeding the loss
            loss = weighted_sum(used, 1.0)
        grads = backward(loss, tape)
        assert np.all(grads[unused] == 0.0)
        assert grads[unused].shape == (3,)

    def test_backward_deterministic(self):
        # a tape is swept once: two recordings of the same forward give the same bits
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        projections = _projections(rng, 4, 6, 2)

        def grads():
            with Tape() as tape:
                loss = weighted_sum(ad.swiglu_mlp(x, *projections), 1.0)
            return backward(loss, tape)

        g1, g2 = grads(), grads()
        for p in (x, *_adapters(projections)):
            assert g1[p].tobytes() == g2[p].tobytes()


class TestSingleUseTape:
    """``backward`` sweeps a tape once and frees each node's saved arrays as it goes."""

    @staticmethod
    def _swept():
        theta = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with Tape() as tape:
            loss = weighted_sum(ad.add(theta, theta), 1.0)
        backward(loss, tape)
        return theta, loss, tape

    def test_second_sweep_raises(self):
        _, loss, tape = self._swept()
        with pytest.raises(TapeError, match="already been swept"):
            backward(loss, tape)

    def test_recording_onto_a_swept_tape_raises(self):
        theta, _, tape = self._swept()
        other = Tensor(np.ones(2), requires_grad=True)
        with tape, pytest.raises(TapeError, match="swept"):
            ad.add(other, other)
        assert list(tape._leaves.values()) == [theta]  # refused before other became a leaf
        with Tape() as fresh:  # a new tape records the same parameter
            ad.add(theta, theta)
        assert len(fresh.nodes) == 1

    def test_node_count_is_kept_and_every_op_node_is_spent(self):
        theta = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            weighted_sum(ad.add(theta, theta), 5.0)  # on the tape, but not feeding the loss
            loss = weighted_sum(ad.add(theta, theta), 1.0)
        recorded = list(tape.nodes)
        assert [fn is None for _, fn in recorded] == [False, False, False, False]
        backward(loss, tape)
        # each node keeps its inputs; reached and unreached nodes drop their
        # backward alike, so every node now holds ``None``
        assert [inputs for inputs, _ in tape.nodes] == [inputs for inputs, _ in recorded]
        assert all(fn is None for _, fn in tape.nodes)

    def test_rejected_loss_leaves_the_tape_unswept(self):
        theta = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            out = ad.add(theta, theta)
            loss = weighted_sum(out, 1.0)
        with pytest.raises(DimensionError):
            backward(out, tape)
        assert backward(loss, tape)[theta].tolist() == [2.0, 2.0, 2.0]

    def test_arrays_returned_by_a_backward_are_never_written(self):
        # add hands one array to both w and v; w then takes two more terms
        w = Tensor(np.ones(3), requires_grad=True)
        v = Tensor(np.ones(3), requires_grad=True)
        k = np.array([1.0, 2.0, 3.0], dtype=np.float32)
        with Tape() as tape:
            early = ad.add(weighted_sum(w, 3.0), weighted_sum(w, 2.0))
            loss = ad.add(early, weighted_sum(ad.add(w, v), k))
        grads = backward(loss, tape)
        assert grads[v].tolist() == k.tolist()
        assert grads[w].tolist() == (k + 5.0).tolist()


class TestFiniteDifference:
    def test_quadratic_exact(self):
        theta = Tensor(3.0)

        def f(t):
            return float(t.data) ** 2

        g = finite_difference_grad(f, theta)
        assert g.dtype == np.float64 and g.shape == ()
        assert g.item() == pytest.approx(6.0, abs=1e-5)

    def test_linear_all_ones(self):
        theta = Tensor(np.random.default_rng(0).standard_normal(5))
        g = finite_difference_grad(lambda t: float(np.sum(t.data, dtype=np.float64)), theta)
        np.testing.assert_allclose(g, np.ones(5), atol=1e-4)

    def test_restores_theta(self):
        theta = Tensor(np.array([1.0, 2.0]))
        before = theta.data.copy()
        finite_difference_grad(lambda t: float(np.sum(t.data)), theta)
        assert np.array_equal(theta.data, before)


def test_two_layer_mlp_matches_finite_differences():
    # independent float64 oracle of the same tiny net: an adapted projection,
    # a pre-norm SwiGLU MLP on its output and a cross entropy loss
    rng = np.random.default_rng(11)
    x = rng.standard_normal((5, 4)).astype(np.float32)
    targets = rng.integers(0, 6, size=5)
    w1 = (rng.standard_normal((4, 6)) * 0.5).astype(np.float32)
    a1, b1 = (Tensor(rng.standard_normal(shape).T * 0.5, requires_grad=True) for shape in ((2, 4), (6, 2)))
    projections = _projections(rng, 6, 8, 2)

    with Tape() as tape:
        hidden = _projection_node(Tensor(x), Linear(w1, a1, b1, 0.5))
        logits = ad.swiglu_mlp(hidden, *projections)
        loss = ad.cross_entropy_logits(logits, targets)
    grads = backward(loss, tape)

    def oracle(_):
        def linear(h, w, a, b):
            return h @ w.astype(np.float64) + 0.5 * (h @ a.data.astype(np.float64)) @ b.data
        h = linear(x.astype(np.float64), w1, a1, b1)
        n = h / np.sqrt(np.mean(h * h, axis=-1, keepdims=True) + 1e-5)
        gate, up, down = ((p.weight, p.a, p.b) for p in projections)
        z = linear(linear(n, *gate) / (1.0 + np.exp(-linear(n, *gate))) * linear(n, *up), *down)
        lse = np.log(np.sum(np.exp(z), axis=-1))
        return float(np.mean(lse - z[np.arange(5), targets]))

    for p in (a1, b1, *_adapters(projections)):
        fd = finite_difference_grad(oracle, p)
        assert np.max(np.abs(grads[p] - fd)) / (np.max(np.abs(fd)) + 1e-12) < GRAD_TOL


class TestTapeOwnership:
    def test_interleaved_tapes_sum_every_use(self):
        w = Tensor(1.0, requires_grad=True)
        tape_a, tape_b = Tape(), Tape()
        with tape_a:
            first = weighted_sum(w, 2.0)
        with tape_b:
            weighted_sum(w, 1.0)
        with tape_a:
            loss = ad.add(first, weighted_sum(w, 3.0))
        assert backward(loss, tape_a)[w] == np.float32(5.0)

    def test_other_tapes_intermediate_is_a_leaf_there(self):
        w = Tensor(1.5, requires_grad=True)
        tape_a, tape_b = Tape(), Tape()
        with tape_a:
            x = ad.add(w, w)
        with tape_b:
            loss_b = weighted_sum(x, 7.0)
        with tape_a:
            loss_a = weighted_sum(ad.add(x, x), 3.0)
        # d/dw 3 * (x + x) with x = 2w is 12
        assert backward(loss_a, tape_a)[w] == np.float32(12.0)
        grads_b = backward(loss_b, tape_b)
        assert list(grads_b) == [x] and grads_b[x] == np.float32(7.0)

    def test_threads_sharing_a_model_match_sequential_grads(self):
        model = init_model(micro_config(), 0)
        rng = np.random.default_rng(1)
        for p in model.trainable_params().values():
            p.data.T[...] = (rng.standard_normal(p.shape[::-1]) * 0.1).astype(np.float32)
        cfg = model.config
        batches = [(rng.integers(0, cfg.vocab_size, cfg.seq_len),
                    rng.integers(0, cfg.vocab_size, cfg.seq_len)) for _ in range(4)]

        def grads_of(tokens, targets):
            with Tape() as tape:
                loss = ad.cross_entropy_logits(model.forward(tokens), targets)
            return {id(p): g for p, g in backward(loss, tape).items()}

        expected = [grads_of(*batch) for batch in batches]
        results = [[] for _ in batches]

        def work(i):
            for _ in range(10):
                results[i].append(grads_of(*batches[i]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(batches))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for want, got in zip(expected, results):
            assert len(got) == 10
            for grads in got:
                assert grads.keys() == want.keys()
                assert all(np.array_equal(grads[k], want[k]) for k in want)
