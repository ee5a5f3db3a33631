"""Engine tests: primitive values and input checks, paused recording, the single backward sweep, tape ownership."""

import sys
import threading
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

import lcsb.autodiff as ad
from lcsb.autodiff import Tape, Tensor, backward, paused
from lcsb.errors import DimensionError, DivergenceError, TapeError
from lcsb.gradcheck import GRAD_TOL, _ref_rms_norm, finite_difference_grad, micro_config
from lcsb.model import Linear, init_model
from scalar_loss import weighted_sum


def test_cross_entropy_uniform_logits_is_log_vocab():
    logits = Tensor(np.zeros((3, 32)))
    loss = ad.cross_entropy_logits(logits, np.array([0, 5, 31]))
    assert np.isclose(loss.item(), np.log(32), atol=1e-6)


@pytest.mark.parametrize("targets", [[0, 5, -1], [0, 5, 32], [0.0, 5.0, 2.7], [True, False, True]],
                         ids=["minus_one", "n_classes", "float", "bool"])
def test_cross_entropy_rejects_targets_that_are_not_class_indices(targets):
    # -1 would otherwise score the last class; the rest were bare numpy IndexErrors
    logits = Tensor(np.zeros((3, 32)), requires_grad=True)
    with Tape(), pytest.raises(DimensionError, match="targets? (must be integers|out of range)"):
        ad.cross_entropy_logits(logits, np.array(targets))


def test_cross_entropy_rejects_an_empty_batch():
    # its mean would be nan, reported only by backward as a divergence
    with pytest.raises(DimensionError, match="at least one row"):
        ad.cross_entropy_logits(Tensor(np.zeros((0, 4))), np.zeros(0, dtype=np.int64))


def test_rms_norm_gradients_are_float32_with_unchanged_bits():
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal((6, 16)), requires_grad=True)
    gain = rng.uniform(0.5, 1.5, 16).astype(np.float32)
    w = rng.standard_normal((6, 16)).astype(np.float32)
    with Tape() as tape:
        loss = weighted_sum(ad.rms_norm(x, gain), w)
    grads = backward(loss, tape)
    # the same float32 arithmetic, cast to float32 at the end
    xd, gd = x.data, gain
    inv = 1.0 / np.sqrt(np.einsum("...i,...i->...", xd, xd)[..., None] / np.float32(16)
                        + np.float32(1e-5))
    gp = w * gd
    s = np.sum(gp * xd, axis=-1, keepdims=True)
    want_x = (inv * gp - (inv ** 3) * xd * (s / 16)).astype(np.float32)
    assert grads[x].dtype == np.float32
    assert grads[x].tobytes() == want_x.tobytes()


def test_lora_linear_matches_the_transposed_products_bit_for_bit():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((12, 32)).astype(np.float32)
    w = rng.standard_normal((32, 48)).astype(np.float32)
    a = rng.standard_normal((4, 32)).astype(np.float32)
    b = rng.standard_normal((48, 4)).astype(np.float32)
    out = ad.lora_linear(Tensor(x), Tensor(a), Tensor(b), 0.5, base=lambda: w)
    xas = x @ a.T
    xas *= np.float32(0.5)
    want = x @ w
    want += xas @ b.T
    assert out.data.tobytes() == want.tobytes()


def test_rms_norm_hand_value():
    # x = (3, 4), unit gain: x / sqrt(mean(x^2) + 1e-5) = x / sqrt(12.50001)
    out = ad.rms_norm(Tensor([3.0, 4.0]), np.ones(2, dtype=np.float32))
    np.testing.assert_allclose(out.data, [0.84852780, 1.13137040], atol=1e-6)


def test_matmul_shape_mismatch_reports_shapes():
    x, w = Tensor(np.ones((2, 3))), np.ones((2, 3), dtype=np.float32)
    with pytest.raises(DimensionError, match=r"x \(2, 3\), base \(2, 3\)"):
        ad.frozen_linear(x, w)
    a, b = Tensor(np.ones((1, 3))), Tensor(np.ones((3, 1)))
    with pytest.raises(DimensionError, match=r"x \(2, 3\), base \(2, 3\), a \(1, 3\), b \(3, 1\)"):
        ad.lora_linear(x, a, b, 0.5, base=lambda: w)


def _projections(rng, d, d_ff, rank):
    """Gate, up and down projections (d -> d_ff, d -> d_ff, d_ff -> d), scale 0.5, with nonzero adapters."""
    return tuple(
        Linear(rng.standard_normal((d_in, d_out)).astype(np.float32),
               Tensor(rng.standard_normal((rank, d_in)) * 0.5, requires_grad=True),
               Tensor(rng.standard_normal((d_out, rank)) * 0.5, requires_grad=True), 0.5)
        for d_in, d_out in ((d, d_ff), (d, d_ff), (d_ff, d))
    )


def _adapters(projections):
    return [m for p in projections for m in (p.a, p.b)]


def test_swiglu_saturates_exactly_without_warnings():
    # sigmoid(-100) is 0 and sigmoid(100) is 1 in float32: silu(-100) = 0, silu(100) = 100.
    # x normalizes to (1, -1) exactly: its mean square 2 ** 22 absorbs the eps.
    # The bases make gate (100, -100), up (3, -3) and down the identity; with
    # B zero the deltas add exact zeros, and rank-1 A = (1, 0) makes dB of
    # gate and up equal to the gradients of the gate and up values.
    eye = np.eye(2, dtype=np.float32)
    gate, up, down = (Linear(w * eye, Tensor([[1.0, 0.0]], requires_grad=True),
                             Tensor(np.zeros((2, 1)), requires_grad=True), 1.0)
                      for w in (100.0, 3.0, 1.0))
    x = Tensor([[2048.0, -2048.0]], requires_grad=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with Tape() as tape:
            out = ad.swiglu_mlp(x, np.ones(2), gate, up, down)
            loss = weighted_sum(out, [2.0, 2.0])
        grads = backward(loss, tape)
    assert out.data.tolist() == [[300.0, 0.0]]
    # d/dgate = 2 * up * silu'(gate), with silu'(100) = 1 and silu'(-100) = 0
    assert grads[gate.b].tolist() == [[6.0], [0.0]]
    # d/dup = 2 * silu(gate)
    assert grads[up.b].tolist() == [[200.0], [0.0]]


def test_swiglu_tape_keeps_nothing_beyond_its_output():
    # the fused MLP node keeps its input, each row's inverse norm and down's
    # (T, rank) product, but no gate, up or SwiGLU array of width d_ff
    rng = np.random.default_rng(4)
    projections = _projections(rng, 128, 256, 16)
    x = Tensor(rng.standard_normal((128, 128)), requires_grad=True)
    gain = np.ones(128, dtype=np.float32)
    with Tape() as tape:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = ad.swiglu_mlp(x, gain, *projections)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
    assert len(tape.nodes) == 8  # x, the six LoRA matrices and the fused node
    small = 128 * 4 + 128 * 16 * 4  # the inverse norms and down's (T, rank) product
    # the output (64 KiB), those 8.5 KiB and a few KiB of Python objects
    assert out.data.nbytes + small <= kept < out.data.nbytes + small + 4096


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


@pytest.mark.parametrize("t", [1, 7, 128])
def test_swiglu_mlp_matches_the_unfused_chain_bit_for_bit(t):
    rng = np.random.default_rng(t)
    projections = _projections(rng, 32, 48, 4)
    gain = rng.uniform(0.5, 1.5, 32).astype(np.float32)
    x = Tensor(rng.standard_normal((t, 32)), requires_grad=True)
    g = rng.standard_normal((t, 32))
    gate, up, down = projections

    def unfused():
        n = ad.rms_norm(x, gain)
        hidden = _swiglu_node(gate(n), up(n))
        return down(hidden)

    def run(mlp):
        with Tape() as tape:
            out = mlp()
            # x also feeds the residual add, as in a block; its two terms
            # are summed in the sweep's order
            loss = weighted_sum(ad.add(x, out), g)
        return out.data, backward(loss, tape)

    (got, got_grads), (want, want_grads) = run(lambda: ad.swiglu_mlp(x, gain, *projections)), run(unfused)
    assert got.tobytes() == want.tobytes()
    for p in (x, *_adapters(projections)):
        assert got_grads[p].tobytes() == want_grads[p].tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("op", ["rms_norm", "causal_attention", "swiglu_mlp"])
def test_zero_width_inputs_raise(op):
    # each divided by zero, with inf or NaN out
    x = Tensor(np.ones((3, 0)), requires_grad=True)
    with Tape(), pytest.raises(DimensionError, match="d >= 1|width >= 1"):
        if op == "rms_norm":
            ad.rms_norm(x, np.ones(0))
        elif op == "causal_attention":
            ad.causal_attention(x, x, x, 1)
        else:
            ad.swiglu_mlp(x, np.ones(0), *_projections(np.random.default_rng(0), 0, 4, 1))


def test_rms_norm_backward_works_in_two_buffers():
    rng = np.random.default_rng(7)
    x = Tensor(rng.standard_normal((128, 128)), requires_grad=True)
    gain = rng.uniform(0.5, 1.5, 128).astype(np.float32)  # frozen, as in the model
    g = rng.standard_normal((128, 128)).astype(np.float32)
    with Tape() as tape:
        ad.rms_norm(x, gain)
    _, bw = tape.nodes[-1]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        (grad_x,) = bw(g, (True,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # grad_x and one (T, d) temporary at a time; forming inv * gp - (inv ** 3)
    # * x * (s / dim) out of place held four such arrays at once
    assert peak - before < 3 * grad_x.nbytes


def _split_heads(m, n_heads):
    t, d = m.shape
    return m.reshape(t, n_heads, d // n_heads).transpose(1, 0, 2)


def _merge_heads(m):
    h, t, d_h = m.shape
    return m.transpose(1, 0, 2).reshape(t, h * d_h)


def _attention_keeping_probs(q, k, v, n_heads, g):
    """Output and dq, dk, dv of causal attention from probabilities kept in the forward."""
    t, d = q.shape
    c = np.float32(1.0 / np.sqrt(d // n_heads))
    qh, kh, vh = (_split_heads(m, n_heads) for m in (q * c, k, v))
    probs = kh @ qh.transpose(0, 2, 1)  # (head, key, query)
    probs += ad._causal_mask(t)
    probs -= np.max(probs, axis=1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= np.sum(probs, axis=1, keepdims=True)
    out = _merge_heads(probs.transpose(0, 2, 1) @ vh)
    gh = _split_heads(g, n_heads)
    gs = vh @ gh.transpose(0, 2, 1)
    gs *= probs
    gs -= probs * np.sum(gs, axis=1, keepdims=True)
    gq = _merge_heads(gs.transpose(0, 2, 1) @ kh)
    gq *= c
    return out, gq, _merge_heads(gs @ qh), _merge_heads(probs @ gh)


@pytest.mark.parametrize("t", [1, 7, 128])
def test_causal_attention_rebuilds_its_probabilities_bit_for_bit(t):
    rng = np.random.default_rng(t)
    q, k, v = (Tensor(rng.standard_normal((t, 128)), requires_grad=True) for _ in range(3))
    g = rng.standard_normal((t, 128)).astype(np.float32)
    with Tape() as tape:
        out = ad.causal_attention(q, k, v, 4)
        loss = weighted_sum(out, g)  # the output's gradient is g exactly
    grads = backward(loss, tape)
    want = _attention_keeping_probs(q.data, k.data, v.data, 4, g)
    for got, expected in zip((out.data, grads[q], grads[k], grads[v]), want):
        assert got.tobytes() == expected.tobytes()


def test_causal_attention_tape_keeps_no_probabilities():
    rng = np.random.default_rng(8)
    t, d, n_heads = 128, 128, 4
    q, k, v = (Tensor(rng.standard_normal((t, d)), requires_grad=True) for _ in range(3))
    ad._causal_mask(t)  # the cached mask is shared, not the node's
    with Tape():
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = ad.causal_attention(q, k, v, n_heads)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
    probs_bytes = n_heads * t * t * 4  # 256 KiB
    # beyond the output and the scaled q: each query's softmax max and sum
    # (4 KiB together) and a few Python objects, but no (heads, T, T) array
    assert kept - out.data.nbytes - q.data.nbytes < probs_bytes // 16


def test_causal_mask_is_cached_read_only():
    mask = ad._causal_mask(5)
    assert ad._causal_mask(5) is mask
    assert not mask.flags.writeable
    # -1e9 where the key (row) comes after the query (column)
    assert np.array_equal(mask != 0, np.tri(5, k=-1, dtype=bool))
    assert set(np.unique(mask)) == {np.float32(-1e9), np.float32(0.0)}


def test_causal_attention_rejects_zero_positions():
    # was a bare numpy ValueError from the row maximum of an empty score array
    q = Tensor(np.ones((0, 8)), requires_grad=True)
    with Tape(), pytest.raises(DimensionError, match="T >= 1"):
        ad.causal_attention(q, q, q, 2)


@pytest.mark.parametrize("n_heads", [2.0, True], ids=["float", "bool"])
def test_causal_attention_rejects_a_head_count_that_is_not_an_int(n_heads):
    # both were bare TypeErrors from numpy
    q = Tensor(np.ones((3, 8)))
    with pytest.raises(DimensionError, match="n_heads must be an int"):
        ad.causal_attention(q, q, q, n_heads)


@pytest.mark.parametrize("op", ["lora_linear", "frozen_linear"])
def test_linears_reject_a_base_that_is_not_float32(op):
    # a float64 base made a float64 dx
    x = Tensor(np.ones((2, 4)), requires_grad=True)
    w = np.ones((4, 3))
    with Tape(), pytest.raises(DimensionError, match="float64"):
        if op == "lora_linear":
            ad.lora_linear(x, Tensor(np.ones((2, 4)), requires_grad=True),
                           Tensor(np.zeros((3, 2)), requires_grad=True), 1.0, base=lambda: w)
        else:
            ad.frozen_linear(x, w)


@pytest.mark.parametrize("as_given", [lambda gain: gain, lambda gain: gain.tolist()],
                         ids=["float64", "list"])
def test_rms_norm_reads_any_gain_as_float32(as_given):
    # a float64 gain made a float64 gradient, and a list one an AttributeError
    rng = np.random.default_rng(9)
    x = Tensor(rng.standard_normal((3, 8)), requires_grad=True)
    gain = rng.uniform(0.5, 1.5, 8)
    w = rng.standard_normal((3, 8))

    def value_and_grad(gain):
        with Tape() as tape:
            out = ad.rms_norm(x, gain)
            loss = weighted_sum(out, w)
        return out.data, backward(loss, tape)[x]

    got = value_and_grad(as_given(gain))
    want = value_and_grad(gain.astype(np.float32))
    assert got[1].dtype == np.float32
    assert all(g.tobytes() == e.tobytes() for g, e in zip(got, want))
    # the model's gains are all ones, so only here is the value's gain checked
    np.testing.assert_allclose(got[0], _ref_rms_norm(x.data.astype(np.float64), gain), rtol=1e-5)


def _producer(name, rng, t):
    """Tracked input of ``rms_norm``, the one primitive whose output offers a rebuild, and the call on it."""
    assert name == "rms_norm"
    x = Tensor(rng.standard_normal((t, 32)), requires_grad=True)
    gain = rng.uniform(0.5, 1.5, 32).astype(np.float32)
    return (x,), lambda: ad.rms_norm(x, gain)


def _adapter(rng):
    """A (32 -> 24) base and a rank-4 adapter with a nonzero B."""
    w = rng.standard_normal((32, 24)).astype(np.float32)
    a = Tensor(rng.standard_normal((4, 32)), requires_grad=True)
    b = Tensor(rng.standard_normal((24, 4)), requires_grad=True)
    return w, a, b


@pytest.mark.parametrize("t", [1, 7, 128])
@pytest.mark.parametrize("producer", ["rms_norm"])
def test_lora_linear_gradients_from_a_rebuilt_input_are_unchanged(producer, t):
    rng = np.random.default_rng(t)
    inputs, produce = _producer(producer, rng, t)
    w, a, b = _adapter(rng)
    g = rng.standard_normal((t, 24))

    def grads(copy):
        with Tape() as tape:
            y = produce()
            assert y._rebuild is not None
            if copy:  # the same values, in an output that offers no rebuild
                y = ad.add(y, Tensor(np.zeros(y.shape)))
                assert y._rebuild is None
            out = ad.lora_linear(y, a, b, 0.5, base=lambda: w)
            loss = weighted_sum(out, g)
        return backward(loss, tape)

    got, want = grads(False), grads(True)
    for p in (*inputs, a, b):
        assert got[p].tobytes() == want[p].tobytes()


@pytest.mark.parametrize("producer, kept", [("rms_norm", False), ("add", True)])
def test_lora_linear_keeps_its_input_only_without_a_rebuild(producer, kept):
    rng = np.random.default_rng(10)
    w, a, b = _adapter(rng)
    if producer == "add":
        x = Tensor(rng.standard_normal((16, 32)), requires_grad=True)
        produce = lambda: ad.add(x, x)  # noqa: E731
    else:
        _, produce = _producer(producer, rng, 16)
    with Tape():
        y = produce()
        array = weakref.ref(y.data)
        ad.lora_linear(y, a, b, 0.5, base=lambda: w)
        del y
        assert (array() is not None) == kept


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
                fx = ad.swiglu_mlp(x, np.ones(6), *projections)
            y = ad.add(x, fx)
            loss = weighted_sum(y, 1.0)
        grads = backward(loss, tape)
        assert list(grads) == [x]
        np.testing.assert_array_equal(grads[x], np.ones((3, 6), dtype=np.float32))

    def test_paused_outputs_carry_no_rebuild(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        gain = np.ones(4, dtype=np.float32)
        with Tape():
            with paused():
                constant = ad.rms_norm(x, gain)
            tracked = ad.rms_norm(x, gain)
            # no projection reads the fused MLP's output for dA, so it offers none
            mlp = ad.swiglu_mlp(x, gain, *_projections(rng, 4, 6, 2))
        assert constant._rebuild is None and mlp._rebuild is None
        assert tracked._rebuild is not None


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
            out = ad.lora_linear(Tensor([[1.0]]), theta, theta, 1.0,
                                 base=lambda: np.zeros((1, 1), dtype=np.float32))
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
                loss = weighted_sum(ad.swiglu_mlp(x, np.ones(4), *projections), 1.0)
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
        with tape, pytest.raises(TapeError, match="swept"):
            ad.add(theta, theta)
        with Tape() as fresh:  # a new tape records the same parameter
            ad.add(theta, theta)
        assert len(fresh.nodes) == 2

    def test_node_count_is_kept_and_every_op_node_is_spent(self):
        theta = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            weighted_sum(ad.add(theta, theta), 5.0)  # on the tape, but not feeding the loss
            loss = weighted_sum(ad.add(theta, theta), 1.0)
        recorded = list(tape.nodes)
        assert [fn is None for _, fn in recorded] == [True, False, False, False, False]
        backward(loss, tape)
        # each node keeps its inputs; reached and unreached op nodes drop their
        # backward alike, so every node, like the leaf, now holds ``None``
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
    a1, b1 = (Tensor(rng.standard_normal(shape) * 0.5, requires_grad=True) for shape in ((2, 4), (6, 2)))
    gain = rng.uniform(0.5, 1.5, 6).astype(np.float32)
    projections = _projections(rng, 6, 8, 2)

    with Tape() as tape:
        hidden = ad.lora_linear(Tensor(x), a1, b1, 0.5, base=lambda: w1)
        logits = ad.swiglu_mlp(hidden, gain, *projections)
        loss = ad.cross_entropy_logits(logits, targets)
    grads = backward(loss, tape)

    def oracle(_):
        def linear(h, w, a, b):
            return h @ w.astype(np.float64) + 0.5 * (h @ a.data.T.astype(np.float64)) @ b.data.T
        h = linear(x.astype(np.float64), w1, a1, b1)
        n = h / np.sqrt(np.mean(h * h, axis=-1, keepdims=True) + 1e-5) * gain
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
            p.data[...] = (rng.standard_normal(p.shape) * 0.1).astype(np.float32)
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
