"""Verification of the engine's forward values and analytic gradients.

Every check pits the float32 engine against an independent float64
re-implementation written directly in numpy, so the two routes share no
code: the forward value against the reference's value, and the tape
backward against central finite differences of the reference.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor, backward
from .model import Linear, Model, ModelConfig, init_model
from .quant import dequantize, quantize_weights

# The central difference's half step.  The reference is float64, so its
# rounding stays far below a step this small, and the truncation error,
# which grows as a norm's row shrinks, stays small too: at 1e-3 a correct
# swiglu_mlp gradient on the row (0.0895, -0.0626) reads an error of 2.8e-3.
FD_EPS = 3e-5
GRAD_TOL = 1e-3  # an analytic gradient against finite differences of its reference
VALUE_TOL = 1e-5  # a float32 forward against its float64 reference


def finite_difference_grad(f: Callable[[Tensor], float], theta: Tensor) -> np.ndarray:
    """Central-difference gradient of a scalar function, one coordinate at a time.

    ``f`` must be deterministic given ``theta``.  The perturbation of
    :data:`FD_EPS` is applied to the float32 buffer in place and the achieved
    step (which may differ from ``2 * FD_EPS`` by rounding) is used as the
    denominator.  The estimate is returned in float64, of ``theta``'s shape.
    """
    buf = theta.data.reshape(-1)
    grad = np.zeros(buf.shape, dtype=np.float64)
    for i in range(buf.size):
        orig = buf[i]
        plus = np.float32(orig + FD_EPS)
        minus = np.float32(orig - FD_EPS)
        buf[i] = plus
        f_plus = float(f(theta))
        buf[i] = minus
        f_minus = float(f(theta))
        buf[i] = orig
        grad[i] = (f_plus - f_minus) / (float(plus) - float(minus))
    return grad.reshape(theta.shape)


def _rel_err(analytic: np.ndarray, reference: np.ndarray) -> float:
    """Max absolute difference normalized by the reference's largest magnitude."""
    scale = float(np.max(np.abs(reference)))
    return float(np.max(np.abs(analytic.astype(np.float64) - reference))) / (scale + 1e-12)


# ---------------------------------------------------------------------------
# float64 reference math (independent of the tape engine)


def _ref_softmax(x):
    e = np.exp(x - np.max(x, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)


def _ref_rms_norm(x):
    return x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + 1e-5)


def _ref_silu(x):
    return x / (1.0 + np.exp(-x))


def _ref_lora_linear(x, w, a, b, s):
    return x @ w + s * ((x @ a) @ b)


def _ref_swiglu_mlp(x, gate, up, down):
    """The pre-norm SwiGLU MLP; each projection is ``_ref_lora_linear``'s (w, a, b, s)."""
    n = _ref_rms_norm(x)
    return _ref_lora_linear(_ref_silu(_ref_lora_linear(n, *gate)) * _ref_lora_linear(n, *up), *down)


def _ref_self_attention(x, q, k, v, o, n_heads):
    """Pre-norm causal attention; each projection is ``_ref_lora_linear``'s (w, a, b, s)."""
    n = _ref_rms_norm(x)
    heads = _ref_causal_attention(*(_ref_lora_linear(n, *p) for p in (q, k, v)), n_heads)
    return _ref_lora_linear(heads, *o)


def _ref_dequantize(q):
    """The (d_in, d_out) matrix of 4-bit codes times their group scales, in float64.

    Decodes the packed bytes by arithmetic: byte i holds code i as its low
    nibble (``% 16``) and code i + ceil(n / 2) as its high nibble (``// 16``);
    a nibble of 8 or more stands for that value minus 16.  A group's scale
    is its 8-bit mantissa times two to the matrix's exponent, ``m * 2**e``.
    """
    groups, d_out = q.scales.shape
    d_in = groups * q.group_size
    data = q.packed.astype(np.float64)
    nibbles = np.concatenate([data % 16, data // 16])[:d_in * d_out]
    codes = np.where(nibbles >= 8, nibbles - 16, nibbles).reshape(groups, q.group_size, d_out)
    scales = q.scales.astype(np.float64) * 2.0 ** int(q.exponent)
    return (codes * scales[:, None, :]).reshape(d_in, d_out)


def _ref_causal_attention(q, k, v, n_heads):
    """Per-head loop; a position attends to itself and to earlier positions only."""
    t, d = q.shape
    head_dim = d // n_heads
    allowed = np.tril(np.ones((t, t), dtype=bool))
    heads = []
    for hh in range(n_heads):
        cols = slice(hh * head_dim, (hh + 1) * head_dim)
        scores = np.where(allowed, q[:, cols] @ k[:, cols].T / math.sqrt(head_dim), -np.inf)
        heads.append(_ref_softmax(scores) @ v[:, cols])
    return np.concatenate(heads, axis=-1)


def _ref_cross_entropy(z, targets):
    m = np.max(z, axis=-1, keepdims=True)
    lse = m[:, 0] + np.log(np.sum(np.exp(z - m), axis=-1))
    return float(np.mean(lse - z[np.arange(z.shape[0]), targets]))


def _primitive_cases(rng: np.random.Generator):
    """Yield (fn, inputs, kwargs, reference) tuples on random small shapes.

    ``fn(*inputs, **kwargs)`` is the primitive under test; ``reference``
    maps the float64 input arrays to its value.
    """
    def t(shape, lo=-1.0, hi=1.0, requires_grad=True):
        data = rng.uniform(lo, hi, size=shape).astype(np.float32)
        return Tensor(data, requires_grad=requires_grad)

    shape = tuple(rng.integers(2, 8, size=2))
    yield ad.add, [t(shape), t(shape)], {}, lambda d: d[0] + d[1]

    # rows of width 2 or more: one of width 1 normalizes to +-1, so its
    # gradient, about 1e-5 / x ** 3, is float32 rounding alone
    n, d_in, d_out = rng.integers((1, 2, 1), 7)
    w = rng.uniform(-1.0, 1.0, size=(d_in, d_out)).astype(np.float32)
    yield ad.norm_head, [t((n, d_in))], {"head": lambda: w}, (
        lambda d: _ref_rms_norm(d[0]) @ w.astype(np.float64)
    )

    for quantize in (False, True):
        yield _fused_case(rng, t, ad.swiglu_mlp, quantize)
        for x_tracked in (True, False):  # a constant x is the lowest attached layer's input
            yield _fused_case(rng, t, ad.self_attention, quantize, x_tracked)

    targets = rng.integers(0, 8, size=5)
    yield ad.cross_entropy_logits, [t((5, 8), lo=-2.0, hi=2.0)], {"targets": targets}, (
        lambda d: _ref_cross_entropy(d[0], targets)
    )

    # the MLP on each of its paths, forced by shape, and the head on a 4-bit
    # weight, decompressed on each fetch as the model's embedding is; drawn
    # last, so that the cases above keep their draws
    for quantize in (False, True):
        for keep in (True, False):
            yield _fused_case(rng, t, ad.swiglu_mlp, quantize, keep=keep)

    n, d_in, d_out = rng.integers(1, 7), 2 * rng.integers(1, 4), rng.integers(1, 7)
    q = quantize_weights(rng.uniform(-1.0, 1.0, size=(d_in, d_out)).astype(np.float32), 2)
    ref_w = _ref_dequantize(q)
    yield ad.norm_head, [t((n, d_in))], {"head": lambda: dequantize(q)}, (
        lambda d: _ref_rms_norm(d[0]) @ ref_w
    )


def _fused_case(rng: np.random.Generator, t: Callable, fused: Callable, quantize: bool,
                x_tracked: bool = True, keep: bool | None = None) -> tuple:
    """A case of the fused node ``fused``, with nonzero adapters.

    Its inputs are x, tracked or a constant, and the LoRA matrices of the
    node's projections: gate and up from width d to an even width and down
    back, or q, k and v from d to ``n_heads`` heads and o back.  The bases
    are float, or 4-bit in groups of 2, which the reference decompresses
    with :func:`_ref_dequantize`.  A ``keep`` of True or False forces the
    MLP's path by its shape: one row always keeps gate and up, and five
    rows of width 8 at rank 1 never do, since gate, up and their products
    take 90 floats against the 8d + 24 of the gradients returned, d <= 6.
    """
    n, rank = rng.integers(1, 6), rng.integers(1, 4)
    if fused is ad.self_attention:
        n_heads = rng.integers(1, 4)
        d, width = 2 * rng.integers(1, 4), 2 * n_heads * rng.integers(1, 3)
        dims, ref, heads = ((d, width),) * 3 + ((width, d),), _ref_self_attention, (n_heads,)
    else:
        d, width = 2 * rng.integers(1, 4), 2 * rng.integers(1, 5)
        if keep:
            n = 1
        elif keep is not None:
            n, width, rank = 5, 8, 1
        dims, ref, heads = ((d, width), (d, width), (width, d)), _ref_swiglu_mlp, ()
    scales = rng.uniform(0.5, 2.0, size=len(dims))
    bases = [rng.uniform(-1.0, 1.0, size=shape).astype(np.float32) for shape in dims]
    if quantize:
        bases = [quantize_weights(w, 2) for w in bases]
    ref_bases = [_ref_dequantize(w) if quantize else w.astype(np.float64) for w in bases]
    inputs = [t((n, d), requires_grad=x_tracked)] + [  # adapters drawn as a checkpoint keeps them
        Tensor(t(shape).data.T, requires_grad=True)
        for d_in, d_out in dims for shape in ((rank, d_in), (d_out, rank))]

    def node(x, *adapters):
        projections = (Linear(w, a, b, float(s)) for w, a, b, s
                       in zip(bases, adapters[0::2], adapters[1::2], scales))
        return fused(x, *projections, *heads)

    def reference(v):
        return ref(v[0], *zip(ref_bases, v[1::2], v[2::2], scales), *heads)

    node.__name__ = fused.__name__
    return node, inputs, {}, reference


def _gradient_pairs(fn, inputs, kwargs, reference, rng: np.random.Generator) -> tuple:
    """``(value error, pairs)`` of one case against the float64 ``reference``.

    The primitive is recorded alone and its node's backward called with a
    random float32 cotangent ``w`` (in [0.5, 1.5] for a 0-d output).
    ``pairs`` maps the index of each input the node tracks (a handle that
    is not ``None``, as :func:`~lcsb.autodiff.backward` reads it) to its
    analytic gradient and the finite differences of ``sum(reference * w)``
    in it.  The other inputs are constants.
    """
    with Tape() as tape:
        out = fn(*inputs, **kwargs)
    handles, node_backward = tape.nodes[-1]
    w = rng.uniform(0.5, 1.5) if out.data.ndim == 0 else rng.uniform(-1.0, 1.0, size=out.shape)
    w = np.asarray(w, dtype=np.float32)
    needs = tuple(h is not None for h in handles)
    grads = node_backward(w, needs)

    def ref_value():
        return np.asarray(reference([t.data.astype(np.float64) for t in inputs]))

    def f(_):
        return float(np.sum(ref_value() * w.astype(np.float64)))

    pairs = {i: (grads[i], finite_difference_grad(f, inputs[i]))
             for i in range(len(inputs)) if needs[i]}
    return _rel_err(out.data, ref_value()), pairs


def check_primitive(fn, inputs, kwargs, reference, rng: np.random.Generator) -> tuple:
    """Relative errors ``(value, gradient)`` of one case, from :func:`_gradient_pairs`.

    The first input, a node's ``x``, is judged alone, and the rest, a fused
    node's adapters, as one unit: their largest error over the largest
    reference gradient among them.  Judged one by one, a correct adapter
    gradient that is tiny beside its node's others reads errors up to 1.5
    from float32 rounding alone, at seeds the suite does not run.
    """
    value_err, pairs = _gradient_pairs(fn, inputs, kwargs, reference, rng)
    grad_err = 0.0
    for group in (range(1), range(1, len(inputs))):
        tracked = [i for i in group if i in pairs]
        if tracked:
            analytic, fd = (np.concatenate([pairs[i][j].ravel() for i in tracked]) for j in (0, 1))
            grad_err = max(grad_err, _rel_err(analytic, fd))
    return value_err, grad_err


def check_all_primitives(n_seeds: int = 20) -> tuple:
    """Per-primitive worst relative errors ``(values, gradients)`` over seeds 0 .. ``n_seeds - 1``.

    Each is a dict keyed by the primitive's function name in
    :mod:`lcsb.autodiff`.
    """
    values: dict[str, float] = {}
    gradients: dict[str, float] = {}
    for s in range(n_seeds):
        rng = np.random.default_rng(s)
        for fn, inputs, kwargs, reference in _primitive_cases(rng):
            value_err, grad_err = check_primitive(fn, inputs, kwargs, reference, rng)
            name = fn.__name__
            values[name] = max(values.get(name, 0.0), value_err)
            gradients[name] = max(gradients.get(name, 0.0), grad_err)
    return values, gradients


# ---------------------------------------------------------------------------
# whole-model check


def reference_model_loss(model: Model, tokens: np.ndarray, targets: np.ndarray) -> float:
    """Float64 forward + cross entropy reading the model's live buffers.

    A 4-bit matrix (a base, the embedding or the positions) is decompressed
    here from its codes and scales, in float64.  The LoRA scale is taken
    from the config, ``lora_alpha / lora_rank``.
    """
    cfg = model.config
    s = cfg.lora_alpha / cfg.lora_rank

    def frozen(w):
        return (w if isinstance(w, np.ndarray) else _ref_dequantize(w)).astype(np.float64)

    def operands(lin):
        return (frozen(lin.weight), *(m.data.astype(np.float64) for m in (lin.a, lin.b)), s)

    embed = frozen(model.embed)  # (d_model, vocab_size), as the head reads it
    h = (embed[:, tokens] + frozen(model.pos)[:, :len(tokens)]).T
    for block in model.blocks:
        a = h + _ref_self_attention(h, *(operands(block[site]) for site in ("q", "k", "v", "o")),
                                    cfg.n_heads)
        h = a + _ref_swiglu_mlp(a, *(operands(block[site]) for site in ("gate", "up", "down")))
    logits = _ref_rms_norm(h) @ embed
    return _ref_cross_entropy(logits, targets)


def micro_config() -> ModelConfig:
    return ModelConfig(
        n_layers=2, d_model=16, n_heads=2, d_ff=32, vocab_size=32,
        seq_len=8, lora_rank=4, lora_alpha=8.0,
    )


def _micro_case(seed: int, config: ModelConfig | None) -> tuple:
    """``(model, tokens, targets)`` with random LoRA matrices; B's zero init gives A no gradient."""
    cfg = config or micro_config()
    model = init_model(cfg, seed)
    rng = np.random.default_rng(seed + 1)
    for tensor in model.trainable_params().values():
        tensor.data.T[...] = (rng.standard_normal(tensor.shape[::-1]) * 0.1).astype(np.float32)
    tokens = rng.integers(0, cfg.vocab_size, size=cfg.seq_len)
    targets = rng.integers(0, cfg.vocab_size, size=cfg.seq_len)
    return model, tokens, targets


def check_model_loss(seed: int, config: ModelConfig | None = None) -> float:
    """Relative error of a micro model's float32 loss against :func:`reference_model_loss`."""
    model, tokens, targets = _micro_case(seed, config)
    loss = ad.cross_entropy_logits(model.forward(tokens), targets)
    return _rel_err(loss.data, np.asarray(reference_model_loss(model, tokens, targets)))


def check_model_gradients(seed: int, config: ModelConfig | None = None) -> float:
    """Backward LoRA grads on a micro model vs finite differences (float64 oracle)."""
    model, tokens, targets = _micro_case(seed, config)
    with Tape() as tape:
        loss = ad.cross_entropy_logits(model.forward(tokens), targets)
    grads = backward(loss, tape)

    def f(_):
        return reference_model_loss(model, tokens, targets)

    worst = 0.0
    for tensor in model.trainable_params().values():
        worst = max(worst, _rel_err(grads[tensor], finite_difference_grad(f, tensor)))
    return worst


def micro_q4_config() -> ModelConfig:
    return replace(micro_config(), quantize_base=True, quant_group_size=8)


def run_suite(primitive_seeds: int = 20, model_seeds: int = 10) -> dict:
    """Full suite on the float and 4-bit micro configs; returns per-check errors and the pass flag.

    ``primitives`` and ``model`` hold gradient errors, gated at :data:`GRAD_TOL`, and
    ``primitive_values`` and ``model_values`` value errors, gated at :data:`VALUE_TOL`.
    """
    values, gradients = check_all_primitives(primitive_seeds)
    report = {"tol": GRAD_TOL, "value_tol": VALUE_TOL, "primitives": gradients,
              "primitive_values": values, "model": {}, "model_values": {}}
    for s in range(model_seeds):
        for name, config in ((f"seed_{s}", micro_config()), (f"q4_seed_{s}", micro_q4_config())):
            report["model"][name] = check_model_gradients(s, config)
            report["model_values"][name] = check_model_loss(s, config)
    report["max_err"] = max([*gradients.values(), *report["model"].values()])
    report["max_value_err"] = max([*values.values(), *report["model_values"].values()])
    report["passed"] = report["max_err"] < GRAD_TOL and report["max_value_err"] < VALUE_TOL
    return report


if __name__ == "__main__":
    # python -m lcsb.gradcheck: one JSON line, exit status 1 when a check fails
    suite = run_suite()
    print(json.dumps(suite))
    sys.exit(0 if suite["passed"] else 1)
