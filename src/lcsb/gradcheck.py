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
from .quant import quantize_weights

FD_EPS = 1e-3  # the central difference's half step
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


def _ref_rms_norm(x, gain):
    return x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + 1e-5) * gain


def _ref_silu(x):
    return x / (1.0 + np.exp(-x))


def _ref_lora_linear(x, w, a, b, s):
    return x @ w + s * ((x @ a.T) @ b.T)


def _ref_swiglu_mlp(x, gain, gate, up, down):
    """The pre-norm SwiGLU MLP; each projection is ``_ref_lora_linear``'s (w, a, b, s)."""
    n = _ref_rms_norm(x, gain)
    return _ref_lora_linear(_ref_silu(_ref_lora_linear(n, *gate)) * _ref_lora_linear(n, *up), *down)


def _ref_dequantize(q):
    """The (d_in, d_out) matrix of 4-bit codes times their group scales, in float64.

    Decodes the packed bytes by arithmetic: byte i holds code i as its low
    nibble (``% 16``) and code i + ceil(n / 2) as its high nibble (``// 16``);
    a nibble of 8 or more stands for that value minus 16.
    """
    groups, d_out = q.scales.shape
    d_in = groups * q.group_size
    data = q.packed.astype(np.float64)
    nibbles = np.concatenate([data % 16, data // 16])[:d_in * d_out]
    codes = np.where(nibbles >= 8, nibbles - 16, nibbles).reshape(groups, q.group_size, d_out)
    return (codes * q.scales.astype(np.float64)[:, None, :]).reshape(d_in, d_out)


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

    gain = rng.uniform(0.5, 1.5, size=6).astype(np.float32)  # frozen, as in the model
    yield ad.rms_norm, [t((4, 6))], {"gain": gain}, (
        lambda d: _ref_rms_norm(d[0], gain.astype(np.float64))
    )

    n, d_in, d_out, rank = rng.integers(1, 7, size=4)
    s = float(rng.uniform(0.5, 2.0))
    w = rng.uniform(-1.0, 1.0, size=(d_in, d_out)).astype(np.float32)
    yield ad.frozen_linear, [t((n, d_in))], {"w": w}, (
        lambda d: d[0] @ w.astype(np.float64)
    )
    for x_tracked in (True, False):  # a constant x is the first layer's input
        x = t((n, d_in), requires_grad=x_tracked)
        yield ad.lora_linear, [x, t((rank, d_in)), t((d_out, rank))], {"s": s, "base": lambda: w}, (
            lambda d: _ref_lora_linear(d[0], w.astype(np.float64), d[1], d[2], s)
        )

    for quantize in (False, True):
        yield _swiglu_mlp_case(rng, t, quantize)

    seq, n_heads, head_dim = rng.integers(1, 6), rng.integers(1, 4), rng.integers(1, 4)
    qkv = [t((seq, n_heads * head_dim), lo=-2.0, hi=2.0) for _ in range(3)]
    yield ad.causal_attention, qkv, {"n_heads": n_heads}, (
        lambda d: _ref_causal_attention(*d, n_heads)
    )

    targets = rng.integers(0, 8, size=5)
    yield ad.cross_entropy_logits, [t((5, 8), lo=-2.0, hi=2.0)], {"targets": targets}, (
        lambda d: _ref_cross_entropy(d[0], targets)
    )


def _swiglu_mlp_case(rng: np.random.Generator, t: Callable, quantize: bool) -> tuple:
    """A :func:`~lcsb.autodiff.swiglu_mlp` case with a random gain and nonzero adapters.

    Its inputs are x and the six LoRA matrices; the bases are float, or 4-bit
    in groups of 2, which the reference decompresses with
    :func:`_ref_dequantize`.
    """
    n, rank = rng.integers(1, 6), rng.integers(1, 4)
    d, d_ff = 2 * rng.integers(1, 4), 2 * rng.integers(1, 5)
    gain = rng.uniform(0.5, 1.5, size=d).astype(np.float32)
    scales = rng.uniform(0.5, 2.0, size=3)
    bases = [rng.uniform(-1.0, 1.0, size=shape).astype(np.float32)
             for shape in ((d, d_ff), (d, d_ff), (d_ff, d))]
    if quantize:
        bases = [quantize_weights(w, 2) for w in bases]
    ref_bases = [_ref_dequantize(w) if quantize else w.astype(np.float64) for w in bases]
    inputs = [t((n, d))] + [t(shape) for d_in, d_out in ((d, d_ff), (d, d_ff), (d_ff, d))
                            for shape in ((rank, d_in), (d_out, rank))]

    def swiglu_mlp(x, *adapters):
        gate, up, down = (Linear(w, a, b, float(s)) for w, a, b, s
                          in zip(bases, adapters[0::2], adapters[1::2], scales))
        return ad.swiglu_mlp(x, gain, gate, up, down)

    def reference(v):
        return _ref_swiglu_mlp(v[0], gain.astype(np.float64),
                               *zip(ref_bases, v[1::2], v[2::2], scales))

    return swiglu_mlp, inputs, {}, reference


def check_primitive(fn, inputs, kwargs, reference, rng: np.random.Generator) -> tuple:
    """Relative errors ``(value, gradient)`` of one case against the float64 ``reference``.

    The primitive is recorded alone and its node's backward called with a
    random float32 cotangent ``w`` (in [0.5, 1.5] for a 0-d output); its
    gradient of each ``requires_grad`` input is compared with finite
    differences of ``sum(reference * w)``.  The other inputs are constants.
    """
    with Tape() as tape:
        out = fn(*inputs, **kwargs)
    _, node_backward = tape.nodes[-1]
    w = rng.uniform(0.5, 1.5) if out.data.ndim == 0 else rng.uniform(-1.0, 1.0, size=out.shape)
    w = np.asarray(w, dtype=np.float32)
    needs = tuple(t.requires_grad for t in inputs)
    grads = node_backward(w, needs)

    def ref_value():
        return np.asarray(reference([t.data.astype(np.float64) for t in inputs]))

    def f(_):
        return float(np.sum(ref_value() * w.astype(np.float64)))

    value_err = _rel_err(out.data, ref_value())
    grad_err = 0.0
    for t, grad, tracked in zip(inputs, grads, needs):
        if tracked:
            grad_err = max(grad_err, _rel_err(grad, finite_difference_grad(f, t)))
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

    A 4-bit base is decompressed here from its codes and scales, in float64.
    The LoRA scale is taken from the config, ``lora_alpha / lora_rank``.
    """
    cfg = model.config
    s = cfg.lora_alpha / cfg.lora_rank

    def operands(lin):
        w = lin.weight if isinstance(lin.weight, np.ndarray) else _ref_dequantize(lin.weight)
        return (w.astype(np.float64), *(m.data.astype(np.float64) for m in (lin.a, lin.b)), s)

    def linear(x, lin):
        return _ref_lora_linear(x, *operands(lin))

    h = model.embed.astype(np.float64)[tokens] + model.pos.astype(np.float64)[:len(tokens)]
    for block in model.blocks:
        x = _ref_rms_norm(h, block.norm_attn.astype(np.float64))
        q, k, v = (linear(x, block.linears[site]) for site in ("q", "k", "v"))
        a = h + linear(_ref_causal_attention(q, k, v, cfg.n_heads), block.linears["o"])
        h = a + _ref_swiglu_mlp(a, block.norm_mlp.astype(np.float64),
                                *(operands(block.linears[site]) for site in ("gate", "up", "down")))
    logits = _ref_rms_norm(h, model.norm_out.astype(np.float64)) @ model.embed.astype(np.float64).T
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
        tensor.data[...] = (rng.standard_normal(tensor.shape) * 0.1).astype(np.float32)
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
