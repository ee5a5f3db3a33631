"""Finite-difference verification of the engine's analytic gradients.

Every check pits the float32 tape backward against central finite
differences of an independent float64 re-implementation written directly
in numpy, so the two routes share no code.
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
from .model import Model, ModelConfig, init_model

FD_EPS = 1e-3


def finite_difference_grad(f: Callable[[Tensor], float], theta: Tensor, eps: float) -> Tensor:
    """Central-difference gradient of a scalar function, one coordinate at a time.

    ``f`` must be deterministic given ``theta``.  The perturbation is applied
    to the float32 buffer in place and the achieved step (which may differ
    from ``2*eps`` by rounding) is used as the denominator.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    buf = theta.data.reshape(-1)
    grad = np.zeros(buf.shape, dtype=np.float64)
    for i in range(buf.size):
        orig = buf[i]
        plus = np.float32(orig + eps)
        minus = np.float32(orig - eps)
        buf[i] = plus
        f_plus = float(f(theta))
        buf[i] = minus
        f_minus = float(f(theta))
        buf[i] = orig
        grad[i] = (f_plus - f_minus) / (float(plus) - float(minus))
    return Tensor(grad.reshape(theta.shape))


def _rel_err(analytic: np.ndarray, reference: np.ndarray) -> float:
    """Max absolute difference normalized by the reference gradient scale."""
    scale = float(np.max(np.abs(reference)))
    return float(np.max(np.abs(analytic.astype(np.float64) - reference))) / (scale + 1e-12)


# ---------------------------------------------------------------------------
# float64 reference math (independent of the tape engine)


def _ref_softmax(x):
    e = np.exp(x - np.max(x, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)


def _ref_rms_norm(x, gain, eps=1e-5):
    return x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + eps) * gain


def _ref_silu(x):
    return x / (1.0 + np.exp(-x))


def _ref_lora_linear(x, w, a, b, s):
    return x @ w + s * ((x @ a.T) @ b.T)


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

    m, k, n = rng.integers(2, 8, size=3)
    a, b = t((m, k)), t((k, n))
    yield ad.matmul, [a, b], {}, lambda d: d[0] @ d[1]

    shape = tuple(rng.integers(2, 8, size=2))
    yield ad.add, [t(shape), t(shape)], {}, lambda d: d[0] + d[1]
    yield ad.mul, [t(shape), t(shape)], {}, lambda d: d[0] * d[1]

    factor = float(rng.uniform(0.5, 2.0))
    yield ad.scale, [t(shape)], {"factor": factor}, lambda d: d[0] * factor

    gain = rng.uniform(0.5, 1.5, size=6).astype(np.float32)  # frozen, as in the model
    yield ad.rms_norm, [t((4, 6))], {"gain": gain, "eps": 1e-5}, (
        lambda d: _ref_rms_norm(d[0], gain.astype(np.float64))
    )

    yield ad.swiglu, [t(shape, lo=-3.0, hi=3.0), t(shape)], {}, (
        lambda d: _ref_silu(d[0]) * d[1]
    )

    n, d_in, d_out, rank = rng.integers(1, 7, size=4)
    s = float(rng.uniform(0.5, 2.0))
    w = rng.uniform(-1.0, 1.0, size=(d_in, d_out)).astype(np.float32)
    yield ad.frozen_linear, [t((n, d_in))], {"base": lambda: w}, (
        lambda d: d[0] @ w.astype(np.float64)
    )
    for x_tracked in (True, False):  # a constant x is the first layer's input
        x = t((n, d_in), requires_grad=x_tracked)
        yield ad.lora_linear, [x, t((rank, d_in)), t((d_out, rank))], {"s": s, "base": lambda: w}, (
            lambda d: _ref_lora_linear(d[0], w.astype(np.float64), d[1], d[2], s)
        )

    seq, n_heads, head_dim = rng.integers(1, 6), rng.integers(1, 4), rng.integers(1, 4)
    qkv = [t((seq, n_heads * head_dim), lo=-2.0, hi=2.0) for _ in range(3)]
    yield ad.causal_attention, qkv, {"n_heads": n_heads}, (
        lambda d: _ref_causal_attention(*d, n_heads)
    )

    targets = rng.integers(0, 8, size=5)
    yield ad.cross_entropy_logits, [t((5, 8), lo=-2.0, hi=2.0)], {"targets": targets}, (
        lambda d: _ref_cross_entropy(d[0], targets)
    )

    yield ad.sum_all, [t(shape)], {}, lambda d: float(np.sum(d[0]))


def check_primitive(fn, inputs, kwargs, reference, rng: np.random.Generator) -> float:
    """Max relative error of analytic grads vs finite differences for one case.

    Every input with ``requires_grad`` is checked; the others are constants.
    """
    with Tape() as tape:
        out = fn(*inputs, **kwargs)
        if out.data.ndim == 0:
            w = float(rng.uniform(0.5, 1.5))
            loss = ad.scale(out, w)
            weights = np.float64(w)
        else:
            weights = rng.uniform(-1.0, 1.0, size=out.shape)
            loss = ad.sum_all(ad.mul(out, Tensor(weights.astype(np.float32))))
            weights = weights.astype(np.float32).astype(np.float64)
    grads = backward(loss, tape)

    def f(_):
        data = [t.data.astype(np.float64) for t in inputs]
        return float(np.sum(reference(data) * weights))

    worst = 0.0
    for t in inputs:
        if not t.requires_grad:
            continue
        fd = finite_difference_grad(f, t, FD_EPS)
        worst = max(worst, _rel_err(grads[t], fd.data.astype(np.float64)))
    return worst


def check_all_primitives(n_seeds: int = 20, base_seed: int = 0) -> dict:
    """Per-primitive worst relative error across ``n_seeds`` randomized cases.

    Keyed by the primitive's function name in :mod:`lcsb.autodiff`.
    """
    worst: dict[str, float] = {}
    for s in range(n_seeds):
        rng = np.random.default_rng(base_seed + s)
        for fn, inputs, kwargs, reference in _primitive_cases(rng):
            err = check_primitive(fn, inputs, kwargs, reference, rng)
            worst[fn.__name__] = max(worst.get(fn.__name__, 0.0), err)
    return worst


# ---------------------------------------------------------------------------
# whole-model check


def reference_model_loss(model: Model, tokens: np.ndarray, targets: np.ndarray) -> float:
    """Float64 forward + cross entropy reading the model's live buffers.

    A 4-bit base is decompressed here from its codes and scales, in float64.
    The LoRA scale is taken from the config, ``lora_alpha / lora_rank``.
    """
    cfg = model.config
    s = cfg.lora_alpha / cfg.lora_rank

    def linear(x, lin):
        w = lin.w_t.astype(np.float64) if lin.quant is None else _ref_dequantize(lin.quant)
        if lin.lora is None:
            return x @ w
        a, b = (m.data.astype(np.float64) for m in (lin.lora.a, lin.lora.b))
        return _ref_lora_linear(x, w, a, b, s)

    h = model.embed.astype(np.float64)[tokens] + model.pos.astype(np.float64)[:len(tokens)]
    for block in model.blocks:
        x = _ref_rms_norm(h, block.norm_attn.astype(np.float64))
        q, k, v = (linear(x, block.linears[site]) for site in ("q", "k", "v"))
        a = h + linear(_ref_causal_attention(q, k, v, cfg.n_heads), block.linears["o"])
        x = _ref_rms_norm(a, block.norm_mlp.astype(np.float64))
        mlp = linear(
            _ref_silu(linear(x, block.linears["gate"])) * linear(x, block.linears["up"]),
            block.linears["down"],
        )
        h = a + mlp
    logits = _ref_rms_norm(h, model.norm_out.astype(np.float64)) @ model.embed.astype(np.float64).T
    return _ref_cross_entropy(logits, targets)


def micro_config() -> ModelConfig:
    return ModelConfig(
        n_layers=2, d_model=16, n_heads=2, d_ff=32, vocab_size=32,
        seq_len=8, lora_rank=4, lora_alpha=8.0,
    )


def check_model_gradients(seed: int, config: ModelConfig | None = None) -> float:
    """Backward LoRA grads on a micro model vs finite differences (float64 oracle).

    LoRA matrices are randomized first; at the zero init of B, the A
    matrices receive mathematically zero gradient and the check would be
    vacuous.
    """
    cfg = config or micro_config()
    model = init_model(cfg, seed)
    rng = np.random.default_rng(seed + 1)
    for tensor in model.trainable_params().values():
        tensor.data[...] = (rng.standard_normal(tensor.shape) * 0.1).astype(np.float32)
    tokens = rng.integers(0, cfg.vocab_size, size=cfg.seq_len)
    targets = rng.integers(0, cfg.vocab_size, size=cfg.seq_len)

    with Tape() as tape:
        loss = ad.cross_entropy_logits(model.forward(tokens), targets)
    grads = backward(loss, tape)

    def f(_):
        return reference_model_loss(model, tokens, targets)

    worst = 0.0
    for tensor in model.trainable_params().values():
        fd = finite_difference_grad(f, tensor, FD_EPS)
        worst = max(worst, _rel_err(grads[tensor], fd.data.astype(np.float64)))
    return worst


def micro_q4_config() -> ModelConfig:
    return replace(micro_config(), quantize_base=True, quant_group_size=8)


def run_suite(primitive_seeds: int = 20, model_seeds: int = 10, tol: float = 1e-3) -> dict:
    """Full finite-difference suite; returns per-check errors and pass flags.

    The model checks run on the float and the 4-bit micro configs.
    """
    report = {"tol": tol, "primitives": check_all_primitives(primitive_seeds), "model": {}}
    for s in range(model_seeds):
        report["model"][f"seed_{s}"] = check_model_gradients(s)
        report["model"][f"q4_seed_{s}"] = check_model_gradients(s, micro_q4_config())
    errs = list(report["primitives"].values()) + list(report["model"].values())
    report["max_err"] = max(errs)
    report["passed"] = report["max_err"] < tol
    return report


if __name__ == "__main__":
    # python -m lcsb.gradcheck: one JSON line, exit status 1 when a check fails
    suite = run_suite()
    print(json.dumps(suite))
    sys.exit(0 if suite["passed"] else 1)
