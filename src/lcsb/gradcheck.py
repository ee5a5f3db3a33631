"""Finite-difference verification of the engine's analytic gradients.

Every check pits the float32 tape backward against central finite
differences of an independent float64 re-implementation written directly
in numpy, so the two routes share no code.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor, backward, finite_difference_grad
from .model import Model, ModelConfig, init_model

FD_EPS = 1e-3


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


def _ref_lora_linear(x, w_t, a, b, s):
    return x @ w_t + s * ((x @ a.T) @ b.T)


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
    """Yield (kind, inputs, attrs, reference) tuples on random small shapes."""
    def t(shape, lo=-1.0, hi=1.0, requires_grad=True):
        data = rng.uniform(lo, hi, size=shape).astype(np.float32)
        return Tensor(data, requires_grad=requires_grad)

    m, k, n = rng.integers(2, 8, size=3)
    a, b = t((m, k)), t((k, n))
    yield "matmul", [a, b], {}, lambda d: d[0] @ d[1]

    shape = tuple(rng.integers(2, 8, size=2))
    yield "add", [t(shape), t(shape)], {}, lambda d: d[0] + d[1]
    yield "mul", [t(shape), t(shape)], {}, lambda d: d[0] * d[1]

    factor = float(rng.uniform(0.5, 2.0))
    yield "scale", [t(shape)], {"factor": factor}, lambda d: d[0] * factor

    ids = rng.integers(0, 6, size=7)  # repeats exercise accumulation
    yield "embedding_lookup", [t((6, 5))], {"ids": ids}, lambda d: d[0][ids]

    x = t((4, 6))
    gain = t((6,), lo=0.5, hi=1.5)
    yield "rms_norm", [x, gain], {"eps": 1e-5}, lambda d: _ref_rms_norm(d[0], d[1])

    yield "softmax", [t((5, 7))], {}, lambda d: _ref_softmax(d[0])
    yield "silu", [t(shape, lo=-3.0, hi=3.0)], {}, lambda d: _ref_silu(d[0])

    yield "reshape", [t((4, 6))], {"shape": (3, 8)}, lambda d: d[0].reshape(3, 8)

    n, d_in, d_out, rank = rng.integers(1, 7, size=4)
    s = float(rng.uniform(0.5, 2.0))
    for x_tracked in (True, False):  # a constant x is the first layer's input
        x = t((n, d_in), requires_grad=x_tracked)
        yield "lora_linear", [x, t((d_in, d_out)), t((rank, d_in)), t((d_out, rank))], {"s": s}, (
            lambda d: _ref_lora_linear(*d, s)
        )

    seq, n_heads, head_dim = rng.integers(1, 6), rng.integers(1, 4), rng.integers(1, 4)
    qkv = [t((seq, n_heads * head_dim), lo=-2.0, hi=2.0) for _ in range(3)]
    mask = np.triu(np.full((seq, seq), -1e9, dtype=np.float32), k=1)
    yield "causal_attention", qkv, {"n_heads": n_heads, "mask": mask}, (
        lambda d: _ref_causal_attention(*d, n_heads)
    )

    targets = rng.integers(0, 8, size=5)
    yield "cross_entropy_logits", [t((5, 8), lo=-2.0, hi=2.0)], {"targets": targets}, (
        lambda d: _ref_cross_entropy(d[0], targets)
    )

    yield "sum", [t(shape)], {}, lambda d: float(np.sum(d[0]))
    yield "mean", [t(shape)], {}, lambda d: float(np.mean(d[0]))


def check_primitive(kind, inputs, attrs, reference, rng: np.random.Generator) -> float:
    """Max relative error of analytic grads vs finite differences for one case.

    Every input with ``requires_grad`` is checked; the others are constants.
    """
    with Tape() as tape:
        out = ad.primitive_forward(kind, inputs, attrs)
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
    """Per-kind worst relative error across ``n_seeds`` randomized cases."""
    worst: dict[str, float] = {}
    for s in range(n_seeds):
        rng = np.random.default_rng(base_seed + s)
        for kind, inputs, attrs, reference in _primitive_cases(rng):
            err = check_primitive(kind, inputs, attrs, reference, rng)
            worst[kind] = max(worst.get(kind, 0.0), err)
    return worst


# ---------------------------------------------------------------------------
# whole-model check


def reference_model_loss(model: Model, tokens: np.ndarray, targets: np.ndarray) -> float:
    """Float64 forward + cross entropy reading the model's live buffers."""
    cfg = model.config
    head_dim = cfg.d_model // cfg.n_heads
    t = len(tokens)

    def linear(x, lin):
        y = x @ lin.w_t.data.astype(np.float64)
        if lin.lora is not None:
            la = lin.lora
            y = y + (la.alpha / la.rank) * (
                (x @ la.a.data.astype(np.float64).T) @ la.b.data.astype(np.float64).T
            )
        return y

    mask = np.triu(np.full((t, t), float(np.float32(-1e9))), k=1)
    h = model.embed.data.astype(np.float64)[tokens] + model.pos.data.astype(np.float64)[:t]
    for block in model.blocks:
        x = _ref_rms_norm(h, block.norm_attn.data.astype(np.float64))
        q, k, v = (linear(x, block.linears[s]) for s in ("q", "k", "v"))
        heads = []
        for hh in range(cfg.n_heads):
            cols = slice(hh * head_dim, (hh + 1) * head_dim)
            scores = q[:, cols] @ k[:, cols].T / math.sqrt(head_dim) + mask
            heads.append(_ref_softmax(scores) @ v[:, cols])
        a = h + linear(np.concatenate(heads, axis=-1), block.linears["o"])
        x = _ref_rms_norm(a, block.norm_mlp.data.astype(np.float64))
        mlp = linear(
            _ref_silu(linear(x, block.linears["gate"])) * linear(x, block.linears["up"]),
            block.linears["down"],
        )
        h = a + mlp
    logits = _ref_rms_norm(h, model.norm_out.data.astype(np.float64)) @ (
        model.embed.data.astype(np.float64).T
    )
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


def run_suite(primitive_seeds: int = 20, model_seeds: int = 10, tol: float = 1e-3) -> dict:
    """Full finite-difference suite; returns per-check errors and pass flags."""
    report = {"tol": tol, "primitives": check_all_primitives(primitive_seeds), "model": {}}
    for s in range(model_seeds):
        report["model"][f"seed_{s}"] = check_model_gradients(s)
    errs = list(report["primitives"].values()) + list(report["model"].values())
    report["max_err"] = max(errs)
    report["passed"] = report["max_err"] < tol
    return report
