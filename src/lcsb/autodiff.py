"""Tape-based reverse-mode autodiff over dense float32 tensors.

The engine records one node per primitive onto an explicit :class:`Tape`
(entered as a context manager) and replays them in reverse to accumulate
gradients.  It provides the primitive set a small decoder-only
transformer needs.  Two of them are fused so that a layer records few
nodes: :func:`lora_linear` (a frozen projection plus its LoRA delta) and
:func:`causal_attention` (all heads of scaled, masked softmax attention),
each with a hand-written backward.  There is also :func:`detach`, which
copies a tensor's values while severing gradient flow to its producers,
and :func:`paused`, which stops recording for a block of code.

The tape owns its graph.  A tensor carries a tape handle only when it is
an output that its own tape recorded.  Any other ``requires_grad`` tensor
an op touches (a parameter, or an intermediate of another tape) is a leaf
of the recording tape, which keeps it in its own map and never writes to
it.  So tapes that share tensors, interleaved on one thread or running in
separate threads, do not interact; the active-tape stack is thread-local.

Everything is float32 and single-threaded per tape.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, DivergenceError, LcsbError, UnsupportedPrimitiveError

Array = np.ndarray

_local = threading.local()


def _tape_stack() -> list:
    stack = getattr(_local, "tapes", None)
    if stack is None:
        stack = []
        _local.tapes = stack
    return stack


def _active_tape() -> "Tape | None":
    stack = _tape_stack()
    return stack[-1] if stack else None


@contextmanager
def paused():
    """Stop recording on this thread inside the block; values are still computed.

    Works with or without an active tape.  Results computed inside are
    constants to any tape.
    """
    stack = _tape_stack()
    stack.append(None)
    try:
        yield
    finally:
        stack.pop()


class Tensor:
    """An n-dimensional float32 value, optionally tracked on a tape.

    ``data`` is always a contiguous float32 ndarray.  ``requires_grad``
    marks trainable leaves; a recorded output has it set too.  ``_tape``
    and ``_node`` name the tape that recorded this tensor and its node
    there; they stay ``None`` on every tensor no tape produced.
    """

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data, dtype=np.float32)
        if not data.flags["C_CONTIGUOUS"]:  # ascontiguousarray would up-rank 0-d
            data = np.ascontiguousarray(data)
        self.data = data
        self.requires_grad = requires_grad
        self._tape: Tape | None = None
        self._node: int | None = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() on tensor of shape {self.shape}")
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Append-only record of primitive applications.

    Nodes are stored in topological order by construction: an operation
    can only consume tensors that already exist.  A leaf (a ``requires_grad``
    tensor this tape did not produce) gets a node ``((), None)`` the first
    time an op on this tape touches it.  The tape holds a reference to each
    leaf, so its ``id`` cannot be reused while the tape lives.
    """

    def __init__(self):
        self.nodes: list[tuple[tuple, Callable | None]] = []
        self._leaves: dict[int, tuple[int, Tensor]] = {}  # id(leaf) -> (node, leaf)

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, *exc) -> None:
        _tape_stack().pop()

    def handle(self, t: Tensor) -> int | None:
        """Node of ``t`` on this tape, registering it as a leaf if needed."""
        if not t.requires_grad:
            return None
        if t._tape is self:
            return t._node
        leaf = self._leaves.get(id(t))
        if leaf is None:
            leaf = self._leaves[id(t)] = (self._record((), None), t)
        return leaf[0]

    def _record(self, inputs: tuple, backward_fn: Callable | None) -> int:
        self.nodes.append((inputs, backward_fn))
        return len(self.nodes) - 1


def _finish(out_data: Array, inputs: Sequence[Tensor], backward_fn: Callable) -> Tensor:
    """Wrap a forward result, recording a node if any input is tracked.

    ``backward_fn(g, needs)`` maps the output gradient to one gradient per
    input; ``needs[i]`` is False when input ``i`` has no node on the tape,
    and its gradient may then be ``None``.
    """
    out = Tensor(out_data)
    tape = _active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        handles = tuple(tape.handle(t) for t in inputs)
        out.requires_grad = True
        out._tape = tape
        out._node = tape._record(handles, backward_fn)
    return out


def backward(loss: Tensor, tape: Tape) -> dict:
    """Reverse sweep from a scalar loss; returns {leaf Tensor: gradient}.

    Every leaf registered on the tape gets an entry: the accumulated
    gradient if it is reachable from the loss, an exact zero array
    otherwise.  Two sweeps over the same tape are bit-identical.
    """
    if loss.data.ndim != 0:
        raise DimensionError(f"loss must be a scalar, got shape {loss.shape}")
    if not np.isfinite(loss.data):
        raise DivergenceError(f"loss is non-finite: {float(loss.data)}", (float(loss.data),))
    if loss._tape is not tape:
        if loss.requires_grad:
            raise LcsbError("loss tensor was not recorded on this tape")
        # constant loss (e.g. fully detached): nothing is reachable
        return {t: np.zeros_like(t.data) for _, t in tape._leaves.values()}

    grads: dict[int, Array] = {loss._node: np.ones((), dtype=np.float32)}
    for node_id in range(len(tape.nodes) - 1, -1, -1):
        inputs, backward_fn = tape.nodes[node_id]
        if backward_fn is None:
            continue  # a leaf keeps its gradient in grads
        g = grads.pop(node_id, None)
        if g is None:
            continue
        needs = tuple(in_id is not None for in_id in inputs)
        for in_id, gin in zip(inputs, backward_fn(g, needs)):
            if in_id is None:
                continue
            if in_id in grads:
                grads[in_id] = grads[in_id] + gin
            else:
                grads[in_id] = gin
    return {t: grads[node] if node in grads else np.zeros_like(t.data)
            for node, t in tape._leaves.values()}


def detach(t: Tensor) -> Tensor:
    """Value copy of ``t`` with gradient flow to its producers severed."""
    return Tensor(t.data.copy())


# ---------------------------------------------------------------------------
# primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul shapes incompatible: {a.shape} @ {b.shape}")
    a_data, b_data = a.data, b.data

    def bw(g, needs):
        return (g @ b_data.T if needs[0] else None, a_data.T @ g if needs[1] else None)

    return _finish(a_data @ b_data, (a, b), bw)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"add shapes differ: {a.shape} vs {b.shape}")

    def bw(g, needs):
        return (g, g)

    return _finish(a.data + b.data, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"sub shapes differ: {a.shape} vs {b.shape}")

    def bw(g, needs):
        return (g, -g)

    return _finish(a.data - b.data, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"mul shapes differ: {a.shape} vs {b.shape}")
    a_data, b_data = a.data, b.data

    def bw(g, needs):
        return (g * b_data if needs[0] else None, g * a_data if needs[1] else None)

    return _finish(a_data * b_data, (a, b), bw)


def scale(a: Tensor, factor: float) -> Tensor:
    c = np.float32(factor)

    def bw(g, needs):
        return (g * c,)

    return _finish(a.data * c, (a,), bw)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    ids = np.asarray(ids)
    if table.data.ndim != 2:
        raise DimensionError(f"embedding table must be 2-d, got {table.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise DimensionError(
            f"token id out of range [0, {table.shape[0]}): {int(ids.min())}..{int(ids.max())}"
        )
    table_shape = table.shape

    def bw(g, needs):
        grad = np.zeros(table_shape, dtype=np.float32)
        np.add.at(grad, ids, g)
        return (grad,)

    return _finish(table.data[ids], (table,), bw)


def rms_norm(x: Tensor, gain: Tensor, eps: float = 1e-5) -> Tensor:
    if gain.shape != (x.shape[-1],):
        raise DimensionError(f"rms_norm gain shape {gain.shape} does not match {x.shape}")
    x_data = x.data
    dim = x_data.shape[-1]
    inv = 1.0 / np.sqrt(np.mean(np.square(x_data), axis=-1, keepdims=True) + np.float32(eps))
    inv = inv.astype(np.float32)
    gain_data = gain.data

    def bw(g, needs):
        gp = g * gain_data
        s = np.sum(gp * x_data, axis=-1, keepdims=True)
        grad_x = inv * gp - (inv ** 3) * x_data * (s / dim)
        if not needs[1]:
            return (grad_x.astype(np.float32), None)
        # the normalized input is recomputed, not kept: gains are usually frozen
        grad_gain = np.sum(g * (x_data * inv), axis=tuple(range(g.ndim - 1)))
        return (grad_x.astype(np.float32), grad_gain.astype(np.float32))

    return _finish((x_data * inv) * gain_data, (x, gain), bw)


def softmax(x: Tensor) -> Tensor:
    shifted = x.data - np.max(x.data, axis=-1, keepdims=True)
    e = np.exp(shifted)
    probs = e / np.sum(e, axis=-1, keepdims=True)

    def bw(g, needs):
        s = np.sum(g * probs, axis=-1, keepdims=True)
        return (probs * (g - s),)

    return _finish(probs, (x,), bw)


def silu(x: Tensor) -> Tensor:
    sig = 1.0 / (1.0 + np.exp(-x.data))
    sig = sig.astype(np.float32)
    x_data = x.data

    def bw(g, needs):
        return (g * sig * (1.0 + x_data * (1.0 - sig)),)

    return _finish(x_data * sig, (x,), bw)


def lora_linear(x: Tensor, w_t: Tensor, a: Tensor, b: Tensor, s: float) -> Tensor:
    """``x @ w_t + s * (x @ a.T) @ b.T``: a base projection plus a LoRA delta, as one node.

    ``x`` is (n, d_in), ``w_t`` is (d_in, d_out), ``a`` is (rank, d_in) and
    ``b`` is (d_out, rank).  The backward works through the (n, rank)
    intermediate and never forms the dense ``w_t + s * (b @ a).T``; it
    returns dx, dW, dA and dB, each only when that input has a node.
    """
    x_data, w_data, a_data, b_data = x.data, w_t.data, a.data, b.data
    if (x_data.ndim != 2 or w_data.ndim != 2 or a_data.ndim != 2
            or w_data.shape[0] != x_data.shape[1] or a_data.shape[1] != x_data.shape[1]
            or b_data.shape != (w_data.shape[1], a_data.shape[0])):
        raise DimensionError(
            f"lora_linear shapes incompatible: x {x.shape}, w_t {w_t.shape}, "
            f"a {a.shape}, b {b.shape}"
        )
    c = np.float32(s)
    xa = x_data @ a_data.T

    def bw(g, needs):
        gc = g * c
        gxa = gc @ b_data if needs[0] or needs[2] else None
        return (
            g @ w_data.T + gxa @ a_data if needs[0] else None,
            x_data.T @ g if needs[1] else None,
            gxa.T @ x_data if needs[2] else None,
            gc.T @ xa if needs[3] else None,
        )

    return _finish(x_data @ w_data + (xa @ b_data.T) * c, (x, w_t, a, b), bw)


def causal_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int, mask: Array) -> Tensor:
    """Multi-head scaled dot-product attention of (T, d) inputs, as one node.

    Head ``i`` is the column block ``i * d_h : (i + 1) * d_h`` with
    ``d_h = d / n_heads``; the heads run as batched matmuls on
    (n_heads, T, d_h) views.  ``mask`` is an additive (T, T) array, zero
    where a position may attend and a large negative value above the
    diagonal, added to the scaled scores before the softmax.  The output
    and dq, dk, dv of the backward are in the (T, d) layout of the inputs.
    """
    if q.data.ndim != 2 or k.shape != q.shape or v.shape != q.shape:
        raise DimensionError(
            f"causal_attention expects equal (T, d) inputs, got {q.shape}, {k.shape}, {v.shape}"
        )
    t, d = q.shape
    if n_heads <= 0 or d % n_heads != 0:
        raise DimensionError(f"causal_attention: {n_heads} heads do not divide d={d}")
    mask = np.asarray(mask, dtype=np.float32)
    if mask.shape != (t, t):
        raise DimensionError(f"causal_attention mask shape {mask.shape} is not ({t}, {t})")
    d_h = d // n_heads
    c = np.float32(1.0 / np.sqrt(d_h))

    def split(m):
        return m.reshape(t, n_heads, d_h).transpose(1, 0, 2)

    def merge(m):
        return m.transpose(1, 0, 2).reshape(t, d)

    # The (n_heads, T, T) buffers are updated in place.  At T=128 each is
    # 256 KiB; allocating a fresh one per operation cost about 175 page faults
    # per call and twice the time (2-vCPU x86-64, one BLAS thread).
    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    probs = qh @ kh.transpose(0, 2, 1)
    probs *= c
    probs += mask
    probs -= np.max(probs, axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= np.sum(probs, axis=-1, keepdims=True)

    def bw(g, needs):
        gh = split(g)
        gv = merge(probs.transpose(0, 2, 1) @ gh) if needs[2] else None
        if not (needs[0] or needs[1]):
            return (None, None, gv)
        gs = gh @ vh.transpose(0, 2, 1)  # gradient of probs, then of the scores
        gs -= np.sum(gs * probs, axis=-1, keepdims=True)
        gs *= probs
        gs *= c
        return (
            merge(gs @ kh) if needs[0] else None,
            merge(gs.transpose(0, 2, 1) @ qh) if needs[1] else None,
            gv,
        )

    return _finish(merge(probs @ vh), (q, k, v), bw)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    orig = x.shape
    try:
        out = x.data.reshape(shape)
    except ValueError:
        raise DimensionError(f"cannot reshape {orig} to {tuple(shape)}") from None

    def bw(g, needs):
        return (g.reshape(orig),)

    return _finish(out, (x,), bw)


def cross_entropy_logits(logits: Tensor, targets) -> Tensor:
    """Mean cross entropy of raw logits against integer class targets."""
    targets = np.asarray(targets)
    if logits.data.ndim != 2 or targets.shape != (logits.shape[0],):
        raise DimensionError(
            f"cross_entropy expects (n, vocab) logits and (n,) targets, "
            f"got {logits.shape} and {targets.shape}"
        )
    z = logits.data
    n = z.shape[0]
    m = np.max(z, axis=-1, keepdims=True)
    e = np.exp(z - m)
    sum_e = np.sum(e, axis=-1, keepdims=True)
    log_probs = (z - m) - np.log(sum_e)
    loss = np.float32(-np.mean(log_probs[np.arange(n), targets]))

    def bw(g, needs):
        grad = e / sum_e
        grad[np.arange(n), targets] -= 1.0
        grad *= g / np.float32(n)
        return (grad.astype(np.float32),)

    return _finish(loss, (logits,), bw)


def sum_all(x: Tensor) -> Tensor:
    in_shape = x.shape

    def bw(g, needs):
        return (np.full(in_shape, g, dtype=np.float32),)

    return _finish(np.float32(np.sum(x.data)), (x,), bw)


def mean_all(x: Tensor) -> Tensor:
    in_shape = x.shape
    size = np.float32(x.data.size)

    def bw(g, needs):
        return (np.full(in_shape, g / size, dtype=np.float32),)

    return _finish(np.float32(np.mean(x.data)), (x,), bw)


_PRIMITIVES = {
    "matmul": lambda inputs, attrs: matmul(*inputs),
    "add": lambda inputs, attrs: add(*inputs),
    "mul": lambda inputs, attrs: mul(*inputs),
    "scale": lambda inputs, attrs: scale(inputs[0], attrs["factor"]),
    "embedding_lookup": lambda inputs, attrs: embedding_lookup(inputs[0], attrs["ids"]),
    "rms_norm": lambda inputs, attrs: rms_norm(inputs[0], inputs[1], attrs.get("eps", 1e-5)),
    "softmax": lambda inputs, attrs: softmax(inputs[0]),
    "silu": lambda inputs, attrs: silu(inputs[0]),
    "lora_linear": lambda inputs, attrs: lora_linear(*inputs, attrs["s"]),
    "causal_attention": lambda inputs, attrs: causal_attention(
        *inputs, attrs["n_heads"], attrs["mask"]),
    "reshape": lambda inputs, attrs: reshape(inputs[0], attrs["shape"]),
    "cross_entropy_logits": lambda inputs, attrs: cross_entropy_logits(inputs[0], attrs["targets"]),
    "sum": lambda inputs, attrs: sum_all(inputs[0]),
    "mean": lambda inputs, attrs: mean_all(inputs[0]),
}


def primitive_forward(kind: str, inputs: Sequence[Tensor], attrs: dict | None = None) -> Tensor:
    """Dispatch a primitive by name; see the module functions for semantics."""
    fn = _PRIMITIVES.get(kind)
    if fn is None:
        raise UnsupportedPrimitiveError(f"unknown primitive kind {kind!r}")
    return fn(list(inputs), attrs or {})


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
