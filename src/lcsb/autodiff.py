"""Tape-based reverse-mode autodiff over dense float32 tensors.

The engine records one node per primitive onto an explicit :class:`Tape`
(entered as a context manager) and replays them in reverse to accumulate
gradients.  It provides exactly the primitive set a small decoder-only
transformer needs, plus :func:`detach`, which copies a tensor's values
while severing gradient flow to its producers, and :func:`paused`, which
stops recording for a block of code.

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
    normed = x_data * inv
    gain_data = gain.data

    def bw(g, needs):
        gp = g * gain_data
        s = np.sum(gp * x_data, axis=-1, keepdims=True)
        grad_x = inv * gp - (inv ** 3) * x_data * (s / dim)
        if not needs[1]:
            return (grad_x.astype(np.float32), None)
        grad_gain = np.sum(g * normed, axis=tuple(range(g.ndim - 1)))
        return (grad_x.astype(np.float32), grad_gain.astype(np.float32))

    return _finish(normed * gain_data, (x, gain), bw)


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


def transpose(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise DimensionError(f"transpose expects a matrix, got shape {x.shape}")

    def bw(g, needs):
        return (np.ascontiguousarray(g.T),)

    return _finish(x.data.T, (x,), bw)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    orig = x.shape
    try:
        out = x.data.reshape(shape)
    except ValueError:
        raise DimensionError(f"cannot reshape {orig} to {tuple(shape)}") from None

    def bw(g, needs):
        return (g.reshape(orig),)

    return _finish(out, (x,), bw)


def slice_(x: Tensor, index) -> Tensor:
    """Basic slicing; ``index`` is anything numpy basic indexing accepts."""
    orig = x.shape
    out = x.data[index]

    def bw(g, needs):
        grad = np.zeros(orig, dtype=np.float32)
        grad[index] = g
        return (grad,)

    return _finish(np.ascontiguousarray(out), (x,), bw)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    if not tensors:
        raise DimensionError("concat of zero tensors")
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g, needs):
        sl = [slice(None)] * g.ndim
        outs = []
        for k in range(len(sizes)):
            sl[axis] = slice(offsets[k], offsets[k + 1])
            outs.append(np.ascontiguousarray(g[tuple(sl)]))
        return tuple(outs)

    return _finish(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), bw)


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
    "transpose": lambda inputs, attrs: transpose(inputs[0]),
    "reshape": lambda inputs, attrs: reshape(inputs[0], attrs["shape"]),
    "slice": lambda inputs, attrs: slice_(inputs[0], attrs["index"]),
    "concat": lambda inputs, attrs: concat(inputs, attrs.get("axis", -1)),
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
