"""Tape-based reverse-mode autodiff over dense float32 tensors.

The engine records one node per primitive onto an explicit :class:`Tape`
(entered as a context manager) and replays them in reverse to accumulate
gradients.  Its seven primitives are exactly those a training step of
:mod:`lcsb.model` records.  Three are fused so that a layer records few
nodes and its tape keeps little: :func:`lora_linear` (a frozen projection
plus its LoRA delta), :func:`causal_attention` (all heads of scaled,
causally masked softmax attention, keeping q, k, v and two row statistics)
and :func:`swiglu` (``silu(gate) * up``, keeping only its two inputs), each
with a hand-written backward.  Where a node keeps less than its backward
reads, the backward recomputes the rest with the forward's own operations:
attention rebuilds its softmax probabilities from q, k and each query's max
and sum, bit for bit, as FlashAttention's backward does.

What each node keeps for its backward:

* ``rms_norm``: its input, each row's inverse norm and the gain;
* ``swiglu``: its two inputs;
* ``causal_attention``: the scaled q, k, v and each query's softmax max and sum;
* ``lora_linear``: the adapters, the (n, rank) product ``s * x @ a.T`` and
  the means to form ``x`` for dA (see below);
* ``frozen_linear`` (the model's output head): its weight, the embedding's
  transposed view;
* ``cross_entropy_logits``: its softmax probabilities;
* ``add``: nothing.

One rule decides how ``lora_linear`` holds ``x``.  An output of
``rms_norm`` or ``swiglu`` that a tape recorded carries a rebuild: a
zero-argument function that repeats the forward's float32 operations on
arrays its node keeps anyway, so it costs no matmul and returns the same
bits.  ``lora_linear`` keeps that rebuild if its input offers one, and the
input array otherwise, and calls the rebuild in the backward only for dA.
An attached layer thus holds neither its normalized inputs nor its SwiGLU
output through the step; this is selective activation recomputation
(Korthikanti et al. 2022) where it needs no matmul.  An output made under
:func:`paused` carries no rebuild.

A :class:`Tensor` is a trainable matrix or an activation; a frozen value
is a plain float32 array.  :func:`rms_norm` and :func:`frozen_linear`
take their gain and weight as arrays, and :func:`lora_linear` fetches
its frozen base on each use, in the forward and again in the backward,
so a compressed base stays compressed.  :func:`paused` stops recording
for a block of code; it is the one way to cut a gradient, since what is
computed inside is a constant to every tape.

A tape is used once.  :func:`backward` sweeps it a single time and drops
each node's backward function, and with it the arrays that node saved,
as soon as the sweep has passed the node.  So the memory of a step peaks
at the parameters plus the forward's activations, and falls while the
gradients are formed.  Because a node's backward runs at most once, it may
overwrite the buffers it allocated in the forward and never exposed.  A
second sweep of the same tape, or recording onto a swept tape, raises
:class:`~lcsb.errors.TapeError`.

The tape owns its graph.  A tensor carries a tape handle only when it is
an output that its own tape recorded.  Any other ``requires_grad`` tensor
an op touches (a parameter, or an intermediate of another tape) is a leaf
of the recording tape, which keeps it in its own map and never writes to
it.  So tapes that share tensors, interleaved on one thread or running in
separate threads, do not interact; the active-tape stack is thread-local.

Everything is float32 and single-threaded per tape.
"""

from __future__ import annotations

import numbers
import threading
from contextlib import contextmanager
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, DivergenceError, TapeError

Array = np.ndarray

_local = threading.local()
RMS_EPS = np.float32(1e-5)  # added to each row's mean square in rms_norm


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
    marks trainable leaves; a recorded output has it set too.  A tensor
    without it is a constant activation, such as a model's input.  ``_tape``
    and ``_node`` name the tape that recorded this tensor and its node
    there; they stay ``None`` on every tensor no tape produced.  ``_rebuild``
    is ``None`` too, unless the recorded node can form ``data`` again from
    the arrays it keeps anyway: then it is a zero-argument function that
    returns a fresh array equal to ``data`` bit for bit.  So the ``data``
    of a recorded output is not to be written in place.
    """

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data, dtype=np.float32)
        if not data.flags["C_CONTIGUOUS"]:  # ascontiguousarray would up-rank 0-d
            data = np.ascontiguousarray(data)
        self.data = data
        self.requires_grad = requires_grad
        self._tape: Tape | None = None
        self._node: int | None = None
        self._rebuild: Callable[[], Array] | None = None

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
    """Append-only, single-use record of primitive applications.

    Nodes are stored in topological order by construction: an operation
    can only consume tensors that already exist.  A leaf (a ``requires_grad``
    tensor this tape did not produce) gets a node ``((), None)`` the first
    time an op on this tape touches it.  The tape holds a reference to each
    leaf, so its ``id`` cannot be reused while the tape lives.  Once
    :func:`backward` has swept the tape, every op node's backward function
    is ``None`` too; the node count stays the recorded one, and recording
    another node or sweeping again raises :class:`TapeError`.
    """

    def __init__(self):
        self.nodes: list[tuple[tuple, Callable | None]] = []
        self._leaves: dict[int, tuple[int, Tensor]] = {}  # id(leaf) -> (node, leaf)
        self._swept = False

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
        if self._swept:
            raise TapeError("cannot record onto a tape that backward has swept; use a new Tape")
        self.nodes.append((inputs, backward_fn))
        return len(self.nodes) - 1


def _finish(out_data: Array, inputs: Sequence[Tensor], backward_fn: Callable,
            rebuild: Callable[[], Array] | None = None) -> Tensor:
    """Wrap a forward result, recording a node if any input is tracked.

    ``backward_fn(g, needs)`` maps the output gradient to one gradient per
    input; ``needs[i]`` is False when input ``i`` has no node on the tape,
    and its gradient may then be ``None``.  ``rebuild`` re-forms
    ``out_data`` from what ``backward_fn`` keeps; it is attached to the
    output only when the node is recorded.
    """
    out = Tensor(out_data)
    tape = _active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        handles = tuple(tape.handle(t) for t in inputs)
        out.requires_grad = True
        out._tape = tape
        out._node = tape._record(handles, backward_fn)
        out._rebuild = rebuild
    return out


def backward(loss: Tensor, tape: Tape) -> dict:
    """Reverse sweep from a scalar loss; returns {leaf Tensor: gradient}.

    Every leaf registered on the tape gets an entry: the accumulated
    gradient if it is reachable from the loss, an exact zero array
    otherwise.  A loss this tape did not record but that requires a
    gradient (a parameter, or another tape's output) is a leaf of this
    tape with gradient 1; a constant loss reaches nothing.

    The sweep uses the tape up.  Each op node's backward function is
    replaced by ``None`` as soon as the sweep has passed that node,
    whether or not the loss reached it, which frees the arrays the node
    saved for its backward.  A second call on the same tape raises
    :class:`TapeError`; record the forward on a new tape to sweep again.
    The arrays returned are the caller's: the engine writes only into the
    gradient sums it allocated itself.  A non-scalar or non-finite loss is
    rejected before the sweep and leaves the tape unused; a non-finite leaf
    gradient raises :class:`DivergenceError` after it.
    """
    if tape._swept:
        raise TapeError("this tape has already been swept; record the forward on a new Tape")
    if loss.data.ndim != 0:
        raise DimensionError(f"loss must be a scalar, got shape {loss.shape}")
    if not np.isfinite(loss.data):
        raise DivergenceError(f"loss is non-finite: {float(loss.data)}")
    grads: dict[int, Array] = {}
    start = tape.handle(loss)  # None for a constant loss
    if start is not None:
        grads[start] = np.ones((), dtype=np.float32)
    tape._swept = True
    nodes = tape.nodes
    owned = set()  # nodes whose entry in grads is a sum this sweep allocated
    for node_id in range(len(nodes) - 1, -1, -1):
        inputs, backward_fn = nodes[node_id]
        if backward_fn is None:
            continue  # a leaf keeps its gradient in grads
        nodes[node_id] = (inputs, None)
        g = grads.pop(node_id, None)
        if g is None:
            continue
        needs = tuple(in_id is not None for in_id in inputs)
        for in_id, gin in zip(inputs, backward_fn(g, needs)):
            if in_id is None:
                continue
            if in_id in owned:
                grads[in_id] += gin
            elif in_id in grads:
                grads[in_id] = grads[in_id] + gin
                owned.add(in_id)
            else:
                grads[in_id] = gin
    out = {}
    for node, t in tape._leaves.values():
        g = grads.get(node)
        if g is None:
            g = np.zeros_like(t.data)
        elif not np.isfinite(g).all():
            raise DivergenceError(
                f"gradient of the leaf of shape {t.shape} (tape node {node}) is non-finite"
            )
        out[t] = g
    return out


# ---------------------------------------------------------------------------
# primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"add shapes differ: {a.shape} vs {b.shape}")

    def bw(g, needs):
        return (g, g)

    return _finish(a.data + b.data, (a, b), bw)


def rms_norm(x: Tensor, gain: Array) -> Tensor:
    """``x / sqrt(mean(x ** 2) + RMS_EPS) * gain`` over the last axis, as one node.

    ``gain`` is a frozen (d,) array, not a tensor, and is read as float32:
    only ``x`` gets a gradient, and the node keeps ``x``, each row's inverse
    norm and the gain.  A recorded output carries a rebuild from those three.
    """
    gain = np.asarray(gain, dtype=np.float32)
    if gain.shape != (x.shape[-1],):
        raise DimensionError(f"rms_norm gain shape {gain.shape} does not match {x.shape}")
    x_data = x.data
    dim = x_data.shape[-1]
    # the sum of squares in one pass, with no (T, d) temporary
    sum_sq = np.einsum("...i,...i->...", x_data, x_data)[..., None]
    inv = 1.0 / np.sqrt(sum_sq / np.float32(dim) + RMS_EPS)

    def bw(g, needs):
        # inv * gp - (inv ** 3) * x_data * (s / dim), float32 throughout, in
        # two (T, d) buffers with the same IEEE operations
        gp = g * gain
        s = np.sum(gp * x_data, axis=-1, keepdims=True)
        grad_x = np.multiply(inv, gp, out=gp)
        t = (inv ** 3) * x_data
        t *= s / dim
        grad_x -= t
        return (grad_x,)

    def normalized():
        out = x_data * inv
        out *= gain
        return out

    return _finish(normalized(), (x,), bw, normalized)


def _sigmoid(x: Array) -> Array:
    """``1 / (1 + exp(-x))`` in one fresh float32 buffer.

    For x below about -88.7, ``exp(-x)`` overflows to inf and the result is
    the exact limit 0; that overflow is expected and not reported.
    """
    sig = np.negative(x)
    with np.errstate(over="ignore"):
        np.exp(sig, out=sig)
    sig += np.float32(1.0)
    np.divide(np.float32(1.0), sig, out=sig)
    return sig


def swiglu(gate: Tensor, up: Tensor) -> Tensor:
    """``silu(gate) * up`` with ``silu(x) = x * sigmoid(x)``, as one node.

    The node keeps only its two inputs: the backward recomputes the
    sigmoid rather than holding it or ``silu(gate)``.  A recorded output
    carries a rebuild from the two inputs.
    """
    if gate.shape != up.shape:
        raise DimensionError(f"swiglu shapes differ: {gate.shape} vs {up.shape}")
    gate_data, up_data = gate.data, up.data

    def bw(g, needs):
        sig = _sigmoid(gate_data)
        g_up = gate_data * sig  # silu(gate)
        g_up *= g
        g_gate = g * up_data
        g_gate *= sig
        np.subtract(np.float32(1.0), sig, out=sig)  # silu'(x) = sig * (1 + x * (1 - sig))
        sig *= gate_data
        sig += np.float32(1.0)
        g_gate *= sig
        return (g_gate, g_up)

    def gated():
        out = _sigmoid(gate_data)
        out *= gate_data
        out *= up_data
        return out

    return _finish(gated(), (gate, up), bw, gated)


def frozen_linear(x: Tensor, w: Array) -> Tensor:
    """``x @ w`` with a frozen float32 ``w`` of shape (d_in, d_out), as one node.

    Like :func:`lora_linear` without an adapter; the model's weight-tied
    head, which is never compressed, is its one user.  The node keeps ``w``
    for dx.
    """
    if x.data.ndim != 2 or w.ndim != 2 or w.shape[0] != x.shape[1]:
        raise DimensionError(f"frozen_linear shapes incompatible: x {x.shape}, base {w.shape}")
    if w.dtype != np.float32:
        raise DimensionError(f"frozen_linear base must be float32, got {w.dtype}")

    def bw(g, needs):
        return (g @ w.T,)

    return _finish(x.data @ w, (x,), bw)


def lora_linear(x: Tensor, a: Tensor, b: Tensor, s: float, *, base: Callable[[], Array]) -> Tensor:
    """``x @ w + s * (x @ a.T) @ b.T``, a frozen base projection plus a LoRA delta, as one node.

    ``base()`` returns the (d_in, d_out) float32 base ``w``; ``x`` is
    (n, d_in), ``a`` is (rank, d_in) and ``b`` is (d_out, rank).  The base is
    frozen, so it gets no gradient and the node keeps no reference to it:
    ``base`` is called once in the forward and once more in the backward,
    and only when dx is needed.  A compressed base is therefore decompressed
    on each use and never held in float by the tape.  The backward works
    through the (n, rank) intermediate and never forms the dense
    ``w + s * (b @ a).T``; it returns dx, dA and dB, each only when that
    input has a node.  Only dA reads ``x``: the node keeps ``x``'s rebuild
    when its producer offers one, and ``x`` itself otherwise.
    """
    x_data, w, a_data, b_data = x.data, base(), a.data, b.data
    if (x_data.ndim != 2 or w.ndim != 2 or a_data.ndim != 2
            or w.shape[0] != x_data.shape[1] or a_data.shape[1] != x_data.shape[1]
            or b_data.shape != (w.shape[1], a_data.shape[0])):
        raise DimensionError(
            f"lora_linear shapes incompatible: x {x.shape}, base {w.shape}, "
            f"a {a.shape}, b {b.shape}"
        )
    if w.dtype != np.float32:
        raise DimensionError(f"lora_linear base must be float32, got {w.dtype}")
    x_values = x._rebuild or (lambda: x_data)
    out = x_data @ w
    del w  # a decompressed base is freed before the delta's arrays are formed
    # The adapters' transposes are copied to C order (rank * d each) for the
    # two forward products: OpenBLAS runs a product whose right operand is a
    # transposed view well below the plain layout's speed, and the values are
    # the same bit for bit.  s scales the (n, rank) intermediate, not an
    # (n, d_out) array.
    xas = x_data @ np.ascontiguousarray(a_data.T)
    xas *= np.float32(s)

    def bw(g, needs):
        gxa = None
        if needs[0] or needs[1]:
            gxa = g @ b_data
            gxa *= np.float32(s)
        gx = None
        if needs[0]:
            gx = g @ base().T
            gx += gxa @ a_data
        return (gx, gxa.T @ x_values() if needs[1] else None, g.T @ xas if needs[2] else None)

    out += xas @ np.ascontiguousarray(b_data.T)
    return _finish(out, (x, a, b), bw)


@lru_cache(maxsize=32)
def _causal_mask(t: int) -> Array:
    """The additive (key, query) causal mask for ``t`` positions, built once per ``t``.

    -1e9 where the key comes after the query, 0 elsewhere.  Every call at
    that length shares the array, so it is read-only.
    """
    mask = np.tri(t, k=-1, dtype=np.float32)
    mask *= np.float32(-1e9)
    mask.flags.writeable = False
    return mask


def causal_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int) -> Tensor:
    """Multi-head causal scaled dot-product attention of (T, d) inputs, as one node.

    Head ``i`` is the column block ``i * d_h : (i + 1) * d_h`` with
    ``d_h = d / n_heads``; the heads run as batched matmuls on
    (n_heads, T, d_h) views.  Position ``i`` attends to positions ``<= i``:
    -1e9 is added to the scores of later positions before the softmax.  The
    output and dq, dk, dv of the backward are in the (T, d) layout of the
    inputs.

    The node keeps q (scaled), k, v and each query's softmax max and sum,
    (n_heads, 1, T) each, but not the (n_heads, T, T) probabilities: the
    backward rebuilds them from the same inputs with the same operations in
    the same order, so they are bit-identical to the forward's.
    """
    if q.data.ndim != 2 or q.shape[0] == 0 or k.shape != q.shape or v.shape != q.shape:
        raise DimensionError(
            f"causal_attention expects equal (T, d) inputs with T >= 1, "
            f"got {q.shape}, {k.shape}, {v.shape}"
        )
    t, d = q.shape
    if not isinstance(n_heads, numbers.Integral) or isinstance(n_heads, bool):
        raise DimensionError(f"causal_attention: n_heads must be an int, got {n_heads!r}")
    if n_heads <= 0 or d % n_heads != 0:
        raise DimensionError(f"causal_attention: {n_heads} heads do not divide d={d}")
    d_h = d // n_heads
    c = np.float32(1.0 / np.sqrt(d_h))

    def split(m):
        return m.reshape(t, n_heads, d_h).transpose(1, 0, 2)

    def merge(m):
        return m.transpose(1, 0, 2).reshape(t, d)

    # 1/sqrt(d_h) scales the (T, d) queries rather than the (n_heads, T, T)
    # scores.  The scores are laid out (head, key, query), so the softmax
    # reduces across rows, which numpy does faster than along them.  These
    # buffers are updated in place: at T=128 each is 256 KiB, and allocating a
    # fresh one per operation cost about 175 page faults per call and twice
    # the time (2-vCPU x86-64, one BLAS thread).
    qh, kh, vh = split(q.data * c), split(k.data), split(v.data)

    def scores():
        s = kh @ qh.transpose(0, 2, 1)
        s += _causal_mask(t)
        return s

    probs = scores()
    row_max = np.max(probs, axis=1, keepdims=True)
    probs -= row_max
    np.exp(probs, out=probs)
    row_sum = np.sum(probs, axis=1, keepdims=True)
    probs /= row_sum

    def bw(g, needs):
        probs = scores()  # the forward's probabilities, rebuilt bit for bit
        probs -= row_max
        np.exp(probs, out=probs)
        probs /= row_sum
        gh = split(g)
        gv = merge(probs @ gh)
        # the scores' gradient probs * (gs - sum(gs * probs)), formed as
        # gs * probs - probs * sum(gs * probs): the second product overwrites
        # the rebuilt probs, which are needed no more
        gs = vh @ gh.transpose(0, 2, 1)  # gradient of probs
        gs *= probs
        gs -= np.multiply(probs, np.sum(gs, axis=1, keepdims=True), out=probs)
        gq = merge(gs.transpose(0, 2, 1) @ kh)
        gq *= c
        return (gq, merge(gs @ qh), gv)

    out = merge(probs.transpose(0, 2, 1) @ vh)
    del probs  # the node keeps only the row statistics
    return _finish(out, (q, k, v), bw)


def cross_entropy_logits(logits: Tensor, targets) -> Tensor:
    """Mean cross entropy of raw (n, n_classes) logits against integer class targets.

    ``targets`` holds n >= 1 integers in ``[0, n_classes)``; anything else
    raises :class:`DimensionError`.  The node keeps the softmax probabilities and
    turns them into the gradient in place.
    """
    targets = np.asarray(targets)
    if logits.data.ndim != 2 or targets.shape != (logits.shape[0],):
        raise DimensionError(
            f"cross_entropy expects (n, vocab) logits and (n,) targets, "
            f"got {logits.shape} and {targets.shape}"
        )
    n, n_classes = logits.shape
    if n == 0:
        raise DimensionError("cross_entropy needs at least one row of logits, got 0")
    if not np.issubdtype(targets.dtype, np.integer):
        raise DimensionError(f"cross_entropy targets must be integers, got dtype {targets.dtype}")
    if targets.min() < 0 or targets.max() >= n_classes:
        raise DimensionError(
            f"cross_entropy target out of range [0, {n_classes}): "
            f"{int(targets.min())}..{int(targets.max())}"
        )
    z = logits.data
    # one (n, n_classes) buffer: the shifted logits, then their exponentials,
    # then the probabilities; only the targets' log-probabilities are formed
    probs = z - np.max(z, axis=-1, keepdims=True)
    picked = probs[np.arange(n), targets]
    np.exp(probs, out=probs)
    sum_e = np.sum(probs, axis=-1, keepdims=True)
    loss = np.float32(-np.mean(picked - np.log(sum_e[:, 0])))
    probs /= sum_e

    def bw(g, needs):
        probs[np.arange(n), targets] -= 1.0
        return (np.multiply(probs, g / np.float32(n), out=probs),)

    return _finish(loss, (logits,), bw)

