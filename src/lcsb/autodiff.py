"""Tape-based reverse-mode autodiff over dense float32 tensors.

The engine records one node per primitive application onto an explicit
:class:`Tape` (entered as a context manager) and replays them in reverse to
accumulate gradients; the nodes are operations only.  Its five primitives
are exactly those a training step of :mod:`lcsb.model` records.  With
``rms_norm(x)`` for ``x / sqrt(mean(x ** 2) + RMS_EPS)`` over the last
axis, each keeps for its backward:

* :func:`self_attention`, a whole pre-norm causal multi-head attention
  with its q, k, v and o projections: the adapters, its input, each row's
  inverse norm and each query's softmax max and sum;
* :func:`swiglu_mlp`, a whole pre-norm SwiGLU MLP: the adapters, its
  input and each row's inverse norm, and, when it is recorded and its
  shapes let it, gate's and up's outputs and (n, rank) products;
* :func:`norm_head`, the model's output norm and frozen head: its input,
  each row's inverse norm and the function that fetches its weight;
* :func:`cross_entropy_logits`: its softmax probabilities;
* :func:`add`: nothing.

The first two are fused, each with a hand-written backward, so that a
layer records few nodes and its tape keeps little.  Each backward
re-forms what its node did not keep once, with the forward's own
operations, bit for bit: the normalized input, each projection's output
(LoRA delta included) and (n, rank) product ``s * x @ a``, and the
attention's softmax probabilities, rebuilt from q, k and each query's max
and sum as FlashAttention's backward does, or the SwiGLU output.  The
last projection's (n, rank) product, which only its dB reads, is formed
again from the heads or the SwiGLU output that the backward re-forms for
its dA anyway.  This is selective activation recomputation
(Korthikanti et al. 2022) inside one node.  Only the normalized input is
re-formed twice, once for the projections and again where their dA reads
it, so that no backward holds it across the node.  The MLP keeps gate and
up instead when its shapes make them small beside the gradients it
returns (see :func:`swiglu_mlp`).  The fused nodes share one path for the
norm and the projections that read it, forward and backward, and private
helpers for the array math of attention, so their values and gradients
are those of the chain of a norm, LoRA projections and an attention or a
SwiGLU, bit for bit.

What each node's pass holds at most beyond its inputs, what it keeps and
what it returns, for a (T, d) input and an MLP width of ``d_ff``:

* ``self_attention``: q, k and v, (T, d) each, a (T, T) boolean causal
  mask and one block of heads' (heads, T, T) scores, plus in the backward
  the heads' gradient and the scores' gradient; a block has
  ``max(1, d // T)`` heads, so its scores are no larger than the input
  (with 4 heads and d=128, every head at once up to T=32 and one at a
  time from T=128);
* ``swiglu_mlp``: in the forward the normalized input, gate and up and
  one (T, d_ff) temporary; in the backward gate and up, re-formed unless
  kept, the SwiGLU output's gradient, (T, d_ff) each, and one more
  (T, d_ff) array, for down's dx or for the SwiGLU derivative, which runs
  in blocks of rows;
* ``norm_head``: the normalized input in the forward, and two (T, d)
  temporaries in the backward, plus in each its weight, when the fetch
  decompresses one;
* ``cross_entropy_logits`` and ``add``: nothing.

At the default T=128, d=128, d_ff=256 and rank 16 these peak, outputs
included, at 356 and 485 KiB for the attention's forward and backward,
whose 16 KiB causal mask lives only within the pass, and 482 and 537 KiB
for the MLP's re-forming gate and up, on float or 4-bit bases
(``tracemalloc``).

A :class:`Tensor` is a trainable matrix or an activation; a frozen value
reaches a primitive as a plain float32 array.  Every primitive takes its
frozen weights through functions that return them: the fused nodes call
each projection's ``base()``, and :func:`norm_head` its ``head()``, on
each use, in the forward and again in the backward, so a compressed
weight stays compressed.  :func:`paused` stops recording for a block of
code; it is the one way to cut a gradient, since what is computed inside
is a constant to every tape.

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
of the recording tape: not a node, but a tensor the tape keeps in its own
map and never writes to.  So tapes that share tensors, interleaved on one
thread or running in separate threads, do not interact; the active-tape
stack is thread-local.

Everything is float32 and single-threaded per tape.
"""

from __future__ import annotations

import numbers
import threading
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, DivergenceError, TapeError

Array = np.ndarray

_local = threading.local()
RMS_EPS = np.float32(1e-5)  # added to each row's mean square in every norm


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
    there; they stay ``None`` on every tensor no tape produced.
    """

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float32, order="C")
        self.requires_grad = requires_grad
        self._tape: Tape | None = None
        self._node: int | None = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() on tensor of shape {self.shape}")
        return self.data.item()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Append-only, single-use record of primitive applications.

    ``nodes`` holds operations only, ``(handles, backward_fn)`` with one
    handle per input, in topological order by construction: an operation
    can only consume tensors that already exist.  A leaf (a
    ``requires_grad`` tensor this tape did not produce) is not a node: the
    tape keeps it in ``_leaves`` the first time an op on this tape touches
    it, and it is its own handle.  The tape holds a reference to each leaf,
    so its ``id`` cannot be reused while the tape lives.  Once
    :func:`backward` has swept the tape, every node's backward function is
    ``None``; the node count stays the recorded one, and recording another
    node or sweeping again raises :class:`TapeError`.
    """

    def __init__(self):
        self.nodes: list[tuple[tuple, Callable | None]] = []
        self._leaves: dict[int, Tensor] = {}  # id(leaf) -> leaf
        self._swept = False

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, *exc) -> None:
        _tape_stack().pop()

    def handle(self, t: Tensor) -> int | Tensor | None:
        """``t``'s node on this tape, ``None`` if untracked, else ``t`` itself, kept as a leaf."""
        if not t.requires_grad:
            return None
        if t._tape is self:
            return t._node
        return self._leaves.setdefault(id(t), t)


def _recorder(inputs: Sequence[Tensor]) -> "Tape | None":
    """The tape that records a node of ``inputs``: the active one, if any input is tracked."""
    tape = _active_tape()
    return tape if tape is not None and any(t.requires_grad for t in inputs) else None


def _finish(out_data: Array, inputs: Sequence[Tensor], backward_fn: Callable) -> Tensor:
    """Wrap a forward result, recording a node if any input is tracked.

    ``backward_fn(g, needs)`` maps the output gradient to one gradient per
    input; ``needs[i]`` is False when input ``i`` has no handle on the
    tape, and its gradient may then be ``None``.
    """
    out = Tensor(out_data)
    tape = _recorder(inputs)
    if tape is not None:
        if tape._swept:
            raise TapeError("cannot record onto a tape that backward has swept; use a new Tape")
        out.requires_grad = True
        out._tape = tape
        out._node = len(tape.nodes)
        tape.nodes.append((tuple(tape.handle(t) for t in inputs), backward_fn))
    return out


def backward(loss: Tensor, tape: Tape) -> dict:
    """Reverse sweep from a scalar loss; returns {leaf Tensor: gradient}.

    Every leaf the tape keeps gets an entry: the accumulated gradient if it
    is reachable from the loss, an exact zero array otherwise.  A loss this
    tape did not record but that requires a gradient (a parameter, or
    another tape's output) is a leaf of this tape with gradient 1; a
    constant loss reaches nothing.

    The sweep uses the tape up.  Each node's backward function is replaced
    by ``None`` as soon as the sweep has passed that node, whether or not
    the loss reached it, which frees the arrays the node saved for its
    backward.  A second call on the same tape raises :class:`TapeError`;
    record the forward on a new tape to sweep again.  Gradients that meet
    are summed into a new array, so the engine never writes into an array
    a backward returned.  A non-scalar or non-finite loss is rejected
    before the sweep and leaves the tape unused; a non-finite leaf gradient
    raises :class:`DivergenceError` after it.
    """
    if tape._swept:
        raise TapeError("this tape has already been swept; record the forward on a new Tape")
    if loss.data.ndim != 0:
        raise DimensionError(f"loss must be a scalar, got shape {loss.shape}")
    if not np.isfinite(loss.data):
        raise DivergenceError(f"loss is non-finite: {float(loss.data)}")
    grads: dict = {}  # handle (node index or leaf) -> gradient
    start = tape.handle(loss)  # None for a constant loss
    if start is not None:
        grads[start] = np.ones((), dtype=np.float32)
    tape._swept = True
    nodes = tape.nodes
    for node_id in range(len(nodes) - 1, -1, -1):
        handles, backward_fn = nodes[node_id]
        nodes[node_id] = (handles, None)
        g = grads.pop(node_id, None)
        if g is None:
            continue
        needs = tuple(h is not None for h in handles)
        for h, gin in zip(handles, backward_fn(g, needs)):
            if h is not None:
                prev = grads.get(h)
                grads[h] = gin if prev is None else prev + gin
    out = {}
    for t in tape._leaves.values():
        g = grads.get(t)
        if g is None:
            g = np.zeros_like(t.data)
        elif not np.isfinite(g).all():
            raise DivergenceError(f"gradient of the leaf of shape {t.shape} is non-finite")
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


def _check_width(x: Tensor, op: str) -> None:
    """Reject an ``x`` of zero-width rows, whose norm would divide by zero."""
    if x.data.ndim == 0 or x.shape[-1] == 0:
        raise DimensionError(f"{op} needs rows of width >= 1, got shape {x.shape}")


def _rms_inv(x_data: Array) -> Array:
    """Each row's inverse norm ``1 / sqrt(mean(x ** 2) + RMS_EPS)``, with a trailing axis of 1."""
    # the sum of squares in one pass, with no (T, d) temporary
    sum_sq = np.einsum("...i,...i->...", x_data, x_data)[..., None]
    return 1.0 / np.sqrt(sum_sq / np.float32(x_data.shape[-1]) + RMS_EPS)


def _rms_norm_backward(g: Array, x_data: Array, inv: Array) -> Array:
    """The gradient of ``x``: ``inv * g - (inv ** 3) * x * (s / dim)`` with ``s = sum(g * x)``.

    Float32 throughout, in two (T, d) buffers with the same IEEE operations.
    """
    s = np.sum(g * x_data, axis=-1, keepdims=True)
    grad_x = inv * g
    t = (inv ** 3) * x_data
    t *= s / x_data.shape[-1]
    grad_x -= t
    return grad_x


def norm_head(x: Tensor, head: Callable[[], Array]) -> Tensor:
    """``rms_norm(x) @ w`` for the frozen float32 ``w = head()`` of shape (d, d_out), as one node.

    The model's output norm and weight-tied head, whose ``head()`` returns
    the (d_model, vocab_size) embedding, decompressed afresh on each call in
    a 4-bit model.  It is called once in the forward and once more in the
    backward, and its result is dropped after each, so the node keeps no
    weight.  Only ``x`` gets a gradient.  The backward is ``rms_norm``'s
    applied to ``g @ w.T``, with the same float32 operations as the norm and
    the projection taken apart.
    """
    _check_width(x, "norm_head")
    w = head()
    if x.data.ndim != 2 or w.ndim != 2 or w.shape[0] != x.shape[1]:
        raise DimensionError(f"norm_head shapes incompatible: x {x.shape}, base {w.shape}")
    if w.dtype != np.float32:
        raise DimensionError(f"norm_head base must be float32, got {w.dtype}")
    x_data = x.data
    inv = _rms_inv(x_data)
    out = (x_data * inv) @ w
    del w

    def bw(g, needs):
        return (_rms_norm_backward(g @ head().T, x_data, inv),)

    return _finish(out, (x,), bw)


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


def _lora_forward(x_data: Array, p, op: str) -> tuple:
    """``x @ w + (s * x @ a) @ b`` and the (n, rank) product ``s * x @ a`` that dB reads.

    ``p`` is a projection such as :class:`lcsb.model.Linear`: a ``base()``
    that returns ``w``, LoRA tensors ``a`` (d_in, rank) and ``b`` (rank, d_out)
    and a ``scale`` ``s``.  ``base()`` is called once, and a decompressed base
    is freed before the delta's arrays are formed.  Shapes and the base's
    dtype are checked first; ``op`` names the projection in the error.
    """
    w = p.base()
    a_data, b_data = p.a.data, p.b.data
    if (x_data.ndim != 2 or w.ndim != 2 or a_data.ndim != 2
            or w.shape[0] != x_data.shape[1] or a_data.shape[0] != x_data.shape[1]
            or b_data.shape != (a_data.shape[1], w.shape[1])):
        raise DimensionError(
            f"{op} shapes incompatible: x {x_data.shape}, base {w.shape}, "
            f"a {a_data.shape}, b {b_data.shape}"
        )
    if w.dtype != np.float32:
        raise DimensionError(f"{op} base must be float32, got {w.dtype}")
    out = x_data @ w
    del w
    xas = _rank_product(x_data, p)
    out += xas @ b_data
    return out, xas


def _rank_product(x_data: Array, p) -> Array:
    """Projection ``p``'s (n, rank) product ``s * x @ a``, by the same operations wherever it is formed.

    s scales the (n, rank) intermediate, not an (n, d_out) array.  A
    backward that forms it again from a re-formed ``x`` gets the forward's
    bits.
    """
    xas = x_data @ p.a.data
    xas *= np.float32(p.scale)
    return xas


def _lora_grads(g: Array, needs: tuple, p, xas: Array) -> tuple:
    """``(dx, gxa, dB)`` of projection ``p``, each only where ``needs`` (x, a, b) asks.

    ``dA`` is ``x.T @ gxa``, formed by the caller, which re-forms ``x``.
    ``p.base()`` is called only for dx.
    """
    gxa = None
    if needs[0] or needs[1]:
        # b.T copied to C order: OpenBLAS rounds the product with the view differently
        # at T=7 and 32 (not 128), and the copy keeps the bits of a B held (d_out, rank)
        gxa = g @ np.ascontiguousarray(p.b.data.T)
        gxa *= np.float32(p.scale)
    gx = None
    if needs[0]:
        gx = g @ p.base().T
        gx += gxa @ p.a.data.T
    return gx, gxa, (xas.T @ g if needs[2] else None)


def _project(norm: tuple, projections: Sequence, op: str, names: Sequence[str]) -> tuple:
    """The projections of the normalized input: a list of their outputs and one of their (n, rank) products.

    ``norm`` is ``(x, inv)``, the input and each row's inverse norm; the
    normalized input ``x * inv`` is formed here and freed before the
    return.  Each projection is one such as :class:`lcsb.model.Linear`,
    named in errors by ``names``, and all outputs must have one shape.
    """
    x_data, inv = norm
    n = x_data * inv
    outs, xas = [], []
    for p, name in zip(projections, names):
        out, xa = _lora_forward(n, p, f"{op} {name}")
        outs.append(out)
        xas.append(xa)
    del n
    if any(out.shape != outs[0].shape for out in outs):
        raise DimensionError(f"{op} {', '.join(names)} outputs differ: "
                             f"{', '.join(str(out.shape) for out in outs)}")
    return outs, xas


def _prenorm_grads(grads: list, needs: tuple, projections: Sequence, xas: Sequence,
                   norm: tuple) -> list:
    """``[dx, dA, dB, dA, dB, ...]`` of a pre-norm node's input and the projections :func:`_project` formed.

    ``grads[i]`` is the gradient of projection ``i``'s output; each entry
    is dropped once read, so an array no one else holds is freed.
    ``needs`` is the node's: ``x`` first, then each projection's ``a`` and
    ``b``.  The projections run from last to first, so dx sums in the
    order of the unfused chain's sweep, and the normalized input is
    re-formed once, after them, for the dA.
    """
    out = [None] * (1 + 2 * len(grads))
    gxa = [None] * len(grads)
    gx = None
    for i in reversed(range(len(grads))):
        gx_i, gxa[i], out[2 + 2 * i] = _lora_grads(
            grads[i], (needs[0], *needs[1 + 2 * i:3 + 2 * i]), projections[i], xas[i])
        grads[i] = None
        if gx is None:
            gx = gx_i
        else:
            gx += gx_i
        del gx_i
    x_data, inv = norm
    n = x_data * inv  # re-formed where dA reads it
    for i in range(len(grads)):
        if needs[1 + 2 * i]:
            out[1 + 2 * i] = n.T @ gxa[i]
    del n
    if needs[0]:
        out[0] = _rms_norm_backward(gx, x_data, inv)
    return out


# Elements in a block of rows of the SwiGLU backward's (T, d_ff) arrays:
# 32 KiB of float32, so its three temporaries stay small beside gate, up and
# their gradient, and T=128 at d_ff=256 takes four blocks.
_SWIGLU_BLOCK = 8192


def swiglu_mlp(x: Tensor, gate, up, down) -> Tensor:
    """``down(silu(gate(n)) * up(n))`` with ``n = rms_norm(x)``, a pre-norm SwiGLU MLP, as one node.

    ``silu(z) = z * sigmoid(z)``.  ``gate``, ``up`` and ``down`` are
    projections such as :class:`lcsb.model.Linear`: each has LoRA tensors
    ``a`` and ``b``, a ``scale`` and a ``base()`` that returns its float32
    (d_in, d_out) base ``w``, and is applied as ``x @ w + (scale * x @ a)
    @ b``, with ``a`` (d_in, rank) and ``b`` (rank, d_out) read in place,
    through the (n, rank) product and never the dense ``w + scale * a @
    b``.  ``x`` is (n, d).  The node's inputs are ``x`` and the six LoRA
    matrices, in the order gate's ``a``, ``b``, up's, down's.

    The node keeps ``x`` and each row's inverse norm.  When a tape records
    it, it keeps gate's and up's outputs and their (n, rank) products too
    if they take no more bytes than the gradients its backward returns,
    those of ``x`` and the six LoRA matrices: ``4 * n * sum(a.cols +
    b.cols)`` over gate and up against ``x.nbytes`` plus the six matrices'
    bytes.  So keeping never holds more
    before the backward than the backward's results hold after it.  At
    d=128, d_ff=256 and rank 16 that is up to n=44.  The choice reads no
    values, and an unrecorded node keeps nothing.  A node that keeps them
    runs neither projection again in its backward, nor the norm they read,
    which it then re-forms only for dA; otherwise its backward re-forms
    ``gate`` and ``up`` with the forward's own operations before down's dx.
    Either way the backward then runs the SwiGLU derivative in blocks of
    rows.  It writes the gradient of ``gate``'s output over ``up``, that of
    ``up``'s over the gradient of the SwiGLU output, and the SwiGLU output
    over ``gate``, where down's dA and its dB, through down's (n, rank)
    product formed again, read it whole.  So the gradients are
    those of the unfused chain bit for bit, on both paths.  Each base is
    fetched on each use and never kept, so a compressed one is decompressed
    once per projection in the forward, and in the backward once per
    projection for dx and, unless gate and up are kept, once more for each
    of them.
    """
    _check_width(x, "swiglu_mlp")
    x_data = x.data
    norm = (x_data, _rms_inv(x_data))
    inputs = (x, gate.a, gate.b, up.a, up.b, down.a, down.b)
    # if recorded: float32 gate, up and their (n, rank) products, against the gradients returned
    keep = _recorder(inputs) is not None and (
        4 * x_data.shape[0] * sum(p.a.shape[1] + p.b.shape[1] for p in (gate, up))
        <= x_data.nbytes + sum(p.a.data.nbytes + p.b.data.nbytes for p in (gate, up, down)))

    def gate_and_up():
        return _project(norm, (gate, up), "swiglu_mlp", ("gate", "up"))

    kept = gate_and_up()
    gate_out, up_out = kept[0]
    if not keep:
        kept = None
    hidden = _sigmoid(gate_out)
    hidden *= gate_out  # silu(gate)
    hidden *= up_out
    del gate_out, up_out
    out, _ = _lora_forward(hidden, down, "swiglu_mlp down")
    del hidden

    def bw(g, needs):
        nonlocal kept
        # unless kept, re-formed first, so the normalized input is gone before down's dx
        (gate_out, up_out), xas = kept or gate_and_up()
        kept = None  # so that each is freed after its last use, as a re-formed one is
        # g is shared with the residual add, so it is only read
        g_hidden, gxa_down, _ = _lora_grads(g, (True, needs[5], False), down, None)
        swiglu = needs[5] or needs[6]  # the SwiGLU output is re-formed for down's dA or dB
        # the SwiGLU derivative in blocks of rows, which are contiguous
        rows = max(1, _SWIGLU_BLOCK // gate_out.shape[1])
        for lo in range(0, gate_out.shape[0], rows):
            gate_b, up_b, g_b = (m[lo:lo + rows] for m in (gate_out, up_out, g_hidden))
            sig = _sigmoid(gate_b)
            silu = np.multiply(sig, gate_b)
            hidden = np.multiply(silu, up_b) if swiglu else None
            # g_hidden * up * silu'(gate) for gate, over up, with silu'(z) =
            # sig * (1 + z * (1 - sig)); silu(gate) * g_hidden for up, over
            # g_hidden (each product's operands commute exactly)
            up_b *= g_b
            g_b *= silu
            up_b *= sig
            np.subtract(np.float32(1.0), sig, out=sig)
            sig *= gate_b
            sig += np.float32(1.0)
            up_b *= sig
            if swiglu:
                gate_b[...] = hidden  # over gate, for down's dA and dB
            del gate_b, up_b, g_b, sig, silu, hidden
        ga_down = gate_out.T @ gxa_down if needs[5] else None
        gb_down = _rank_product(gate_out, down).T @ g if needs[6] else None
        del gate_out
        grads = [up_out, g_hidden]  # of gate's and up's outputs
        del up_out, g_hidden
        return (*_prenorm_grads(grads, needs, (gate, up), xas, norm), ga_down, gb_down)

    return _finish(out, inputs, bw)


def _split_heads(m: Array, n_heads: int) -> Array:
    """The (n_heads, T, d_h) view of a (T, d) array: head ``i`` is its column block ``i``."""
    t, d = m.shape
    return m.reshape(t, n_heads, d // n_heads).transpose(1, 0, 2)


def _head_blocks(n_heads: int, t: int, d: int) -> list:
    """Slices of at most ``max(1, d // t)`` heads: a block's (heads, T, T) scores are at most a (T, d) array."""
    size = max(1, d // t)
    return [slice(i, min(i + size, n_heads)) for i in range(0, n_heads, size)]


def _attention_probs(qh: Array, kh: Array, probs: Array, row_max: Array, row_sum: Array,
                     future: Array, rebuild: bool = False) -> Array:
    """A block of heads' causal softmax probabilities, formed in the (heads, T, T) buffer ``probs``.

    The scores are laid out (head, key, query), so the softmax reduces
    across rows, which numpy does faster than along them.  ``future`` is the
    (T, T) boolean array of keys after their query, built once per pass of
    :func:`self_attention` and shared by that pass's head blocks.  Those
    scores are set to -1e9; each query's own score is never masked, so its
    max is finite and they exp to exactly 0.  Each query's max and sum,
    (heads, 1, T), are written to ``row_max`` and ``row_sum``; to
    ``rebuild``, they are read from them instead, and the probabilities are
    formed with the same operations in the same order, bit for bit.  One
    buffer is updated in place: allocating a fresh one per operation cost
    about 175 page faults per call and twice the time at T=128, when all
    four heads' 256 KiB of scores were formed at once (2-vCPU x86-64, one
    BLAS thread).
    """
    np.matmul(kh, qh.transpose(0, 2, 1), out=probs)
    np.copyto(probs, np.float32(-1e9), where=future)
    if not rebuild:
        np.max(probs, axis=1, keepdims=True, out=row_max)
    probs -= row_max
    np.exp(probs, out=probs)
    if not rebuild:
        np.sum(probs, axis=1, keepdims=True, out=row_sum)
    probs /= row_sum
    return probs


def self_attention(x: Tensor, q, k, v, o, n_heads: int) -> Tensor:
    """``o(attention(q(n), k(n), v(n)))`` with ``n = rms_norm(x)``, pre-norm causal attention, as one node.

    ``q``, ``k``, ``v`` and ``o`` are projections ``x @ w + (scale * x @ a)
    @ b`` as in :func:`swiglu_mlp`.  ``x`` is (T, d) with T >= 1.  q, k and v
    must have one width, which ``n_heads`` splits into heads of width ``d_h``:
    head ``i`` is the column block ``i * d_h : (i + 1) * d_h``.  q is scaled
    by ``1 / sqrt(d_h)``, and position ``i`` attends to positions ``<= i``:
    the scores of later positions are set to -1e9 before the softmax.  The
    node's inputs are ``x`` and the eight LoRA matrices, in the order q's
    ``a``, ``b``, k's, v's, o's.

    The heads run as batched matmuls in blocks of ``max(1, d // T)``, so no
    block's scores are larger than ``x``.  Each block writes its outputs
    through (n_heads, T, d_h) views into (T, d) arrays it has finished
    reading: the heads over q in the forward, and dv, dk and dq over the
    re-formed v, k and q in the backward.

    The node keeps ``x``, each row's inverse norm and each query's softmax
    max and sum: no q, k, v, heads, (n_heads, T, T) or (T, rank) array.
    Its backward re-forms the normalized input, q, k and v, rebuilds the
    probabilities from the row statistics and re-forms the heads for o's dA
    and, through o's (T, rank) product formed again, its dB, all with the
    forward's own operations, so the gradients are those of the unfused
    chain bit for bit.  Each base is fetched on each use: a compressed one
    is decompressed once per projection in the forward, and in the
    backward once for each of q, k and v to re-form them and once per
    projection for dx.
    """
    if x.data.ndim != 2 or x.shape[0] == 0:
        raise DimensionError(f"self_attention expects a (T, d) input with T >= 1, got {x.shape}")
    if not isinstance(n_heads, numbers.Integral) or isinstance(n_heads, bool):
        raise DimensionError(f"self_attention: n_heads must be an int, got {n_heads!r}")
    _check_width(x, "self_attention")
    x_data = x.data
    t = x_data.shape[0]
    norm = (x_data, _rms_inv(x_data))

    def qkv_of():
        """The scaled q, k and v, (T, width) each, the scale and their (T, rank) products."""
        qkv, xas = _project(norm, (q, k, v), "self_attention", "qkv")
        width = qkv[0].shape[1]
        if n_heads <= 0 or width == 0 or width % n_heads != 0:
            raise DimensionError(f"self_attention: {n_heads} heads do not divide d={width}")
        c = np.float32(1.0 / np.sqrt(width // n_heads))
        # 1/sqrt(d_h) scales the (T, d) queries rather than the (n_heads, T, T) scores
        qkv[0] *= c
        return qkv, c, xas

    qkv, _, _ = qkv_of()
    qh, kh, vh = (_split_heads(m, n_heads) for m in qkv)
    row_max = np.empty((n_heads, 1, t), dtype=np.float32)
    row_sum = np.empty_like(row_max)
    blocks = _head_blocks(n_heads, t, x_data.shape[1])
    scores = np.empty((blocks[0].stop, t, t), dtype=np.float32)
    future = np.tri(t, k=-1, dtype=bool)
    for hs in blocks:
        probs = _attention_probs(qh[hs], kh[hs], scores[:hs.stop - hs.start], row_max[hs], row_sum[hs],
                                 future)
        np.matmul(probs.transpose(0, 2, 1), vh[hs], out=qh[hs])  # the heads, over q
    heads = qkv[0]
    del qkv, qh, kh, vh, scores, future, probs
    out, _ = _lora_forward(heads, o, "self_attention o")
    del heads

    def bw(g, needs):
        # g is shared with the residual add, so it is only read
        g_heads, gxa_o, _ = _lora_grads(g, (True, needs[7], False), o, None)
        heads = needs[7] or needs[8]  # the heads are re-formed for o's dA or dB
        g_qkv, c, xas = qkv_of()
        qh, kh, vh = (_split_heads(m, n_heads) for m in g_qkv)
        gh = _split_heads(g_heads, n_heads)
        blocks = _head_blocks(n_heads, t, x_data.shape[1])
        scores = np.empty((blocks[0].stop, t, t), dtype=np.float32)
        grad_scores = np.empty_like(scores)
        out_block = np.empty(scores.shape[:2] + qh.shape[2:], dtype=np.float32)
        future = np.tri(t, k=-1, dtype=bool)
        for hs in blocks:
            m = hs.stop - hs.start
            probs = _attention_probs(qh[hs], kh[hs], scores[:m], row_max[hs], row_sum[hs], future,
                                     rebuild=True)
            gs = np.matmul(vh[hs], gh[hs].transpose(0, 2, 1), out=grad_scores[:m])  # of probs
            if heads:
                np.matmul(probs.transpose(0, 2, 1), vh[hs], out=out_block[:m])
            np.matmul(probs, gh[hs], out=vh[hs])  # dv, over v
            if heads:  # over g's block, which dv has read, so o's dA and dB read them whole
                gh[hs] = out_block[:m]
            # the scores' gradient probs * (gs - sum(gs * probs)), formed as
            # gs * probs - probs * sum(gs * probs); the product overwrites probs
            gs *= probs
            gs -= np.multiply(probs, np.sum(gs, axis=1, keepdims=True), out=probs)
            np.matmul(gs.transpose(0, 2, 1), kh[hs], out=out_block[:m])
            np.matmul(gs, qh[hs], out=kh[hs])  # dk, over k
            np.multiply(out_block[:m], c, out=qh[hs])  # dq, over q
        del qh, kh, vh, gh, scores, grad_scores, out_block, future, probs, gs
        ga_o = g_heads.T @ gxa_o if needs[7] else None
        gb_o = _rank_product(g_heads, o).T @ g if needs[8] else None
        del g_heads
        return (*_prenorm_grads(g_qkv, needs, (q, k, v), xas, norm), ga_o, gb_o)

    inputs = (x, q.a, q.b, k.a, k.b, v.a, v.b, o.a, o.b)
    return _finish(out, inputs, bw)


def _class_ids(values, n_classes: int, what: str) -> Array:
    """``values`` as 1-d integer ids in ``[0, n_classes)``, or unchecked if empty; else DimensionError."""
    try:
        ids = np.asarray(values)
    except ValueError:  # a ragged nesting of sequences
        raise DimensionError(f"{what} must be integers in a 1-d sequence, "
                             f"got a ragged nesting") from None
    if ids.ndim != 1:
        raise DimensionError(f"{what} must be a 1-d sequence, got shape {ids.shape}")
    if ids.shape[0] == 0:  # each caller has its own rule for the length
        return ids
    if not np.issubdtype(ids.dtype, np.integer):  # floats and bools too
        raise DimensionError(f"{what} must be integers, got dtype {ids.dtype}")
    if ids.min() < 0 or ids.max() >= n_classes:  # -1 would index the last class
        raise DimensionError(f"{what} out of range [0, {n_classes}): "
                             f"{int(ids.min())}..{int(ids.max())}")
    return ids


def cross_entropy_logits(logits: Tensor, targets) -> Tensor:
    """Mean cross entropy of raw (n, n_classes) logits against integer class targets.

    ``logits`` needs n >= 1 rows and ``targets`` one id in ``[0, n_classes)`` per
    row, by the id rule :meth:`~lcsb.model.Model.forward` applies to tokens; anything
    else raises :class:`DimensionError`.  The node keeps the softmax probabilities and
    turns them into the gradient in place.
    """
    if logits.data.ndim != 2:
        raise DimensionError(f"cross_entropy expects (n, n_classes) logits, got {logits.shape}")
    n, n_classes = logits.shape
    if n == 0:
        raise DimensionError("cross_entropy needs at least one row of logits, got 0")
    targets = _class_ids(targets, n_classes, "cross_entropy targets")
    if targets.shape != (n,):
        raise DimensionError(f"cross_entropy got {targets.shape[0]} targets for {n} rows of logits")
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

