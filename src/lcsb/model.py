"""A nano decoder-only transformer with LoRA adapters on frozen base weights.

Per layer: pre-RMSNorm causal multi-head attention and a SwiGLU MLP, each
with a residual add.  Only the LoRA matrices are trainable, and they are the
model's only :class:`~lcsb.autodiff.Tensor` objects.  Everything frozen (base
weights, the token embedding and the positions) is a plain float32 array,
or packed 4-bit codes in a 4-bit model.  The output head is weight-tied: it
reads the embedding.

Norms have no parameters: each is ``x / sqrt(mean(x ** 2) + eps)``, as in
OLMo (Groeneveld et al. 2024).  Nothing but the LoRA matrices trains, so a
frozen gain could only hold its init of ones, and multiplying by ones
changes no bit.

Every matrix, frozen or trained, float or 4-bit, is held in the layout its
product reads: a base as (d_in, d_out) for ``x @ w``, LoRA A as (d_in,
rank) for ``x @ a`` and B as (rank, d_out) for ``xas @ b``, the embedding
as (d_model, vocab_size), which the head multiplies by and whose columns
the token lookup gathers, and the positions as (d_model, seq_len).  A
float and a 4-bit model thus read one layout through one code path.  A
checkpoint keeps A as (rank, d_in) and B as (d_out, rank), as in the paper.

With ``quantize_base`` set, every frozen matrix is 4-bit quantized at init:
the seven base projections of each layer, the embedding and the positions.
A quantized matrix is then held only as codes packed two to a byte, in the
flat-halves layout of :mod:`lcsb.quant`, one 8-bit scale mantissa per group
of ``quant_group_size`` weights and one power-of-two exponent per matrix:
4.25 bits per weight at the default group of 32.  Groups run along d_in,
which for the embedding and the positions is d_model.  The decode
is exact in float32, since a code times a mantissa is an integer below
2**11.  Each matrix is decompressed on each use and dropped after it.  A
base is decompressed once in the forward, and again in an attached layer's
backward, once per projection where dx needs it and once more for q, k and
v, and for gate and up unless the MLP kept them, to re-form their outputs.
A detached layer decompresses only in the forward.  The embedding and the
positions are decompressed once each for the lookup, and dropped before
the first block; the head decompresses the embedding again in its forward
and, when the tape records it, once more in its backward.  This is the
memory and time trade of fine-tuning on compressed weights.

A layer is its seven projections (q, k, v, o, gate, up, down), a dict of
:class:`Linear` by name, each a frozen base and its LoRA matrices.  Each
half of a block is one fused tape node: the whole attention (norm, q, k
and v, all heads' scaled, causally masked softmax, ``probs @ v``, o) is
one ``self_attention`` node, and the whole MLP (norm, gate and up,
``silu(gate) * up``, down) is one ``swiglu_mlp`` node.  An attached layer
records 4 nodes (the two halves and their residual adds); its LoRA
matrices are leaves the tape keeps, not nodes.  What each node keeps for
its backward and what it re-forms there is listed in :mod:`lcsb.autodiff`;
an attached layer retains about 0.13 MiB at the default T=128.

Every residual block exposes three forward modes:

* ``attached`` - normal recording, gradients flow into the block,
* ``detached`` - the two branches (norm then attention, norm then MLP) run
  with recording paused, so they are constants to the tape; only the two
  residual adds are recorded, and the gradient passes the block unchanged
  along the identity path,
* ``dropped``  - the block is skipped entirely (the layer-dropping
  baseline; forward values change).

Attached and detached blocks do the same arithmetic and differ only in
what the tape records, so logits are bit-identical across such plans.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping
from contextlib import nullcontext
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, CorruptionError, DimensionError, PlanError
from .quant import MAX_EXPONENT, MIN_EXPONENT, QuantizedLinear, dequantize, quantize_weights


class BlockMode(str, Enum):
    """A block's forward mode; ``BlockMode(x)`` of an unknown mode raises :class:`PlanError`."""

    ATTACHED = "attached"
    DETACHED = "detached"
    DROPPED = "dropped"

    @classmethod
    def _missing_(cls, value):
        raise PlanError(f"unknown block mode {value!r}; "
                        f"expected one of {[m.value for m in cls]}") from None


@dataclass
class ModelConfig:
    n_layers: int = 8
    d_model: int = 128
    n_heads: int = 4
    d_ff: int = 256
    vocab_size: int = 256
    seq_len: int = 128
    lora_rank: int = 16
    lora_alpha: float = 32.0
    quantize_base: bool = False
    quant_group_size: int = 32

    def validate(self) -> None:
        for name in ("n_layers", "d_model", "n_heads", "d_ff", "vocab_size",
                     "seq_len", "lora_rank", "quant_group_size"):
            value = getattr(self, name)
            # a bool is an int to Python, but True layers is a mistake, not 1
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an int, got {value!r}")
            if value <= 0:
                raise ConfigError(f"{name} must be positive, got {value}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model must be divisible by n_heads ({self.d_model} mod {self.n_heads} != 0)"
            )
        if self.lora_rank > self.d_model:
            raise ConfigError(
                f"lora_rank must not exceed d_model ({self.lora_rank} > {self.d_model})"
            )
        alpha = self.lora_alpha
        if (not isinstance(alpha, numbers.Real) or isinstance(alpha, bool)
                or not math.isfinite(alpha) or alpha <= 0):
            raise ConfigError(f"lora_alpha must be a finite positive number, got {alpha!r}")
        if not isinstance(self.quantize_base, bool):
            raise ConfigError(f"quantize_base must be a bool, got {self.quantize_base!r}")
        if self.quantize_base:
            for length in (self.d_model, self.d_ff):
                if length % self.quant_group_size != 0:
                    raise ConfigError(
                        f"quant_group_size {self.quant_group_size} does not divide {length}"
                    )


@dataclass(eq=False)
class Linear:
    """One projection: a frozen base plus its trainable LoRA delta ``scale * a @ b``.

    ``weight`` is the base in the (d_in, d_out) layout that ``x @ w`` reads,
    a float32 array or, for a 4-bit base, only a :class:`QuantizedLinear`;
    :meth:`base` returns it in float, decompressing on every call.  ``a``
    (d_in, rank) and ``b`` (rank, d_out; zero at init) are used in place, and
    ``scale`` is the config's ``lora_alpha / lora_rank``.  A block hands
    its q, k, v and o to ``self_attention`` and its gate, up and down to
    ``swiglu_mlp`` whole, and the engine hands each projection on whole,
    down to its innermost helper, which reads the parts it uses.
    Neither node forms the dense ``w + scale * a @ b``; each calls :meth:`base` again
    in the backward, for dx and to re-form the outputs of q, k and v, and
    of gate and up unless the MLP kept them.
    """

    weight: np.ndarray | QuantizedLinear
    a: Tensor
    b: Tensor
    scale: float

    def base(self) -> np.ndarray:
        return _decoded(self.weight)


def _decoded(w: np.ndarray | QuantizedLinear) -> np.ndarray:
    """A frozen matrix in float32: a 4-bit one decompressed afresh, a float one itself."""
    return dequantize(w) if isinstance(w, QuantizedLinear) else w


@dataclass(eq=False)
class Model:
    """Instantiated parameters plus the forward graph builders.

    ``embed`` (d_model, vocab_size) and ``pos`` (d_model, seq_len) are
    float32 arrays, or in a 4-bit model :class:`QuantizedLinear` tables,
    decompressed on each use.  ``blocks`` holds each layer's projections by
    site name.
    """

    config: ModelConfig
    embed: np.ndarray | QuantizedLinear
    pos: np.ndarray | QuantizedLinear
    blocks: list[dict[str, Linear]]

    # -- parameter access --------------------------------------------------

    def lora_params_by_layer(self) -> list:
        """Per-layer {name: Tensor} over that layer's LoRA matrices."""
        return [{f"layers.{i}.{site}.lora_{m}": t for site, lin in block.items()
                 for m, t in (("a", lin.a), ("b", lin.b))}
                for i, block in enumerate(self.blocks)]

    def trainable_params(self) -> dict:
        """Name -> Tensor for every LoRA matrix, in layer order."""
        return {name: t for layer in self.lora_params_by_layer() for name, t in layer.items()}

    def _frozen_matrices(self):
        """``(checkpoint stem, owner, attribute)`` of each frozen matrix a 4-bit model quantizes."""
        yield "embed.weight", self, "embed"
        yield "embed.pos", self, "pos"
        for i, block in enumerate(self.blocks):
            for site, lin in block.items():
                yield f"layers.{i}.{site}", lin, "weight"

    def state_arrays(self) -> dict:
        """Name -> ndarray of everything a checkpoint must persist.

        A frozen matrix is saved under its stem if float, and as its codes,
        scales and exponent under ``{stem}.q4``, ``{stem}.q4_scales`` and
        ``{stem}.q4_exponent`` if 4-bit, and an adapter as a view of its transpose.
        """
        out = {}
        for stem, owner, attr in self._frozen_matrices():
            w = getattr(owner, attr)
            if isinstance(w, QuantizedLinear):
                out.update({f"{stem}.q4": w.packed, f"{stem}.q4_scales": w.scales,
                            f"{stem}.q4_exponent": w.exponent})
            else:
                out[stem] = w
        out.update((name, t.data.T) for name, t in self.trainable_params().items())
        return out

    def load_state_arrays(self, arrays: Mapping) -> None:
        """Copy all parameters from a checkpoint's array map into the model's own buffers.

        The map, a :class:`~collections.abc.Mapping` such as ``np.load``'s
        file, must have exactly the keys of :meth:`state_arrays`, with the
        same shapes, float arrays whose values are finite in float32, and for
        each 4-bit matrix (a base, the embedding or the positions) what
        :func:`~lcsb.quant.quantize_weights` writes: its codes as packed uint8
        bytes, its group scale mantissas as uint8
        values with no zero, and its exponent as a 0-d integer in
        [``MIN_EXPONENT``, ``MAX_EXPONENT``] of :mod:`lcsb.quant`, the range
        in which every code times its scale is finite in float32.  Otherwise
        :class:`CorruptionError` names the first bad key, and nothing has
        been overwritten; a checkpoint of an older layout, such as a float
        base under ``layers.{i}.{site}.w`` or the norm gains an older
        model held, is refused on its keys.  The
        model keeps no reference to the caller's arrays, and its float
        arrays, scales, exponents and LoRA tensors stay the same objects.
        """
        if not isinstance(arrays, Mapping):
            raise CorruptionError(f"checkpoint maps names to arrays, got a {type(arrays).__name__}")
        expected = self.state_arrays()
        unknown = sorted(set(arrays) - set(expected), key=str)
        if unknown:
            raise CorruptionError(f"checkpoint has unexpected key {unknown[0]!r}")
        checked = {}  # name -> the array to copy in, as float32 unless a 4-bit matrix's
        for name, current in expected.items():
            if name not in arrays:
                raise CorruptionError(f"checkpoint is missing key {name!r}")
            try:
                array = np.asarray(arrays[name])
            except ValueError:  # a ragged nesting of sequences
                raise CorruptionError(f"{name!r} is ragged, not an array") from None
            if name.endswith(".q4") and array.dtype != np.uint8:
                raise CorruptionError(f"{name!r} holds {array.dtype}, not packed uint8 4-bit codes")
            if name.endswith(".q4_scales") and array.dtype != np.uint8:
                raise CorruptionError(f"{name!r} holds {array.dtype}, not uint8 scale mantissas")
            if name.endswith(".q4_exponent") and not np.issubdtype(array.dtype, np.integer):
                raise CorruptionError(f"{name!r} holds {array.dtype}, not an integer scale exponent")
            if array.shape != current.shape:
                raise CorruptionError(
                    f"{name!r} has shape {array.shape}, the model expects {current.shape}"
                )
            if name.endswith(".q4"):  # a read-only copy: the model shares no buffer with the caller
                array = np.array(array, order="C")
                array.flags.writeable = False
            elif name.endswith(".q4_scales"):
                # a zero mantissa decompressed to a zero group; quantize_weights writes 1 or more
                if not array.all():
                    raise CorruptionError(f"{name!r} holds a zero scale mantissa")
            elif name.endswith(".q4_exponent"):
                if not MIN_EXPONENT <= array <= MAX_EXPONENT:
                    raise CorruptionError(f"{name!r} is {int(array)}, outside the exponents "
                                          f"[{MIN_EXPONENT}, {MAX_EXPONENT}] a scale can have")
            else:
                if np.issubdtype(array.dtype, np.floating):
                    with np.errstate(over="ignore"):  # beyond float32's range casts to inf
                        array = array.astype(np.float32, copy=False)
                if array.dtype != np.float32 or not np.isfinite(array).all():
                    raise CorruptionError(f"{name!r} is not an array of finite float32 values")
            checked[name] = array
        for name, current in expected.items():
            if not name.endswith(".q4"):
                current[...] = checked[name]
        for stem, owner, attr in self._frozen_matrices():
            weight = getattr(owner, attr)
            if isinstance(weight, QuantizedLinear):
                setattr(owner, attr, replace(weight, packed=checked[f"{stem}.q4"]))

    # -- forward -----------------------------------------------------------

    def block_forward(self, h: Tensor, layer_index: int, mode: BlockMode) -> Tensor:
        """One residual block in the requested gradient mode; layer_index is in [0, n_layers)."""
        n_layers = len(self.blocks)
        if (not isinstance(layer_index, numbers.Integral) or isinstance(layer_index, bool)
                or not 0 <= layer_index < n_layers):
            raise PlanError(f"layer index {layer_index!r} is not an int in [0, {n_layers})")
        mode = BlockMode(mode)
        if mode is BlockMode.DROPPED:
            return h
        lin = self.blocks[layer_index]
        branch = ad.paused if mode is BlockMode.DETACHED else nullcontext
        with branch():
            attn = ad.self_attention(h, lin["q"], lin["k"], lin["v"], lin["o"], self.config.n_heads)
        a = ad.add(h, attn)
        with branch():
            mlp = ad.swiglu_mlp(a, lin["gate"], lin["up"], lin["down"])
        return ad.add(a, mlp)

    def forward(self, tokens, plan=None) -> Tensor:
        """Logits of shape (len(tokens), vocab_size).

        ``tokens`` is a 1-d sequence of 1 to ``seq_len`` integer ids in ``[0, vocab_size)``,
        by the id rule :func:`~lcsb.autodiff.cross_entropy_logits` applies to its targets;
        anything else raises :class:`DimensionError`.
        ``plan`` is anything with a ``modes`` sequence, one block mode per
        layer; ``None`` runs every block attached.  A plan without such a
        sequence raises :class:`PlanError`.
        """
        cfg = self.config
        modes = getattr(plan, "modes", None)
        if plan is None:
            modes = [BlockMode.ATTACHED] * cfg.n_layers
        try:
            modes = [BlockMode(m) for m in modes]
        except TypeError:  # no .modes, or one that cannot be iterated
            raise PlanError(f"a plan needs a sequence of block modes in .modes, "
                            f"got {plan!r}") from None
        if len(modes) != cfg.n_layers:
            raise PlanError(f"plan covers {len(modes)} layers, model has {cfg.n_layers}")
        tokens = ad._class_ids(tokens, cfg.vocab_size, "token ids")
        if not 1 <= tokens.shape[0] <= cfg.seq_len:
            raise DimensionError(f"tokens must be 1 to seq_len={cfg.seq_len} ids, got {len(tokens)}")
        # the embedding and positions are frozen, so the first activation is a
        # constant: their columns, gathered (4-bit tables decompressed and dropped)
        h = Tensor((_decoded(self.embed)[:, tokens] + _decoded(self.pos)[:, :tokens.shape[0]]).T)
        for i, mode in enumerate(modes):
            h = self.block_forward(h, i, mode)
        # the weight-tied head reads the embedding, fetched (and a 4-bit one
        # decompressed) in its forward and again in its backward
        return ad.norm_head(h, lambda: _decoded(self.embed))


def init_model(config: ModelConfig, seed: int) -> Model:
    """Deterministically initialize a model from a seed, a non-negative int.

    Base weights, the embedding and the positions are N(0, 0.02), LoRA A
    is N(0, 1/rank), drawn (rank, d_in) and held transposed; LoRA B is zero.  When
    ``quantize_base`` is set, every frozen matrix is quantized once here and
    kept only as packed 4-bit codes, 8-bit group scale mantissas and one
    power-of-two exponent per matrix; the float draws are not kept.
    """
    config.validate()
    if not isinstance(seed, numbers.Integral) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"seed must be a non-negative int, got {seed!r}")
    rng = np.random.default_rng(seed)

    def gauss(shape, std):
        return (rng.standard_normal(shape) * std).astype(np.float32)

    def frozen(d_out, d_in):
        """A matrix drawn (d_out, d_in) and held in the (d_in, d_out) layout ``x @ w`` reads."""
        w = gauss((d_out, d_in), 0.02).T
        if config.quantize_base:  # validate requires the group size to divide d_in
            return quantize_weights(w, config.quant_group_size)
        return np.ascontiguousarray(w)

    embed = frozen(config.vocab_size, config.d_model)
    pos = frozen(config.seq_len, config.d_model)
    d, d_ff = config.d_model, config.d_ff
    # site name -> (d_out, d_in), in init draw order
    site_dims = {"q": (d, d), "k": (d, d), "v": (d, d), "o": (d, d),
                 "gate": (d_ff, d), "up": (d_ff, d), "down": (d, d_ff)}
    blocks = []
    for _ in range(config.n_layers):
        linears = {}
        for site, (d_out, d_in) in site_dims.items():
            weight = frozen(d_out, d_in)
            a = gauss((config.lora_rank, d_in), 1.0 / config.lora_rank).T
            b = np.zeros((config.lora_rank, d_out), dtype=np.float32)
            linears[site] = Linear(weight, Tensor(a, requires_grad=True),
                                   Tensor(b, requires_grad=True),
                                   scale=config.lora_alpha / config.lora_rank)
        blocks.append(linears)
    return Model(config, embed, pos, blocks)
