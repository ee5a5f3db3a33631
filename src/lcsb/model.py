"""A nano decoder-only transformer with LoRA adapters on frozen base weights.

Per layer: pre-RMSNorm causal multi-head attention and a SwiGLU MLP, each
with a residual add.  Only the LoRA matrices are trainable, and they are the
model's only :class:`~lcsb.autodiff.Tensor` objects.  Everything frozen (base
weights, embeddings, norm gains and the weight-tied output head, which reads
the embedding) is a plain float32 array.

The base projections can be 4-bit quantized at init.  A quantized base is
then held only as codes packed two to a byte (4 bits per weight, in the
flat-halves layout of :mod:`lcsb.quant`) and scales, and decompressed on
each use: once in the forward, and again in an attached layer's
backward, once where dx needs it and, for the MLP's gate and up, once
more to re-form their outputs.  A detached layer decompresses only in the
forward.  This is the memory and time trade of fine-tuning on compressed
weights.

Each of a layer's seven projections (q, k, v, o, gate, up, down) is one
:class:`Linear`: a frozen base and its LoRA matrices.  The forward is
built from fused primitives so that an attached layer records few tape
nodes: q, k, v and o are one ``lora_linear`` node each (base matmul plus
the scaled low-rank delta), all heads of attention (scale, causal mask,
softmax, ``probs @ v``) are one ``causal_attention`` node, and the whole
MLP (norm, gate and up, ``silu(gate) * up``, down) is one ``swiglu_mlp``
node.  An attached layer records at most 9 op nodes, plus one leaf per
LoRA matrix.  What it retains for its backward is a few (T, d)
activations (the inputs of its two norms and of its attention, and the
attention's output), each query's softmax max and sum and each row's
inverse norms, never a (heads, T, T) array or one of width d_ff: about
0.43 MiB at the default T=128.  The projections that read the attention's
norm keep a rebuild of it instead of the array, and the MLP re-forms its
intermediates in its backward.  The output head, the model's one
``frozen_linear`` node, reads the embedding in place, through a
transposed view.

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
from contextlib import nullcontext
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, CorruptionError, DimensionError, PlanError
from .quant import QuantizedLinear, dequantize, quantize_weights


class BlockMode(str, Enum):
    ATTACHED = "attached"
    DETACHED = "detached"
    DROPPED = "dropped"


def _block_mode(mode) -> BlockMode:
    try:
        return BlockMode(mode)
    except ValueError:
        raise PlanError(
            f"unknown block mode {mode!r}; expected one of {[m.value for m in BlockMode]}"
        ) from None


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
    """One projection: a frozen base plus its trainable LoRA delta ``scale * B @ A``.

    ``weight`` is the base in the (d_in, d_out) layout that ``x @ w`` reads,
    a float32 array or, for a 4-bit base, only a :class:`QuantizedLinear`;
    :meth:`base` returns it in float, decompressing on every call.  ``a``
    (rank, d_in) and ``b`` (d_out, rank; zero at init) are used in place, and
    ``scale`` is the config's ``lora_alpha / lora_rank``.  A call is one
    ``lora_linear`` node, which never forms the dense ``W + BA`` and calls
    :meth:`base` again in the backward only when dx is needed; the MLP's
    gate, up and down are handed to ``swiglu_mlp`` whole instead.
    """

    weight: np.ndarray | QuantizedLinear
    a: Tensor
    b: Tensor
    scale: float

    def base(self) -> np.ndarray:
        if isinstance(self.weight, QuantizedLinear):
            return dequantize(self.weight)
        return self.weight

    def __call__(self, x: Tensor) -> Tensor:
        return ad.lora_linear(x, self.a, self.b, self.scale, base=self.base)


@dataclass(eq=False)
class _Block:
    linears: dict[str, Linear]  # by site name
    norm_attn: np.ndarray
    norm_mlp: np.ndarray


# site name -> (d_out, d_in) picker, in init draw order
_SITE_DIMS = {
    "q": lambda c: (c.d_model, c.d_model),
    "k": lambda c: (c.d_model, c.d_model),
    "v": lambda c: (c.d_model, c.d_model),
    "o": lambda c: (c.d_model, c.d_model),
    "gate": lambda c: (c.d_ff, c.d_model),
    "up": lambda c: (c.d_ff, c.d_model),
    "down": lambda c: (c.d_model, c.d_ff),
}


@dataclass(eq=False)
class Model:
    """Instantiated parameters plus the forward graph builders."""

    config: ModelConfig
    embed: np.ndarray
    pos: np.ndarray
    blocks: list[_Block]
    norm_out: np.ndarray

    # -- parameter access --------------------------------------------------

    def lora_params_by_layer(self) -> list:
        """Per-layer {name: Tensor} over that layer's LoRA matrices."""
        return [{f"layers.{i}.{site}.lora_{m}": t for site, lin in block.linears.items()
                 for m, t in (("a", lin.a), ("b", lin.b))}
                for i, block in enumerate(self.blocks)]

    def trainable_params(self) -> dict:
        """Name -> Tensor for every LoRA matrix, in layer order."""
        return {name: t for layer in self.lora_params_by_layer() for name, t in layer.items()}

    def state_arrays(self) -> dict:
        """Name -> ndarray of everything a checkpoint must persist."""
        out = {"embed.weight": self.embed, "embed.pos": self.pos}
        for i, block in enumerate(self.blocks):
            prefix = f"layers.{i}"
            out[f"{prefix}.norm_attn.gain"] = block.norm_attn
            out[f"{prefix}.norm_mlp.gain"] = block.norm_mlp
            for site, lin in block.linears.items():
                if isinstance(lin.weight, QuantizedLinear):
                    out[f"{prefix}.{site}.q4"] = lin.weight.packed
                    out[f"{prefix}.{site}.q4_scales"] = lin.weight.scales
                else:
                    out[f"{prefix}.{site}.w"] = lin.weight
                out[f"{prefix}.{site}.lora_a"] = lin.a.data
                out[f"{prefix}.{site}.lora_b"] = lin.b.data
        out["norm_out.gain"] = self.norm_out
        return out

    def load_state_arrays(self, arrays: dict) -> None:
        """Copy all parameters from a checkpoint's array map into the model's own buffers.

        The map must have exactly the keys of :meth:`state_arrays`, with the
        same shapes, float arrays whose values are finite in float32, and
        4-bit codes as packed uint8 bytes.  Otherwise :class:`CorruptionError`
        names the first bad key, and nothing has been overwritten.  The model keeps no reference
        to the caller's arrays, and its float arrays and LoRA tensors stay the
        same objects.
        """
        expected = self.state_arrays()
        unknown = sorted(set(arrays) - set(expected))
        if unknown:
            raise CorruptionError(f"checkpoint has unexpected key {unknown[0]!r}")
        checked = {}  # name -> the array to copy in, as float32 unless packed codes
        for name, current in expected.items():
            if name not in arrays:
                raise CorruptionError(f"checkpoint is missing key {name!r}")
            array = np.asarray(arrays[name])
            if name.endswith(".q4") and array.dtype != np.uint8:
                raise CorruptionError(f"{name!r} holds {array.dtype}, not packed uint8 4-bit codes")
            if array.shape != current.shape:
                raise CorruptionError(
                    f"{name!r} has shape {array.shape}, the model expects {current.shape}"
                )
            if not name.endswith(".q4"):
                if np.issubdtype(array.dtype, np.floating):
                    with np.errstate(over="ignore"):  # beyond float32's range casts to inf
                        array = array.astype(np.float32, copy=False)
                if array.dtype != np.float32 or not np.isfinite(array).all():
                    raise CorruptionError(f"{name!r} is not an array of finite float32 values")
                if name.endswith(".q4_scales") and not (array > 0).all():
                    # quantize_weights writes only positive scales (1.0 for an all-zero group)
                    raise CorruptionError(f"{name!r} holds a scale that is not positive")
            checked[name] = array
        for name, current in expected.items():
            if not name.endswith(".q4"):
                current[...] = checked[name]
        for i, block in enumerate(self.blocks):
            for site, lin in block.linears.items():
                if isinstance(lin.weight, QuantizedLinear):
                    packed = np.array(checked[f"layers.{i}.{site}.q4"], order="C")
                    packed.flags.writeable = False
                    lin.weight = QuantizedLinear(packed, lin.weight.scales, lin.weight.group_size)

    # -- forward -----------------------------------------------------------

    # The attention branch drops each intermediate after its last use, as
    # swiglu_mlp does inside.  In a detached block nothing else holds them,
    # and in an attached one the tape keeps only what its backward needs, so
    # neither holds an array longer than the branch must.

    def _attention(self, h: Tensor, block: _Block) -> Tensor:
        lin = block.linears
        x = ad.rms_norm(h, block.norm_attn)
        q, k, v = lin["q"](x), lin["k"](x), lin["v"](x)
        del x
        heads = ad.causal_attention(q, k, v, self.config.n_heads)
        del q, k, v
        return lin["o"](heads)

    def block_forward(self, h: Tensor, layer_index: int, mode: BlockMode) -> Tensor:
        """One residual block in the requested gradient mode; layer_index is in [0, n_layers)."""
        n_layers = len(self.blocks)
        if (not isinstance(layer_index, numbers.Integral) or isinstance(layer_index, bool)
                or not 0 <= layer_index < n_layers):
            raise PlanError(f"layer index {layer_index!r} is not an int in [0, {n_layers})")
        mode = _block_mode(mode)
        if mode is BlockMode.DROPPED:
            return h
        block = self.blocks[layer_index]
        branch = ad.paused if mode is BlockMode.DETACHED else nullcontext
        with branch():
            attn = self._attention(h, block)
        a = ad.add(h, attn)
        lin = block.linears
        with branch():
            mlp = ad.swiglu_mlp(a, block.norm_mlp, lin["gate"], lin["up"], lin["down"])
        return ad.add(a, mlp)

    def forward(self, tokens, plan=None) -> Tensor:
        """Logits of shape (len(tokens), vocab_size).

        ``tokens`` is a 1-d sequence of 1 to ``seq_len`` integer token ids in
        ``[0, vocab_size)``; other shapes, non-integer ids and ids out of range
        raise :class:`DimensionError`.
        ``plan`` is anything with a ``modes`` sequence, one block mode per
        layer; ``None`` runs every block attached.  A plan without such a
        sequence raises :class:`PlanError`.
        """
        cfg = self.config
        modes = getattr(plan, "modes", None)
        if plan is None:
            modes = [BlockMode.ATTACHED] * cfg.n_layers
        try:
            modes = [_block_mode(m) for m in modes]
        except TypeError:  # no .modes, or one that cannot be iterated
            raise PlanError(f"a plan needs a sequence of block modes in .modes, "
                            f"got {plan!r}") from None
        if len(modes) != cfg.n_layers:
            raise PlanError(f"plan covers {len(modes)} layers, model has {cfg.n_layers}")
        tokens = np.asarray(tokens)
        if tokens.ndim != 1 or not 1 <= tokens.shape[0] <= cfg.seq_len:
            raise DimensionError(
                f"tokens must be a 1-d sequence of 1 to seq_len={cfg.seq_len} ids, "
                f"got shape {tokens.shape}"
            )
        if not np.issubdtype(tokens.dtype, np.integer):
            raise DimensionError(f"token ids must be integers, got dtype {tokens.dtype}")
        if tokens.min() < 0 or tokens.max() >= cfg.vocab_size:  # -1 would index the last row
            raise DimensionError(
                f"token id out of range [0, {cfg.vocab_size}): "
                f"{int(tokens.min())}..{int(tokens.max())}"
            )
        # the embedding and positions are frozen, so the first activation is a constant
        h = Tensor(self.embed[tokens] + self.pos[:tokens.shape[0]])
        for i, mode in enumerate(modes):
            h = self.block_forward(h, i, mode)
        # the weight-tied head reads the frozen embedding through a transposed view
        return ad.frozen_linear(ad.rms_norm(h, self.norm_out), self.embed.T)


def init_model(config: ModelConfig, seed: int) -> Model:
    """Deterministically initialize a model from a seed.

    Base weights are N(0, 0.02), LoRA A is N(0, 1/rank), LoRA B is zero,
    norm gains are ones.  When ``quantize_base`` is set, the base
    projections are quantized once here and kept only as packed 4-bit codes
    and scales.
    """
    config.validate()
    rng = np.random.default_rng(seed)

    def gauss(shape, std):
        return (rng.standard_normal(shape) * std).astype(np.float32)

    embed = gauss((config.vocab_size, config.d_model), 0.02)
    pos = gauss((config.seq_len, config.d_model), 0.02)
    blocks = []
    for _ in range(config.n_layers):
        linears = {}
        for site, dims in _SITE_DIMS.items():
            d_out, d_in = dims(config)
            weight = np.ascontiguousarray(gauss((d_out, d_in), 0.02).T)
            if config.quantize_base:
                weight = quantize_weights(weight, config.quant_group_size)
            a = gauss((config.lora_rank, d_in), 1.0 / config.lora_rank)
            b = np.zeros((d_out, config.lora_rank), dtype=np.float32)
            linears[site] = Linear(weight, Tensor(a, requires_grad=True),
                                   Tensor(b, requires_grad=True),
                                   scale=config.lora_alpha / config.lora_rank)
        blocks.append(_Block(linears, norm_attn=np.ones(config.d_model, dtype=np.float32),
                             norm_mlp=np.ones(config.d_model, dtype=np.float32)))
    return Model(config, embed, pos, blocks, norm_out=np.ones(config.d_model, dtype=np.float32))
