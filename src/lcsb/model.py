"""A nano decoder-only transformer with LoRA adapters on frozen base weights.

Per layer: pre-RMSNorm causal multi-head attention and a SwiGLU MLP, each
with a residual add.  Only the LoRA matrices are trainable; base weights,
embeddings, norms, and the weight-tied output head are frozen (and the base
projections can be 4-bit quantized at init).

The forward is built from fused primitives so that an attached layer
records few tape nodes: each projection with a LoRA adapter is one
``lora_linear`` node (base matmul plus the scaled low-rank delta), and all
heads of attention (scale, causal mask, softmax, ``probs @ v``) are one
``causal_attention`` node.  An attached layer records at most 16 op nodes,
plus one leaf per LoRA matrix.

Every residual block exposes three forward modes:

* ``attached`` - normal recording, gradients flow into the block,
* ``detached`` - identical output values, but the block's contribution is
  computed with recording paused, so it is a constant to the tape and
  gradients only flow through the residual identity path,
* ``dropped``  - the block is skipped entirely (the layer-dropping
  baseline; forward values change).

To keep logits bit-identical across attached/detached plans, the attached
path computes the same ``h + (block(h) - h)`` arithmetic as the detached
path; the two differ only in what the tape records.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DimensionError, PlanError
from .quant import QuantizedLinear, dequantize, quantize_weights

ALL_LORA_TARGETS = ("q", "k", "v", "o", "gate", "up", "down")

MASK_VALUE = np.float32(-1e9)


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
    lora_targets: tuple = ALL_LORA_TARGETS
    quantize_base: bool = False
    quant_group_size: int = 32

    def validate(self) -> None:
        for name in ("n_layers", "d_model", "n_heads", "d_ff", "vocab_size",
                     "seq_len", "lora_rank", "quant_group_size"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model must be divisible by n_heads ({self.d_model} mod {self.n_heads} != 0)"
            )
        if self.lora_rank > self.d_model:
            raise ConfigError(
                f"lora_rank must not exceed d_model ({self.lora_rank} > {self.d_model})"
            )
        if self.lora_alpha <= 0:
            raise ConfigError(f"lora_alpha must be positive, got {self.lora_alpha}")
        unknown = set(self.lora_targets) - set(ALL_LORA_TARGETS)
        if unknown:
            raise ConfigError(f"unknown lora targets {sorted(unknown)}")
        if self.quantize_base:
            for length in (self.d_model, self.d_ff):
                if length % self.quant_group_size != 0:
                    raise ConfigError(
                        f"quant_group_size {self.quant_group_size} does not divide {length}"
                    )


@dataclass
class LoraAdapter:
    """Trainable low-rank delta ``(alpha / rank) * B @ A``; B starts at zero.

    A and B are stored as (rank, d_in) and (d_out, rank) and used in place
    by :func:`lcsb.autodiff.lora_linear`; no step copies or transposes them.
    """

    a: Tensor  # (rank, d_in)
    b: Tensor  # (d_out, rank)
    alpha: float
    rank: int


class Linear:
    """Frozen base projection plus an optional trainable LoRA adapter.

    The base weight is held pre-transposed, shape (d_in, d_out).  A site
    with an adapter is one fused ``lora_linear`` node, whose backward never
    forms the dense ``W + BA``; a site without one is a single ``matmul``.
    """

    def __init__(self, w_t: Tensor, lora: LoraAdapter | None, quant: QuantizedLinear | None = None):
        self.w_t = w_t
        self.lora = lora
        self.quant = quant

    def __call__(self, x: Tensor) -> Tensor:
        lora = self.lora
        if lora is None:
            return ad.matmul(x, self.w_t)
        return ad.lora_linear(x, self.w_t, lora.a, lora.b, lora.alpha / lora.rank)


class _Block:
    def __init__(self, linears: dict, norm_attn: Tensor, norm_mlp: Tensor):
        self.linears = linears
        self.norm_attn = norm_attn
        self.norm_mlp = norm_mlp


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


class Model:
    """Instantiated parameters plus the forward graph builders."""

    def __init__(self, config: ModelConfig):
        self.config = config
        self.embed: Tensor | None = None
        self.pos: Tensor | None = None
        self.norm_out: Tensor | None = None
        self.blocks: list[_Block] = []
        self._emb_t: Tensor | None = None
        self._mask_cache: dict[int, np.ndarray] = {}

    # -- construction ------------------------------------------------------

    def _finalize(self) -> None:
        self._emb_t = Tensor(self.embed.data.T)
        self._mask_cache.clear()

    def _causal_mask(self, t: int) -> np.ndarray:
        mask = self._mask_cache.get(t)
        if mask is None:
            mask = np.triu(np.full((t, t), MASK_VALUE, dtype=np.float32), k=1)
            self._mask_cache[t] = mask
        return mask

    # -- parameter access --------------------------------------------------

    def trainable_params(self) -> dict:
        """Name -> Tensor for every LoRA matrix, in layer order."""
        out = {}
        for i, block in enumerate(self.blocks):
            for site, lin in block.linears.items():
                if lin.lora is not None:
                    out[f"layers.{i}.{site}.lora_a"] = lin.lora.a
                    out[f"layers.{i}.{site}.lora_b"] = lin.lora.b
        return out

    def lora_params_by_layer(self) -> list:
        """Per-layer list of {name: Tensor} over that layer's LoRA matrices."""
        per_layer = [dict() for _ in self.blocks]
        for name, t in self.trainable_params().items():
            layer = int(name.split(".")[1])
            per_layer[layer][name] = t
        return per_layer

    def state_arrays(self) -> dict:
        """Name -> ndarray of everything a checkpoint must persist."""
        out = {"embed.weight": self.embed.data, "embed.pos": self.pos.data}
        for i, block in enumerate(self.blocks):
            prefix = f"layers.{i}"
            out[f"{prefix}.norm_attn.gain"] = block.norm_attn.data
            out[f"{prefix}.norm_mlp.gain"] = block.norm_mlp.data
            for site, lin in block.linears.items():
                if lin.quant is not None:
                    out[f"{prefix}.{site}.q4"] = lin.quant.qweights
                    out[f"{prefix}.{site}.q4_scales"] = lin.quant.scales
                else:
                    out[f"{prefix}.{site}.w"] = lin.w_t.data
                if lin.lora is not None:
                    out[f"{prefix}.{site}.lora_a"] = lin.lora.a.data
                    out[f"{prefix}.{site}.lora_b"] = lin.lora.b.data
        out["norm_out.gain"] = self.norm_out.data
        return out

    def load_state_arrays(self, arrays: dict) -> None:
        """Overwrite all parameters from a checkpoint's array map."""
        cfg = self.config
        self.embed = Tensor(arrays["embed.weight"])
        self.pos = Tensor(arrays["embed.pos"])
        self.norm_out = Tensor(arrays["norm_out.gain"])
        for i, block in enumerate(self.blocks):
            prefix = f"layers.{i}"
            block.norm_attn = Tensor(arrays[f"{prefix}.norm_attn.gain"])
            block.norm_mlp = Tensor(arrays[f"{prefix}.norm_mlp.gain"])
            for site, lin in block.linears.items():
                if lin.quant is not None:
                    q = QuantizedLinear(
                        qweights=np.ascontiguousarray(arrays[f"{prefix}.{site}.q4"], dtype=np.int8),
                        scales=np.ascontiguousarray(arrays[f"{prefix}.{site}.q4_scales"], dtype=np.float32),
                        group_size=cfg.quant_group_size,
                    )
                    lin.quant = q
                    lin.w_t = Tensor(dequantize(q).T)
                else:
                    lin.w_t = Tensor(arrays[f"{prefix}.{site}.w"])
                if lin.lora is not None:
                    lin.lora.a = Tensor(arrays[f"{prefix}.{site}.lora_a"], requires_grad=True)
                    lin.lora.b = Tensor(arrays[f"{prefix}.{site}.lora_b"], requires_grad=True)
        self._finalize()

    # -- forward -----------------------------------------------------------

    def _attention(self, x: Tensor, block: _Block, mask: np.ndarray) -> Tensor:
        q = block.linears["q"](x)
        k = block.linears["k"](x)
        v = block.linears["v"](x)
        heads = ad.causal_attention(q, k, v, self.config.n_heads, mask)
        return block.linears["o"](heads)

    def _mlp(self, x: Tensor, block: _Block) -> Tensor:
        gate = block.linears["gate"](x)
        up = block.linears["up"](x)
        return block.linears["down"](ad.mul(ad.silu(gate), up))

    def _block_out(self, h: Tensor, block: _Block) -> Tensor:
        mask = self._causal_mask(h.shape[0])
        a = ad.add(h, self._attention(ad.rms_norm(h, block.norm_attn), block, mask))
        return ad.add(a, self._mlp(ad.rms_norm(a, block.norm_mlp), block))

    def block_forward(self, h: Tensor, layer_index: int, mode: BlockMode) -> Tensor:
        """One residual block in the requested gradient mode."""
        mode = _block_mode(mode)
        if mode is BlockMode.DROPPED:
            return h
        block = self.blocks[layer_index]
        if mode is BlockMode.DETACHED:
            with ad.paused():
                d = ad.sub(self._block_out(h, block), h)
        else:
            d = ad.sub(self._block_out(h, block), h)
        return ad.add(h, d)

    def forward(self, tokens, plan=None) -> Tensor:
        """Logits of shape (len(tokens), vocab_size).

        ``tokens`` is a 1-d sequence of 1 to ``seq_len`` token ids.  ``plan``
        is anything with a ``modes`` sequence, one block mode per layer;
        ``None`` runs every block attached.
        """
        cfg = self.config
        if plan is None:
            modes = [BlockMode.ATTACHED] * cfg.n_layers
        else:
            modes = [_block_mode(m) for m in plan.modes]
        if len(modes) != cfg.n_layers:
            raise PlanError(f"plan covers {len(modes)} layers, model has {cfg.n_layers}")
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim != 1 or not 1 <= tokens.shape[0] <= cfg.seq_len:
            raise DimensionError(
                f"tokens must be a 1-d sequence of 1 to seq_len={cfg.seq_len} ids, "
                f"got shape {tokens.shape}"
            )
        t = tokens.shape[0]
        # the position table is frozen, so its rows enter as a constant view
        h = ad.add(ad.embedding_lookup(self.embed, tokens), Tensor(self.pos.data[:t]))
        for i, mode in enumerate(modes):
            h = self.block_forward(h, i, mode)
        return ad.matmul(ad.rms_norm(h, self.norm_out), self._emb_t)


def init_model(config: ModelConfig, seed: int) -> Model:
    """Deterministically initialize a model from a seed.

    Base weights are N(0, 0.02), LoRA A is N(0, 1/rank), LoRA B is zero,
    norm gains are ones.  When ``quantize_base`` is set, the base
    projections are quantized once here and stay frozen.
    """
    config.validate()
    rng = np.random.default_rng(seed)
    model = Model(config)

    def gauss(shape, std):
        return (rng.standard_normal(shape) * std).astype(np.float32)

    model.embed = Tensor(gauss((config.vocab_size, config.d_model), 0.02))
    model.pos = Tensor(gauss((config.seq_len, config.d_model), 0.02))
    for _ in range(config.n_layers):
        linears = {}
        for site in ALL_LORA_TARGETS:
            d_out, d_in = _SITE_DIMS[site](config)
            w = gauss((d_out, d_in), 0.02)
            quant = None
            if config.quantize_base:
                quant = quantize_weights(w, config.quant_group_size)
                w = dequantize(quant)
            # A is drawn for every site so the stream (and hence the base
            # weights) is identical across lora_targets choices
            a_init = gauss((config.lora_rank, d_in), 1.0 / config.lora_rank)
            lora = None
            if site in config.lora_targets:
                lora = LoraAdapter(
                    a=Tensor(a_init, requires_grad=True),
                    b=Tensor(np.zeros((d_out, config.lora_rank), dtype=np.float32),
                             requires_grad=True),
                    alpha=config.lora_alpha,
                    rank=config.lora_rank,
                )
            linears[site] = Linear(Tensor(w.T), lora, quant)
        model.blocks.append(_Block(
            linears=linears,
            norm_attn=Tensor(np.ones(config.d_model, dtype=np.float32)),
            norm_mlp=Tensor(np.ones(config.d_model, dtype=np.float32)),
        ))
    model.norm_out = Tensor(np.ones(config.d_model, dtype=np.float32))
    model._finalize()
    return model
