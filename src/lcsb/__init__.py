"""Selective-backprop laboratory.

A desk-scale stack for studying per-step layer-subset backpropagation:
a tape autodiff engine whose one way to cut a gradient is paused
recording, a LoRA-adapted nano transformer whose blocks run attached,
detached or dropped on each forward pass (a detached block runs its
branches paused and records only its residual adds), symmetric 4-bit
group quantization of the frozen base weights, and a check of forward
values and finite-difference gradients against an independent float64
re-implementation (``lcsb.gradcheck``; ``python -m lcsb.gradcheck`` runs
the full suite).

Only the LoRA matrices train.  They and the activations are ``Tensor``
objects; every frozen value (base weights, embedding, positions, norm
gains) is a plain float32 array, or packed codes for a 4-bit base.  Each
projection is one ``model.Linear``: its frozen ``weight`` and its LoRA
matrices ``a`` and ``b`` with their ``scale``.

A 4-bit base is held at 4 bits per weight, as codes packed two to a byte
(byte i holds code i and code i + ceil(n / 2), the flat-halves layout),
plus one scale per group.  It is decompressed on each use: in the forward,
and again in an attached layer's backward where the input gradient or the
MLP's re-formed gate and up need it.  An attached layer records 9 op
nodes, plus one leaf per LoRA matrix.

A tape is single-use: ``backward`` sweeps it once and frees each node's
saved arrays as it passes, so a step's memory peaks at the parameters
plus the forward's activations.  Sweeping a tape again, or recording onto
a swept one, raises ``TapeError``; record the forward on a new ``Tape``.
"""

from .autodiff import Tape, Tensor, backward, paused
from .errors import (
    ConfigError,
    CorruptionError,
    DimensionError,
    DivergenceError,
    LcsbError,
    PlanError,
    TapeError,
)
from .model import BlockMode, Model, ModelConfig, init_model
from .quant import QuantizedLinear, dequantize, quantize_weights

__version__ = "0.1.0"
