"""Selective-backprop laboratory.

A desk-scale stack for studying per-step layer-subset backpropagation:
a tape autodiff engine whose one way to cut a gradient is paused
recording, a LoRA-adapted nano transformer whose blocks run attached,
detached or dropped on each forward pass (a detached block runs its
branches paused and records only its residual adds), symmetric 4-bit
group quantization of the frozen base weights, and a finite-difference
gradient check against an independent float64 re-implementation
(``lcsb.gradcheck``; ``python -m lcsb.gradcheck`` runs the full suite).

A 4-bit base is held only as codes and scales and decompressed on each
use: in the forward, and again in an attached layer's backward where the
input gradient needs it.
"""

from .autodiff import Tape, Tensor, backward, finite_difference_grad, paused
from .errors import (
    ConfigError,
    CorruptionError,
    DimensionError,
    DivergenceError,
    LcsbError,
    PlanError,
)
from .model import BlockMode, LoraAdapter, Model, ModelConfig, init_model
from .quant import QuantizedLinear, dequantize, quantize_weights

__version__ = "0.1.0"
