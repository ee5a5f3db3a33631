"""Selective-backprop laboratory.

A desk-scale stack for studying per-step layer-subset backpropagation:
a tape autodiff engine with a first-class detach and paused recording,
a LoRA-adapted nano transformer whose blocks run attached, detached or
dropped on each forward pass, symmetric 4-bit group quantization of the
frozen base weights, and a finite-difference gradient check against an
independent float64 re-implementation (``lcsb.gradcheck``).
"""

from .autodiff import Tape, Tensor, backward, detach, finite_difference_grad, paused, primitive_forward
from .errors import (
    ConfigError,
    ContractError,
    CorruptionError,
    DimensionError,
    DivergenceError,
    IngestionError,
    LcsbError,
    MissingRngError,
    PlanError,
    ReportingError,
    ScheduleError,
    UnsupportedPrimitiveError,
)
from .model import BlockMode, LoraAdapter, Model, ModelConfig, init_model
from .quant import QuantizedLinear, dequantize, quantize_weights

__version__ = "0.1.0"
