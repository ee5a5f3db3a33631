"""Selective-backprop laboratory.

A desk-scale stack for studying per-step layer-subset backpropagation:
a tape autodiff engine whose one way to cut a gradient is paused
recording, a LoRA-adapted nano transformer whose blocks run attached,
detached or dropped on each forward pass (a detached block runs its
branches paused and records only its residual adds), symmetric 4-bit
group quantization of the frozen weight matrices, and a check of forward
values and finite-difference gradients against an independent float64
re-implementation (``lcsb.gradcheck``; ``python -m lcsb.gradcheck`` runs
the full suite).

Only the LoRA matrices train.  They and the activations are ``Tensor``
objects; every frozen value (base weights, embedding, positions) is a
plain float32 array, except that a 4-bit model holds them as packed codes.
Each projection is one ``model.Linear``, ``x @ weight + (scale * x @ a)
@ b`` with LoRA matrices ``a`` (d_in, rank) and ``b`` (rank, d_out).

A 4-bit matrix is held at 4.25 bits per weight, its codes, an 8-bit scale
mantissa per group and one power-of-two exponent per matrix
(``lcsb.quant``), and decompressed on each use, exactly in float32: a base
by its projection, the embedding and the positions for the token lookup,
and the embedding again by the weight-tied head in its forward and its
backward (``lcsb.model``).  A tape
is single-use: ``backward`` sweeps it once, and sweeping it again or
recording onto it raises ``TapeError`` (``lcsb.autodiff``).  What each node
and layer records and keeps is stated in ``lcsb.autodiff`` and
``lcsb.model``.
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
