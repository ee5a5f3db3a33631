"""Symmetric 4-bit group-wise weight quantization.

Weights are quantized once at model init and frozen afterwards: each
row of a weight matrix is split into groups of ``group_size`` columns,
every group gets one float scale (max-abs / 7), and values are stored
as signed 4-bit codes in [-8, 7] (held in an int8 buffer).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError


@dataclass
class QuantizedLinear:
    """Frozen 4-bit codes plus per-group scales for one weight matrix.

    ``qweights`` has shape (rows, cols) with values in [-8, 7];
    ``scales`` has shape (rows, cols // group_size).
    """

    qweights: np.ndarray
    scales: np.ndarray
    group_size: int

    @property
    def shape(self) -> tuple:
        return self.qweights.shape


def quantize_weights(w: np.ndarray, group_size: int) -> QuantizedLinear:
    """Quantize a float matrix to signed 4-bit codes, one scale per group.

    A group whose values are all zero gets scale 1.0 so the codes stay
    zero with no division by zero.
    """
    w = np.asarray(w, dtype=np.float32)
    if w.ndim != 2:
        raise DimensionError(f"expected a weight matrix, got shape {w.shape}")
    rows, cols = w.shape
    if cols % group_size != 0:
        raise DimensionError(
            f"group_size {group_size} does not divide row length {cols}"
        )
    grouped = w.reshape(rows, cols // group_size, group_size)
    scales = np.max(np.abs(grouped), axis=-1) / np.float32(7.0)
    scales = np.where(scales == 0.0, np.float32(1.0), scales).astype(np.float32)
    codes = np.clip(np.round(grouped / scales[:, :, None]), -8, 7)
    qweights = codes.reshape(rows, cols).astype(np.int8)
    qweights.flags.writeable = False
    return QuantizedLinear(qweights=qweights, scales=scales, group_size=group_size)


def dequantize(q: QuantizedLinear) -> np.ndarray:
    """Reconstruct the float32 matrix: codes times their group scale."""
    rows, cols = q.qweights.shape
    grouped = q.qweights.reshape(rows, cols // q.group_size, q.group_size)
    out = grouped.astype(np.float32) * q.scales[:, :, None]
    return out.reshape(rows, cols)
