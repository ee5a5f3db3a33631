"""Symmetric 4-bit group-wise weight quantization.

A frozen base weight is quantized once, at model init, and from then on is
held only as codes and scales: :func:`dequantize` rebuilds the float32
matrix on each use and the caller drops it afterwards.  The matrix is
quantized in the (d_in, d_out) layout that ``x @ w`` reads, so the float
matrix comes out contiguous with no transpose.  Each column is split into
groups of ``group_size`` consecutive rows (inputs), every group gets one
float scale (max-abs / 7), and values are stored as signed 4-bit codes in
[-8, 7] (held in an int8 buffer).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError


@dataclass
class QuantizedLinear:
    """Frozen 4-bit codes plus per-group scales for one (d_in, d_out) weight matrix.

    ``qweights`` has shape (d_in, d_out) with values in [-8, 7];
    ``scales`` has shape (d_in // group_size, d_out).
    """

    qweights: np.ndarray
    scales: np.ndarray
    group_size: int

    @property
    def shape(self) -> tuple:
        return self.qweights.shape


def quantize_weights(w: np.ndarray, group_size: int) -> QuantizedLinear:
    """Quantize a float matrix to signed 4-bit codes, one scale per group of rows.

    A group whose values are all zero gets scale 1.0 so the codes stay
    zero with no division by zero.
    """
    w = np.ascontiguousarray(w, dtype=np.float32)
    if w.ndim != 2:
        raise DimensionError(f"expected a weight matrix, got shape {w.shape}")
    rows, cols = w.shape
    if rows % group_size != 0:
        raise DimensionError(
            f"group_size {group_size} does not divide column length {rows}"
        )
    grouped = w.reshape(rows // group_size, group_size, cols)
    scales = np.max(np.abs(grouped), axis=1) / np.float32(7.0)
    scales = np.where(scales == 0.0, np.float32(1.0), scales).astype(np.float32)
    codes = np.clip(np.round(grouped / scales[:, None, :]), -8, 7)
    qweights = codes.reshape(rows, cols).astype(np.int8)
    qweights.flags.writeable = False
    return QuantizedLinear(qweights=qweights, scales=scales, group_size=group_size)


def dequantize(q: QuantizedLinear) -> np.ndarray:
    """A fresh contiguous float32 matrix: codes times their group scale.

    The codes are cast first and scaled in place, so the only allocation is
    the result; no buffer is shared between calls (threads may share a model).
    """
    rows, cols = q.qweights.shape
    out = q.qweights.astype(np.float32, order="C")  # the reshape below is then a view
    grouped = out.reshape(rows // q.group_size, q.group_size, cols)
    grouped *= q.scales[:, None, :]
    return out
