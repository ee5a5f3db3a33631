"""Symmetric 4-bit group-wise weight quantization, held at 4.5 bits per weight.

A frozen base weight is quantized once, at model init, and from then on is
held only as packed codes and scales: :func:`dequantize` rebuilds the
float32 matrix on each use and the caller drops it afterwards.  The matrix
is quantized in the (d_in, d_out) layout that ``x @ w`` reads, so the float
matrix comes out contiguous with no transpose.  Each column is split into
groups of ``group_size`` consecutive rows (inputs), every group gets one
float16 scale (max-abs / 7, rounded to float16), and values become signed
4-bit codes in [-8, 7].  At the default group of 32 the codes take 4 bits
per weight and the scales 0.5 more, the overhead QLoRA (Dettmers et al.
2023) cuts by compressing the scales as well.  A code times a float16
scale is exact in float32, so the decode rounds nothing.

Two codes share a byte, in flat halves: with ``n`` codes in C order and
``h = ceil(n / 2)``, byte ``i`` holds code ``i`` in its low nibble and code
``i + h`` in its high nibble (the high nibble of the last byte is 0 when
``n`` is odd).  Decoding needs no table: shifting a signed byte right by 4
sign-extends its high nibble, and multiplying by 16 first moves the low
nibble up.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import CorruptionError, DimensionError


@dataclass
class QuantizedLinear:
    """Frozen packed 4-bit codes plus per-group scales for one (d_in, d_out) weight matrix.

    ``packed`` is a read-only uint8 array of ``ceil(d_in * d_out / 2)``
    bytes in the flat-halves layout; ``scales`` is a float16 array of
    shape (d_in // group_size, d_out), all finite and positive.  At a group
    of 32 that is 4.5 bits per weight.
    """

    packed: np.ndarray
    scales: np.ndarray
    group_size: int

    @property
    def shape(self) -> tuple:
        groups, cols = self.scales.shape
        return (groups * self.group_size, cols)


def quantize_weights(w: np.ndarray, group_size: int) -> QuantizedLinear:
    """Quantize a float matrix to packed signed 4-bit codes, one float16 scale per group of rows.

    A group's scale is its max-abs / 7 in float32, rounded to the nearest
    float16, and its codes are formed against that float16 scale, so each
    value is within half a scale of its code times the scale.  Where the
    rounding lost so much that the max-abs would need a code above 7.5
    (only below float16's normal range, max-abs under about 4.3e-4), the
    scale is the next float16 up.  A group whose scale is 0 in float16
    (max-abs under about 2.1e-7, all zeros included) gets scale 1.0 and
    codes 0, with no division by zero.  A group size that is not a positive
    integer raises :class:`DimensionError`; a NaN or infinite weight, which
    has no code, and a max-abs beyond float16's range (about 4.6e5) raise
    :class:`CorruptionError`.
    """
    w = np.ascontiguousarray(w, dtype=np.float32)
    if w.ndim != 2:
        raise DimensionError(f"expected a weight matrix, got shape {w.shape}")
    if (not isinstance(group_size, numbers.Integral) or isinstance(group_size, bool)
            or group_size <= 0):
        raise DimensionError(f"group_size must be a positive integer, got {group_size!r}")
    rows, cols = w.shape
    if rows % group_size != 0:
        raise DimensionError(
            f"group_size {group_size} does not divide column length {rows}"
        )
    grouped = w.reshape(rows // group_size, group_size, cols)
    max_abs = np.max(np.abs(grouped), axis=1)
    if not np.isfinite(max_abs).all():  # a group's max is NaN or inf exactly when a value is
        raise CorruptionError("cannot quantize a weight matrix with NaN or infinite values")
    with np.errstate(over="ignore"):  # beyond float16's range casts to inf
        scales = (max_abs / np.float32(7.0)).astype(np.float16)
    if np.isinf(scales).any():
        raise CorruptionError(f"cannot quantize a weight matrix with a value beyond "
                              f"{7 * float(np.finfo(np.float16).max):.3g}: its scale overflows float16")
    scales[scales == 0] = 1.0
    # below float16's normal range the nearest scale can be too small for the max-abs's code
    low = max_abs > scales.astype(np.float32) * np.float32(7.5)
    scales[low] = np.nextafter(scales[low], np.float16(np.inf))
    codes = np.clip(np.round(grouped / scales.astype(np.float32)[:, None, :]), -8, 7)
    flat = codes.reshape(-1).astype(np.int8).view(np.uint8)  # two's complement bytes
    half = (flat.size + 1) // 2
    packed = flat[:half] & np.uint8(15)
    packed[:flat.size - half] |= flat[half:] << np.uint8(4)
    packed.flags.writeable = False
    return QuantizedLinear(packed=packed, scales=scales, group_size=group_size)


def unpack_codes(q: QuantizedLinear) -> np.ndarray:
    """The (d_in, d_out) int8 codes in [-8, 7], decoded from the packed bytes."""
    rows, cols = q.shape
    n, half = rows * cols, q.packed.size
    codes = np.empty(n, dtype=np.int8)
    low = codes[:half]
    np.multiply(q.packed, np.uint8(16), out=low.view(np.uint8))  # low nibble to the top
    low >>= 4
    np.right_shift(q.packed[:n - half].view(np.int8), 4, out=codes[half:])
    return codes.reshape(rows, cols)


def dequantize(q: QuantizedLinear) -> np.ndarray:
    """A fresh contiguous float32 matrix: codes times their float16 group scale, exactly.

    The codes are decoded to int8, cast once and scaled in place, so the
    result is the only full-size float allocation; no buffer is shared
    between calls (threads may share a model).  The float16 scales (4.5
    bits per weight with the codes, at a group of 32) are cast to float32
    first, once per call: an in-place float32 by float16 multiply ran about
    four times slower at 128x128 (2-vCPU x86-64).
    """
    out = unpack_codes(q).astype(np.float32)  # C order: the reshape below is a view
    rows, cols = out.shape
    grouped = out.reshape(rows // q.group_size, q.group_size, cols)
    grouped *= q.scales.astype(np.float32)[:, None, :]
    return out
