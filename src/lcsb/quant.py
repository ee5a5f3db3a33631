"""Symmetric 4-bit group-wise weight quantization, held at 4.25 bits per weight.

A frozen matrix (a base weight, or a 4-bit model's embedding or
positions) is quantized once, at model init, and from then on is held only
as packed codes and scales: :func:`dequantize` rebuilds the float32 matrix
on each use and the caller drops it afterwards.  A matrix is quantized in
the (d_in, d_out) layout that its product reads (:mod:`lcsb.model`), so
the float matrix comes out contiguous with no transpose.  Each column is
split into groups of ``group_size`` consecutive rows (inputs), and values
become signed 4-bit codes in [-7, 7] against their group's scale.  A scale is ``m * 2**e``:
an 8-bit mantissa ``m`` in [1, 255] per group, under one power-of-two
exponent ``e`` shared by the whole matrix, the scale compression that QLoRA
(Dettmers et al. 2023) calls double quantization.  At the default group of
32 the codes take 4 bits per weight and the mantissas 0.25 more; the
exponent is two bytes per matrix.  ``m * 2**e`` and a code times it (at most
8 * 255 < 2**11, an 11-bit integer times a power of two) are exact in
float32, so the decode rounds nothing.

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

# the range of a matrix's shared exponent, and the only overflow rule:
# 2**-149 is float32's smallest subnormal, so every scale m * 2**e is a
# nonzero float32, and at 117 every code in [-8, 7] times every mantissa
# decodes finite (8 * 255 * 2**117 is about 3.39e38, below 2**128).  A
# matrix whose largest value is above 7 * 255 * 2**117, about 2.97e38,
# would need a larger exponent, so it is not quantized.
MIN_EXPONENT = -149
MAX_EXPONENT = 117


@dataclass
class QuantizedLinear:
    """Frozen packed 4-bit codes plus group scales for one (d_in, d_out) weight matrix.

    ``packed`` is a read-only uint8 array of ``ceil(d_in * d_out / 2)``
    bytes in the flat-halves layout.  A group's scale is ``scales * 2**exponent``:
    ``scales`` is a uint8 array of mantissas in [1, 255], of shape
    (d_in // group_size, d_out), and ``exponent`` a 0-d int16 array in
    [:data:`MIN_EXPONENT`, :data:`MAX_EXPONENT`].  At a group of 32 that is
    4.25 bits per weight.
    """

    packed: np.ndarray
    scales: np.ndarray
    exponent: np.ndarray
    group_size: int

    @property
    def shape(self) -> tuple:
        groups, cols = self.scales.shape
        return (groups * self.group_size, cols)


def _shared_exponent(top: float) -> int:
    """The smallest ``e >= MIN_EXPONENT`` with ``ceil(top / 2**e) <= 255``.

    ``frexp`` gives the power of two at or just above ``top / 255``; the
    check against ``top`` itself mends a rounding of that quotient.
    """
    e = int(np.frexp(max(top / 255, 2.0 ** MIN_EXPONENT))[1]) - 1
    while np.ceil(np.ldexp(top, -e)) > 255:
        e += 1
    return e


def quantize_weights(w: np.ndarray, group_size: int) -> QuantizedLinear:
    """Quantize a float matrix to packed signed 4-bit codes and 8-bit scale mantissas.

    A group's mantissa is ``ceil(max_abs / 7 / 2**e)``, where the matrix's
    exponent ``e`` is the smallest integer that keeps its largest mantissa
    at most 255.  The ceiling makes each scale at least max-abs / 7, so
    every code is in [-7, 7] and each value is within half a scale of its
    code times the scale.  Two edge rules: ``e`` is at least
    :data:`MIN_EXPONENT`, so ``2**e`` never underflows to 0; and a mantissa
    is at least 1, so a group of zeros divides by a nonzero scale and keeps
    codes 0, as does any value below half of ``2**e``.  A group size that is
    not a positive integer raises :class:`DimensionError`; a NaN or infinite
    weight, which has no code, and a weight above about 2.97e38, whose
    scale would need an exponent above :data:`MAX_EXPONENT`, raise
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
    least = max_abs.astype(np.float64) / 7  # the smallest scale that keeps a group's codes in [-7, 7]
    exponent = _shared_exponent(float(least.max(initial=0.0)))
    if exponent > MAX_EXPONENT:
        raise CorruptionError(f"cannot quantize a weight matrix with a value as large as "
                              f"{float(max_abs.max()):.4g}: its scale needs an exponent "
                              f"above {MAX_EXPONENT}")
    scales = np.maximum(np.ceil(np.ldexp(least, -exponent)), 1).astype(np.uint8)
    codes = np.round(grouped / np.ldexp(scales, exponent, dtype=np.float32)[:, None, :])
    flat = codes.reshape(-1).astype(np.int8).view(np.uint8)  # two's complement bytes
    half = (flat.size + 1) // 2
    packed = flat[:half] & np.uint8(15)
    packed[:flat.size - half] |= flat[half:] << np.uint8(4)
    packed.flags.writeable = False
    return QuantizedLinear(packed, scales, np.array(exponent, dtype=np.int16), group_size)


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
    """A fresh contiguous float32 matrix: codes times their group scale ``m * 2**e``, exactly.

    The codes are decoded to int8, cast once and scaled in place, so the
    result is the only full-size float allocation; no buffer is shared
    between calls (threads may share a model).  The scales are formed once
    per call, by one ``ldexp`` of the (groups, d_out) mantissas into
    float32; an 8-bit mantissa times a power of two is exact there, and so
    is a 4-bit code times that.
    """
    out = unpack_codes(q).astype(np.float32)  # C order: the reshape below is a view
    rows, cols = out.shape
    grouped = out.reshape(rows // q.group_size, q.group_size, cols)
    grouped *= np.ldexp(q.scales, q.exponent, dtype=np.float32)[:, None, :]
    return out
