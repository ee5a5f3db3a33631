"""4-bit group quantization: packed layout, round-trip bounds and edge cases."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcsb.errors import CorruptionError, DimensionError
from lcsb.quant import MAX_EXPONENT, QuantizedLinear, dequantize, quantize_weights, unpack_codes


def _scales(q):
    """The (groups, d_out) float64 scales ``m * 2**e``, formed apart from ``dequantize``."""
    return q.scales.astype(np.float64) * 2.0 ** int(q.exponent)


def test_all_zero_matrix_round_trips_to_zeros():
    w = np.zeros((4, 8), dtype=np.float32)
    q = quantize_weights(w, group_size=4)
    assert np.all(q.scales == 1.0)
    assert np.all(q.packed == 0)
    assert np.array_equal(dequantize(q), w)


def test_linspace_hand_case():
    # a column of 7 points -0.7..0.7, one group: max-abs / 7 is 0.1, and 2**-11
    # is the smallest power of two that keeps ceil(0.1 / 2**e) <= 255
    w = np.linspace(-0.7, 0.7, 7, dtype=np.float32).reshape(7, 1)
    q = quantize_weights(w, group_size=7)
    assert q.scales.dtype == np.uint8 and q.scales.tolist() == [[205]]
    assert q.exponent == -11
    assert _scales(q)[0, 0] == 0.10009765625  # 205 / 2048, the ceiling puts it at or above 0.1
    np.testing.assert_array_equal(unpack_codes(q)[:, 0], [-7, -5, -2, 0, 2, 5, 7])
    # an odd count: byte i holds code i low and code i + 4 high, the last high nibble is 0
    assert q.packed.tolist() == [0x29, 0x5B, 0x7E, 0x00]
    assert np.max(np.abs(w - dequantize(q))) <= 0.05


def test_a_scale_that_rounds_to_zero_is_stored_as_an_all_zero_group():
    # a 1e-8 group beside a 0.02 group: the matrix's exponent serves the
    # 0.02 group, and 1e-8 / 7 is a small fraction of its 2**e, so the
    # ceiling gives mantissa 1 and every code of the small group is 0
    w = np.zeros((32, 2), dtype=np.float32)
    w[3, 1], w[5, 0] = 1e-8, -0.02
    q = quantize_weights(w, group_size=32)
    assert q.scales[0, 1] == 1
    assert np.all(unpack_codes(q)[:, 1] == 0)
    assert np.max(np.abs(w - dequantize(q))) <= _scales(q).max() / 2


def test_a_matrix_of_tiny_values_keeps_its_codes():
    # the exponent follows the matrix's own largest value, so 1e-8 is not flushed to zero
    w = np.full((32, 2), 1e-8, dtype=np.float32)
    w[7, 0] = -1e-8
    q = quantize_weights(w, group_size=32)
    codes = unpack_codes(q)
    assert codes[7, 0] == -7 and np.all(np.delete(codes.ravel(), 14) == 7)
    assert np.max(np.abs(w - dequantize(q))) <= _scales(q).max() / 2


@pytest.mark.parametrize("value", [1e-44, 2.9e38])
def test_extreme_values_decode_finite_within_half_a_scale(value):
    # 1e-44 needs an exponent below -149 and is held at 2**-149, float32's
    # smallest subnormal; 2.9e38 needs 2**117, the largest exponent
    w = np.zeros((32, 2), dtype=np.float32)
    w[3, 1], w[5, 0] = value, -value / 3
    q = quantize_weights(w, group_size=32)
    decoded = dequantize(q)
    assert np.isfinite(decoded).all()
    assert np.abs(unpack_codes(q)).max() == 7
    assert np.all(np.abs(w - decoded) <= np.repeat(_scales(q), 32, axis=0) / 2)


def test_a_code_times_its_scale_beyond_float32_raises_corruption():
    # above 7 * 255 * 2**117, about 2.97e38, a scale needs 2**118: 3e38's
    # code 7 times its scale 129 * 2**118 is finite, float32's largest
    # value's 7 times 147 * 2**118 is not, and the exponent refuses both
    for value in (3e38, np.finfo(np.float32).max):
        w = np.zeros((32, 2), dtype=np.float32)
        w[3, 1] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CorruptionError, match=f"exponent above {MAX_EXPONENT}"):
                quantize_weights(w, group_size=32)


def test_every_code_times_every_mantissa_decodes_finite_at_the_largest_exponent():
    # the extreme a checkpoint can hold: codes of -8, which quantize_weights
    # never writes, under mantissas of 255 at MAX_EXPONENT
    packed = np.full(32, 0x88, dtype=np.uint8)  # two codes of -8 a byte
    q = QuantizedLinear(packed, np.full((2, 4), 255, dtype=np.uint8),
                        np.array(MAX_EXPONENT, dtype=np.int16), group_size=8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        decoded = dequantize(q)
    assert np.isfinite(decoded).all()
    assert np.all(decoded == np.float32(-8 * 255 * 2.0 ** MAX_EXPONENT))


@pytest.mark.parametrize("steps", [1.45, 2.4, 4.4, 6.45])
def test_a_subnormal_scale_still_bounds_the_error_by_half_a_scale(steps):
    # max-abs / 7 is `steps` times 2**-24, float16's subnormal step, where a
    # scale rounded to nearest was too small for the max-abs's code
    max_abs = np.float32(7 * steps * 2.0 ** -24)
    w = np.array([[max_abs], [-max_abs / 3], [max_abs / 2]], dtype=np.float32)
    q = quantize_weights(w, group_size=3)
    scale = _scales(q)[0, 0]
    assert scale >= max_abs / 7
    assert np.max(np.abs(w - dequantize(q))) <= scale / 2


def test_group_size_must_divide_row_length():
    with pytest.raises(DimensionError, match="group_size"):
        quantize_weights(np.ones((10, 2), dtype=np.float32), group_size=4)


@pytest.mark.parametrize("group_size", [0, -32])
def test_group_size_must_be_positive(group_size):
    # 0 was a bare ZeroDivisionError and -32 a bare ValueError from reshape
    with pytest.raises(DimensionError, match="group_size must be a positive integer"):
        quantize_weights(np.ones((64, 2), dtype=np.float32), group_size=group_size)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_weights_raise_corruption(bad):
    # they used to warn inside numpy and, with warnings off, give garbage codes
    w = np.ones((32, 4), dtype=np.float32)
    w[5, 2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CorruptionError, match="NaN or infinite"):
            quantize_weights(w, group_size=32)


def test_codes_are_immutable():
    q = quantize_weights(np.ones((4, 2), dtype=np.float32), group_size=4)
    with pytest.raises(ValueError):
        q.packed[0] = 3


def test_transposed_input_gives_contiguous_codes_and_matrix():
    # a base drawn as (d_out, d_in) is quantized through its transpose
    w = np.random.default_rng(0).standard_normal((6, 8)).astype(np.float32)
    q = quantize_weights(w.T, group_size=4)
    reference = quantize_weights(np.ascontiguousarray(w.T), group_size=4)
    assert np.array_equal(q.packed, reference.packed)
    assert np.array_equal(q.scales, reference.scales) and q.exponent == reference.exponent
    assert q.packed.flags["C_CONTIGUOUS"] and q.scales.flags["C_CONTIGUOUS"]
    assert dequantize(q).flags["C_CONTIGUOUS"]


def test_dequantize_returns_a_fresh_array_each_call():
    q = quantize_weights(np.ones((4, 2), dtype=np.float32), group_size=4)
    first = dequantize(q)
    expected = first.copy()
    first[...] = 0.0
    assert np.array_equal(dequantize(q), expected)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_round_trip_error_bounded_by_half_scale(seed):
    rng = np.random.default_rng(seed)
    cols = int(rng.integers(1, 5))
    groups = int(rng.integers(1, 4))
    group_size = int(rng.integers(2, 9))
    w = (rng.standard_normal((groups * group_size, cols)) * rng.uniform(0.01, 3.0)).astype(np.float32)
    q = quantize_weights(w, group_size)
    err = np.abs(w - dequantize(q))
    codes = unpack_codes(q)
    assert codes.min() >= -7 and codes.max() <= 7
    # each element is within half a code step of its group's scale
    per_group_bound = np.repeat(_scales(q), group_size, axis=0) / 2 + 1e-7
    assert np.all(err <= per_group_bound)


def _reference_decode(packed, shape):
    """Codes as int8 by masks and a sign fix, independent of ``unpack_codes``."""
    nibbles = np.concatenate([packed & 0x0F, packed >> 4])[:shape[0] * shape[1]].astype(np.int16)
    return np.where(nibbles >= 8, nibbles - 16, nibbles).astype(np.int8).reshape(shape)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_dequantize_matches_an_int8_reference_decode_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    group_size = int(rng.integers(1, 8))
    rows, cols = group_size * int(rng.integers(1, 4)), int(rng.integers(1, 8))  # odd counts too
    q = quantize_weights(rng.standard_normal((rows, cols)).astype(np.float32), group_size)
    codes = _reference_decode(q.packed, (rows, cols))
    assert np.array_equal(unpack_codes(q), codes)
    expected = codes.astype(np.float32) * np.repeat(_scales(q).astype(np.float32), group_size, axis=0)
    assert dequantize(q).tobytes() == expected.tobytes()


@pytest.mark.parametrize("shape", [(7, 1), (8, 3), (32, 64)])
def test_codes_take_half_a_byte_each(shape):
    q = quantize_weights(np.ones(shape, dtype=np.float32), group_size=shape[0])
    assert q.packed.dtype == np.uint8
    assert q.packed.shape == ((shape[0] * shape[1] + 1) // 2,)
