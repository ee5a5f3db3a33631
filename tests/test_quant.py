"""4-bit group quantization: round-trip bounds and edge cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcsb.errors import DimensionError
from lcsb.quant import dequantize, quantize_weights


def test_all_zero_matrix_round_trips_to_zeros():
    w = np.zeros((4, 8), dtype=np.float32)
    q = quantize_weights(w, group_size=4)
    assert np.all(q.scales == 1.0)
    assert np.all(q.qweights == 0)
    assert np.array_equal(dequantize(q), w)


def test_linspace_hand_case():
    # a column of 7 points -0.7..0.7, one group: scale 0.1, codes -7..7, recon error <= 0.05
    w = np.linspace(-0.7, 0.7, 7, dtype=np.float32).reshape(7, 1)
    q = quantize_weights(w, group_size=7)
    assert q.scales[0, 0] == pytest.approx(0.1, rel=1e-5)
    np.testing.assert_array_equal(q.qweights[:, 0], [-7, -5, -2, 0, 2, 5, 7])
    assert np.max(np.abs(w - dequantize(q))) <= 0.05


def test_group_size_must_divide_row_length():
    with pytest.raises(DimensionError, match="group_size"):
        quantize_weights(np.ones((10, 2), dtype=np.float32), group_size=4)


def test_codes_are_immutable():
    q = quantize_weights(np.ones((4, 2), dtype=np.float32), group_size=4)
    with pytest.raises(ValueError):
        q.qweights[0, 0] = 3


def test_transposed_input_gives_contiguous_codes_and_matrix():
    # a base drawn as (d_out, d_in) is quantized through its transpose
    w = np.random.default_rng(0).standard_normal((6, 8)).astype(np.float32)
    q = quantize_weights(w.T, group_size=4)
    reference = quantize_weights(np.ascontiguousarray(w.T), group_size=4)
    assert np.array_equal(q.qweights, reference.qweights)
    assert np.array_equal(q.scales, reference.scales)
    assert q.qweights.flags["C_CONTIGUOUS"] and q.scales.flags["C_CONTIGUOUS"]
    assert dequantize(q).flags["C_CONTIGUOUS"]


def test_dequantize_returns_a_fresh_array_each_call():
    q = quantize_weights(np.ones((4, 2), dtype=np.float32), group_size=4)
    first = dequantize(q)
    first[...] = 0.0
    assert np.array_equal(dequantize(q), np.ones((4, 2), dtype=np.float32))


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
    assert q.qweights.min() >= -8 and q.qweights.max() <= 7
    # each element is within half a code step of its group's scale
    per_group_bound = np.repeat(q.scales, group_size, axis=0) / 2 + 1e-7
    assert np.all(err <= per_group_bound)
