"""Tests for low-precision format emulation (BF16, FP8 E4M3/E5M2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.precision.formats import (
    BF16,
    FP8_E4M3,
    FP8_E5M2,
    FP16,
    FP32,
    decode,
    encode,
    round_bf16,
    round_to_format,
)


def round_fp8(x, fmt=FP8_E4M3):
    """FP8 rounding (E4M3 unless told otherwise)."""
    return round_to_format(x, fmt)


class TestFormatMetadata:
    def test_e4m3_bias(self):
        assert FP8_E4M3.exponent_bias == 7

    def test_e5m2_bias(self):
        assert FP8_E5M2.exponent_bias == 15

    def test_bf16_bias_matches_fp32(self):
        assert BF16.exponent_bias == FP32.exponent_bias == 127

    def test_e4m3_max(self):
        # S.1111.110 = 1.75 * 2^8 = 448 per the OCP FP8 spec.
        assert FP8_E4M3.max_value == 448.0

    def test_e5m2_max(self):
        assert FP8_E5M2.max_value == 57344.0

    def test_epsilon(self):
        assert FP8_E4M3.epsilon == 0.125
        assert BF16.epsilon == 2 ** -7

    def test_wire_bytes(self):
        assert FP8_E4M3.bytes_per_element == 1.0
        assert BF16.bytes_per_element == 2.0
        assert FP32.bytes_per_element == 4.0


class TestBF16:
    def test_exact_values_unchanged(self):
        # Values with <= 8 mantissa bits are exactly representable.
        vals = np.array([0.0, 1.0, -2.5, 0.15625, 3.140625, 1024.0])
        out = round_bf16(vals)
        np.testing.assert_array_equal(out, vals.astype(np.float32))

    def test_rounds_to_nearest(self):
        # 1 + 2^-8 is exactly between 1.0 and 1 + 2^-7; RNE picks 1.0
        # (even mantissa).
        assert round_bf16(np.array([1.0 + 2 ** -8]))[0] == 1.0
        # 1 + 3*2^-8 is between 1+2^-7 and 1+2^-6; RNE picks 1+2^-6.
        assert round_bf16(np.array([1.0 + 3 * 2 ** -8]))[0] == \
            np.float32(1.0 + 2 ** -6)

    def test_relative_error_bound(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(10000) * 10.0 ** rng.integers(-10, 10, 10000)
        out = round_bf16(x)
        rel = np.abs(out - x.astype(np.float32)) / np.abs(x)
        assert rel.max() <= 2 ** -8  # half ulp of 7-bit mantissa

    def test_nan_passthrough(self):
        out = round_bf16(np.array([np.nan, 1.0]))
        assert np.isnan(out[0]) and out[1] == 1.0

    def test_inf_passthrough(self):
        out = round_bf16(np.array([np.inf, -np.inf]))
        assert np.isposinf(out[0]) and np.isneginf(out[1])

    def test_sign_symmetry(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(1000)
        np.testing.assert_array_equal(round_bf16(x), -round_bf16(-x))

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(1000)
        once = round_bf16(x)
        np.testing.assert_array_equal(round_bf16(once), once)


class TestFP8:
    def test_exact_small_integers(self):
        vals = np.array([0.0, 1.0, -2.0, 3.5, 0.125, 448.0, -448.0])
        np.testing.assert_array_equal(round_fp8(vals), vals)

    def test_saturates(self):
        out = round_fp8(np.array([500.0, -10000.0, np.inf, -np.inf]))
        np.testing.assert_array_equal(out, [448.0, -448.0, 448.0, -448.0])

    def test_e5m2_range(self):
        out = round_fp8(np.array([60000.0]), FP8_E5M2)
        assert out[0] == FP8_E5M2.max_value

    def test_nan_passthrough(self):
        assert np.isnan(round_fp8(np.array([np.nan]))[0])

    def test_rne_midpoint(self):
        # Between 1.0 and 1.125 (e4m3 step at 1.0 is 1/8): 1.0625 -> 1.0.
        assert round_fp8(np.array([1.0625]))[0] == 1.0
        # Between 1.125 and 1.25: 1.1875 -> 1.25 (even mantissa).
        assert round_fp8(np.array([1.1875]))[0] == 1.25

    def test_power_of_two_exact(self):
        powers = 2.0 ** np.arange(-6, 9)
        np.testing.assert_array_equal(round_fp8(powers), powers)

    def test_subnormal_grid(self):
        # E4M3 subnormal step = 2^-9; smallest subnormal 2^-9.
        assert round_fp8(np.array([2.0 ** -9]))[0] == 2.0 ** -9
        assert round_fp8(np.array([2.0 ** -11]))[0] == 0.0  # below half-step

    def test_relative_error_bound_normals(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0.02, 400, 5000) * rng.choice([-1, 1], 5000)
        out = round_fp8(x)
        rel = np.abs(out - x) / np.abs(x)
        assert rel.max() <= 2 ** -4  # half ulp of 3-bit mantissa

    @given(st.floats(min_value=-448, max_value=448,
                     allow_nan=False, allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_rounding_is_idempotent(self, x):
        once = round_fp8(np.array([x]))
        twice = round_fp8(once)
        np.testing.assert_array_equal(once, twice)

    @given(st.floats(min_value=1e-3, max_value=400.0))
    @settings(max_examples=200, deadline=None)
    def test_monotonic(self, x):
        lo = round_fp8(np.array([x]))[0]
        hi = round_fp8(np.array([x * 1.5]))[0]
        assert lo <= hi


class TestRoundToFormat:
    def test_fp32_copy(self):
        x = np.array([1.1, 2.2])
        out = round_to_format(x, FP32)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, x.astype(np.float32))

    def test_fp16_max(self):
        assert round_to_format(np.array([70000.0]), FP16)[0] == 65504.0

    def test_bf16_dispatch(self):
        x = np.random.default_rng(4).standard_normal(100)
        np.testing.assert_array_equal(round_to_format(x, BF16),
                                      round_bf16(x))

    def test_zero_preserved(self):
        for fmt in (FP8_E4M3, FP8_E5M2, FP16, BF16):
            assert round_to_format(np.array([0.0]), fmt)[0] == 0.0


def bits(x):
    return np.asarray(x, dtype=np.float32).view(np.uint32)


class TestWireCodec:
    """What a compressed collective ships: every value the rounding
    functions can produce encodes to the format's width and decodes
    bit for bit."""

    def test_every_bf16_value_round_trips(self):
        # Every 16-bit pattern is a BF16 value (both zeros, subnormals,
        # ±inf, NaNs); add random float32 to drive the rounding path.
        every = (np.arange(1 << 16, dtype=np.uint32) << 16).view(np.float32)
        rng = np.random.default_rng(0)
        noise = (rng.standard_normal(4096)
                 * 10.0 ** rng.integers(-40, 38, 4096)).astype(np.float32)
        values = round_bf16(np.concatenate([every, noise]))
        words = encode(values, BF16)
        assert words.dtype == np.uint16
        np.testing.assert_array_equal(bits(decode(words, BF16)),
                                      bits(values))

    @pytest.mark.parametrize("fmt", [FP8_E4M3, FP8_E5M2])
    def test_every_fp8_value_round_trips(self, fmt):
        # Every FP16 value (a superset of both FP8 grids, with room to
        # saturate) plus signed zeros, ±inf and NaN.
        halves = np.arange(1 << 16, dtype=np.uint16).view(np.float16)
        extra = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e6, -1e6,
                          2.0 ** -30, -2.0 ** -30])
        values = round_to_format(
            np.concatenate([halves.astype(np.float64), extra]), fmt)
        finite = np.unique(values[np.isfinite(values)])
        assert finite.size <= 253  # fits 8 bits with NaN to spare
        assert fmt.max_value in finite and -fmt.max_value in finite
        assert 2.0 ** (fmt.min_normal_exponent - fmt.mantissa_bits) \
            in finite  # the smallest subnormal
        assert np.signbit(values[values == 0]).any()  # -0 survives
        codes = encode(values, fmt)
        assert codes.dtype == np.uint8
        np.testing.assert_array_equal(bits(decode(codes, fmt)),
                                      bits(values))

    def test_no_wire_form_for_wide_formats(self):
        for fmt in (FP16, FP32):
            with pytest.raises(ValueError, match="no wire encoding"):
                encode(np.zeros(2), fmt)
