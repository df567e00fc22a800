"""Tests for the §5 quantization schemes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.precision.formats import FP8_E4M3, FP8_E5M2
from repro.precision.quantize import (
    dequantize,
    quantize_grouped,
    quantize_per_channel,
    quantize_per_tensor,
    quantize_per_token,
)


def rel_err(x, restored):
    mask = np.abs(x) > 1e-12
    if not mask.any():
        return 0.0
    return float((np.abs(restored - x)[mask] / np.abs(x)[mask]).max())


class TestPerTensor:
    def test_roundtrip_error_bound(self, rng):
        x = rng.standard_normal((32, 16)).astype(np.float64)
        q = quantize_per_tensor(x)
        # Shared scale: error relative to the block max is bounded by
        # half the quantization step.
        err = np.abs(dequantize(q) - x).max()
        assert err <= np.abs(x).max() * 2 ** -4

    def test_scale_maps_max(self, rng):
        x = rng.standard_normal((8, 8))
        q = quantize_per_tensor(x)
        assert np.abs(q.payload).max() <= FP8_E4M3.max_value

    def test_zeros(self):
        q = quantize_per_tensor(np.zeros((4, 4)))
        np.testing.assert_array_equal(dequantize(q), np.zeros((4, 4)))

    def test_wire_bytes(self, rng):
        x = rng.standard_normal((10, 20))
        q = quantize_per_tensor(x)
        assert q.payload.nbytes + q.scales.nbytes == 200 * 1.0 + 4.0


class TestPerToken:
    def test_outlier_token_isolated(self, rng):
        """A huge-magnitude token must not destroy other tokens'
        precision — the reason per-token beats per-tensor for SwiGLU
        outputs (§7)."""
        x = rng.standard_normal((16, 32))
        x[3] *= 1e4
        per_tensor = rel_err(x[0], dequantize(quantize_per_tensor(x))[0])
        per_token = rel_err(x[0], dequantize(quantize_per_token(x))[0])
        assert per_token < per_tensor
        assert per_token <= 2 ** -3

    def test_scales_shape(self, rng):
        x = rng.standard_normal((16, 32))
        q = quantize_per_token(x)
        assert q.scales.shape == (16, 1)

    def test_3d_input_keeps_shape(self, rng):
        x = rng.standard_normal((2, 8, 16))
        q = quantize_per_token(x)
        assert q.payload.shape == (2, 8, 16)
        assert dequantize(q).shape == (2, 8, 16)

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="2D"):
            quantize_per_token(np.zeros(8))

    def test_per_row_error_bound(self, rng):
        x = rng.standard_normal((64, 32)) * \
            10.0 ** rng.integers(-3, 4, (64, 1))
        restored = dequantize(quantize_per_token(x))
        for row in range(64):
            err = np.abs(restored[row] - x[row]).max()
            assert err <= np.abs(x[row]).max() * 2 ** -4 + 1e-12


class TestPerChannel:
    def test_outlier_channel_isolated(self, rng):
        x = rng.standard_normal((16, 32))
        x[:, 5] *= 1e4
        restored = dequantize(quantize_per_channel(x))
        assert rel_err(x[:, 0], restored[:, 0]) <= 2 ** -3

    def test_scales_shape(self, rng):
        x = rng.standard_normal((16, 32))
        assert quantize_per_channel(x).scales.shape == (1, 32)


class TestGrouped:
    def test_group_count(self, rng):
        x = rng.standard_normal((300, 8))
        q = quantize_grouped(x, group_size=128)
        assert q.scales.shape == (3, 8)  # ceil(300/128) groups

    def test_exact_multiple(self, rng):
        x = rng.standard_normal((256, 8))
        q = quantize_grouped(x, group_size=128)
        assert q.scales.shape == (2, 8)

    def test_roundtrip_shape(self, rng):
        x = rng.standard_normal((100, 16))
        restored = dequantize(quantize_grouped(x, 32))
        assert restored.shape == (100, 16)

    def test_tighter_than_per_channel_with_drift(self, rng):
        """When gradient magnitude drifts along the token dim (§5's
        motivation for small-group scaling), grouped quantization gives
        lower error than one scale per channel."""
        tokens = np.arange(512)[:, None]
        x = rng.standard_normal((512, 8)) * (1.0 + tokens / 16.0)
        grouped = dequantize(quantize_grouped(x, 64))
        channel = dequantize(quantize_per_channel(x))
        assert (np.abs(grouped - x)[:64].mean()
                < np.abs(channel - x)[:64].mean())

    def test_group_size_one_is_exactish(self, rng):
        x = rng.standard_normal((8, 4))
        q = quantize_grouped(x, group_size=1)
        # Every element gets its own scale per channel-group: the payload
        # maps each value onto the format max, so error is one rounding.
        restored = dequantize(q)
        assert rel_err(x, restored) <= 2 ** -3

    def test_rejects_bad_group(self):
        with pytest.raises(ValueError, match="group_size"):
            quantize_grouped(np.zeros((4, 4)), 0)

    def test_wire_bytes_include_scales(self, rng):
        x = rng.standard_normal((256, 8))
        q = quantize_grouped(x, 128)
        assert q.payload.nbytes + q.scales.nbytes == \
            256 * 8 * 1.0 + 2 * 8 * 4.0


class TestFormats:
    def test_e5m2_larger_range_coarser_grid(self, rng):
        x = rng.standard_normal((64, 16))
        e4 = dequantize(quantize_per_token(x, FP8_E4M3))
        e5 = dequantize(quantize_per_token(x, FP8_E5M2))
        # Same dynamic-range handling, but E4M3's extra mantissa bit
        # gives lower error once scales absorb the range.
        assert np.abs(e4 - x).mean() < np.abs(e5 - x).mean()

    @given(st.integers(2, 40), st.integers(2, 16))
    @settings(max_examples=30, deadline=None)
    def test_quantize_never_nan(self, t, h):
        rng = np.random.default_rng(t * 100 + h)
        x = rng.standard_normal((t, h)) * 10.0 ** rng.integers(-20, 20)
        for scheme in (quantize_per_tensor, quantize_per_token,
                       quantize_per_channel):
            restored = dequantize(scheme(x))
            assert np.isfinite(restored).all()


class TestDegenerateInputs:
    """Zero, huge, and non-finite blocks must never poison the scales.

    Regression guards for the ``_scale_for`` clamps: an all-zero token
    once produced a 0 scale (0/0 -> NaN on dequantize) and a token
    above ``float32 max / fmt.max_value`` overflowed the scale to inf.
    """

    SCHEMES = (quantize_per_tensor, quantize_per_token,
               quantize_per_channel)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_all_zero_input_roundtrips_exactly(self, scheme):
        x = np.zeros((8, 16))
        q = scheme(x)
        assert np.isfinite(q.scales).all() and (q.scales > 0).all()
        np.testing.assert_array_equal(dequantize(q), x)

    def test_zero_token_next_to_normal_token(self, rng):
        x = rng.standard_normal((4, 16))
        x[2] = 0.0
        q = quantize_per_token(x)
        restored = dequantize(q)
        assert np.isfinite(restored).all()
        np.testing.assert_array_equal(restored[2], 0.0)
        assert rel_err(x[:2], restored[:2]) <= FP8_E4M3.epsilon

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_huge_values_roundtrip_finite(self, scheme):
        x = np.full((4, 8), 1e30)  # far above fmt.max, within float32
        restored = dequantize(scheme(x))
        assert np.isfinite(restored).all()
        assert rel_err(x, restored) <= FP8_E4M3.epsilon

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_beyond_float32_saturates_without_nan(self, scheme):
        # 1e305 cannot traverse an 8-bit + f32-scale wire at all; the
        # contract is a clamped finite scale and inf (never NaN) after
        # dequantize, so the finiteness invariant can flag it.
        x = np.full((4, 8), 1e305)
        q = scheme(x)
        assert np.isfinite(q.scales).all()
        with np.errstate(over="ignore"):
            assert not np.isnan(dequantize(q)).any()

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_inf_input_keeps_scales_finite(self, scheme):
        x = np.ones((4, 8))
        x[1, 3] = np.inf
        q = scheme(x)
        assert np.isfinite(q.scales).all()
        with np.errstate(over="ignore"):
            assert not np.isnan(dequantize(q)).any()

    def test_grouped_zero_group(self, rng):
        x = rng.standard_normal((8, 16))
        x[0:4] = 0.0
        q = quantize_grouped(x, group_size=4)
        restored = dequantize(q)
        assert np.isfinite(restored).all()
        np.testing.assert_array_equal(restored[0:4], 0.0)
