"""Software emulation of low-precision floating-point formats.

MegaScale-MoE trains in BF16 mixed precision and, for its most aggressive
configuration, FP8 (Section 5 of the paper).  Reproducing the convergence
experiments (Figures 17 and 18) requires the *rounding behaviour* of these
formats, not hardware tensor cores, so this module emulates them on top of
numpy float32/float64 arrays:

* ``round_bf16``  — bfloat16: 8-bit exponent, 7-bit mantissa.
* ``round_fp8``   — FP8 in either the E4M3 or E5M2 layout used by NVIDIA
  Hopper (the paper adopts E4M3 for all tensors in Section 5).

All rounding uses round-to-nearest-even, matching IEEE 754 and hardware
cast instructions.  Values above the format's maximum magnitude saturate
(the behaviour of NVIDIA's saturating casts used in training).

What travels on a compressed wire is the format's own bits:
:func:`encode` turns rounded values into ``uint16`` BF16 words (the top
half of the float32 bits) or ``uint8`` FP8 codes, and :func:`decode`
restores the exact float32 values, so a collective's ``nbytes`` is the
compressed size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "FloatFormat",
    "BF16",
    "FP8_E4M3",
    "FP8_E5M2",
    "FP16",
    "FP32",
    "decode",
    "encode",
    "round_bf16",
    "round_fp8",
    "round_to_format",
]


@dataclass(frozen=True)
class FloatFormat:
    """Description of a binary floating-point format.

    Attributes:
        name: Human-readable format name.
        exponent_bits: Number of exponent bits.
        mantissa_bits: Number of explicit mantissa (fraction) bits.
        max_value: Largest finite representable magnitude.
        bytes_per_element: Storage size, used by communication cost models.
    """

    name: str
    exponent_bits: int
    mantissa_bits: int
    max_value: float
    bytes_per_element: float

    @property
    def exponent_bias(self) -> int:
        return (1 << (self.exponent_bits - 1)) - 1

    @property
    def min_normal_exponent(self) -> int:
        """Unbiased exponent of the smallest normal number."""
        return 1 - self.exponent_bias

    @property
    def epsilon(self) -> float:
        """Distance between 1.0 and the next representable value."""
        return 2.0 ** (-self.mantissa_bits)


# E4M3 per the OCP FP8 spec: bias 7, max = 1.75 * 2**8 = 448 (S.1111.110).
FP8_E4M3 = FloatFormat("fp8_e4m3", 4, 3, 448.0, 1.0)
# E5M2: bias 15, max = 1.75 * 2**15 = 57344.
FP8_E5M2 = FloatFormat("fp8_e5m2", 5, 2, 57344.0, 1.0)
BF16 = FloatFormat("bf16", 8, 7, 3.3895313892515355e38, 2.0)
FP16 = FloatFormat("fp16", 5, 10, 65504.0, 2.0)
FP32 = FloatFormat("fp32", 8, 23, float(np.finfo(np.float32).max), 4.0)

_FORMATS = {f.name: f for f in (FP8_E4M3, FP8_E5M2, BF16, FP16, FP32)}


def get_format(name: str) -> FloatFormat:
    """Look up a :class:`FloatFormat` by its canonical name."""
    try:
        return _FORMATS[name]
    except KeyError:
        raise ValueError(
            f"unknown float format {name!r}; known: {sorted(_FORMATS)}"
        ) from None


def round_bf16(x: np.ndarray) -> np.ndarray:
    """Round an array to bfloat16 precision (round-to-nearest-even).

    The result is returned as float32 (bfloat16 values are exactly
    representable in float32).  NaN and infinity pass through unchanged.
    """
    x32 = np.asarray(x, dtype=np.float32)
    bits = x32.view(np.uint32)
    # Round-to-nearest-even on the low 16 bits that bfloat16 discards:
    # add 0x7FFF plus the value of bit 16 (the LSB that survives).
    lsb = (bits >> np.uint32(16)) & np.uint32(1)
    rounded = bits + np.uint32(0x7FFF) + lsb
    rounded &= np.uint32(0xFFFF0000)
    out = rounded.view(np.float32).copy()
    # NaN payloads can be clobbered by the bias addition; restore them.
    nan_mask = np.isnan(x32)
    if nan_mask.any():
        out[nan_mask] = np.nan
    return out


def round_fp8(x: np.ndarray, fmt: FloatFormat = FP8_E4M3) -> np.ndarray:
    """Round an array to FP8 precision with saturation.

    Args:
        x: Input array (any float dtype).
        fmt: ``FP8_E4M3`` (default, used by the paper) or ``FP8_E5M2``.

    Returns:
        float32 array whose values are exactly representable in ``fmt``.
        Out-of-range values saturate to ``±fmt.max_value``; NaN passes
        through.
    """
    if fmt.exponent_bits >= 8:
        raise ValueError(f"round_fp8 expects an FP8 format, got {fmt.name}")
    return round_to_format(x, fmt)


def round_to_format(x: np.ndarray, fmt: FloatFormat) -> np.ndarray:
    """Round an array to an arbitrary :class:`FloatFormat`.

    Works for any format with fewer mantissa bits than float64.  Uses
    round-to-nearest-even via :func:`numpy.round` on the scaled mantissa.
    """
    if fmt.name == "fp32":
        return np.asarray(x, dtype=np.float32).copy()
    if fmt.name == "bf16":
        return round_bf16(x)

    x64 = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x64)
    finite = np.isfinite(x64)
    nonzero = finite & (x64 != 0.0)

    mag = np.abs(x64[nonzero])
    # Unbiased exponent of each value, clamped at the subnormal threshold
    # so that tiny values quantize onto the subnormal grid.
    exponent = np.floor(np.log2(mag))
    # Guard against log2 landing one ulp low for exact powers of two.
    exponent = np.where(mag >= 2.0 ** (exponent + 1), exponent + 1, exponent)
    exponent = np.maximum(exponent, float(fmt.min_normal_exponent))
    step = 2.0 ** (exponent - fmt.mantissa_bits)
    quantized = np.round(x64[nonzero] / step) * step
    # Rounding the mantissa up can push the value into the next binade,
    # which is still representable, so no correction is needed; but it can
    # also exceed the max: saturate.
    quantized = np.clip(quantized, -fmt.max_value, fmt.max_value)
    out[nonzero] = quantized

    # Propagate NaN/inf: inf saturates (hardware saturating cast), NaN stays.
    out[~finite & np.isnan(x64)] = np.nan
    out[np.isposinf(x64)] = fmt.max_value
    out[np.isneginf(x64)] = -fmt.max_value
    return out.astype(np.float32)


# FP8 codes are sign (bit 7) | magnitude index (bits 0-6); index 127 is
# NaN.  Both formats fit: E4M3 has 127 magnitudes (zero, 7 subnormals,
# 119 normals up to 448), E5M2 has 124.
_FP8_NAN_INDEX = 0x7F


@lru_cache(maxsize=None)
def _fp8_tables(fmt: FloatFormat) -> tuple:
    """(ascending non-negative magnitudes, 256-entry decode table)."""
    m = fmt.mantissa_bits
    emin = fmt.min_normal_exponent
    mags = [k * 2.0 ** (emin - m) for k in range(1 << m)]  # 0, subnormals
    e = emin
    while 2.0 ** e <= fmt.max_value:
        mags += [(1 + k / 2.0 ** m) * 2.0 ** e for k in range(1 << m)
                 if (1 + k / 2.0 ** m) * 2.0 ** e <= fmt.max_value]
        e += 1
    mags = np.array(mags, dtype=np.float32)
    if mags.size > _FP8_NAN_INDEX:
        raise ValueError(f"{fmt.name} has too many values for 8-bit codes")
    table = np.full(256, np.nan, dtype=np.float32)
    table[:mags.size] = mags
    table[0x80:0x80 + mags.size] = -mags
    table[0x80 + _FP8_NAN_INDEX] = -np.float32(np.nan)
    return mags, table


def _check_wire_format(fmt: FloatFormat) -> None:
    if fmt.name != "bf16" and fmt.bytes_per_element != 1.0:
        raise ValueError(f"no wire encoding for {fmt.name}")


def encode(values: np.ndarray, fmt: FloatFormat) -> np.ndarray:
    """The wire words of ``values``, which must already be representable
    in ``fmt`` (the output of :func:`round_to_format`).

    BF16 becomes ``uint16`` (the top half of each float32's bits); an
    FP8 format becomes ``uint8`` codes.  :func:`decode` restores the
    values bit for bit, signed zeros and NaN included.
    """
    _check_wire_format(fmt)
    x32 = np.asarray(values, dtype=np.float32)
    if fmt.name == "bf16":
        return (x32.view(np.uint32) >> np.uint32(16)).astype(np.uint16)
    mags, _ = _fp8_tables(fmt)
    index = np.searchsorted(mags, np.abs(x32))
    index[np.isnan(x32)] = _FP8_NAN_INDEX
    codes = index.astype(np.uint8)
    codes |= np.signbit(x32).astype(np.uint8) << np.uint8(7)
    return codes


def decode(words: np.ndarray, fmt: FloatFormat) -> np.ndarray:
    """float32 values of wire words produced by :func:`encode`."""
    _check_wire_format(fmt)
    words = np.asarray(words)
    if fmt.name == "bf16":
        return (words.astype(np.uint32) << np.uint32(16)).view(np.float32)
    return _fp8_tables(fmt)[1][words]
