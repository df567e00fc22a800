"""Quantization strategies used by MegaScale-MoE's compressed communication.

Section 5 of the paper compresses FP8 communication with *scaled*
quantization: each block of values shares one FP32 scale chosen so that the
block's maximum magnitude maps onto the FP8 format's maximum.  The paper
uses three granularities:

* **per-tensor** — one scale for the whole tensor (baseline; rejected for
  SwiGLU activations because the operator expands the dynamic range).
* **per-token** — one scale per row (a ``1 × h`` vector per token); used
  for *forward* activation communication.
* **per-channel** — one scale per column; used for *backward* gradient
  communication, optionally **grouped** along the token dimension with a
  small group size (e.g. 128) for a tighter dynamic range.

Quantization returns a :class:`QuantizedTensor` carrying the payload as
the format's wire codes (``uint8`` for FP8, see
:func:`~repro.precision.formats.encode`) and the FP32 scales;
:func:`dequantize` restores float32.  What it costs on the wire is what
it holds: ``payload.nbytes + scales.nbytes``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .formats import FP8_E4M3, FloatFormat, decode, encode, round_to_format

__all__ = [
    "QuantizedTensor",
    "quantize_per_tensor",
    "quantize_per_token",
    "quantize_per_channel",
    "quantize_grouped",
    "dequantize",
]

# Scales are chosen so the block max maps to the format max; a block of all
# zeros would produce scale 0, so we floor it at a tiny positive value.
_MIN_SCALE = 1e-30
# Scales are transmitted as FP32, so they must stay finite in float32:
# a block max near the float32 ceiling (or inf/NaN from an upstream
# blow-up) would otherwise overflow the scale to inf, turning the whole
# block — zeros included — into NaN through payload = x / scale.
_MAX_SCALE = float(np.finfo(np.float32).max)


@dataclass
class QuantizedTensor:
    """A quantized payload plus the metadata needed to dequantize it.

    Attributes:
        payload: The wire codes of ``x / scales`` rounded to ``fmt``
            (``uint8`` for FP8 formats).
        scales: float32 array broadcastable against ``payload``; the
            dequantized value is ``decode(payload) * scales``.
        fmt: Target low-precision format of the payload.
        scheme: Which granularity produced this tensor (``"per_tensor"``,
            ``"per_token"``, ``"per_channel"``, or ``"grouped"``).
        group_size: Group length for the ``"grouped"`` scheme, else None.
    """

    payload: np.ndarray
    scales: np.ndarray
    fmt: FloatFormat
    scheme: str
    group_size: Optional[int] = None

def _scale_for(block_max: np.ndarray, fmt: FloatFormat) -> np.ndarray:
    """Scale mapping ``block_max`` onto the format's max magnitude.

    Degenerate blocks are guarded so no scale is ever 0, inf, or NaN:

    * all-zero blocks keep the ``_MIN_SCALE`` floor (payload is exact
      zeros, dequantize returns exact zeros);
    * non-finite block maxima (an inf/NaN activation upstream) and
      maxima that would overflow the FP32 scale are clamped to
      ``_MAX_SCALE`` — the payload then saturates through
      :func:`round_to_format` like a hardware FP8 cast instead of
      poisoning every element of the block with NaN.
    """
    ratio = np.asarray(block_max, dtype=np.float64) / fmt.max_value
    ratio = np.where(np.isfinite(ratio), ratio, _MAX_SCALE)
    return np.clip(ratio, _MIN_SCALE, _MAX_SCALE).astype(np.float32)


def _quantize_with_scales(
    x: np.ndarray, scales: np.ndarray, fmt: FloatFormat, scheme: str,
    group_size: Optional[int] = None,
) -> QuantizedTensor:
    payload = encode(
        round_to_format(np.asarray(x, dtype=np.float64) / scales, fmt), fmt)
    return QuantizedTensor(payload, np.asarray(scales, np.float32), fmt,
                           scheme, group_size)


def quantize_per_tensor(
    x: np.ndarray, fmt: FloatFormat = FP8_E4M3
) -> QuantizedTensor:
    """Quantize with a single scale for the whole tensor."""
    x = np.asarray(x)
    scale = _scale_for(np.max(np.abs(x), initial=0.0), fmt)
    return _quantize_with_scales(x, scale, fmt, "per_tensor")


def quantize_per_token(
    x: np.ndarray, fmt: FloatFormat = FP8_E4M3
) -> QuantizedTensor:
    """Quantize with one scale per row (token).

    The paper applies this to forward activation communication: SwiGLU
    expands the numerical range across tokens, so a shared per-tensor
    scale would crush small-magnitude tokens (Section 7, "FP8 training").
    """
    x = np.asarray(x)
    if x.ndim < 2:
        raise ValueError("per-token quantization needs a 2D+ tensor")
    flat = x.reshape(-1, x.shape[-1])
    row_max = np.max(np.abs(flat), axis=-1, keepdims=True)
    scales = _scale_for(row_max, fmt)
    q = _quantize_with_scales(flat, scales, fmt, "per_token")
    q.payload = q.payload.reshape(x.shape)
    return q


def quantize_per_channel(
    x: np.ndarray, fmt: FloatFormat = FP8_E4M3
) -> QuantizedTensor:
    """Quantize with one scale per column (channel).

    Used for backward gradient communication, where per-channel statistics
    are more stable than per-token ones.
    """
    x = np.asarray(x)
    if x.ndim < 2:
        raise ValueError("per-channel quantization needs a 2D+ tensor")
    flat = x.reshape(-1, x.shape[-1])
    col_max = np.max(np.abs(flat), axis=0, keepdims=True)
    scales = _scale_for(col_max, fmt)
    q = _quantize_with_scales(flat, scales, fmt, "per_channel")
    q.payload = q.payload.reshape(x.shape)
    return q


def quantize_grouped(
    x: np.ndarray, group_size: int = 128, fmt: FloatFormat = FP8_E4M3
) -> QuantizedTensor:
    """Per-channel quantization grouped along the token dimension.

    The paper further groups backward-communication quantization "along
    the token dimension using a small group size (e.g., 128)" (Section 5):
    each ``group_size × 1`` block of a column gets its own scale, bounding
    the dynamic range any single scale must cover.

    The token dimension is padded up to a multiple of ``group_size``
    internally; the returned payload keeps the original shape.
    """
    if group_size < 1:
        raise ValueError(f"group_size must be >= 1, got {group_size}")
    x = np.asarray(x)
    if x.ndim < 2:
        raise ValueError("grouped quantization needs a 2D+ tensor")
    flat = x.reshape(-1, x.shape[-1])
    tokens, channels = flat.shape
    groups = -(-tokens // group_size)
    padded = np.zeros((groups * group_size, channels), dtype=np.float64)
    padded[:tokens] = flat
    blocks = padded.reshape(groups, group_size, channels)
    block_max = np.max(np.abs(blocks), axis=1, keepdims=True)
    scales = _scale_for(block_max, fmt)  # [groups, 1, channels]
    payload = encode(round_to_format(blocks / scales, fmt), fmt)
    payload = payload.reshape(groups * group_size, channels)[:tokens]
    q = QuantizedTensor(
        payload.reshape(x.shape), scales.squeeze(1), fmt, "grouped",
        group_size,
    )
    return q


def dequantize(q: QuantizedTensor) -> np.ndarray:
    """Restore a float32 tensor from a :class:`QuantizedTensor`."""
    values = decode(q.payload, q.fmt)
    if q.scheme in ("per_tensor",):
        return (values.astype(np.float64) * q.scales).astype(np.float32)
    flat = values.reshape(-1, values.shape[-1]).astype(np.float64)
    if q.scheme == "per_token":
        out = flat * q.scales
    elif q.scheme == "per_channel":
        out = flat * q.scales
    elif q.scheme == "grouped":
        tokens, channels = flat.shape
        groups = q.scales.shape[0]
        group_size = q.group_size
        padded = np.zeros((groups * group_size, channels), dtype=np.float64)
        padded[:tokens] = flat
        blocks = padded.reshape(groups, group_size, channels)
        blocks = blocks * q.scales[:, None, :]
        out = blocks.reshape(groups * group_size, channels)[:tokens]
    else:
        raise ValueError(f"unknown quantization scheme {q.scheme!r}")
    return out.reshape(q.payload.shape).astype(np.float32)
