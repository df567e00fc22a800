"""Numerics substrate: low-precision formats, quantization, optimizers."""

from .formats import (
    BF16,
    FP8_E4M3,
    FP8_E5M2,
    FP16,
    FP32,
    FloatFormat,
    decode,
    encode,
    round_bf16,
    round_to_format,
)
from .quantize import (
    QuantizedTensor,
    dequantize,
    quantize_grouped,
    quantize_per_channel,
    quantize_per_tensor,
    quantize_per_token,
)

__all__ = [
    "BF16",
    "FP8_E4M3",
    "FP8_E5M2",
    "FP16",
    "FP32",
    "FloatFormat",
    "decode",
    "encode",
    "round_bf16",
    "round_to_format",
    "QuantizedTensor",
    "dequantize",
    "quantize_grouped",
    "quantize_per_channel",
    "quantize_per_tensor",
    "quantize_per_token",
]
