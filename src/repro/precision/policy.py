"""Mixed-precision GEMM emulation policies.

To reproduce the FP8-vs-BF16 convergence experiments (Fig. 18) the model
must *compute* as the paper's kernels do: GEMM inputs quantized to the
training format (with the §5/§7 quantization granularities), accumulation
in high precision.  A :class:`PrecisionPolicy` installed via context
manager makes every :class:`~repro.model.layers.Linear` and
:class:`~repro.model.moe.Expert` fake-quantize its activations and
weights on the forward pass (gradients flow straight through, matching
hardware GEMMs that accumulate in FP32).

Policies:

* :func:`bf16_policy` — round activations and weights to BF16.
* :func:`fp8_policy` — per-token FP8-E4M3 activations (the paper's fix
  for SwiGLU's wide dynamic range), per-tensor FP8 weights.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from ..tensor import Tensor
from ..tensor.ops import precision_cast
from .formats import FP8_E4M3, round_bf16
from .quantize import dequantize, quantize_per_tensor, quantize_per_token

__all__ = [
    "PrecisionPolicy",
    "current_policy",
    "bf16_policy",
    "fp8_policy",
]

_ACTIVE: List["PrecisionPolicy"] = []


def current_policy() -> Optional["PrecisionPolicy"]:
    """The innermost active policy, or None for full precision."""
    return _ACTIVE[-1] if _ACTIVE else None


def _fake_quant_per_token(x: np.ndarray) -> np.ndarray:
    flat = x.reshape(-1, x.shape[-1])
    return dequantize(quantize_per_token(flat, FP8_E4M3)).reshape(x.shape)


def _fake_quant_per_tensor(x: np.ndarray) -> np.ndarray:
    return dequantize(quantize_per_tensor(x, FP8_E4M3)).reshape(x.shape)


class PrecisionPolicy:
    """Installable activation/weight quantization for GEMM inputs.

    Args:
        name: Label used in logs and experiment records.
        activation_fn: ndarray→ndarray rounding for GEMM activations.
        weight_fn: ndarray→ndarray rounding for GEMM weights.
    """

    def __init__(self, name: str,
                 activation_fn: Callable[[np.ndarray], np.ndarray],
                 weight_fn: Callable[[np.ndarray], np.ndarray]):
        self.name = name
        self.activation_fn = activation_fn
        self.weight_fn = weight_fn

    def cast_activation(self, x: Tensor) -> Tensor:
        """Fake-quantize a GEMM activation input."""
        return precision_cast(x, self.activation_fn)

    def cast_weight(self, w: Tensor) -> Tensor:
        """Fake-quantize a GEMM weight input."""
        return precision_cast(w, self.weight_fn)

    def __enter__(self) -> "PrecisionPolicy":
        _ACTIVE.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        popped = _ACTIVE.pop()
        assert popped is self, "mismatched PrecisionPolicy nesting"
        return False


def bf16_policy() -> PrecisionPolicy:
    """BF16 GEMM inputs — the paper's mixed-precision default."""
    return PrecisionPolicy("bf16", round_bf16, round_bf16)


def fp8_policy() -> PrecisionPolicy:
    """FP8 with the paper's quantization: per-token activations
    (robust to SwiGLU's range expansion, §7), per-tensor weights."""
    return PrecisionPolicy("fp8", _fake_quant_per_token,
                           _fake_quant_per_tensor)

