"""The reverse sweep as a free function."""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from ..tensor.tensor import Tensor

__all__ = ["backward"]


# Sole remaining caller: benchmarks/wallclock/train_workload.py::phases
# (a frozen path); the trainers call Tensor.backward directly.
def backward(root: Tensor, grad: Optional[np.ndarray] = None, *,
             executor: Any = None, fault_plan: Any = None,
             tracer: Any = None) -> None:
    """``root.backward(grad)``; the keyword arguments are accepted and
    ignored (they selected the removed thread-pool sweep)."""
    root.backward(grad)
