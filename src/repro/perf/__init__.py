"""Performance model: kernel timing, SM allocation, system models."""

from .estimator import (
    AnchorCalibration,
    CalibrationReport,
    KernelModel,
    calibrate_from_spans,
    calibrated_durations,
)
from .sm_allocation import (
    SMAllocation,
    fused_kernel_time,
    optimal_sm_fraction,
)
from .systems import (
    IterationBreakdown,
    MegaScalePerfModel,
    MegatronPerfModel,
    SystemPerfModel,
)

__all__ = [
    "KernelModel",
    "AnchorCalibration",
    "CalibrationReport",
    "calibrate_from_spans",
    "calibrated_durations",
    "SMAllocation",
    "fused_kernel_time",
    "optimal_sm_fraction",
    "IterationBreakdown",
    "MegaScalePerfModel",
    "MegatronPerfModel",
    "SystemPerfModel",
]
