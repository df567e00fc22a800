"""Fault tolerance: injection, detection, and recovery (§7 / Fig. 19).

A months-long 10k-GPU run survives because the system around the
training loop detects faults and recovers from them.  This subpackage
supplies that system for the simulated cluster:

* :mod:`repro.ft.faults` — fault taxonomy plus :class:`FaultPlan`,
  the deterministic injector the comm layer consults around every
  collective (crashes, timeouts, payload corruption, slow links).
* :mod:`repro.ft.health` — straggler detection from per-rank
  collective timings, NaN/inf guards, loss-spike guards.
* :mod:`repro.ft.recovery` — retry-with-backoff for transient comm
  faults and CRC-validated checkpoint chains for restart recovery.

``ProductionRunner`` (:mod:`repro.core.runner`) wires these together;
``python -m repro train 16 --faults`` shows the whole pipeline end to
end.
"""

from .faults import (
    CommTimeout,
    Fault,
    FaultEvent,
    FaultPlan,
    FaultSpec,
    LossSpike,
    NumericFault,
    PayloadCorruption,
    RankCrash,
    ResizeEvent,
    RetryExhausted,
    TransientCommFault,
)
from .health import (
    HealthMonitor,
    LossSpikeGuard,
    NumericGuard,
    StragglerDetector,
)
from .recovery import (
    BackoffPolicy,
    ConfigMismatch,
    LayoutMismatch,
    RetryStats,
    file_crc32,
    read_checkpoint_meta,
    retry_with_backoff,
    validate_checkpoint,
    write_checkpoint_meta,
)

__all__ = [
    "Fault",
    "TransientCommFault",
    "CommTimeout",
    "PayloadCorruption",
    "RankCrash",
    "NumericFault",
    "LossSpike",
    "RetryExhausted",
    "ResizeEvent",
    "LayoutMismatch",
    "ConfigMismatch",
    "FaultSpec",
    "FaultEvent",
    "FaultPlan",
    "StragglerDetector",
    "NumericGuard",
    "LossSpikeGuard",
    "HealthMonitor",
    "BackoffPolicy",
    "RetryStats",
    "retry_with_backoff",
    "file_crc32",
    "read_checkpoint_meta",
    "write_checkpoint_meta",
    "validate_checkpoint",
]
