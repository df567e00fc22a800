"""Numeric runtime: the schedule-ordered DAG executor, its rank-stacked
(vectorized) kernels, and the per-rank RNG streams both drivers share.

See ``docs/INTERNALS.md`` §2 (zero-copy collective rule), §10 (DAG
executor) and §12 (vectorized backend, per-rank RNG contract).
"""

from .backward import backward
from .dag_executor import (
    BACKENDS,
    EXECUTION_MODES,
    DagExecutor,
    DagRunResult,
    resolve_backend,
    resolve_execution,
    schedule_conformance_problems,
)
from .rng import RankRngPool
from .vectorized import VecCtx, VecEnv

__all__ = [
    "BACKENDS",
    "EXECUTION_MODES",
    "DagExecutor",
    "DagRunResult",
    "RankRngPool",
    "VecCtx",
    "VecEnv",
    "backward",
    "resolve_backend",
    "resolve_execution",
    "schedule_conformance_problems",
]
