"""Numeric runtime: the schedule-ordered DAG executor and the per-rank
RNG streams.

See ``docs/INTERNALS.md`` §2 (zero-copy collective rule) and §10 (how a
layer runs).
"""

from .backward import backward
from .dag_executor import (
    DagExecutor,
    DagRunResult,
    schedule_conformance_problems,
)
from .rng import RankRngPool

__all__ = [
    "DagExecutor",
    "DagRunResult",
    "RankRngPool",
    "backward",
    "schedule_conformance_problems",
]
