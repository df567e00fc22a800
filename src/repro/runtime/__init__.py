"""Numeric runtime: the schedule-ordered DAG executor and the tape's
backward sweep.

See ``docs/INTERNALS.md`` §2 (zero-copy collective rule) and §10 (how a
layer runs).
"""

from .backward import backward
from .dag_executor import (
    DagExecutor,
    DagRunResult,
    schedule_conformance_problems,
)

__all__ = [
    "DagExecutor",
    "DagRunResult",
    "backward",
    "schedule_conformance_problems",
]
