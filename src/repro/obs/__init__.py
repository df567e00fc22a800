"""Unified observability: tracing, metrics, export, and comm auditing.

One :class:`Observability` bundle per run wires the whole stack:

>>> from repro.obs import Observability
>>> obs = Observability.create()
>>> # trainer = MegaScaleTrainer(..., obs=obs)  # spans + metrics
>>> # write_chrome_trace("trace.json", obs.tracer)

See ``docs/INTERNALS.md`` §7 for the span model and exporter format,
and ``python -m repro train --trace OUT.json`` for the end-to-end run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .audit import (
    MECHANISMS,
    AuditEntry,
    AuditReport,
    audit_comm_volumes,
    crosscheck_tracer_ledger,
)
from .export import text_summary, to_chrome_trace, write_chrome_trace
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .tracer import Event, Span, Tracer

__all__ = [
    "AuditEntry",
    "AuditReport",
    "Counter",
    "Event",
    "Gauge",
    "Histogram",
    "MECHANISMS",
    "MetricsRegistry",
    "Observability",
    "Span",
    "Tracer",
    "audit_comm_volumes",
    "crosscheck_tracer_ledger",
    "text_summary",
    "to_chrome_trace",
    "write_chrome_trace",
]


@dataclass
class Observability:
    """Tracer + metrics registry handed to trainers and runners."""

    tracer: Tracer = field(default_factory=Tracer)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    @classmethod
    def create(cls, clock: Optional[Callable[[], float]] = None) -> "Observability":
        """Fresh bundle, optionally on an injected clock."""
        return cls(tracer=Tracer(clock=clock), metrics=MetricsRegistry())
