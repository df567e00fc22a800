"""Span-based tracing for the simulated training stack.

One :class:`Tracer` collects everything a run does into a single list of
:class:`Span` records (plus instant :class:`Event` marks), regardless of
which layer produced it:

* **collectives** — :meth:`~repro.comm.group.ProcessGroup.pre_collective`
  opens a ``comm`` span, :meth:`~repro.comm.group.ProcessGroup.record`
  annotates it with the ledger bytes and closes it, and injected faults
  surface as instant events;
* **training steps** — :class:`~repro.core.trainer.MegaScaleTrainer`
  nests ``forward``/``backward``/``optimizer`` spans under each step,
  wraps each pipeline stage×micro-batch forward in a ``pp.stage`` span
  and records stage-boundary sends as ``p2p`` comm spans, and
  :class:`~repro.core.runner.ProductionRunner` marks checkpoints,
  restarts, and rollbacks;
* **the event simulator** — :func:`~repro.sim.engine.simulate` task
  records ingest as already-closed spans on the simulated clock.

Spans carry ``stream`` / ``rank`` / ``phase`` attribution so the Chrome
trace exporter (:mod:`repro.obs.export`) can lay them out exactly like a
GPU profiler would: one lane per stream, one process per clock domain.

Wall-clock spans use ``time.perf_counter`` by default; tests inject a
deterministic fake clock.  All timestamps are seconds (floats); the
exporter converts to microseconds.

Thread model
------------
The library itself is single-threaded, but a tracer may be shared by
caller-owned threads: each thread owns a private span *stack* (strict
LIFO nesting is per thread, like call frames), while the
``spans``/``events`` lists and span-id allocation are shared under a
lock.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

__all__ = ["Span", "Event", "Tracer"]


@dataclass
class Span:
    """One timed, possibly-nested interval of work."""

    name: str
    cat: str = "default"
    start: float = 0.0
    end: Optional[float] = None
    stream: str = "main"
    pid: str = "train"
    rank: Optional[int] = None
    phase: str = ""
    span_id: int = 0
    parent_id: Optional[int] = None
    depth: int = 0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def closed(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Seconds between open and close (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start


@dataclass
class Event:
    """An instantaneous mark (checkpoint written, fault fired, ...)."""

    name: str
    cat: str = "event"
    ts: float = 0.0
    stream: str = "main"
    pid: str = "train"
    rank: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)


class Tracer:
    """Collects spans and events from every instrumented layer.

    Spans open and close in LIFO order (strict nesting, like call
    frames); :meth:`end` merges attributes into the span it closes,
    which is how the byte ledger decorates communication spans without
    the collectives knowing about tracing.  Untraced runs attach no
    tracer at all.

    Args:
        clock: Returns the current time in seconds; defaults to
            ``time.perf_counter``.  Tests inject a deterministic fake.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self.clock: Callable[[], float] = clock or time.perf_counter
        self.spans: List[Span] = []
        self.events: List[Event] = []
        self._stacks: Dict[int, List[Span]] = {}
        self._next_id = 1
        self._lock = threading.Lock()

    @property
    def _stack(self) -> List[Span]:
        """The calling thread's private span stack."""
        tid = threading.get_ident()
        stack = self._stacks.get(tid)
        if stack is None:
            stack = self._stacks[tid] = []
        return stack

    # -- span lifecycle ----------------------------------------------------

    def begin(
        self,
        name: str,
        cat: str = "default",
        stream: str = "main",
        pid: str = "train",
        rank: Optional[int] = None,
        phase: str = "",
        **attrs: Any,
    ) -> Span:
        """Open a nested span; returns it."""
        stack = self._stack
        parent = stack[-1] if stack else None
        span = Span(
            name=name,
            cat=cat,
            start=self.clock(),
            stream=stream,
            pid=pid,
            rank=rank,
            phase=phase,
            parent_id=parent.span_id if parent is not None else None,
            depth=parent.depth + 1 if parent is not None else 0,
            attrs=dict(attrs),
        )
        with self._lock:
            span.span_id = self._next_id
            self._next_id += 1
            self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: Optional[Span] = None, **attrs: Any) -> Optional[Span]:
        """Close ``span`` (default: the innermost open span).

        Spans close strictly LIFO; closing an outer span while inner
        ones remain open closes the inner ones too (crash unwinding).
        """
        if not self._stack:
            return None
        if span is None:
            span = self._stack[-1]
        if span not in self._stack:
            return None
        now = self.clock()
        while self._stack:
            top = self._stack.pop()
            top.end = now
            if top is span:
                break
        span.attrs.update(attrs)
        return span

    @contextmanager
    def span(
        self,
        name: str,
        cat: str = "default",
        stream: str = "main",
        pid: str = "train",
        rank: Optional[int] = None,
        phase: str = "",
        **attrs: Any,
    ) -> Iterator[Span]:
        """Context-managed :meth:`begin`/:meth:`end` pair."""
        handle = self.begin(
            name, cat=cat, stream=stream, pid=pid, rank=rank, phase=phase, **attrs
        )
        try:
            yield handle
        finally:
            if handle is not None:
                self.end(handle)

    def current(self) -> Optional[Span]:
        """The innermost open span, or None."""
        return self._stack[-1] if self._stack else None

    def record_span(
        self,
        name: str,
        start: float,
        end: float,
        cat: str = "default",
        stream: str = "main",
        pid: str = "train",
        rank: Optional[int] = None,
        phase: str = "",
        **attrs: Any,
    ) -> Span:
        """Append an already-closed span with explicit timestamps.

        Continuous-batching request lifetimes overlap arbitrarily, so
        they cannot live on the strict-LIFO per-thread stack; the serve
        scheduler instead records each request's span whole at finish
        time, on whatever clock it was injected with.  Like
        :meth:`ingest_timeline`, the span never touches the stack.
        """
        if end < start:
            raise ValueError(
                f"span {name!r} ends before it starts "
                f"({end} < {start})"
            )
        span = Span(
            name=name,
            cat=cat,
            start=start,
            end=end,
            stream=stream,
            pid=pid,
            rank=rank,
            phase=phase,
            attrs=dict(attrs),
        )
        with self._lock:
            span.span_id = self._next_id
            self._next_id += 1
            self.spans.append(span)
        return span

    # -- instant events ----------------------------------------------------

    def instant(
        self,
        name: str,
        cat: str = "event",
        stream: str = "main",
        pid: str = "train",
        rank: Optional[int] = None,
        **attrs: Any,
    ) -> Event:
        """Record an instantaneous event at the current clock time."""
        event = Event(
            name=name,
            cat=cat,
            ts=self.clock(),
            stream=stream,
            pid=pid,
            rank=rank,
            attrs=dict(attrs),
        )
        with self._lock:
            self.events.append(event)
        return event

    # -- simulator ingestion -----------------------------------------------

    def ingest_timeline(self, timeline: Any, pid: str = "sim") -> List[Span]:
        """Convert a :class:`~repro.sim.engine.Timeline` into spans.

        Simulated task records land as already-closed spans on their own
        process lane (``pid``), keeping the simulated clock separate
        from wall-clock spans.  Returns the new spans.
        """
        out: List[Span] = []
        with self._lock:
            for record in timeline.records:
                task = record.task
                span = Span(
                    name=task.name,
                    cat="sim.comm" if task.is_comm else "sim.compute",
                    start=record.start,
                    end=record.end,
                    stream=task.stream,
                    pid=pid,
                    span_id=self._next_id,
                    attrs={"is_comm": task.is_comm,
                           "deps": list(task.deps)},
                )
                self._next_id += 1
                out.append(span)
            self.spans.extend(out)
        return out

    # -- queries -----------------------------------------------------------

    def closed_spans(
        self, cat: Optional[str] = None, pid: Optional[str] = None
    ) -> List[Span]:
        """Closed spans, optionally filtered by category prefix and pid."""
        return [
            s
            for s in self.spans
            if s.closed
            and (cat is None or s.cat == cat or s.cat.startswith(cat + "."))
            and (pid is None or s.pid == pid)
        ]

    def thread_stacks(self) -> Dict[int, int]:
        """Open-span count per registered thread stack.

        The serve scheduler's shutdown leak check asserts every count
        is zero — a non-empty stack is a span that was never closed.
        """
        with self._lock:
            return {tid: len(stack)
                    for tid, stack in self._stacks.items()}

    def clear(self) -> None:
        """Drop all spans, events, and any open stack frames."""
        with self._lock:
            self.spans.clear()
            self.events.clear()
            self._stacks.clear()
