"""Discrete-event execution simulator for operator timelines.

Models the GPU as a set of in-order *streams* (like CUDA streams): each
task is queued on one stream, starts when both its stream predecessor and
all cross-stream dependencies have finished, and runs for a fixed
duration.  MegaScale-MoE's inter-operator overlap is exactly this —
communication kernels on dedicated streams executing concurrently with
independent computation (§4.1) — so the simulator turns a scheduled
operator graph plus per-op durations into a makespan and an
exposed-communication figure (the "Exposed Comm." bars of Fig. 12a).

Fault modelling: :func:`simulate` optionally takes per-stream
``slowdowns`` (a straggling rank stretches every kernel on its
streams) and :class:`StreamFailure` downtime windows (a crashed or
hung executor), so the makespan/exposed-comm impact of stragglers and
failures is directly measurable — see ``tests/test_sim_faults.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["SimTask", "StreamFailure", "TaskRecord", "Timeline",
           "simulate"]


@dataclass(frozen=True)
class SimTask:
    """One unit of simulated work.

    Attributes:
        name: Unique task name.
        duration: Seconds of exclusive stream occupancy.
        stream: Stream (queue) the task executes on.
        deps: Names of tasks that must complete first (any stream).
        is_comm: Marks communication tasks for exposure accounting.
    """

    name: str
    duration: float
    stream: str
    deps: Tuple[str, ...] = ()
    is_comm: bool = False

    def __post_init__(self):
        if self.duration < 0:
            raise ValueError(
                f"task {self.name!r} has negative duration {self.duration}"
            )


@dataclass(frozen=True)
class StreamFailure:
    """A downtime window during which one stream cannot execute.

    Models a hung NIC, a paused executor, or a node swap: tasks cannot
    *start* inside ``[at, at + downtime)`` (they are pushed to the
    window's end), and a task already running when the window opens is
    paused — its completion slips by ``downtime``.

    Attributes:
        stream: The affected stream.
        at: Window start time (seconds).
        downtime: Window length (seconds).
    """

    stream: str
    at: float
    downtime: float

    def __post_init__(self):
        if self.at < 0:
            raise ValueError(f"failure time must be >= 0, got {self.at}")
        if self.downtime < 0:
            raise ValueError(
                f"downtime must be >= 0, got {self.downtime}"
            )


@dataclass(frozen=True)
class TaskRecord:
    """Execution interval of one task."""

    task: SimTask
    start: float
    end: float


@dataclass
class Timeline:
    """Result of a simulation run.

    The per-``(stream, is_comm)`` busy aggregates and the
    compute-interval union behind :attr:`exposed_comm` are computed on
    the first query and kept, so repeated queries (the benchmarks poll
    these per scenario) stop rescanning the full record list, and a
    timeline that is only asked for its makespan (every candidate of a
    schedule search) never builds them.  The caches key on the record
    count and rebuild if a test mutates ``records`` after construction.
    """

    records: List[TaskRecord]
    makespan: float

    def __post_init__(self):
        self._sealed_count = -1

    def _seal(self) -> None:
        """Precompute query aggregates from the current records."""
        busy: Dict[Tuple[str, bool], float] = {}
        for r in self.records:
            key = (r.task.stream, r.task.is_comm)
            busy[key] = busy.get(key, 0.0) + (r.end - r.start)
        self._busy_by = busy
        self._compute_union = self._interval_union(
            sorted((r.start, r.end) for r in self.records
                   if not r.task.is_comm))
        self._sealed_count = len(self.records)

    @staticmethod
    def _interval_union(intervals: List[Tuple[float, float]]) -> float:
        covered = 0.0
        cur_start, cur_end = None, None
        for start, end in intervals:
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        return covered

    def _aggregates(self) -> Dict[Tuple[str, bool], float]:
        if self._sealed_count != len(self.records):
            self._seal()
        return self._busy_by

    def busy_time(self, stream: Optional[str] = None,
                  comm: Optional[bool] = None) -> float:
        """Total occupied seconds, optionally filtered by stream/kind."""
        return sum(
            total for (s, c), total in self._aggregates().items()
            if (stream is None or s == stream)
            and (comm is None or c == comm)
        )

    @property
    def compute_time(self) -> float:
        return self.busy_time(comm=False)

    @property
    def comm_time(self) -> float:
        return self.busy_time(comm=True)

    @property
    def exposed_comm(self) -> float:
        """Time not covered by computation: ``makespan - union(compute)``.

        Computed from the union of compute-task intervals, so overlapping
        compute streams are not double-counted.
        """
        self._aggregates()  # refresh if records changed
        return self.makespan - self._compute_union

    def record_of(self, name: str) -> TaskRecord:
        """The execution record of one task by name."""
        for r in self.records:
            if r.task.name == name:
                return r
        raise KeyError(f"no task named {name!r}")

    def task_order(self, stream: Optional[str] = None,
                   comm: Optional[bool] = None) -> List[str]:
        """Task names in start order, optionally filtered by stream
        and/or comm kind.

        This is the projection the §4.2 parity checks use: simulating a
        tiled schedule and taking ``task_order(comm=True)`` yields the
        comm-tile stream timeline to compare against the ``dag.tile:*``
        order an execution actually traced.
        """
        recs = sorted(self.records,
                      key=lambda r: (r.start, r.task.stream))
        return [r.task.name for r in recs
                if (stream is None or r.task.stream == stream)
                and (comm is None or r.task.is_comm == comm)]


def _adjust_for_failures(start: float, duration: float,
                         windows: Sequence[StreamFailure]):
    """Push a task out of / pause it across downtime windows."""
    for f in windows:
        end = f.at + f.downtime
        if start >= end:
            continue
        if start >= f.at:
            start = end
        elif start + duration > f.at:
            duration += f.downtime
    return start, duration


def simulate(tasks: Sequence[SimTask], *,
             slowdowns: Optional[Dict[str, float]] = None,
             failures: Sequence[StreamFailure] = (),
             tracer: Optional[object] = None,
             trace_pid: str = "sim") -> Timeline:
    """Run tasks to completion; returns the :class:`Timeline`.

    Stream order is the order tasks appear in ``tasks`` (per stream).
    Raises ``ValueError`` on unknown dependencies or deadlock (circular
    waits across streams).

    Args:
        slowdowns: Per-stream duration multipliers (``>= 1``); a
            straggling rank is modelled by slowing its streams.
        failures: :class:`StreamFailure` downtime windows.
        tracer: Optional :class:`~repro.obs.Tracer` (duck-typed via
            ``ingest_timeline``); the finished timeline's task records
            land as closed spans on the ``trace_pid`` process lane.
        trace_pid: Trace process lane for the ingested spans.
    """
    slowdowns = slowdowns or {}
    for stream, factor in slowdowns.items():
        if factor < 1.0:
            raise ValueError(
                f"slowdown for stream {stream!r} must be >= 1, got "
                f"{factor}"
            )
    fail_windows: Dict[str, List[StreamFailure]] = {}
    for f in failures:
        fail_windows.setdefault(f.stream, []).append(f)
    for windows in fail_windows.values():
        windows.sort(key=lambda f: f.at)
    by_name = {}
    for t in tasks:
        if t.name in by_name:
            raise ValueError(f"duplicate task name {t.name!r}")
        by_name[t.name] = t
    for t in tasks:
        for dep in t.deps:
            if dep not in by_name:
                raise ValueError(
                    f"task {t.name!r} depends on unknown task {dep!r}"
                )

    streams: Dict[str, List[SimTask]] = {}
    for t in tasks:
        streams.setdefault(t.stream, []).append(t)

    cursor = {s: 0 for s in streams}
    stream_free = {s: 0.0 for s in streams}
    finish: Dict[str, float] = {}
    records: List[TaskRecord] = []

    remaining = len(tasks)
    while remaining:
        progressed = False
        # Start every stream-head task whose dependencies are done.
        for s, queue in streams.items():
            while cursor[s] < len(queue):
                task = queue[cursor[s]]
                if not all(dep in finish for dep in task.deps):
                    break
                start = max(stream_free[s],
                            max((finish[d] for d in task.deps),
                                default=0.0))
                duration = task.duration * slowdowns.get(s, 1.0)
                start, duration = _adjust_for_failures(
                    start, duration, fail_windows.get(s, ()))
                end = start + duration
                stream_free[s] = end
                finish[task.name] = end
                records.append(TaskRecord(task, start, end))
                cursor[s] += 1
                remaining -= 1
                progressed = True
        if not progressed:
            stuck = [
                streams[s][cursor[s]].name for s in streams
                if cursor[s] < len(streams[s])
            ]
            raise ValueError(
                f"simulation deadlocked; blocked stream heads: {stuck}"
            )

    makespan = max((r.end for r in records), default=0.0)
    records.sort(key=lambda r: (r.start, r.task.stream))
    timeline = Timeline(records=records, makespan=makespan)
    if tracer is not None:
        tracer.ingest_timeline(timeline, pid=trace_pid)
    return timeline
