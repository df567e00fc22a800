"""Discrete-event execution simulator for operator timelines.

Models the GPU as a set of in-order *streams* (like CUDA streams): each
task is queued on one stream, starts when both its stream predecessor and
all cross-stream dependencies have finished, and runs for a fixed
duration.  MegaScale-MoE's inter-operator overlap is exactly this —
communication kernels on dedicated streams executing concurrently with
independent computation (§4.1) — so the simulator turns a scheduled
operator graph plus per-op durations into a makespan and an
exposed-communication figure (the "Exposed Comm." bars of Fig. 12a).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["SimTask", "TaskRecord", "Timeline", "simulate"]


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
class TaskRecord:
    """Execution interval of one task."""

    task: SimTask
    start: float
    end: float


@dataclass
class Timeline:
    """Result of a simulation run.

    The compute-interval union behind :attr:`exposed_comm` is computed
    on the first query and kept; it rebuilds if ``records`` changes
    length after construction.
    """

    records: List[TaskRecord]
    makespan: float

    def __post_init__(self):
        self._sealed_count = -1

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

    @property
    def exposed_comm(self) -> float:
        """Time not covered by computation: ``makespan - union(compute)``.

        Computed from the union of compute-task intervals, so overlapping
        compute streams are not double-counted.
        """
        if self._sealed_count != len(self.records):
            self._compute_union = self._interval_union(
                sorted((r.start, r.end) for r in self.records
                       if not r.task.is_comm))
            self._sealed_count = len(self.records)
        return self.makespan - self._compute_union


def simulate(tasks: Sequence[SimTask], *,
             tracer: Optional[object] = None,
             trace_pid: str = "sim") -> Timeline:
    """Run tasks to completion; returns the :class:`Timeline`.

    Stream order is the order tasks appear in ``tasks`` (per stream).
    Raises ``ValueError`` on unknown dependencies or deadlock (circular
    waits across streams).

    Args:
        tracer: Optional :class:`~repro.obs.Tracer` (duck-typed via
            ``ingest_timeline``); the finished timeline's task records
            land as closed spans on the ``trace_pid`` process lane.
        trace_pid: Trace process lane for the ingested spans.
    """
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
                end = start + task.duration
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
