"""Holistic operator scheduling (§4.1) and intra-operator fusion (§4.2).

Turns an :class:`~repro.core.operators.OpGraph` plus per-op durations
into a stream-assigned task list for the event simulator, and that
list's timeline.  Scheduling places every unit where the simulator
would run it — at ``max(stream free, dependencies' finish)`` — so one
pass yields both; nothing here re-runs the simulator.

* **No overlap** — everything on one stream in graph order (the
  fine-grained-overlap-free baseline of Fig. 15).
* **Inter-operator overlap** — communication ops run on dedicated
  streams (one per scope, mirroring NVLink vs NIC resources); compute
  ops are list-scheduled so dependency-free work (wgrad GEMMs,
  rematerialization) fills communication bubbles.
* **Intra-operator overlap** — ops sharing a ``fuse_group`` (e.g.
  A2A+GEMM, AG+scatter+GroupedGEMM) are fused into one tile-pipelined
  kernel whose duration is ``max(comm, compute)`` plus a fill/drain
  overhead, emulating the device-memory-barrier kernels of §4.2.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..sim.engine import SimTask, TaskRecord, Timeline
from .operators import Op, OpGraph

__all__ = ["OverlapConfig", "HolisticScheduler", "FusedKernel"]

#: Fraction of the shorter member's time lost to tile pipeline
#: fill/drain in a fused kernel.
FUSION_FILL_DRAIN = 0.10


@dataclass(frozen=True)
class OverlapConfig:
    """Which overlap mechanisms are enabled."""

    inter_op: bool = True
    intra_op: bool = True

    @staticmethod
    def none() -> "OverlapConfig":
        return OverlapConfig(inter_op=False, intra_op=False)

    @staticmethod
    def full() -> "OverlapConfig":
        return OverlapConfig(inter_op=True, intra_op=True)


@dataclass
class FusedKernel:
    """A tile-fused comm+compute kernel (§4.2)."""

    name: str
    members: List[Op]
    comm_time: float
    compute_time: float

    @property
    def duration(self) -> float:
        longer = max(self.comm_time, self.compute_time)
        shorter = min(self.comm_time, self.compute_time)
        return longer + FUSION_FILL_DRAIN * shorter

    @property
    def sequential_duration(self) -> float:
        return self.comm_time + self.compute_time


class HolisticScheduler:
    """Produces simulator task lists from operator graphs."""

    def __init__(self, overlap: OverlapConfig = OverlapConfig.full()):
        self.overlap = overlap

    def schedule(self, graph: OpGraph,
                 durations: Dict[str, float]) -> List[SimTask]:
        """Assign streams and order; returns tasks ready to simulate.

        With both overlap levels enabled, the scheduler behaves
        holistically (§4.1): it places the fused and the unfused order
        and keeps whichever finishes first — fusing comm into a compute
        kernel pays a fill/drain cost that is only worthwhile when
        inter-operator overlap cannot already hide that comm.  Placing
        a unit is the simulator's own rule (start at ``max(stream free,
        dependencies' finish)``), so each order's makespan comes out of
        the scheduling pass itself; callers that want the timeline use
        :meth:`schedule_timeline`.
        """
        return self.schedule_timeline(graph, durations)[0]

    def schedule_timeline(self, graph: OpGraph,
                          durations: Dict[str, float]
                          ) -> Tuple[List[SimTask], Timeline]:
        """:meth:`schedule` plus the timeline of its tasks: record for
        record what :func:`~repro.sim.engine.simulate` gives them."""
        if self.overlap.intra_op and self.overlap.inter_op:
            fused = self._schedule(graph, durations, intra=True)
            unfused = self._schedule(graph, durations, intra=False)
            if fused[1].makespan <= unfused[1].makespan:
                return fused
            return unfused
        return self._schedule(graph, durations,
                              intra=self.overlap.intra_op)

    def _schedule(self, graph: OpGraph, durations: Dict[str, float],
                  intra: bool) -> Tuple[List[SimTask], Timeline]:
        for op in graph:
            if op.name not in durations:
                raise KeyError(f"no duration for op {op.name!r}")

        if intra:
            units, dep_map = self._fuse(graph, durations)
        else:
            units = [(op.name, durations[op.name],
                      op.kind == "comm", op.comm_scope, tuple(op.deps))
                     for op in graph]
            dep_map = {op.name: op.name for op in graph}

        resolved = []
        for name, dur, is_comm, scope, deps in units:
            mapped = tuple(dict.fromkeys(
                dep_map[d] for d in deps if dep_map[d] != name))
            resolved.append((name, dur, is_comm, scope, mapped))

        if not self.overlap.inter_op:
            # One stream runs units in list order.  A fused unit takes
            # its first member's place but waits for every member's
            # dependencies, so the units go in the topological order
            # nearest the list (graph order comes back unchanged).
            return self._in_order(self._topological(resolved))
        return self._list_schedule(resolved)

    # -- intra-op fusion --------------------------------------------------

    def _fuse(self, graph: OpGraph, durations: Dict[str, float]):
        """Collapse fuse groups into single tile-pipelined units.

        Groups whose members are already per-tile sub-ops (from
        :func:`~repro.core.operators.tile_forward_graph`) are left
        alone: their pipeline overlap is expressed explicitly by the
        tile dependency structure, so collapsing them into an analytic
        :class:`FusedKernel` would double-count the fusion win.
        """
        groups: Dict[str, List[Op]] = {}
        for op in graph:
            if op.fuse_group:
                groups.setdefault(op.fuse_group + "/" + op.phase,
                                  []).append(op)
        fusable = {
            key: members for key, members in groups.items()
            if any(m.kind == "comm" for m in members)
            and any(m.kind != "comm" for m in members)
            and not any(m.tile is not None for m in members)
        }

        member_to_unit: Dict[str, str] = {}
        for key, members in fusable.items():
            unit_name = "fused:" + key
            for m in members:
                member_to_unit[m.name] = unit_name

        units = []
        for op in graph:
            if op.name in member_to_unit:
                # A fused unit takes its first member's place.
                unit = member_to_unit[op.name]
                members = fusable[unit[len("fused:"):]]
                if op is not members[0]:
                    continue
                comm_t = sum(durations[m.name] for m in members
                             if m.kind == "comm")
                comp_t = sum(durations[m.name] for m in members
                             if m.kind != "comm")
                kernel = FusedKernel(unit, members, comm_t, comp_t)
                ext_deps = tuple(dict.fromkeys(
                    d for m in members for d in m.deps
                    if member_to_unit.get(d) != unit
                ))
                scope = next((m.comm_scope for m in members
                              if m.kind == "comm"), "intra")
                # A fused kernel occupies compute SMs; count it as
                # compute for exposure accounting.
                units.append((unit, kernel.duration, False, scope,
                              ext_deps))
            else:
                units.append((op.name, durations[op.name],
                              op.kind == "comm", op.comm_scope,
                              tuple(op.deps)))

        dep_map = {op.name: member_to_unit.get(op.name, op.name)
                   for op in graph}
        return units, dep_map

    # -- placement ----------------------------------------------------------

    @staticmethod
    def _children(units) -> Dict[str, List[str]]:
        """Each unit's dependents, after the simulator's input checks:
        unit names are unique and every dependency names a unit."""
        children: Dict[str, List[str]] = {}
        for u in units:
            if u[0] in children:
                raise ValueError(f"duplicate unit name {u[0]!r}")
            children[u[0]] = []
        for name, _, _, _, deps in units:
            for d in deps:
                if d not in children:
                    raise ValueError(
                        f"unit {name!r} depends on unknown unit {d!r}"
                    )
                children[d].append(name)
        return children

    @classmethod
    def _topological(cls, units) -> list:
        """``units`` in a topological order that keeps list order
        wherever the dependencies allow (so an already valid list comes
        back unchanged): each step takes the earliest-listed unit whose
        dependencies are all placed."""
        children = cls._children(units)
        index = {u[0]: i for i, u in enumerate(units)}
        waiting = [len(u[4]) for u in units]
        ready = [i for i, n in enumerate(waiting) if n == 0]
        ordered = []
        while ready:
            i = heapq.heappop(ready)
            ordered.append(units[i])
            for child in children[units[i][0]]:
                j = index[child]
                waiting[j] -= 1
                if waiting[j] == 0:
                    heapq.heappush(ready, j)
        if len(ordered) != len(units):
            raise ValueError("cyclic dependencies in schedule units")
        return ordered

    @staticmethod
    def _timeline(records: List[TaskRecord]) -> Timeline:
        """The placed records as the simulator reports them: sorted by
        ``(start, stream)``, with the latest finish as the makespan."""
        makespan = max((r.end for r in records), default=0.0)
        records.sort(key=lambda r: (r.start, r.task.stream))
        return Timeline(records=records, makespan=makespan)

    @classmethod
    def _in_order(cls, units) -> Tuple[List[SimTask], Timeline]:
        """Every unit on one ``main`` stream in list order — the
        no-overlap baseline — each starting once the stream is free and
        its dependencies have finished."""
        cls._children(units)
        tasks: List[SimTask] = []
        records: List[TaskRecord] = []
        finish: Dict[str, float] = {}
        free = 0.0
        for name, dur, is_comm, _, deps in units:
            for d in deps:
                if d not in finish:
                    raise ValueError(
                        f"schedule deadlocked: unit {name!r} is queued "
                        f"before its dependency {d!r}"
                    )
            start = max(free, max((finish[d] for d in deps), default=0.0))
            free = finish[name] = start + dur
            task = SimTask(name, dur, "main", deps, is_comm)
            tasks.append(task)
            records.append(TaskRecord(task, start, free))
        return tasks, cls._timeline(records)

    @classmethod
    def _list_schedule(cls, units) -> Tuple[List[SimTask], Timeline]:
        """Greedy earliest-start ordering with critical-path tie-break.

        Orders units so that per-stream queues never block a ready task
        behind one still waiting on a long dependency — the essence of
        the hand-tailored holistic schedule.  Each step takes the unit
        with the smallest ``(start, -crit, index)``: the earliest start
        on its stream, then the longest path to a sink, then the
        earliest position in ``units``.  A unit starts at ``max(stream
        free, dependencies' finish)`` — the simulator's rule for a
        stream queue in this order — so the placement is the timeline:
        returns the tasks in order and their records.

        Runs in O(U log U) for U units (times the handful of streams):
        each stream keeps its released units — those whose dependencies
        have all finished — in two heaps, ``later`` by ``(ready_at,
        -crit, index)`` and ``startable`` by ``(-crit, index)``.  A unit
        moves from ``later`` to ``startable`` once the stream frees at
        or after its ``ready_at``; every ``startable`` unit then starts
        when the stream frees, before any unit still in ``later``.
        """
        children = cls._children(units)
        by_name = {u[0]: u for u in units}

        # Longest path to sink (criticality) over a topological order
        # computed here — fusion can emit units out of graph order.
        out_degree = {u[0]: len(children[u[0]]) for u in units}
        ready = [name for name, deg in out_degree.items() if deg == 0]
        crit: Dict[str, float] = {}
        while ready:
            name = ready.pop()
            dur = by_name[name][1]
            crit[name] = dur + max((crit[c] for c in children[name]),
                                   default=0.0)
            for dep in by_name[name][4]:
                out_degree[dep] -= 1
                if out_degree[dep] == 0:
                    ready.append(dep)
        if len(crit) != len(units):
            stuck = sorted(set(by_name) - set(crit))
            raise ValueError(
                f"cyclic dependencies among schedule units: {stuck[:5]}"
            )

        index = {u[0]: i for i, u in enumerate(units)}
        streams = [f"comm_{scope}" if is_comm else "compute"
                   for _, _, is_comm, scope, _ in units]
        unfinished = [len(u[4]) for u in units]
        later: Dict[str, list] = {s: [] for s in streams}
        startable: Dict[str, list] = {s: [] for s in streams}
        stream_free: Dict[str, float] = {}
        finish: Dict[str, float] = {}
        for i, (name, _, _, _, deps) in enumerate(units):
            if not deps:
                heapq.heappush(later[streams[i]], (0.0, -crit[name], i))

        tasks: List[SimTask] = []
        records: List[TaskRecord] = []
        while len(tasks) < len(units):
            best = None
            for stream, waiting in later.items():
                free = stream_free.get(stream, 0.0)
                now = startable[stream]
                while waiting and waiting[0][0] <= free:
                    _, neg_crit, i = heapq.heappop(waiting)
                    heapq.heappush(now, (neg_crit, i))
                if now:
                    key = (free,) + now[0]
                elif waiting:
                    key = waiting[0]
                else:
                    continue
                if best is None or key < best[0]:
                    best = (key, stream)
            if best is None:
                raise ValueError("cyclic dependencies in schedule units")
            (start, _, i), stream = best
            # The key came from ``startable`` whenever it is non-empty.
            heapq.heappop(startable[stream] or later[stream])
            name, dur, is_comm, _, deps = units[i]
            end = start + dur
            finish[name] = stream_free[stream] = end
            task = SimTask(name, dur, stream, deps, is_comm)
            tasks.append(task)
            records.append(TaskRecord(task, start, end))
            for child in children[name]:
                j = index[child]
                unfinished[j] -= 1
                if unfinished[j] == 0:
                    ready_at = max(finish[d] for d in units[j][4])
                    heapq.heappush(later[streams[j]],
                                   (ready_at, -crit[child], j))
        return tasks, cls._timeline(records)
