"""Simulated process groups.

MegaScale-MoE runs on thousands of GPUs connected by NVLink (intra-node)
and RDMA (inter-node).  This reproduction replaces the cluster with a
*simulated world*: rank-``i``'s tensor is simply the ``i``-th numpy array
in a Python list, and collectives (see :mod:`repro.comm.collectives`) move
data between those arrays with exactly the semantics of their NCCL
counterparts.

Alongside the data movement we keep an exact ledger of bytes each rank
sends, per collective, assuming the standard algorithm NCCL would use
(ring for all-gather / reduce-scatter / all-reduce, pairwise exchange for
all-to-all).  Tests compare this ledger against the paper's closed-form
communication-volume formulas (Eqs. 1-4).

Fault-tolerance and observability hooks
---------------------------------------
A :class:`World` optionally carries a fault plan, a health monitor
(see :mod:`repro.ft`), and a tracer (see :mod:`repro.obs`).  All are
duck-typed so this module stays agnostic: the plan exposes
``before(op, tag)`` (may raise a fault before data moves),
``corrupt(op, tag, arrays)`` (bit-flips delivered payloads), and
``slow_factor(rank)`` (slow-link multipliers); the monitor exposes
``observe_collective(op, ranks, durations, tag)``; the tracer exposes
the :class:`~repro.obs.tracer.Tracer` span API.  Collectives call
:meth:`ProcessGroup.pre_collective` /
:meth:`ProcessGroup.post_collective` around every transfer (opening and
guarding a ``comm`` span), and :meth:`ProcessGroup.record` feeds bytes
to the ledger, per-rank timings to the monitor, and byte annotations to
the open span.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["CommRecord", "CommLedger", "ProcessGroup", "World",
           "tile_span"]


def tile_span(group: "ProcessGroup", label: str, index: int,
              count: int):
    """A ``dag.tile:<label>#t<index>`` span around one tile's movement.

    Chunked collectives wrap each tile's data movement + ledger record
    in one of these so :func:`repro.perf.estimator.calibrate_from_spans`
    can calibrate per-tile durations (prefix ``dag.tile:``).  Returns a
    no-op context when no tracer is attached or ``label`` is empty.
    """
    tracer = group.world.tracer
    if tracer is None or not label:
        from contextlib import nullcontext
        return nullcontext()
    name = f"{label}#t{index}"
    return tracer.span(f"dag.tile:{name}", cat="dag", stream="comm",
                       phase="fwd", ops=name, tile=[index, count])


def _flatten_arrays(outputs,
                    into: Optional[List[np.ndarray]] = None
                    ) -> List[np.ndarray]:
    """Flatten a possibly-nested list structure into its ndarrays.

    Appends into a single accumulator list instead of materializing an
    intermediate list per nesting level (this runs on the hot path of
    every fault-checked collective delivery).
    """
    if into is None:
        into = []
    if isinstance(outputs, np.ndarray):
        into.append(outputs)
        return into
    for item in outputs:
        _flatten_arrays(item, into)
    return into


@dataclass
class CommRecord:
    """One collective call as seen by the ledger."""

    op: str
    group_size: int
    #: Bytes sent by each participating rank (they are symmetric for the
    #: balanced collectives; all-to-all with uneven splits may differ).
    send_bytes_per_rank: List[float]
    tag: str = ""
    #: ``(index, count)`` when this record covers one tile of a
    #: chunked collective (§4.2 intra-op overlap); None for whole
    #: transfers.  Tile records of one logical collective share its
    #: tag, and their bytes sum exactly to the untiled transfer's.
    tile: Optional[Tuple[int, int]] = None

    @property
    def total_bytes(self) -> float:
        return float(sum(self.send_bytes_per_rank))


@dataclass
class CommLedger:
    """Accumulates :class:`CommRecord` entries for later inspection.

    Every record stays in :attr:`records` (for per-call inspection) and
    bumps exact per-``(op, tag)`` totals in :attr:`cumulative`, which
    the byte and count queries read in O(distinct tags).
    """

    records: List[CommRecord] = field(default_factory=list)
    #: Cumulative totals keyed ``(op, tag)``, bumped at accept time.
    cumulative: Dict[Tuple[str, str], Dict[str, float]] = field(
        default_factory=dict, repr=False)
    #: Guards record when caller threads record concurrently (reads
    #: snapshot ``records`` under the GIL and stay lock-free).
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def record(self, record: CommRecord) -> None:
        """Append one collective record."""
        with self._lock:
            agg = self.cumulative.setdefault(
                (record.op, record.tag), {"total_bytes": 0.0, "count": 0.0})
            agg["total_bytes"] += record.total_bytes
            # A chunked collective emits one record per tile but is
            # still one logical call: only its first tile bumps the
            # count, so counts() matches the untiled path exactly.
            if record.tile is None or record.tile[0] == 0:
                agg["count"] += 1.0
            self.records.append(record)

    def _cumulative_matching(self, op: Optional[str],
                             tag: Optional[str]
                             ) -> List[Dict[str, float]]:
        return [
            agg for (r_op, r_tag), agg in self.cumulative.items()
            if (op is None or r_op == op) and (tag is None or r_tag == tag)
        ]

    def total_bytes(self, op: Optional[str] = None,
                    tag: Optional[str] = None) -> float:
        """Total bytes sent by all ranks, optionally filtered."""
        return float(sum(agg["total_bytes"]
                         for agg in self._cumulative_matching(op, tag)))

    def counts(self) -> Dict[str, int]:
        """Number of calls per collective op."""
        out: Dict[str, int] = {}
        for (r_op, _), agg in self.cumulative.items():
            out[r_op] = out.get(r_op, 0) + int(agg["count"])
        return out

    def bytes_by_tag(self) -> Dict[str, float]:
        """Total bytes per tag, summed across ops (the Eq. 1-4 comm
        auditor buckets traffic by tag)."""
        out: Dict[str, float] = {}
        with self._lock:
            for (_, r_tag), agg in self.cumulative.items():
                out[r_tag] = out.get(r_tag, 0.0) + agg["total_bytes"]
        return out


class World:
    """A simulated cluster of ``size`` ranks.

    Ranks are numbered ``0..size-1``.  ``ranks_per_node`` describes the
    NVLink-domain size so that sub-groups can be classified as intra- or
    inter-node; the collective *semantics* do not depend on it, but the
    ledger tags and the performance model do.
    """

    def __init__(self, size: int, ranks_per_node: int = 8):
        if size < 1:
            raise ValueError(f"world size must be >= 1, got {size}")
        if ranks_per_node < 1:
            raise ValueError(
                f"ranks_per_node must be >= 1, got {ranks_per_node}"
            )
        self.size = size
        self.ranks_per_node = ranks_per_node
        self.ledger = CommLedger()
        #: Optional fault plan (see :class:`repro.ft.FaultPlan`).
        self.fault_plan: Optional[Any] = None
        #: Optional health monitor (see :class:`repro.ft.HealthMonitor`).
        self.health: Optional[Any] = None
        #: Optional span tracer (see :class:`repro.obs.Tracer`).
        self.tracer: Optional[Any] = None
        #: Nominal link bandwidth (bytes/s) used to turn ledger bytes
        #: into the per-rank durations the straggler detector consumes.
        self.nominal_bandwidth = 100e9

    def attach_fault_plan(self, plan) -> "World":
        """Install a fault plan consulted around every collective."""
        self.fault_plan = plan
        return self

    def attach_health_monitor(self, monitor) -> "World":
        """Install a health monitor fed by every collective."""
        self.health = monitor
        return self

    def attach_tracer(self, tracer) -> "World":
        """Install a tracer that receives a span per collective."""
        self.tracer = tracer
        return self

    def node_of(self, rank: int) -> int:
        """Node index hosting ``rank``."""
        return rank // self.ranks_per_node

    def group(self, ranks: Sequence[int]) -> "ProcessGroup":
        """Create a process group over the given ranks."""
        return ProcessGroup(self, list(ranks))

    def full_group(self) -> "ProcessGroup":
        """A group spanning every rank in the world."""
        return self.group(range(self.size))

    def intra_node_groups(self) -> List["ProcessGroup"]:
        """One group per node, covering all ranks."""
        groups = []
        for start in range(0, self.size, self.ranks_per_node):
            end = min(start + self.ranks_per_node, self.size)
            groups.append(self.group(range(start, end)))
        return groups

    def cross_node_groups(self) -> List["ProcessGroup"]:
        """Groups of same-local-rank peers across nodes (for hierarchical
        collectives)."""
        n_nodes = -(-self.size // self.ranks_per_node)
        groups = []
        for local in range(self.ranks_per_node):
            ranks = [
                node * self.ranks_per_node + local
                for node in range(n_nodes)
                if node * self.ranks_per_node + local < self.size
            ]
            if ranks:
                groups.append(self.group(ranks))
        return groups


class ProcessGroup:
    """An ordered subset of a :class:`World`'s ranks.

    Collective functions in :mod:`repro.comm.collectives` take a group and
    a list of per-rank arrays whose order matches ``group.ranks``.
    """

    def __init__(self, world: World, ranks: List[int]):
        if not ranks:
            raise ValueError("process group must contain at least one rank")
        if len(set(ranks)) != len(ranks):
            raise ValueError(f"duplicate ranks in group: {ranks}")
        for r in ranks:
            if not 0 <= r < world.size:
                raise ValueError(
                    f"rank {r} out of range for world of size {world.size}"
                )
        self.world = world
        self.ranks = list(ranks)

    @property
    def size(self) -> int:
        return len(self.ranks)

    @property
    def is_intra_node(self) -> bool:
        nodes = {self.world.node_of(r) for r in self.ranks}
        return len(nodes) == 1

    @property
    def comm_stream(self) -> str:
        """Trace-stream name: NVLink-domain vs NIC traffic lane."""
        return "comm/intra" if self.is_intra_node else "comm/inter"

    def record(self, op: str, send_bytes_per_rank: Sequence[float],
               tag: str = "",
               tile: Optional[Tuple[int, int]] = None) -> None:
        """Record one collective on this group into the world's ledger.

        Also feeds the health monitor, when one is attached: every
        rank's completion time for a collective is the max transfer
        over the nominal bandwidth, stretched by that rank's slow-link
        factor from the fault plan.  When a tracer is attached, the
        byte total lands on the ``comm`` span :meth:`pre_collective`
        opened (closing it); unbracketed records — the pipeline's p2p
        sends and the per-tile records of chunked collectives (which
        pass ``tile=(i, T)``) — emit a self-contained span, so traced
        bytes still sum to ledger bytes exactly.
        """
        self.world.ledger.record(CommRecord(
            op=op,
            group_size=self.size,
            send_bytes_per_rank=list(send_bytes_per_rank),
            tag=tag,
            tile=tile,
        ))
        tracer = self.world.tracer
        if tracer is not None:
            total = float(sum(send_bytes_per_rank))
            current = tracer.current()
            if (tile is None and current is not None
                    and current.cat == "comm"
                    and current.attrs.get("op") == op
                    and current.attrs.get("tag") == tag):
                tracer.end(current, bytes=total)
            else:
                attrs = {} if tile is None else {"tile": list(tile)}
                span = tracer.begin(
                    op, cat="comm", stream=self.comm_stream,
                    op=op, tag=tag, group_size=self.size, bytes=total,
                    **attrs)
                tracer.end(span)
        health = self.world.health
        if health is not None:
            base = max(send_bytes_per_rank, default=0.0)
            base = float(base) / self.world.nominal_bandwidth
            if base > 0.0:
                plan = self.world.fault_plan
                durations = [
                    base * (plan.slow_factor(r) if plan is not None
                            else 1.0)
                    for r in self.ranks
                ]
                health.observe_collective(op, self.ranks, durations,
                                          tag)

    def pre_collective(self, op: str, tag: str = "") -> None:
        """Consult the fault plan before a collective moves data.

        May raise a fault (rank crash, timeout) from the plan; faults
        fire *before* the comm span opens (no data moved, no span), but
        leave an instant ``fault`` event in the trace.  With a tracer
        attached, opens the ``comm`` span that :meth:`record` closes.
        """
        plan = self.world.fault_plan
        tracer = self.world.tracer
        if plan is not None:
            try:
                plan.before(op, tag)
            except Exception as exc:
                if tracer is not None:
                    tracer.instant(
                        f"fault:{op}", cat="fault",
                        stream=self.comm_stream, op=op, tag=tag,
                        error=type(exc).__name__)
                raise
        if tracer is not None:
            tracer.begin(
                op, cat="comm", stream=self.comm_stream,
                op=op, tag=tag, group_size=self.size)

    def post_collective(self, op: str, outputs, tag: str = "") -> None:
        """Consult the fault plan after a collective delivered data.

        ``outputs`` is the (possibly nested) list of delivered arrays;
        a scheduled corruption bit-flips one of them in place, or
        raises a checksum fault when the plan verifies checksums.  The
        comm span was already closed by :meth:`record` (defensively
        closed here otherwise); checksum faults leave an instant event.
        """
        if self.world.tracer is None and self.world.fault_plan is None:
            return  # hot path: nothing to guard, nothing to corrupt
        tracer = self.world.tracer
        if tracer is not None:
            current = tracer.current()
            if (current is not None and current.cat == "comm"
                    and current.attrs.get("op") == op
                    and current.attrs.get("tag") == tag):
                tracer.end(current)
        plan = self.world.fault_plan
        if plan is not None:
            try:
                plan.corrupt(op, tag, _flatten_arrays(outputs))
            except Exception as exc:
                if tracer is not None:
                    tracer.instant(
                        f"fault:{op}", cat="fault",
                        stream=self.comm_stream, op=op, tag=tag,
                        error=type(exc).__name__)
                raise

    def check_shards(self, shards: Sequence[np.ndarray]) -> None:
        """Validate that a per-rank tensor list matches this group."""
        if len(shards) != self.size:
            raise ValueError(
                f"expected {self.size} shards (one per rank), got "
                f"{len(shards)}"
            )
