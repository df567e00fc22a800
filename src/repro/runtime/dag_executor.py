"""Numeric execution of a scheduled operator DAG.

:class:`DagExecutor` takes one layer's :class:`~repro.core.executor_bindings.LayerProgram`
(the IR, its overlap schedule, and the flattened op order) plus the
:class:`OpBinding` list that maps graph ops to numeric handlers, and
runs the layer **in schedule order** — the same order the simulator
scores.  Each binding's handler sees all ranks and issues the
``dist_*`` collectives; this is how every training layer (one binding
factory per parallel strategy, :mod:`repro.parallel`) and every serving
iteration (:mod:`repro.serve.decode`) runs.

Construction validates the whole contract up front: the bindings'
``covers`` partition the graph, the flattened order is a permutation of
the graph in valid topological order, and every binding's reads resolve
before it runs.  :func:`schedule_conformance_problems` re-checks an
*executed* sequence against the program after the fact — the
``dag_schedule_conformance`` invariant.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "DagExecutor",
    "DagRunResult",
    "OpBinding",
    "per_rank",
    "schedule_conformance_problems",
    "tile_conformance_problems",
    "tiled_execution_order",
]


# ---------------------------------------------------------------------------
# Binding model
# ---------------------------------------------------------------------------

class _SeqCtx:
    """Whole-world view a handler runs against."""

    __slots__ = ("group", "env")

    def __init__(self, group: Any, env: Dict[str, List[Any]]):
        self.group = group
        #: anchor name -> per-rank value list.
        self.env = env


@dataclass(frozen=True)
class OpBinding:
    """Numeric handler for one forward-graph op (or covers group).

    Attributes:
        op: Anchor op name — the binding executes when the DAG
            executor's order reaches the first op in ``covers``.
        covers: Graph ops this handler computes in one call.  Covers
            groups exist where one handler spans several IR ops (the
            grouped-GEMM experts chain); every graph op must be
            covered by exactly one binding.
        reads: Anchor names (or layer inputs) whose values the handler
            consumes.  Must all be produced earlier in any valid
            topological execution order — the executor checks this.
        seq: Whole-world handler; returns the per-rank value list.
    """

    op: str
    covers: Tuple[str, ...]
    reads: Tuple[str, ...]
    seq: Callable[[_SeqCtx], List[Any]]


def per_rank(op: str, reads: Sequence[str],
             fn: Callable[[int, Callable[[str], Any]], Any],
             covers: Optional[Sequence[str]] = None) -> OpBinding:
    """Lift one per-rank function into a ``seq`` handler.

    ``fn(r, get)`` computes rank ``r``'s value from ``get(name)`` — the
    rank's slice of an earlier anchor's value; the handler loops ranks
    in order.  Only valid for ops with no communication.
    """
    covers_t = tuple(covers) if covers is not None else (op,)

    def seq(ctx: _SeqCtx) -> List[Any]:
        out = []
        for r in range(ctx.group.size):
            def get(name: str, _r: int = r) -> Any:
                return ctx.env[name][_r]
            out.append(fn(r, get))
        return out

    return OpBinding(op, covers_t, tuple(reads), seq)


@dataclass
class DagRunResult:
    """What one DAG-executed layer produced.

    ``env`` maps each binding anchor (plus the layer input) to its
    per-rank value list; ``executed`` is the op-level order actually
    followed — by construction the program's flattened schedule order,
    recorded so ``repro.verify`` can check conformance independently.
    """

    executed: List[str]
    env: Dict[str, List[Any]]
    #: Tile-level execution stream (§4.2) when the program carries a
    #: tile decomposition: the op order with each tiled op expanded to
    #: its sub-tiles in the ascending (source-rank-sorted / token-chunk)
    #: order the chunked collectives actually move them.
    executed_tiles: Optional[List[str]] = field(default=None)

    def per_rank(self, name: str) -> List[Any]:
        """All ranks' values for one anchor (or input) name."""
        return self.env[name]


class DagExecutor:
    """Runs one layer's bindings in the program's schedule order."""

    #: The layer's one input: every program reads the hidden shards.
    INPUTS = ("hidden",)

    def __init__(self, program, bindings, group):
        self.program = program
        self.group = group
        graph_names = [op.name for op in program.graph]
        self._validate_order(program.graph, program.order, graph_names)
        if getattr(program, "tile_graph", None) is not None:
            self._validate_order(
                program.tile_graph, program.tile_order,
                [op.name for op in program.tile_graph])
        self._bindings_in_order = self._validate_bindings(
            program, bindings, graph_names)
        #: Per-binding release lists of ``run(retain=...)``, one per
        #: kept-anchor set.
        self._releases: Dict[frozenset, List[Tuple[str, ...]]] = {}

    # -- construction-time validation ----------------------------------

    @staticmethod
    def _validate_order(graph, order, graph_names: List[str]) -> None:
        """The flattened order must be a topologically valid permutation
        of the graph — this is where a bad scheduler change surfaces."""
        if sorted(order) != sorted(graph_names):
            missing = set(graph_names) - set(order)
            extra = set(order) - set(graph_names)
            raise ValueError(
                f"program order is not a permutation of the graph "
                f"(missing={sorted(missing)}, extra={sorted(extra)})"
            )
        seen = set()
        for name in order:
            for dep in graph[name].deps:
                if dep not in seen:
                    raise ValueError(
                        f"program order runs {name!r} before its "
                        f"dependency {dep!r}"
                    )
            seen.add(name)

    def _validate_bindings(self, program, bindings,
                           graph_names: List[str]):
        owner: Dict[str, Any] = {}
        for b in bindings:
            if b.op not in b.covers:
                raise ValueError(
                    f"binding {b.op!r} does not cover its own op"
                )
            for name in b.covers:
                if name not in program.graph:
                    raise ValueError(
                        f"binding {b.op!r} covers unknown op {name!r}"
                    )
                if name in owner:
                    raise ValueError(
                        f"op {name!r} covered by both "
                        f"{owner[name].op!r} and {b.op!r}"
                    )
                owner[name] = b
        uncovered = [n for n in graph_names if n not in owner]
        if uncovered:
            raise ValueError(f"ops not covered by any binding: "
                             f"{uncovered}")

        # A binding triggers at the first covered member the order
        # reaches; its reads must already be available there.
        available = set(self.INPUTS)
        triggered = set()
        in_order = []
        for name in self.program.order:
            b = owner[name]
            if b.op in triggered:
                continue
            for read in b.reads:
                if read not in available:
                    raise ValueError(
                        f"binding {b.op!r} reads {read!r} before it is "
                        f"produced in the program order"
                    )
            triggered.add(b.op)
            available.add(b.op)
            in_order.append(b)
        return in_order

    def _release_lists(self, keep: frozenset) -> List[Tuple[str, ...]]:
        """For each binding, the anchors to drop once it has run: those
        it is the last reader of, then its own output if nothing reads
        it — never one in ``keep``."""
        releases = self._releases.get(keep)
        if releases is None:
            last_reader: Dict[str, int] = {}
            for i, b in enumerate(self._bindings_in_order):
                for read in b.reads:
                    last_reader[read] = i
            lists: List[List[str]] = [[] for _ in self._bindings_in_order]
            for name, last in last_reader.items():
                if name not in keep:
                    lists[last].append(name)
            for i, b in enumerate(self._bindings_in_order):
                if b.op not in last_reader and b.op not in keep:
                    lists[i].append(b.op)
            releases = self._releases[keep] = [tuple(x) for x in lists]
        return releases

    # -- execution -----------------------------------------------------

    def _span(self, tracer, binding):
        if tracer is None:
            return contextlib.nullcontext()
        op = self.program.graph[binding.op]
        return tracer.span(
            f"dag.op:{binding.op}", cat="dag", stream="compute",
            phase=op.phase, kind=op.kind,
            ops=",".join(binding.covers),
        )

    def run(self, inputs: Dict[str, List[Any]],
            tracer: Optional[object] = None,
            retain: Optional[Sequence[str]] = None) -> DagRunResult:
        """Execute the layer; returns every anchor's per-rank values.

        Args:
            inputs: Per-rank value lists for the declared layer inputs
                (``{"hidden": hidden_shards}``).
            tracer: Optional :class:`~repro.obs.Tracer`; each binding
                runs inside a ``dag.op:<anchor>`` span whose measured
                duration can calibrate the perf model
                (:func:`~repro.perf.estimator.calibrate_from_spans`).
            retain: Forward-only (decode) mode: release each anchor's
                activations as soon as its last reader has run, keeping
                only these anchors (plus the layer inputs) in the
                returned env.  ``None`` keeps everything — training
                needs the full env for backward.
        """
        missing = [name for name in self.INPUTS if name not in inputs]
        if missing:
            raise ValueError(f"missing layer inputs: {missing}")
        env: Dict[str, List[Any]] = {name: list(vals)
                                     for name, vals in inputs.items()}
        ctx = _SeqCtx(self.group, env)
        if retain is None:
            for b in self._bindings_in_order:
                with self._span(tracer, b):
                    env[b.op] = b.seq(ctx)
        else:
            # Forward-only streaming release: drop each anchor once its
            # last reading binding has run (inference holds no tape
            # worth keeping alive), unless the caller retains it.
            releases = self._release_lists(
                frozenset(retain) | frozenset(self.INPUTS))
            for b, release in zip(self._bindings_in_order, releases):
                with self._span(tracer, b):
                    env[b.op] = b.seq(ctx)
                for name in release:
                    del env[name]
        tiles = (tiled_execution_order(self.program)
                 if getattr(self.program, "tile_graph", None) is not None
                 else None)
        return DagRunResult(executed=list(self.program.order), env=env,
                            executed_tiles=tiles)


def schedule_conformance_problems(program,
                                  executed: Sequence[str]) -> List[str]:
    """Check an executed op sequence against its layer program.

    Three conditions (the ``dag_schedule_conformance`` invariant):

    1. the sequence is a permutation of the graph's ops;
    2. it is a valid topological order of the op-level dependencies;
    3. collapsing ops to their scheduled units (first occurrence) gives
       a valid topological order of the scheduler's task dependencies —
       i.e. the numeric path really followed the overlap schedule.

    Returns human-readable problem strings; empty means conformant.
    """
    problems: List[str] = []
    graph = program.graph
    graph_names = [op.name for op in graph]
    if sorted(executed) != sorted(graph_names):
        missing = set(graph_names) - set(executed)
        extra = set(executed) - set(graph_names)
        problems.append(
            f"executed ops are not a permutation of the graph "
            f"(missing={sorted(missing)}, extra={sorted(extra)})"
        )
        return problems

    seen = set()
    for name in executed:
        for dep in graph[name].deps:
            if dep not in seen:
                problems.append(
                    f"op {name!r} executed before its dependency "
                    f"{dep!r}"
                )
        seen.add(name)

    unit_of = program.task_of()
    unit_sequence: List[str] = []
    seen_units = set()
    for name in executed:
        unit = unit_of[name]
        if unit not in seen_units:
            seen_units.add(unit)
            unit_sequence.append(unit)
    tasks = {t.name: t for t in program.tasks}
    done = set()
    for unit in unit_sequence:
        for dep in tasks[unit].deps:
            if dep not in done:
                problems.append(
                    f"unit {unit!r} started before its scheduled "
                    f"dependency {dep!r}"
                )
        done.add(unit)
    return problems


def tiled_execution_order(program) -> List[str]:
    """The tile-level stream a tiled program's chunked execution moves.

    Expands the program's op order in place: each tiled op becomes its
    sub-tiles in ascending index order (the order the chunked
    collectives copy and ledger-record them), untiled ops pass through.
    Because tile ``i`` of an op depends only on tile ``i`` or the last
    tile of earlier ops (plus its own tile ``i-1``), this expansion of
    any valid op-level topological order is a valid topological order
    of the tile graph.
    """
    from ..core.operators import tiled_members
    members = tiled_members(program.tile_graph)
    out: List[str] = []
    for name in program.order:
        out.extend(members.get(name, [name]))
    return out


def tile_conformance_problems(program,
                              executed_tiles: Optional[Sequence[str]]
                              ) -> List[str]:
    """Check an executed tile stream against a tiled layer program.

    The ``tile_conformance`` invariant: the stream must be a
    permutation of the tile graph's sub-ops and a valid topological
    order of its dependencies — which encode the §4.2 pipeline
    (comm tile ``i`` before its consumer compute tile ``i``, ascending
    source-rank-sorted tile order within each op via the self-chain
    deps).  Returns human-readable problems; empty means conformant.
    """
    problems: List[str] = []
    tile_graph = getattr(program, "tile_graph", None)
    if tile_graph is None:
        if executed_tiles:
            problems.append(
                "executed tile stream present for an untiled program"
            )
        return problems
    if executed_tiles is None:
        return ["tiled program executed without a tile stream"]
    tile_names = [op.name for op in tile_graph]
    if sorted(executed_tiles) != sorted(tile_names):
        missing = set(tile_names) - set(executed_tiles)
        extra = set(executed_tiles) - set(tile_names)
        problems.append(
            f"executed tiles are not a permutation of the tile graph "
            f"(missing={sorted(missing)}, extra={sorted(extra)})"
        )
        return problems
    seen = set()
    for name in executed_tiles:
        for dep in tile_graph[name].deps:
            if dep not in seen:
                problems.append(
                    f"tile {name!r} executed before its dependency "
                    f"{dep!r}"
                )
        seen.add(name)
    return problems
