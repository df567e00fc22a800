"""The layer program: one operator IR drives schedule and execution.

One :class:`~repro.core.operators.OpGraph` drives three things in this
repo: the overlap schedule (:mod:`repro.core.schedule`), the event
simulation (:mod:`repro.sim`), and the actual numeric forward pass.
:func:`layer_program` closes the loop with the scheduler: it builds the
forward graph, prices it with the :class:`~repro.perf.KernelModel`,
runs the :class:`~repro.core.schedule.HolisticScheduler`, and flattens
the task list (expanding ``fused:`` kernels back to member ops in graph
order) into the op-level execution order the
:class:`~repro.runtime.dag_executor.DagExecutor` follows.

The numeric side attaches to that order through
:class:`~repro.runtime.dag_executor.OpBinding` handlers, one binding
factory per parallel strategy in :mod:`repro.parallel` (composed into a
layer by :func:`repro.parallel.block.build_layer_bindings`); this
module knows nothing of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from .config import GPU_SPECS, ModelConfig, ParallelConfig
from .operators import (OpGraph, TilePlan, build_forward_graph,
                        plan_tiles, tile_forward_graph)
from .schedule import HolisticScheduler

__all__ = [
    "LayerProgram",
    "expand_task",
    "layer_program",
    "unit_map",
]


def expand_task(graph: OpGraph, task_name: str) -> List[str]:
    """Member op names of one scheduled task, in graph order.

    A ``fused:<group>/<phase>`` task expands to every graph op with
    that fuse group and phase; a plain task is its own single member.
    """
    if task_name.startswith("fused:"):
        key = task_name[len("fused:"):]
        fuse_group, phase = key.rsplit("/", 1)
        return [op.name for op in graph
                if op.fuse_group == fuse_group and op.phase == phase]
    return [task_name]


def unit_map(graph: OpGraph, tasks: Sequence[Any]) -> Dict[str, str]:
    """Map each graph op name to the scheduled task (unit) running it."""
    mapping: Dict[str, str] = {}
    for task in tasks:
        for name in expand_task(graph, task.name):
            mapping[name] = task.name
    return mapping


@dataclass
class LayerProgram:
    """One layer's IR, its overlap schedule, and the flattened order.

    ``order`` is the op-level execution order the numeric DAG executor
    follows: the scheduler's task list with fused kernels expanded back
    to member ops in graph order.  Because the task list is
    topologically ordered over task dependencies and fused members are
    contiguous, ``order`` is a valid topological order of the op graph
    — the executor re-validates this on construction.
    """

    graph: OpGraph
    tasks: List[Any]
    order: List[str]
    durations: Dict[str, float] = field(default_factory=dict)
    #: Tile-granular companion program (§4.2), present when the layer
    #: was built with ``tile_tokens``: the forward graph with fused
    #: groups decomposed into per-tile sub-ops, its own schedule, and
    #: the flattened tile-level order the simulator/conformance checks
    #: compare executed tile streams against.
    tile_graph: Optional[OpGraph] = None
    tile_tasks: Optional[List[Any]] = None
    tile_order: Optional[List[str]] = None
    tile_plan: Optional[TilePlan] = None
    tile_durations: Dict[str, float] = field(default_factory=dict)

    def task_of(self) -> Dict[str, str]:
        """Op name → scheduled unit name."""
        return unit_map(self.graph, self.tasks)

    @property
    def tiled(self) -> bool:
        """Whether this program carries a tile-granular decomposition."""
        return self.tile_graph is not None


def layer_program(model: ModelConfig, parallel: ParallelConfig,
                  micro_batch: int, seq_len: int,
                  tile_tokens: Optional[int] = None
                  ) -> LayerProgram:
    """Build the graph → price it on an H800 → schedule it with both
    overlap levels → flatten the order.

    ``tile_tokens`` additionally plans the §4.2 tile decomposition and
    attaches the tiled graph/schedule/order to the program (validating
    that the tile width divides the local sequence shard).
    """
    from ..perf.estimator import KernelModel
    graph = build_forward_graph(model, parallel, micro_batch,
                                seq_len=seq_len)
    kernel_model = KernelModel(GPU_SPECS["h800"])
    durations = kernel_model.durations(graph)
    scheduler = HolisticScheduler()
    tasks = scheduler.schedule(graph, durations)
    order = [name for task in tasks
             for name in expand_task(graph, task.name)]
    program = LayerProgram(graph=graph, tasks=tasks, order=order,
                           durations=durations)
    if tile_tokens is not None:
        plan = plan_tiles(graph, parallel.model_parallel_size, seq_len,
                          tile_tokens)
        if plan.group_tiles:
            tile_graph = tile_forward_graph(graph, plan)
            tile_durations = kernel_model.durations(tile_graph)
            tile_tasks = scheduler.schedule(tile_graph, tile_durations)
            program.tile_graph = tile_graph
            program.tile_tasks = tile_tasks
            program.tile_order = [
                name for task in tile_tasks
                for name in expand_task(tile_graph, task.name)]
            program.tile_plan = plan
            program.tile_durations = tile_durations
    return program
