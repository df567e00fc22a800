"""Automatic operator scheduling — the §7 future-work direction.

The paper invests "substantial engineering efforts in inter-operator
communication-computation overlap, including determining operator
execution order, concurrency ... As training progresses and experience
accumulates, we seek to automate operator scheduling within the search
space ... We leave automatic optimization for future work."

This module implements that future work for the simulated substrate: a
randomized local-search scheduler that perturbs operator priorities and
keeps improvements, using the event simulator as its objective.  It is
seeded and budgeted, and — by construction — never returns a schedule
worse than the hand-tailored holistic one it starts from.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..sim.engine import SimTask, simulate
from .cluster import ClusterSpec
from .config import ModelConfig, TrainConfig
from .operators import OpGraph, build_forward_graph
from .schedule import HolisticScheduler, OverlapConfig

__all__ = ["AutoScheduler", "AutoScheduleResult", "PlanScheduleResult",
           "optimize_plan"]


@dataclass
class AutoScheduleResult:
    """Outcome of a search run."""

    tasks: List[SimTask]
    makespan: float
    baseline_makespan: float
    evaluations: int
    improved: bool

    @property
    def gain(self) -> float:
        if self.baseline_makespan == 0:
            return 0.0
        return 1.0 - self.makespan / self.baseline_makespan


class AutoScheduler:
    """Priority-perturbation local search over stream orderings.

    The schedule space is parameterized by a per-op priority vector: a
    deterministic list scheduler orders each stream's queue by priority
    (respecting dependencies), and the event simulator scores the
    result.  Search = iterated random perturbation with greedy
    acceptance, seeded for reproducibility.
    """

    def __init__(self, overlap: OverlapConfig = OverlapConfig.full(),
                 budget: int = 200, seed: int = 0,
                 perturbation: float = 0.25):
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        self.overlap = overlap
        self.budget = budget
        self.seed = seed
        self.perturbation = perturbation

    def optimize(self, graph: OpGraph,
                 durations: Dict[str, float]) -> AutoScheduleResult:
        """Search for a faster schedule than the holistic baseline."""
        baseline_tasks, baseline_timeline = HolisticScheduler(
            self.overlap).schedule_timeline(graph, durations)
        baseline = baseline_timeline.makespan

        rng = np.random.default_rng(self.seed)
        names = [t.name for t in baseline_tasks]
        base_priority = {name: float(i) for i, name in enumerate(names)}

        best_tasks = baseline_tasks
        best = baseline
        evaluations = 1
        priority = dict(base_priority)
        for _ in range(self.budget):
            candidate = {
                name: p + rng.normal(0.0, self.perturbation * len(names))
                for name, p in priority.items()
            }
            tasks = _reorder_by_priority(baseline_tasks, candidate)
            if tasks is None:
                continue
            makespan = simulate(tasks).makespan
            evaluations += 1
            if makespan < best:
                best = makespan
                best_tasks = tasks
                priority = candidate  # walk from the improvement
        return AutoScheduleResult(
            tasks=best_tasks,
            makespan=best,
            baseline_makespan=baseline,
            evaluations=evaluations,
            improved=best < baseline - 1e-12,
        )


def _reorder_by_priority(tasks: List[SimTask],
                         priority: Dict[str, float]
                         ) -> Optional[List[SimTask]]:
    """Topological order honoring priorities; None if infeasible."""
    by_name = {t.name: t for t in tasks}
    indegree = {t.name: 0 for t in tasks}
    children: Dict[str, List[str]] = {t.name: [] for t in tasks}
    for t in tasks:
        for dep in t.deps:
            if dep not in by_name:
                return None
            indegree[t.name] += 1
            children[dep].append(t.name)

    # Pop equal priorities by name: dict insertion order is an accident
    # of graph construction and made search results unstable across
    # runs.  Names are unique, so the heap's order is a total order.
    ready = [(priority.get(name, 0.0), name)
             for name, deg in indegree.items() if deg == 0]
    heapq.heapify(ready)
    out: List[SimTask] = []
    while ready:
        _, name = heapq.heappop(ready)
        out.append(by_name[name])
        for child in children[name]:
            indegree[child] -= 1
            if indegree[child] == 0:
                heapq.heappush(ready, (priority.get(child, 0.0), child))
    if len(out) != len(tasks):
        return None
    return out


@dataclass
class PlanScheduleResult:
    """Best plan, then best schedule within it (§7 composed search).

    ``plan`` is the winning point of the plan space; ``fwd``/``bwd``
    are the op-priority local-search results over that plan's layer
    graphs, evaluated with the same (optionally span-calibrated)
    durations the plan was priced with.
    """

    plan: object  # PlanSearchResult
    fwd: AutoScheduleResult
    bwd: AutoScheduleResult
    calibrated: bool = False

    @property
    def layer_gain(self) -> float:
        """Fractional layer-time reduction over the holistic baseline."""
        base = self.fwd.baseline_makespan + self.bwd.baseline_makespan
        if base == 0:
            return 0.0
        return 1.0 - (self.fwd.makespan + self.bwd.makespan) / base


def optimize_plan(
    model: ModelConfig,
    cluster: ClusterSpec,
    train: Optional[TrainConfig] = None,
    budget: int = 200,
    seed: int = 0,
    spans=None,
    calibration=None,
    top: int = 1,
) -> PlanScheduleResult:
    """Search the plan space, then the schedule space of the winner.

    Composes :func:`~repro.core.planner.plan_cluster` (which plan?
    ranked exactly ``top`` deep) with :class:`AutoScheduler` (which op
    order within it?).  When ``spans`` from a traced DAG run are
    supplied, a :class:`~repro.perf.estimator.CalibrationReport` is
    fitted first and both searches use calibrated durations — closing
    the §7 execute → trace → calibrate → plan loop.
    """
    from ..perf.estimator import calibrate_from_spans
    from ..perf.systems import MegaScalePerfModel
    from .planner import plan_cluster

    train = train or TrainConfig()
    gpu = cluster.bottleneck_gpu()
    if spans is not None and calibration is None:
        # Fit the correction against the hand plan's graph: the span
        # anchors (attention, dispatch, experts, ...) are shared by
        # every candidate's graphs.
        from .planner import _raw_candidates, _within_memory
        feasible = _within_memory(model, cluster,
                                  _raw_candidates(model, cluster, train),
                                  train.micro_batch_size)
        if feasible:
            probe_cand = feasible[0]
            km = MegaScalePerfModel(cluster=cluster).kernel_model(
                gpu, probe_cand.parallel.model_parallel_size)
            graph = build_forward_graph(model, probe_cand.parallel,
                                        train.micro_batch_size,
                                        probe_cand.elem_bytes)
            calibration = calibrate_from_spans(km, graph, spans)

    plan = plan_cluster(model, cluster, train, calibration=calibration,
                        top=top)
    best = plan.best.candidate

    perf = MegaScalePerfModel(
        cluster=cluster,
        calibration=calibration,
        elem_bytes=best.elem_bytes,
    )
    km = perf.kernel_model(gpu, best.parallel.model_parallel_size)
    (fwd, d_fwd), (bwd, d_bwd) = perf.layer_graphs(
        model, best.parallel, train.micro_batch_size, km,
        best.remat == "selective")
    scheduler = AutoScheduler(budget=budget, seed=seed)
    return PlanScheduleResult(
        plan=plan,
        fwd=scheduler.optimize(fwd, d_fwd),
        bwd=scheduler.optimize(bwd, d_bwd),
        calibrated=calibration is not None,
    )
