"""Pipeline-parallel schedules: 1F1B (§2.2).

MegaScale-MoE distributes layers across nodes with pipeline parallelism
(Fig. 4).  This module produces the explicit per-stage 1F1B schedule —
ordered lists of forward/backward micro-batch tasks — that
:class:`~repro.core.trainer.MegaScaleTrainer` runs over the stages
:func:`stage_partition` splits a model's layers into.

A schedule is a list per stage of :class:`PipelineTask`; dependency
validation checks that no task runs before its upstream producer and
returns the order the trainer executes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

__all__ = [
    "PipelineTask",
    "one_f_one_b_schedule",
    "validate_schedule",
    "stage_partition",
]


@dataclass(frozen=True)
class PipelineTask:
    """One unit of pipeline work on a stage.

    Attributes:
        phase: ``"F"`` (forward) or ``"B"`` (backward).
        micro_batch: Micro-batch index.
    """

    phase: str
    micro_batch: int


def one_f_one_b_schedule(n_stages: int,
                         n_micro: int) -> List[List[PipelineTask]]:
    """PipeDream-style 1F1B: warmup forwards, steady 1F1B, cooldown."""
    _check(n_stages, n_micro)
    schedule = []
    for stage in range(n_stages):
        warmup = min(n_stages - stage - 1, n_micro)
        tasks: List[PipelineTask] = [
            PipelineTask("F", m) for m in range(warmup)]
        next_f, next_b = warmup, 0
        while next_b < n_micro:
            if next_f < n_micro:
                tasks.append(PipelineTask("F", next_f))
                next_f += 1
            tasks.append(PipelineTask("B", next_b))
            next_b += 1
        schedule.append(tasks)
    return schedule


def validate_schedule(schedule: List[List[PipelineTask]], n_micro: int
                      ) -> List[Tuple[int, PipelineTask]]:
    """Check completeness and cross-stage dependency safety.

    Simulates the pipeline clock: a stage may run F(m) only after the
    previous stage finished it, and B(m) only after the next stage did
    (the last stage after its own F(m)).  Raises ``ValueError`` on
    violations; returns the simulated execution order as
    ``(stage, task)`` pairs.
    """
    n_stages = len(schedule)
    expected = list(range(n_micro))
    for stage, tasks in enumerate(schedule):
        fwd = sorted(t.micro_batch for t in tasks if t.phase == "F")
        bwd = sorted(t.micro_batch for t in tasks if t.phase == "B")
        if fwd != expected or bwd != expected:
            raise ValueError(
                f"stage {stage} schedule incomplete or duplicated"
            )

    # Event-driven check: repeatedly run every stage's next ready task.
    done: Dict[Tuple[str, int, int], bool] = {}
    cursors = [0] * n_stages
    order: List[Tuple[int, PipelineTask]] = []

    def ready(stage: int, task: PipelineTask) -> bool:
        if task.phase == "F":
            return stage == 0 or done.get(
                ("F", stage - 1, task.micro_batch), False)
        if stage == n_stages - 1:
            return done.get(("F", stage, task.micro_batch), False)
        return done.get(("B", stage + 1, task.micro_batch), False)

    progressed = True
    while progressed:
        progressed = False
        for stage in range(n_stages):
            while cursors[stage] < len(schedule[stage]):
                task = schedule[stage][cursors[stage]]
                if not ready(stage, task):
                    break
                done[(task.phase, stage, task.micro_batch)] = True
                order.append((stage, task))
                cursors[stage] += 1
                progressed = True
    stuck = [s for s in range(n_stages) if cursors[s] < len(schedule[s])]
    if stuck:
        raise ValueError(
            f"schedule deadlocks: stages {stuck} blocked "
            f"(cursor {[cursors[s] for s in stuck]})"
        )
    return order


def stage_partition(n_layers: int, n_stages: int) -> List[range]:
    """Contiguous, balanced layer ranges per stage (front-loaded)."""
    if n_stages < 1:
        raise ValueError(f"n_stages must be >= 1, got {n_stages}")
    if n_layers < n_stages:
        raise ValueError(
            f"cannot split {n_layers} layers into {n_stages} stages"
        )
    base, extra = divmod(n_layers, n_stages)
    ranges = []
    start = 0
    for stage in range(n_stages):
        size = base + (1 if stage < extra else 0)
        ranges.append(range(start, start + size))
        start += size
    return ranges


def _check(n_stages: int, n_micro: int) -> None:
    if n_stages < 1:
        raise ValueError(f"n_stages must be >= 1, got {n_stages}")
    if n_micro < 1:
        raise ValueError(f"n_micro must be >= 1, got {n_micro}")
