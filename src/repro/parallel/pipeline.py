"""Pipeline-parallel schedules: GPipe, 1F1B, interleaved 1F1B (§2.2).

MegaScale-MoE distributes layers across nodes with pipeline parallelism
(Fig. 4) and, like Megatron-LM, uses interleaved 1F1B to cut bubbles.
This module produces explicit per-stage schedules — ordered lists of
forward/backward micro-batch tasks — plus the classic bubble-rate
analysis the strong-scaling discussion in §6.1 relies on ("the number of
micro-batches for each pipeline decreases with more GPUs, leading to
more bubbles").

A schedule is a list per stage of :class:`PipelineTask`; dependency
validation checks that no task runs before its upstream producer, which
tests use as a safety property across all generated schedules.
:func:`stage_partition` splits a model's layers into the stages
:class:`~repro.core.trainer.MegaScaleTrainer` runs in 1F1B order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

__all__ = [
    "PipelineTask",
    "gpipe_schedule",
    "one_f_one_b_schedule",
    "interleaved_1f1b_schedule",
    "validate_schedule",
    "bubble_fraction",
    "stage_partition",
]


@dataclass(frozen=True)
class PipelineTask:
    """One unit of pipeline work on a stage.

    Attributes:
        phase: ``"F"`` (forward) or ``"B"`` (backward).
        micro_batch: Micro-batch index.
        virtual_stage: Which of the stage's virtual (interleaved) chunks
            this task belongs to; 0 when not interleaved.
    """

    phase: str
    micro_batch: int
    virtual_stage: int = 0


def gpipe_schedule(n_stages: int, n_micro: int) -> List[List[PipelineTask]]:
    """All forwards, then all backwards (GPipe)."""
    _check(n_stages, n_micro)
    return [
        [PipelineTask("F", m) for m in range(n_micro)]
        + [PipelineTask("B", m) for m in reversed(range(n_micro))]
        for _ in range(n_stages)
    ]


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


def interleaved_1f1b_schedule(
    n_stages: int, n_micro: int, n_virtual: int
) -> List[List[PipelineTask]]:
    """Interleaved 1F1B: each stage holds ``n_virtual`` model chunks.

    Follows Megatron-LM's scheme, which requires the micro-batch count
    to be a multiple of the stage count.  Forwards and backwards proceed
    in rounds of ``n_stages`` micro-batches per virtual chunk.
    """
    _check(n_stages, n_micro)
    if n_virtual < 1:
        raise ValueError(f"n_virtual must be >= 1, got {n_virtual}")
    if n_virtual == 1:
        return one_f_one_b_schedule(n_stages, n_micro)
    if n_micro % n_stages != 0:
        raise ValueError(
            f"interleaved schedule needs n_micro ({n_micro}) divisible by "
            f"n_stages ({n_stages})"
        )

    schedule = []
    total = n_micro * n_virtual
    for stage in range(n_stages):
        forwards = _interleaved_order(n_stages, n_micro, n_virtual)
        backwards = [
            PipelineTask("B", t.micro_batch,
                         n_virtual - 1 - t.virtual_stage)
            for t in forwards
        ]
        warmup = min((n_stages - stage - 1) * 2 + (n_virtual - 1)
                     * n_stages, total)
        tasks: List[PipelineTask] = list(forwards[:warmup])
        fi, bi = warmup, 0
        while bi < total:
            if fi < total:
                tasks.append(forwards[fi])
                fi += 1
            tasks.append(backwards[bi])
            bi += 1
        schedule.append(tasks)
    return schedule


def _interleaved_order(n_stages: int, n_micro: int,
                       n_virtual: int) -> List[PipelineTask]:
    """Forward order for interleaving: rounds of ``n_stages`` micro-
    batches cycling through virtual chunks."""
    order = []
    for round_start in range(0, n_micro, n_stages):
        width = min(n_stages, n_micro - round_start)
        for v in range(n_virtual):
            for m in range(round_start, round_start + width):
                order.append(PipelineTask("F", m, v))
    return order


def validate_schedule(schedule: List[List[PipelineTask]], n_micro: int,
                      n_virtual: int = 1
                      ) -> List[Tuple[int, PipelineTask]]:
    """Check completeness and cross-stage dependency safety.

    Simulates the pipeline clock: a stage may run F(m, v) only after the
    previous global stage (stage-major through virtual chunks) finished
    it, and B(m, v) only after the next global stage did.  Raises
    ``ValueError`` on violations; returns the simulated execution order
    as ``(stage, task)`` pairs.
    """
    n_stages = len(schedule)
    for stage, tasks in enumerate(schedule):
        fwd = sorted((t.virtual_stage, t.micro_batch)
                     for t in tasks if t.phase == "F")
        bwd = sorted((t.virtual_stage, t.micro_batch)
                     for t in tasks if t.phase == "B")
        expected = sorted((v, m) for v in range(n_virtual)
                          for m in range(n_micro))
        if fwd != expected or bwd != expected:
            raise ValueError(
                f"stage {stage} schedule incomplete or duplicated"
            )

    # Event-driven check: repeatedly run every stage's next ready task.
    done: Dict[Tuple[str, int, int, int], bool] = {}
    cursors = [0] * n_stages
    order: List[Tuple[int, PipelineTask]] = []

    def ready(stage: int, task: PipelineTask) -> bool:
        g = task.virtual_stage * n_stages + stage  # global stage index
        if task.phase == "F":
            if g == 0:
                return True
            prev_stage = (g - 1) % n_stages
            prev_v = (g - 1) // n_stages
            return done.get(("F", prev_stage, task.micro_batch, prev_v),
                            False)
        last_global = n_stages * n_virtual - 1
        if g == last_global:
            return done.get(("F", stage, task.micro_batch,
                             task.virtual_stage), False)
        nxt_stage = (g + 1) % n_stages
        nxt_v = (g + 1) // n_stages
        return done.get(("B", nxt_stage, task.micro_batch, nxt_v), False)

    progressed = True
    while progressed:
        progressed = False
        for stage in range(n_stages):
            while cursors[stage] < len(schedule[stage]):
                task = schedule[stage][cursors[stage]]
                if not ready(stage, task):
                    break
                done[(task.phase, stage, task.micro_batch,
                      task.virtual_stage)] = True
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


def bubble_fraction(n_stages: int, n_micro: int,
                    n_virtual: int = 1) -> float:
    """Classic bubble-rate formula: ``(p-1) / (v·m + p - 1)``.

    Interleaving with ``v`` virtual stages divides the bubble by ``v``
    (Megatron-LM's analysis).  This is the term behind the MFU decline
    in Table 3 as GPUs grow with a fixed global batch.
    """
    _check(n_stages, n_micro)
    if n_stages == 1:
        return 0.0
    return (n_stages - 1) / (n_virtual * n_micro + n_stages - 1)


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
