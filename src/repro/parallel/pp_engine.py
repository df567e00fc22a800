"""Numerical pipeline-parallel training over simulated stages.

Splits a :class:`~repro.model.MoETransformer` into ``p`` contiguous
stages (embedding on the first, LM head on the last), runs micro-batches
through a validated 1F1B schedule order, accumulates gradients, and
steps the optimizer — the §2.2 pipeline dimension made numerical.

Because gradient accumulation over equal micro-batches is exactly what
a single device running the same accumulation performs, the trainer is
numerically identical to non-pipelined micro-batched training, which the
test suite asserts.  Inter-stage activation traffic is recorded in the
world ledger as ``p2p`` sends (both directions), sized per Fig. 4's
inter-node placement of PP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..comm.group import World
from ..model.transformer import MoETransformer
from ..precision.optimizer import AdamW, clip_grad_norm
from ..tensor import Tensor, ops
from .pipeline import one_f_one_b_schedule, validate_schedule

__all__ = ["PipelineParallelTrainer", "PPStepResult", "stage_partition"]


def stage_partition(n_layers: int, n_stages: int) -> List[range]:
    """Contiguous, balanced layer ranges per stage."""
    if n_stages < 1:
        raise ValueError(f"n_stages must be >= 1, got {n_stages}")
    if n_layers < n_stages:
        raise ValueError(
            f"cannot split {n_layers} layers into {n_stages} stages"
        )
    base = n_layers // n_stages
    extra = n_layers % n_stages
    ranges = []
    start = 0
    for stage in range(n_stages):
        size = base + (1 if stage < extra else 0)
        ranges.append(range(start, start + size))
        start += size
    return ranges


@dataclass
class PPStepResult:
    """Telemetry from one pipelined optimizer step."""

    loss: float
    micro_losses: List[float]
    grad_norm: float
    p2p_bytes: float


class PipelineParallelTrainer:
    """1F1B pipelined training of one model replica.

    Args:
        model: The full model (this process owns every stage; stage
            boundaries govern scheduling and p2p accounting).
        world: Simulated world whose size is the number of stages.
        n_micro: Micro-batches per optimizer step.
        optimizer: Steps the full parameter set after accumulation.
        aux_loss_coeff: Router balance-loss weight.
        elem_bytes: Wire bytes per activation element for the ledger.
    """

    def __init__(self, model: MoETransformer, world: World,
                 n_micro: int, optimizer: Optional[AdamW] = None,
                 aux_loss_coeff: float = 0.0, grad_clip: float = 1.0,
                 elem_bytes: float = 2.0,
                 mp_world: Optional[World] = None,
                 mp_attention: str = "sp", mp_ffn: str = "ep"):
        self.model = model
        self.world = world
        self.n_stages = world.size
        self.n_micro = n_micro
        self.stages = stage_partition(model.config.n_layers,
                                      self.n_stages)
        self.optimizer = optimizer or AdamW(model.parameters())
        self.aux_loss_coeff = aux_loss_coeff
        self.grad_clip = grad_clip
        self.elem_bytes = elem_bytes
        schedule = one_f_one_b_schedule(self.n_stages, n_micro)
        validate_schedule(schedule, n_micro)
        self.schedule = schedule

        # Optional model-parallel dimension inside every stage (the 3D
        # composition of Fig. 4): each layer runs through a
        # ParallelBlockEngine over ``mp_world``'s ranks, with activations
        # sharded on entry to a stage and unsharded at its boundary.
        self.mp_world = mp_world
        self.block_engines = None
        if mp_world is not None:
            from .block import ParallelBlockEngine
            group = mp_world.full_group()
            self.block_engines = [
                ParallelBlockEngine(group, block, mp_attention, mp_ffn)
                for block in model.blocks
            ]

    # -- stage computation --------------------------------------------------

    def _record_p2p(self, elements: float, src: int, dst: int,
                    tag: str) -> None:
        from ..comm.group import CommRecord
        per_rank = [0.0] * self.world.size
        per_rank[src] = elements * self.elem_bytes
        self.world.ledger.record(CommRecord(
            op="p2p", group_size=self.world.size,
            send_bytes_per_rank=per_rank, tag=tag))
        tracer = self.world.tracer
        if tracer is not None:
            tracer.instant(f"p2p:{tag}", cat="comm.p2p",
                           stream=f"stage{src}", op="p2p", tag=tag,
                           bytes=per_rank[src], src=src, dst=dst)

    def _stage_forward(self, stage: int, hidden, micro_ids):
        """Run one stage's layers; returns the boundary activation."""
        model = self.model
        if stage == 0:
            hidden = ops.embedding(model.embedding, micro_ids[:, :-1])
        aux_total = None
        if self.block_engines is None:
            for layer in self.stages[stage]:
                hidden, moe_out = model.blocks[layer](hidden)
                aux = moe_out.aux_loss
                aux_total = aux if aux_total is None else aux_total + aux
            return hidden, aux_total

        # 3D path: shard the sequence across the MP ranks for this
        # stage's layers, then reassemble at the stage boundary.
        n = self.mp_world.size
        seq = hidden.shape[1]
        if seq % n != 0:
            raise ValueError(
                f"sequence {seq} not divisible by MP size {n}"
            )
        width = seq // n
        shards = [hidden[:, r * width:(r + 1) * width] for r in range(n)]
        for layer in self.stages[stage]:
            shards, aux = self.block_engines[layer].forward(shards, seq)
            aux_total = aux if aux_total is None else aux_total + aux
        hidden = ops.concat(shards, axis=1)
        return hidden, aux_total

    def _stage_loss(self, hidden: Tensor, micro_ids: np.ndarray,
                    aux_total: Optional[Tensor]) -> Tensor:
        model = self.model
        logits = model.lm_head(model.final_norm(hidden))
        loss = ops.cross_entropy(logits, micro_ids[:, 1:])
        if self.aux_loss_coeff and aux_total is not None:
            loss = loss + aux_total * self.aux_loss_coeff
        return loss

    # -- training step ------------------------------------------------------

    def train_step(self, token_ids: np.ndarray) -> PPStepResult:
        """One optimizer step over ``[batch, seq+1]`` token ids.

        The batch is split into ``n_micro`` equal micro-batches along
        the batch dimension; tasks execute in 1F1B order.
        """
        token_ids = np.asarray(token_ids)
        if token_ids.shape[0] % self.n_micro != 0:
            raise ValueError(
                f"batch {token_ids.shape[0]} not divisible by "
                f"n_micro {self.n_micro}"
            )
        micros = np.split(token_ids, self.n_micro, axis=0)

        self.model.zero_grad()
        ledger_before = self.world.ledger.total_bytes(op="p2p")

        # Execute in schedule order: one in-flight state per micro.
        boundary: Dict[tuple, Tensor] = {}
        aux_carry: Dict[tuple, Optional[Tensor]] = {}
        losses: Dict[int, Tensor] = {}
        cursors = [0] * self.n_stages
        remaining = sum(len(s) for s in self.schedule)
        while remaining:
            progressed = False
            for stage in range(self.n_stages):
                while cursors[stage] < len(self.schedule[stage]):
                    task = self.schedule[stage][cursors[stage]]
                    if not self._ready(task, stage, boundary, losses):
                        break
                    self._run_task(task, stage, micros, boundary,
                                   aux_carry, losses)
                    cursors[stage] += 1
                    remaining -= 1
                    progressed = True
            if not progressed:
                raise RuntimeError("pipeline execution deadlocked")

        total = None
        for m in range(self.n_micro):
            piece = losses[m]
            total = piece if total is None else total + piece
        total = total * (1.0 / self.n_micro)
        total.backward()
        if self.block_engines is not None:
            for engine in self.block_engines:
                engine.sync_grads_to_reference()

        norm = clip_grad_norm(self.model.parameters(), self.grad_clip)
        self.optimizer.step()
        if self.block_engines is not None:
            for engine in self.block_engines:
                engine.refresh_shards()
        p2p = self.world.ledger.total_bytes(op="p2p") - ledger_before
        return PPStepResult(
            loss=total.item(),
            micro_losses=[losses[m].item() for m in range(self.n_micro)],
            grad_norm=norm,
            p2p_bytes=p2p,
        )

    def _ready(self, task, stage, boundary, losses) -> bool:
        if task.phase == "F":
            return stage == 0 or (stage - 1, task.micro_batch) in boundary
        # Backward is driven by autograd at the end; a stage's "B" task
        # is ready once the loss for that micro-batch exists.
        return task.micro_batch in losses

    def _run_task(self, task, stage, micros, boundary, aux_carry,
                  losses) -> None:
        """Execute one schedule slot, traced as a stage-boundary span."""
        tracer = self.world.tracer
        if tracer is None or task.phase != "F":
            self._execute_task(task, stage, micros, boundary, aux_carry,
                               losses)
            return
        with tracer.span(f"stage{stage}/F{task.micro_batch}",
                         cat="pp.stage", stream=f"stage{stage}",
                         phase="F", stage=stage,
                         micro=task.micro_batch,
                         layers=len(self.stages[stage])):
            self._execute_task(task, stage, micros, boundary, aux_carry,
                               losses)

    def _execute_task(self, task, stage, micros, boundary, aux_carry,
                      losses) -> None:
        m = task.micro_batch
        if task.phase != "F":
            return  # gradient work happens in the single backward sweep
        if stage == 0:
            hidden, aux = self._stage_forward(stage, None, micros[m])
        else:
            hidden_in = boundary[(stage - 1, m)]
            self._record_p2p(hidden_in.size, stage - 1, stage,
                             f"pp_fwd:{m}")
            hidden, aux = self._stage_forward(stage, hidden_in,
                                              micros[m])
            prev_aux = aux_carry.get((stage - 1, m))
            if prev_aux is not None:
                aux = prev_aux if aux is None else prev_aux + aux
        if stage == self.n_stages - 1:
            losses[m] = self._stage_loss(hidden, micros[m], aux)
            # Backward activation gradients retrace every boundary.
            for s in range(self.n_stages - 1):
                self._record_p2p(boundary[(s, m)].size, s + 1, s,
                                 f"pp_bwd:{m}")
        else:
            boundary[(stage, m)] = hidden
            aux_carry[(stage, m)] = aux


