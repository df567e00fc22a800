"""Data parallelism: replicated training with synchronized gradients.

Since simulated replicas that start identical and apply identical
updates stay bit-identical, the engine keeps *one* model and materializes
per-rank gradients by running each rank's micro-batch separately.  The
synchronization method is pluggable (§5):

* ``fp32_rs``   — exact FP32 reduce-scatter (+ all-gather), the baseline;
* ``bf16_a2a``  — MegaScale's compression: one BF16 cast, all-to-all,
  FP32 local reduction (Fig. 10);
* ``bf16_ring_rs`` — the rejected repeated-BF16-accumulation ring.

ZeRO-1 optimizer-state sharding is tracked as a memory/communication
accounting model (states live once per DP group instead of per rank).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

import numpy as np

from ..comm.group import ProcessGroup
from ..model.layers import Module
from ..precision.compression import GRAD_SYNC_METHODS, sync_gradients
from ..precision.optimizer import AdamW, clip_grad_norm
from ..tensor import Tensor

__all__ = ["DataParallelTrainer", "DPStepResult", "zero1_memory_model"]


@dataclass
class DPStepResult:
    """Telemetry from one synchronized DP step."""

    losses: List[float]
    mean_loss: float
    grad_norm: float
    sync_bytes: float


class DataParallelTrainer:
    """Trains a model replica under simulated data parallelism."""

    def __init__(
        self,
        model: Module,
        group: ProcessGroup,
        optimizer: AdamW,
        loss_fn: Callable[[Module, np.ndarray], Tensor],
        sync_method: str = "fp32_rs",
        grad_clip: float = 0.0,
    ):
        if sync_method not in GRAD_SYNC_METHODS:
            raise ValueError(
                f"unknown sync method {sync_method!r}; choose from "
                f"{GRAD_SYNC_METHODS}"
            )
        self.model = model
        self.group = group
        self.optimizer = optimizer
        self.loss_fn = loss_fn
        self.sync_method = sync_method
        self.grad_clip = grad_clip
        self.params = model.parameters()

    def train_step(self, rank_batches: Sequence[np.ndarray]) -> DPStepResult:
        """One optimizer step over per-rank micro-batches.

        ``rank_batches[r]`` is the token batch rank ``r`` would process.
        Gradients are *accumulated locally in FP32* (the paper keeps main
        gradients in FP32 during PP accumulation) and synchronized once.
        """
        n = self.group.size
        if len(rank_batches) != n:
            raise ValueError(
                f"expected {n} rank batches, got {len(rank_batches)}"
            )

        per_rank_grads: List[List[np.ndarray]] = []
        losses = []
        for batch in rank_batches:
            self.model.zero_grad()
            loss = self.loss_fn(self.model, batch)
            loss.backward()
            losses.append(loss.item())
            per_rank_grads.append([
                (p.grad if p.grad is not None else np.zeros_like(p.data))
                for p in self.params
            ])

        ledger_before = self.group.world.ledger.total_bytes()
        for i, p in enumerate(self.params):
            synced = sync_gradients(
                self.group, [per_rank_grads[r][i] for r in range(n)],
                method=self.sync_method, average=True,
            )
            p.grad = synced[0]
        sync_bytes = self.group.world.ledger.total_bytes() - ledger_before

        norm = clip_grad_norm(self.params, self.grad_clip)
        self.optimizer.step()
        return DPStepResult(
            losses=losses,
            mean_loss=float(np.mean(losses)),
            grad_norm=norm,
            sync_bytes=sync_bytes,
        )


def zero1_memory_model(param_count: float, dp_size: int,
                       bytes_per_param: float = 2.0,
                       master_bytes: float = 4.0,
                       moment_bytes: float = 8.0,
                       grad_bytes: float = 4.0) -> Dict[str, float]:
    """Per-GPU bytes with ZeRO stage-1 optimizer-state sharding (§4.1).

    Model parameters and gradients stay replicated; the FP32 master copy
    and Adam moments are sharded ``1/dp_size``.
    """
    if dp_size < 1:
        raise ValueError(f"dp_size must be >= 1, got {dp_size}")
    return {
        "params": param_count * bytes_per_param,
        "grads": param_count * grad_bytes,
        "optimizer": param_count * (master_bytes + moment_bytes) / dp_size,
        "total": param_count * (
            bytes_per_param + grad_bytes
            + (master_bytes + moment_bytes) / dp_size
        ),
    }
