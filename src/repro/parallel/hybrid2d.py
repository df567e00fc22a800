"""Hybrid 2D training: model parallelism × data parallelism (Fig. 4/5).

The full production layout inside one pipeline stage: ``n`` intra-node
ranks run SP attention + EP experts for each of ``d`` data-parallel
replicas (one replica per node), and gradient synchronization follows
Appendix A.1:

* **attention / norm / embedding parameters** are replicated across all
  ``n × d`` ranks → the four-step *hierarchical* sync (intra-node
  reduce-scatter, inter-node RS + AG, intra-node all-gather);
* **expert and router parameters** live once per replica (EP shards
  them intra-node) → a *flat* inter-node sync across the ``d`` peers.

Each replica's per-rank gradient contributions are materialized by
splitting its accumulated gradient evenly across the node's ranks —
numerically exact (the pieces sum back to the replica gradient) while
driving the real hierarchical data movement, so the ledger records the
true intra- vs inter-node traffic split of Fig. 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..comm.group import World
from ..comm.hierarchical import flat_sync, hierarchical_sync
from ..core.config import ModelConfig, ParallelConfig, TrainConfig
from ..model.transformer import MoETransformer
from ..precision.optimizer import AdamW, clip_grad_norm

__all__ = ["Hybrid2DTrainer", "Hybrid2DStepResult"]


@dataclass
class Hybrid2DStepResult:
    """Telemetry from one 2D step."""

    loss: float
    replica_losses: List[float]
    grad_norm: float
    intra_node_sync_bytes: float
    inter_node_sync_bytes: float


def _is_replicated(name: str) -> bool:
    """Replicated across the model-parallel dimension under SP+EP?

    Attention weights, norms, embeddings and the LM head are replicas;
    router gate and expert weights are the EP-sharded components.
    """
    return not (".moe.experts." in name or ".moe.router." in name)


class Hybrid2DTrainer:
    """Trains ``d`` replicas over a simulated ``n × d`` world."""

    def __init__(self, config: ModelConfig, world: World,
                 parallel: ParallelConfig, train: TrainConfig,
                 seed: int = 0, lr: Optional[float] = None):
        # Imported here: core.trainer itself builds on repro.parallel.
        from ..core.trainer import MegaScaleTrainer
        n = parallel.model_parallel_size
        if world.ranks_per_node != n:
            raise ValueError(
                f"world.ranks_per_node={world.ranks_per_node} must equal "
                f"model_parallel_size={n}"
            )
        if world.size % n != 0:
            raise ValueError(
                f"world size {world.size} not divisible by {n}"
            )
        self.world = world
        self.n = n
        self.d = world.size // n
        self.train_cfg = train
        lr = lr if lr is not None else train.learning_rate

        # One replica per node, identical init; each runs its own
        # model-parallel trainer over a sub-world that shares the
        # global ledger (so all traffic lands in one place).
        self.replicas: List[MoETransformer] = []
        self.trainers: List[MegaScaleTrainer] = []
        for _ in range(self.d):
            sub_world = World(n, ranks_per_node=n)
            sub_world.ledger = world.ledger
            model = MoETransformer(config, seed=seed, dtype=np.float64)
            self.replicas.append(model)
            self.trainers.append(MegaScaleTrainer(
                model, sub_world, parallel, train,
                optimizer=AdamW(model.parameters(), lr=lr)))
        self.param_names = [name for name, _ in
                            self.replicas[0].named_parameters()]

    def train_step(self, replica_batches: Sequence[np.ndarray]
                   ) -> Hybrid2DStepResult:
        """One synchronized step; ``replica_batches[r]`` feeds node r."""
        if len(replica_batches) != self.d:
            raise ValueError(
                f"expected {self.d} replica batches, got "
                f"{len(replica_batches)}"
            )

        # Local forward/backward per replica (no optimizer step yet).
        losses: List[float] = []
        grads: List[Dict[str, np.ndarray]] = []
        for trainer, batch in zip(self.trainers, replica_batches):
            trainer.model.zero_grad()
            total, lm, aux = trainer.loss(batch)
            total.backward()
            for engine in trainer.engines:
                engine.sync_grads_to_reference()
            losses.append(total.item())
            grads.append({
                name: (p.grad.copy() if p.grad is not None
                       else np.zeros(p.shape))
                for name, p in trainer.model.named_parameters()
            })

        intra_before = self._ledger_bytes(":intra_")
        inter_before = self._ledger_bytes(":inter_")
        synced = self._sync_gradients(grads)
        intra = self._ledger_bytes(":intra_") - intra_before
        inter = self._ledger_bytes(":inter_") - inter_before

        # Apply the identical averaged gradient on every replica.
        norm = 0.0
        for trainer in self.trainers:
            params = dict(trainer.model.named_parameters())
            for name, grad in synced.items():
                params[name].grad = grad.copy()
            norm = clip_grad_norm(trainer.model.parameters(),
                                  self.train_cfg.grad_clip)
            trainer.optimizer.step()
            for engine in trainer.engines:
                engine.refresh_shards()

        return Hybrid2DStepResult(
            loss=float(np.mean(losses)),
            replica_losses=losses,
            grad_norm=norm,
            intra_node_sync_bytes=intra,
            inter_node_sync_bytes=inter,
        )

    # -- gradient synchronization (Appendix A.1) ---------------------------

    def _sync_gradients(self, grads: List[Dict[str, np.ndarray]]
                        ) -> Dict[str, np.ndarray]:
        synced: Dict[str, np.ndarray] = {}
        for name in self.param_names:
            per_replica = [g[name] for g in grads]
            if _is_replicated(name):
                # Per-rank contributions: each intra-node rank holds an
                # equal slice of its replica's accumulated gradient.
                per_rank = []
                for replica_grad in per_replica:
                    for _ in range(self.n):
                        per_rank.append(replica_grad / self.n)
                outs = hierarchical_sync(self.world, per_rank,
                                         elem_bytes=4.0,
                                         tag="hybrid2d:attn")
                synced[name] = outs[0] / self.d
            else:
                # EP-sharded components sync flat across the d peers.
                sub = World(self.d, ranks_per_node=1)
                sub.ledger = self.world.ledger
                outs = flat_sync(sub, per_replica, elem_bytes=4.0,
                                 tag="hybrid2d:expert:inter")
                synced[name] = outs[0] / self.d
        return synced

    def _ledger_bytes(self, marker: str) -> float:
        # Cumulative tag counters, not ledger.records: a bounded ledger
        # rotates old records out mid-run, and the before/after deltas
        # taken around _sync_gradients would silently under-count.
        return sum(tag_bytes
                   for tag, tag_bytes in
                   self.world.ledger.bytes_by_tag().items()
                   if marker in tag)

    def eval_loss(self, token_ids: np.ndarray) -> float:
        """LM loss on replica 0 without updates."""
        return self.trainers[0].eval_loss(token_ids)
