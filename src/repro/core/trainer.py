"""End-to-end distributed MoE training on simulated ranks.

:class:`MegaScaleTrainer` runs a full :class:`~repro.model.MoETransformer`
through the parallel engines — SP (or TP) attention and EP (or TP) FFN
per layer, sequence-sharded activations, replicated embeddings/heads —
exactly as §3 describes the per-layer data flow, and applies the
optimizer to the shared parameter set.  Because the collectives are
numerically exact, a MegaScaleTrainer step produces the same loss and
gradients as the single-rank reference, which the test suite asserts.

The trainer composes with:

* :class:`~repro.precision.policy.PrecisionPolicy` for BF16/FP8
  emulation (Fig. 18),
* :class:`~repro.parallel.dp.DataParallelTrainer` for DP-level gradient
  sync with optional compression (Fig. 17),
* checkpoints (:meth:`state_dict` / :meth:`load_state_dict`) for the
  continued-training and restart experiments (Figs. 18, 19),
* :class:`~repro.ft.health.HealthMonitor` for NaN/inf guards on step
  results and per-collective straggler timings (the detection half of
  the Fig. 19 restart machinery),
* :class:`~repro.obs.Observability` for span tracing (a ``train.step``
  span nesting ``forward``/``backward``/``optimizer``, with every
  collective a child ``comm`` span) and step/loss/byte metrics.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import ContextManager, Dict, Optional

import numpy as np

from ..comm.group import ProcessGroup, World
from ..model.transformer import MoETransformer
from ..parallel.block import ParallelBlockEngine
from ..precision.optimizer import AdamW, clip_grad_norm
from ..precision.policy import PrecisionPolicy
from ..tensor import Tensor, ops
from .config import ParallelConfig, TrainConfig

__all__ = ["MegaScaleTrainer", "TrainStepResult"]


@dataclass
class TrainStepResult:
    """Telemetry from one training step."""

    loss: float
    lm_loss: float
    aux_loss: float
    grad_norm: float
    tokens: int


class MegaScaleTrainer:
    """Trains one model replica across a model-parallel group."""

    def __init__(
        self,
        model: MoETransformer,
        world: World,
        parallel: ParallelConfig,
        train: TrainConfig,
        optimizer: Optional[AdamW] = None,
        policy: Optional[PrecisionPolicy] = None,
        vocab_parallel: bool = False,
        health: Optional[object] = None,
        obs: Optional[object] = None,
    ):
        n = parallel.model_parallel_size
        if world.size != n:
            raise ValueError(
                f"world size {world.size} != model parallel size {n}"
            )
        self.model = model
        self.world = world
        #: Optional :class:`~repro.ft.health.HealthMonitor`: validates
        #: every step result (NaN/inf guard) and, attached to the
        #: world, receives per-collective timings for straggler
        #: detection.
        self.health = health
        if health is not None:
            world.attach_health_monitor(health)
        #: Optional :class:`~repro.obs.Observability` bundle: its
        #: tracer is attached to the world (per-collective comm spans)
        #: and wraps each step in nested phase spans; its metrics
        #: registry accumulates step/loss/token/byte statistics.
        self.obs = obs
        if obs is not None:
            world.attach_tracer(obs.tracer)
        self.group: ProcessGroup = world.full_group()
        self.parallel = parallel
        self.train_cfg = train
        #: Always None; read only by the frozen
        #: benchmarks/wallclock/train_workload.py::phases.
        self.executor = None
        remat_plan = None
        if train.selective_remat:
            from .remat import default_remat_plan
            remat_plan = default_remat_plan()
        self.policy = policy
        self.optimizer = optimizer or AdamW(
            model.parameters(), lr=train.learning_rate,
            betas=(train.adam_beta1, train.adam_beta2),
            eps=train.adam_eps, weight_decay=train.weight_decay,
        )
        # FP8 training turns on §5's communication compression on the
        # FFN collectives (per-token forward, grouped-channel backward).
        fp8_comm = train.precision == "fp8"
        # Dropout randomness: one child stream per rank, spawned from a
        # single seed.
        self.rng_pool = None
        if train.dropout > 0.0:
            from ..runtime.rng import RankRngPool
            self.rng_pool = RankRngPool(train.dropout_seed, n)
        self.engines = [
            ParallelBlockEngine(self.group, block, parallel.attention,
                                parallel.ffn, parallel.ep_dispatch,
                                fp8_comm=fp8_comm,
                                dropout=train.dropout,
                                rng_pool=self.rng_pool,
                                tile_tokens=train.tile_tokens,
                                remat_plan=remat_plan)
            for block in model.blocks
        ]
        #: Shard the LM head columns across the group and compute the
        #: loss without materializing full logits (Megatron-style).
        self.vocab_parallel = vocab_parallel
        self.head_shards = None
        if vocab_parallel:
            from ..parallel.vocab_parallel import shard_lm_head
            self.head_shards = shard_lm_head(
                model.lm_head.weight.data, n)
        self.step_count = 0

    # -- forward/backward --------------------------------------------------

    def loss(self, token_ids: np.ndarray) -> tuple:
        """Distributed forward; returns (total, lm, aux) loss Tensors.

        ``token_ids`` is ``[batch, seq+1]``; the sequence dimension after
        dropping the label shift must divide the group size.
        """
        token_ids = np.asarray(token_ids)
        n = self.group.size
        inputs = token_ids[:, :-1]
        labels = token_ids[:, 1:]
        seq = inputs.shape[1]
        if seq % n != 0:
            raise ValueError(
                f"sequence length {seq} not divisible by group size {n}"
            )
        width = seq // n

        shards = [
            ops.embedding(self.model.embedding,
                          inputs[:, r * width:(r + 1) * width])
            for r in range(n)
        ]
        aux_total: Optional[Tensor] = None
        for engine in self.engines:
            shards, aux = engine.forward(shards, seq)
            aux_total = aux if aux_total is None else aux_total + aux

        if self.vocab_parallel:
            from ..parallel.vocab_parallel import vocab_parallel_loss
            normed = [self.model.final_norm(s) for s in shards]
            # Labels in the gathered (rank-major) token order.
            reordered = np.concatenate([
                labels[:, r * width:(r + 1) * width].reshape(-1)
                for r in range(n)
            ])
            lm_loss = vocab_parallel_loss(self.group, normed,
                                          self.head_shards, reordered)
        else:
            lm_loss = None
            for r, shard in enumerate(shards):
                normed = self.model.final_norm(shard)
                logits = self.model.lm_head(normed)
                piece = ops.cross_entropy(
                    logits, labels[:, r * width:(r + 1) * width])
                lm_loss = piece if lm_loss is None else lm_loss + piece
            lm_loss = lm_loss * (1.0 / n)

        total = lm_loss
        if self.train_cfg.aux_loss_coeff > 0:
            total = total + aux_total * self.train_cfg.aux_loss_coeff
        return total, lm_loss, aux_total

    def _span(self, name: str, **attrs) -> ContextManager:
        """A tracer span, or a no-op context when untraced."""
        if self.obs is None:
            return nullcontext()
        return self.obs.tracer.span(name, cat="train", stream="main",
                                    **attrs)

    def train_step(self, token_ids: np.ndarray) -> TrainStepResult:
        """One forward/backward/update over a token batch."""
        with self._span("train.step", phase="step",
                        step=self.step_count):
            self.model.zero_grad()
            with self._span("forward", phase="forward"):
                if self.policy is not None:
                    with self.policy:
                        total, lm, aux = self.loss(token_ids)
                else:
                    total, lm, aux = self.loss(token_ids)
            with self._span("backward", phase="backward"):
                total.backward()
                for engine in self.engines:
                    engine.sync_grads_to_reference()
                if self.vocab_parallel:
                    self._sync_head_grads()
            with self._span("optimizer", phase="optimizer"):
                norm = clip_grad_norm(self.model.parameters(),
                                      self.train_cfg.grad_clip)
                self.optimizer.step()
                for engine in self.engines:
                    engine.refresh_shards()
                if self.vocab_parallel:
                    self._refresh_head_shards()
            self.step_count += 1
            result = TrainStepResult(
                loss=total.item(),
                lm_loss=lm.item(),
                aux_loss=aux.item(),
                grad_norm=norm,
                tokens=int(np.prod(token_ids[:, 1:].shape)),
            )
        if self.obs is not None:
            metrics = self.obs.metrics
            metrics.inc("train.steps")
            metrics.inc("train.tokens", result.tokens)
            metrics.set("train.loss", result.loss)
            metrics.set("train.grad_norm", result.grad_norm)
            metrics.observe("train.step.loss", result.lm_loss)
            metrics.ingest_ledger(self.world.ledger)
        if self.health is not None:
            self.health.on_step_result(result)
        return result

    def _sync_head_grads(self) -> None:
        """Assemble vocab-shard gradients onto the reference LM head."""
        weight = self.model.lm_head.weight
        grad = np.zeros_like(weight.data)
        width = weight.data.shape[1] // self.group.size
        for r, shard in enumerate(self.head_shards):
            if shard.grad is not None:
                grad[:, r * width:(r + 1) * width] = shard.grad
        weight.grad = grad if weight.grad is None else weight.grad + grad

    def _refresh_head_shards(self) -> None:
        weight = self.model.lm_head.weight.data
        width = weight.shape[1] // self.group.size
        for r, shard in enumerate(self.head_shards):
            shard.data = weight[:, r * width:(r + 1) * width].copy()
            shard.grad = None

    def eval_loss(self, token_ids: np.ndarray) -> float:
        """LM loss without gradient tracking, updates, or dropout."""
        from ..tensor import no_grad
        attn_engines = [e.attn_engine for e in self.engines
                        if hasattr(e.attn_engine, "training")]
        previous = [a.training for a in attn_engines]
        for a in attn_engines:
            a.training = False
        try:
            with no_grad():
                if self.policy is not None:
                    with self.policy:
                        _, lm, _ = self.loss(token_ids)
                else:
                    _, lm, _ = self.loss(token_ids)
        finally:
            for a, prev in zip(attn_engines, previous):
                a.training = prev
        return lm.item()

    # -- checkpointing -----------------------------------------------------

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Model parameters plus optimizer moments (restart-complete).

        A production restart must restore Adam state or the first
        post-restart steps diverge; keys are namespaced so the model
        part stays a valid model state dict.
        """
        state = {f"model/{k}": v
                 for k, v in self.model.state_dict().items()}
        state.update(self.optimizer.state_dict())
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Restore model (+ optimizer when present).

        Accepts both the namespaced format from :meth:`state_dict` and a
        bare model state dict (checkpoint of weights only).
        """
        if any(k.startswith("model/") for k in state):
            model_state = {k[len("model/"):]: v for k, v in state.items()
                           if k.startswith("model/")}
            self.model.load_state_dict(model_state)
            if "opt/step_count" in state:
                self.optimizer.load_state_dict(state)
        else:
            self.model.load_state_dict(state)
        for engine in self.engines:
            engine.refresh_shards()
