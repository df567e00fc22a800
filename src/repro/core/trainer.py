"""End-to-end distributed MoE training on simulated ranks.

:class:`MegaScaleTrainer` is the one training loop.  It runs a full
:class:`~repro.model.MoETransformer` over ``n · pp · dp`` ranks laid out
as the paper's production cluster (Fig. 4, §2.2): the ``n`` ranks of a
node run SP (or TP) attention and EP (or TP) FFN for each layer
through that layer's :class:`~repro.parallel.block.ParallelBlockEngine`,
``pp`` pipeline stages (one node each) split the layers, and ``dp``
replicas of the pipeline split the batch.  Rank ``r`` is local rank
``r % n`` of stage ``(r // n) % pp`` of replica ``r // (n · pp)``.

A step splits the batch into ``dp`` replica batches that run in turn
over the one model (replicas that start identical and apply the same
update stay identical), cuts each into ``train.micro_batch_size``-row
micro-batches that run through the pipeline stages in 1F1B order,
syncs the replica gradients per App. A.1 (hierarchically for
parameters replicated across a node, flat across DP peers for expert
and router parameters, BF16 on the inter-node leg when
``train.dp_comm_compression`` is set), and updates in
:class:`~repro.precision.optimizer.AdamW`, ZeRO-1-sharded over one rank
per replica when ``dp > 1`` (docs/INTERNALS.md §18).  With
``pp = dp = 1`` and one micro-batch the step is a forward, backward and
update of the whole batch: no split, no gradient copy, no sync.  The
collectives are numerically exact, so a step matches the single-rank
reference run on the same micro-batches, which the test suite and
``repro verify`` assert.

The trainer composes with
:class:`~repro.precision.policy.PrecisionPolicy` (BF16/FP8 emulation,
Fig. 18), checkpoints (:meth:`state_dict` / :meth:`load_state_dict`,
Figs. 18, 19), :class:`~repro.ft.health.HealthMonitor` (NaN/inf guards
and per-collective straggler timings, Fig. 19) and
:class:`~repro.obs.Observability` (a ``train.step`` span nesting
``forward``/``backward``/``optimizer``, every collective a child
``comm`` span, and step/loss/byte metrics).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import ContextManager, Dict, List, Optional, Sequence

import numpy as np

from ..comm.group import ProcessGroup, World
from ..comm.hierarchical import flat_sync, hierarchical_sync
from ..model.transformer import MoETransformer
from ..parallel.block import ParallelBlockEngine
from ..parallel.pipeline import (one_f_one_b_schedule, stage_partition,
                                 validate_schedule)
from ..precision.optimizer import AdamW, clip_grad_norm
from ..precision.policy import PrecisionPolicy
from ..tensor import Tensor, ops
from .config import ParallelConfig, TrainConfig

__all__ = ["MegaScaleTrainer", "TrainStepResult"]


@dataclass
class TrainStepResult:
    """Telemetry from one training step (means over replicas)."""

    loss: float
    lm_loss: float
    aux_loss: float
    grad_norm: float
    tokens: int


def is_replicated(name: str) -> bool:
    """Replicated across the model-parallel ranks of a node?

    Attention weights, norms, embeddings and the LM head are; router
    gate and expert weights are the EP-sharded components (App. A.1).
    """
    return not (".moe.experts." in name or ".moe.router." in name)


class MegaScaleTrainer:
    """Trains one model over an ``n · pp · dp`` simulated world."""

    def __init__(
        self,
        model: MoETransformer,
        world: World,
        parallel: ParallelConfig,
        train: TrainConfig,
        policy: Optional[PrecisionPolicy] = None,
        health: Optional[object] = None,
        obs: Optional[object] = None,
    ):
        n = parallel.model_parallel_size
        pp, dp = parallel.pipeline_size, parallel.data_parallel_size
        if world.size != n * pp * dp:
            raise ValueError(
                f"world size {world.size} != n·pp·dp = {n}·{pp}·{dp}")
        if pp * dp > 1 and world.ranks_per_node != n:
            raise ValueError(
                f"world.ranks_per_node={world.ranks_per_node} must equal "
                f"model_parallel_size={n}: every stage of every replica "
                f"is one node"
            )
        self.model = model
        self.world = world
        self.n, self.pp, self.dp = n, pp, dp
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
        self.parallel = parallel
        self.train_cfg = train
        #: Always None; read only by the frozen
        #: benchmarks/wallclock/train_workload.py::phases.
        self.executor = None
        self.policy = policy
        self.params = model.parameters()
        self.param_names = [name for name, _ in model.named_parameters()]

        #: Layers per pipeline stage, and each stage's model-parallel
        #: group (the node of replica 0 that runs it).
        self.stages = stage_partition(model.config.n_layers, pp)
        self.stage_groups: List[ProcessGroup] = [
            world.group(range(s * n, (s + 1) * n)) for s in range(pp)]

        # ZeRO-1 over one rank per replica (the first of each) when
        # dp > 1.
        self.optimizer = AdamW(
            self.params, lr=train.learning_rate,
            betas=(train.adam_beta1, train.adam_beta2),
            eps=train.adam_eps, weight_decay=train.weight_decay,
            group=world.group(range(0, world.size, n * pp))
            if dp > 1 else None)

        # FP8 training turns on §5's communication compression on the
        # FFN collectives (per-token forward, grouped-channel backward).
        fp8_comm = train.precision == "fp8"
        self.engines = [
            ParallelBlockEngine(self.stage_groups[s], model.blocks[layer],
                                parallel.attention, parallel.ffn,
                                parallel.ep_dispatch, fp8_comm=fp8_comm,
                                tile_tokens=train.tile_tokens)
            for s, layers in enumerate(self.stages) for layer in layers
        ]
        self.step_count = 0

    # -- forward -------------------------------------------------------------

    def loss(self, token_ids: np.ndarray) -> tuple:
        """Forward of ``[batch, seq+1]`` token ids through every layer as
        one micro-batch; returns (total, lm, aux) loss Tensors.

        The sequence length after dropping the label shift must divide
        the model-parallel size.
        """
        token_ids = np.asarray(token_ids)
        shards, seq = self._embed(token_ids)
        shards, aux = self._layers(range(len(self.engines)), shards, seq)
        return self._head_loss(shards, token_ids[:, 1:], aux)

    def _layers(self, layers, shards: List[Tensor], seq: int,
                aux: Optional[Tensor] = None) -> tuple:
        """Run ``layers`` on the shards; adds their aux losses to ``aux``."""
        for layer in layers:
            shards, layer_aux = self.engines[layer].forward(shards, seq)
            aux = layer_aux if aux is None else aux + layer_aux
        return shards, aux

    def _embed(self, token_ids: np.ndarray) -> tuple:
        """Sequence-sharded embeddings of the inputs, and their length."""
        inputs = token_ids[:, :-1]
        seq = inputs.shape[1]
        n = self.n
        if seq % n != 0:
            raise ValueError(
                f"sequence length {seq} not divisible by group size {n}"
            )
        width = seq // n
        return [ops.embedding(self.model.embedding,
                              inputs[:, r * width:(r + 1) * width])
                for r in range(n)], seq

    def _head_loss(self, shards: List[Tensor], labels: np.ndarray,
                   aux: Tensor) -> tuple:
        """Final norm, LM head and loss over the last stage's shards."""
        n = self.n
        width = labels.shape[1] // n
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
            total = total + aux * self.train_cfg.aux_loss_coeff
        return total, lm_loss, aux

    def _replica_loss(self, token_ids: np.ndarray, replica: int) -> tuple:
        """(total, lm, aux) of one replica batch: the mean over its
        micro-batches, which run through the pipeline stages."""
        rows = token_ids.shape[0]
        size = min(self.train_cfg.micro_batch_size, rows)
        if rows % size != 0:
            raise ValueError(f"replica batch {rows} not divisible by "
                             f"micro_batch_size {size}")
        n_micro = rows // size
        if n_micro == 1 and self.pp == 1:
            return self.loss(token_ids)
        losses = self._pipeline(np.split(token_ids, n_micro), replica)
        return tuple(reduce(add, parts) * (1.0 / n_micro)
                     for parts in zip(*losses))

    def _pipeline(self, micros: Sequence[np.ndarray],
                  replica: int) -> List[tuple]:
        """Each micro-batch's (total, lm, aux) loss, run through the
        stages in 1F1B order.  A ``B`` task stands for the activation
        gradient sent back across the stage boundary; autograd runs the
        backward of all micro-batches afterwards."""
        n_micro = len(micros)
        acts: Dict[tuple, tuple] = {}   # (stage, micro) -> (shards, aux)
        losses: Dict[int, tuple] = {}
        for stage, task in validate_schedule(
                one_f_one_b_schedule(self.pp, n_micro), n_micro):
            m = task.micro_batch
            if task.phase == "F":
                self._stage_forward(stage, m, micros[m], replica, acts,
                                    losses)
            elif stage > 0:
                self._record_p2p(acts[(stage - 1, m)][0], replica, stage,
                                 stage - 1, f"pp_bwd:{m}")
        return [losses[m] for m in range(n_micro)]

    def _stage_forward(self, stage: int, m: int, micro: np.ndarray,
                       replica: int, acts: Dict[tuple, tuple],
                       losses: Dict[int, tuple]) -> None:
        """One stage's layers on micro-batch ``m``, traced as a
        ``pp.stage`` span."""
        tracer = self.world.tracer
        span = nullcontext() if tracer is None else tracer.span(
            f"stage{stage}/F{m}", cat="pp.stage", stream=f"stage{stage}",
            phase="F", stage=stage, micro=m,
            layers=len(self.stages[stage]))
        with span:
            if stage == 0:
                shards, seq = self._embed(micro)
                aux = None
            else:
                shards, aux = acts[(stage - 1, m)]
                seq = micro.shape[1] - 1
                self._record_p2p(shards, replica, stage - 1, stage,
                                 f"pp_fwd:{m}")
            shards, aux = self._layers(self.stages[stage], shards, seq, aux)
            if stage == self.pp - 1:
                losses[m] = self._head_loss(shards, micro[:, 1:], aux)
            else:
                acts[(stage, m)] = (shards, aux)

    def _record_p2p(self, shards: List[Tensor], replica: int, src: int,
                    dst: int, tag: str) -> None:
        """Each rank of ``src``'s node sends its activation shard to the
        same local rank of ``dst``'s node."""
        n = self.n
        src_base = (replica * self.pp + src) * n
        dst_base = (replica * self.pp + dst) * n
        group = self.world.group(list(range(src_base, src_base + n))
                                 + list(range(dst_base, dst_base + n)))
        group.record("p2p", [float(s.data.nbytes) for s in shards]
                     + [0.0] * n, tag)

    # -- the step ------------------------------------------------------------

    def _span(self, name: str, **attrs) -> ContextManager:
        """A tracer span, or a no-op context when untraced."""
        if self.obs is None:
            return nullcontext()
        return self.obs.tracer.span(name, cat="train", stream="main",
                                    **attrs)

    def train_step(self, token_ids: np.ndarray) -> TrainStepResult:
        """One forward/backward/update over a ``[batch, seq+1]`` batch."""
        token_ids = np.asarray(token_ids)
        dp = self.dp
        if token_ids.shape[0] % dp != 0:
            raise ValueError(f"batch {token_ids.shape[0]} not divisible "
                             f"by data_parallel_size {dp}")
        replicas = np.split(token_ids, dp) if dp > 1 else [token_ids]
        with self._span("train.step", phase="step",
                        step=self.step_count):
            losses = []
            replica_grads = []
            for replica, batch in enumerate(replicas):
                self.model.zero_grad()
                with self._span("forward", phase="forward"):
                    with (self.policy if self.policy is not None
                          else nullcontext()):
                        total, lm, aux = self._replica_loss(batch, replica)
                with self._span("backward", phase="backward"):
                    total.backward()
                losses.append((total.item(), lm.item(), aux.item()))
                if dp > 1:
                    replica_grads.append([p.grad for p in self.params])
            if dp > 1:
                with self._span("grad_sync", phase="sync"):
                    self._sync_replica_grads(replica_grads)
            with self._span("optimizer", phase="optimizer"):
                norm = clip_grad_norm(self.params, self.train_cfg.grad_clip)
                self.optimizer.step()
            self.step_count += 1
            loss, lm_loss, aux_loss = (sum(col) / dp
                                       for col in zip(*losses))
            result = TrainStepResult(loss, lm_loss, aux_loss, norm,
                                     int(np.prod(token_ids[:, 1:].shape)))
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

    def _sync_replica_grads(
            self, replica_grads: List[List[Optional[np.ndarray]]]) -> None:
        """Average the replicas' gradients onto the parameters (App. A.1).

        A replicated parameter's gradient enters the hierarchical sync
        at the first rank of its replica's node and the node's other
        ranks contribute zeros, so every sum is exact while the ledger
        records the real intra-/inter-node split; an expert or router
        parameter syncs flat across the ``dp`` peers.  A parameter no
        replica has a gradient for (an idle expert) keeps none.
        """
        n, dp = self.n, self.dp
        compress = self.train_cfg.dp_comm_compression
        nodes = self._sync_world(n * dp, n)
        peers = self._sync_world(dp, 1)
        for i, (name, p) in enumerate(zip(self.param_names, self.params)):
            grads = [g[i] for g in replica_grads]
            if all(g is None for g in grads):
                p.grad = None
                continue
            zero = np.zeros_like(p.data)
            grads = [zero if g is None else g for g in grads]
            if is_replicated(name):
                per_rank = [g if local == 0 else zero
                            for g in grads for local in range(n)]
                synced = hierarchical_sync(nodes, per_rank, tag="dp_grad",
                                           compress=compress)[0]
            else:
                synced = flat_sync(peers, grads, tag="dp_grad:expert",
                                   compress=compress)[0]
            p.grad = synced * (1.0 / dp)

    def _sync_world(self, size: int, ranks_per_node: int) -> World:
        """A world of ``size`` ranks recording into this trainer's ledger
        and tracer (the DP sync groups of one pipeline stage)."""
        sub = World(size, ranks_per_node)
        sub.ledger, sub.tracer = self.world.ledger, self.world.tracer
        return sub

    # -- checkpointing -----------------------------------------------------

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Model parameters plus optimizer state (restart-complete).

        A production restart must restore Adam state or the first
        post-restart steps diverge; keys are namespaced so the model
        part stays a valid model state dict.  The optimizer part is
        ``AdamW``'s per-parameter ``opt/...`` keys, which do not depend
        on the DP degree.
        """
        state = {f"model/{k}": v
                 for k, v in self.model.state_dict().items()}
        state.update(self.optimizer.state_dict())
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Restore model (+ optimizer when present).

        Accepts both the namespaced format from :meth:`state_dict` and a
        bare model state dict (checkpoint of weights only).  Optimizer
        state saved at another DP degree loads as is: ZeRO-1 slices the
        per-parameter moments onto its shard grid at each step.
        """
        if any(k.startswith("model/") for k in state):
            model_state = {k[len("model/"):]: v for k, v in state.items()
                           if k.startswith("model/")}
            self.model.load_state_dict(model_state)
            if "opt/step_count" in state:
                self.optimizer.load_state_dict(state)
        else:
            self.model.load_state_dict(state)
