"""A full parallel MoE layer: norms + attention + FFN over shards.

Composes one attention and one FFN binding factory into the Fig. 20
data flow with sequence-sharded activations.  Because RMSNorm and
residual adds act per-token, they run locally on each shard — this is
precisely why both MegaScale-MoE and Megatron keep these operators in
the sequence-parallel region (§2.2).

Strategy combinations mirror the Fig. 13 ablation: attention ∈
{SP, TP} × FFN ∈ {EP, TP}, with SP+EP being MegaScale-MoE and TP+TP the
Megatron-LM baseline.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..comm.group import ProcessGroup
from ..core.config import ModelConfig, ParallelConfig, choose_dispatch_mode
from ..core.executor_bindings import layer_program
from ..core.operators import TilePlan
from ..model.transformer import TransformerBlock
from ..runtime.dag_executor import (DagExecutor, DagRunResult, OpBinding,
                                    per_rank)
from ..tensor import Tensor
from .ag_ffn import ag_ffn_bindings
from .ep_ffn import ep_a2a_bindings
from .sp_attention import sp_attention_bindings
from .tp_attention import tp_attention_bindings

__all__ = ["ParallelBlockEngine", "build_layer_bindings", "shard_sequence"]


def shard_sequence(x: np.ndarray, n: int,
                   requires_grad: bool = False) -> List[Tensor]:
    """Split ``[b, s, h]`` into ``n`` sequence shards as leaf Tensors."""
    s = x.shape[1]
    if s % n != 0:
        raise ValueError(f"sequence {s} not divisible by {n} ranks")
    width = s // n
    return [Tensor(x[:, r * width:(r + 1) * width].copy(),
                   requires_grad=requires_grad) for r in range(n)]


def build_layer_bindings(engine: ParallelBlockEngine,
                         tile_plan: Optional[TilePlan] = None
                         ) -> List[OpBinding]:
    """All bindings for one :class:`ParallelBlockEngine` layer.

    The set matches the forward graph that
    :func:`~repro.core.operators.build_forward_graph` emits for the
    engine's strategy combination — the DAG executor validates the
    covers partition against the graph at construction time.

    ``tile_plan`` (from :func:`~repro.core.operators.plan_tiles`)
    switches the fused groups' collectives to chunked per-tile
    transfers; compute handlers are unchanged — all of a tiled GEMM's
    tiles execute in its one whole-tensor call, never splitting a BLAS
    reduction, which keeps results bitwise-identical to untiled.
    """
    group, block = engine.group, engine.block
    if engine.attention == "sp":
        attention = sp_attention_bindings(group, block.attn, tile_plan)
    else:
        attention = tp_attention_bindings(group, block.attn, tile_plan)
    if engine.ffn == "ep" and engine.ep_mode == "a2a":
        ffn = ep_a2a_bindings(group, block.moe, tile_plan)
    else:
        ffn = ag_ffn_bindings(group, block.moe, engine.ffn,
                              engine.fp8_comm, tile_plan)
    attn_out, ffn_out = attention[-1].op, ffn[-1].op
    # RMSNorm and the residual adds act per token, so they run locally
    # on each sequence shard (§2.2).
    return [
        per_rank("ln1", ("hidden",),
                 lambda r, get: block.ln1(get("hidden"))),
        *attention,
        per_rank("residual1", ("hidden", attn_out),
                 lambda r, get: get("hidden") + get(attn_out)),
        per_rank("ln2", ("residual1",),
                 lambda r, get: block.ln2(get("residual1"))),
        *ffn,
        per_rank("residual2", ("residual1", ffn_out),
                 lambda r, get: get("residual1") + get(ffn_out)),
    ]


class ParallelBlockEngine:
    """Runs one :class:`TransformerBlock` sharded across a group.

    The layer has one spelling: the operator graph
    (:func:`~repro.core.operators.build_forward_graph`) scheduled into
    a :class:`~repro.core.executor_bindings.LayerProgram`, executed in
    schedule order by the :class:`~repro.runtime.dag_executor.
    DagExecutor` over :func:`build_layer_bindings` — one binding factory
    per strategy, each computing from the block's own parameters.
    """

    def __init__(self, group: ProcessGroup, block: TransformerBlock,
                 attention: str = "sp", ffn: str = "ep",
                 ep_mode: str = "adaptive",
                 fp8_comm: bool = False,
                 tile_tokens: Optional[int] = None):
        if attention not in ("sp", "tp"):
            raise ValueError(f"unknown attention strategy {attention!r}")
        if ffn not in ("ep", "tp"):
            raise ValueError(f"unknown ffn strategy {ffn!r}")
        if ep_mode not in ("a2a", "ag_rs", "adaptive"):
            raise ValueError(f"unknown dispatch mode {ep_mode!r}")
        self.group = group
        self.block = block
        self.attention = attention
        self.ffn = ffn
        #: EP dispatch mode, ``"adaptive"`` resolved once (§3.2).
        self.ep_mode = (choose_dispatch_mode(block.moe.top_k, group.size)
                        if ep_mode == "adaptive" else ep_mode)
        #: §5 FP8 communication compression: per-token FP8 payloads on
        #: the forward AG/RS FFN path, grouped per-channel FP8
        #: gradients (the A2A path already carries selected rows).
        self.fp8_comm = fp8_comm
        #: §4.2 tile-granular execution: token-chunk width for fused
        #: groups (None = whole).  Part of the executor cache key, so
        #: changing it can never serve a stale untiled (or differently
        #: tiled) program.
        self.tile_tokens = tile_tokens
        self._executors: dict = {}
        #: Introspection from the last forward.
        self.last_executed_ops: Optional[List[str]] = None
        self.last_executed_tiles: Optional[List[str]] = None
        #: EP dispatch telemetry from the most recent forward pass
        #: (consumed by ``repro.verify``'s token-conservation and
        #: router-mass invariants); None until the first EP forward.
        self.last_telemetry: Optional[dict] = None
        #: When a list, every EP forward's telemetry is appended to it
        #: (the comm audit recounts a window's A2A bytes from them).
        self.telemetry_log: Optional[list] = None

    def executor_for(self, micro_batch: int, seq_len: int) -> DagExecutor:
        """The compiled :class:`~repro.runtime.dag_executor.DagExecutor`
        (its ``.program`` is the layer's IR + overlap schedule) for one
        activation shape at the current ``tile_tokens``; built once."""
        key = (micro_batch, seq_len, self.tile_tokens)
        dag = self._executors.get(key)
        if dag is None:
            attn, moe = self.block.attn, self.block.moe
            program = layer_program(
                ModelConfig("layer", 1, attn.hidden_size, attn.n_heads,
                            attn.n_heads // attn.n_kv_heads,
                            moe.experts[0].fc1.shape[1], moe.n_experts,
                            moe.top_k),
                ParallelConfig(self.group.size, attention=self.attention,
                               ffn=self.ffn, ep_dispatch=self.ep_mode),
                micro_batch, seq_len, tile_tokens=self.tile_tokens)
            dag = DagExecutor(
                program, build_layer_bindings(self, program.tile_plan),
                self.group)
            self._executors[key] = dag
        return dag

    def forward(self, hidden_shards: List[Tensor], seq_len: int
                ) -> Tuple[List[Tensor], Tensor]:
        """Map hidden shards through the block; returns (shards, aux)."""
        self.group.check_shards(hidden_shards)
        local_s = seq_len // self.group.size
        for rank, shard in enumerate(hidden_shards):
            if shard.shape[1] != local_s:
                raise ValueError(
                    f"rank {rank} shard has seq {shard.shape[1]}, "
                    f"expected {local_s}"
                )
        dag = self.executor_for(hidden_shards[0].shape[0], seq_len)
        result = dag.run({"hidden": hidden_shards},
                         tracer=self.group.world.tracer)
        self.last_executed_ops = list(result.executed)
        self.last_executed_tiles = (
            list(result.executed_tiles)
            if result.executed_tiles is not None else None)
        if self.ffn == "ep":
            self.record_telemetry(result)
        # The router anchor's per-rank value ends with the aux loss
        # (identical on every rank; counted once).
        return result.per_rank("residual2"), result.per_rank("router")[0][-1]

    def record_telemetry(self, result: DagRunResult) -> None:
        """Snapshot what EP dispatch/combine moved, as plain numbers.

        The verify invariants check conservation laws against this:
        the per-rank ``ln2`` inputs and combined FFN outputs, the
        routings — one per rank (A2A) or the single replicated one
        (AG/RS) — captured as ``experts`` (-1 where dropped) for the
        comm audit's recount, and the A2A dispatch's per-rank (token,
        expert) pairs per destination as ``send_splits``.
        """
        router = result.per_rank("router")
        inputs = result.per_rank("ln2")
        if self.ep_mode == "a2a":
            outputs = result.per_rank("weighted_sum")
            routings = [v[1] for v in router]
            send_splits = result.per_rank("scatter")[0][0].pair_splits
            tokens_per_rank = [sum(row) for row in send_splits]
        else:
            outputs = result.per_rank("ffn_rs")
            routings = [router[0][0]]
            send_splits = None
            tokens_per_rank = result.per_rank("ffn_ag")[0][1]
        moe = self.block.moe
        self.last_telemetry = {
            "mode": self.ep_mode,
            "top_k": moe.top_k,
            "tokens_in": [int(np.prod(s.shape[:-1])) for s in inputs],
            "tokens_per_rank": np.asarray(tokens_per_rank).tolist(),
            "kept_pairs": [int(r.kept.sum()) for r in routings],
            "gate_mass": [
                np.asarray((r.gate_weight * r.kept).sum(axis=1))
                for r in routings
            ],
            "fully_kept": [np.asarray(r.kept.all(axis=1))
                           for r in routings],
            "input_shapes": [tuple(s.shape) for s in inputs],
            "output_shapes": [tuple(s.shape) for s in outputs],
            "send_splits": send_splits,
            "experts": [np.where(r.kept, r.expert_index, -1)
                        for r in routings],
            "experts_per_rank": moe.n_experts // self.group.size,
        }
        if self.telemetry_log is not None:
            self.telemetry_log.append(self.last_telemetry)

    # Every factory computes from the block's own parameters (TP takes
    # tape slices of them), so a step has nothing to copy back or
    # re-slice.  These two no-ops stay only because the frozen
    # wall-clock harness (benchmarks/wallclock/train_workload.py)
    # still calls them between phases.

    def sync_grads_to_reference(self) -> None:
        """No-op: backward already lands every gradient on the
        parameter it belongs to."""

    def refresh_shards(self) -> None:
        """No-op: nothing holds a copy of a weight to re-slice."""
