"""A full parallel MoE layer: norms + attention + FFN over shards.

Composes the per-module engines into the Fig. 20 data flow with
sequence-sharded activations.  Because RMSNorm and residual adds act
per-token, they run locally on each shard — this is precisely why both
MegaScale-MoE and Megatron keep these operators in the sequence-parallel
region (§2.2).

Strategy combinations mirror the Fig. 13 ablation: attention ∈
{SP, TP} × FFN ∈ {EP, TP}, with SP+EP being MegaScale-MoE and TP+TP the
Megatron-LM baseline.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..comm.group import ProcessGroup
from ..model.transformer import TransformerBlock
from ..tensor import Tensor
from .ep_ffn import EPFFNEngine
from .sp_attention import SPAttentionEngine
from .tp_attention import TPAttentionEngine
from .tp_ffn import TPFFNEngine

__all__ = ["ParallelBlockEngine", "shard_sequence"]


def shard_sequence(x: np.ndarray, n: int,
                   requires_grad: bool = False) -> List[Tensor]:
    """Split ``[b, s, h]`` into ``n`` sequence shards as leaf Tensors."""
    s = x.shape[1]
    if s % n != 0:
        raise ValueError(f"sequence {s} not divisible by {n} ranks")
    width = s // n
    return [Tensor(x[:, r * width:(r + 1) * width].copy(),
                   requires_grad=requires_grad) for r in range(n)]


class ParallelBlockEngine:
    """Runs one :class:`TransformerBlock` sharded across a group.

    The layer has one spelling: the operator graph
    (:func:`~repro.core.operators.build_forward_graph`) scheduled into
    a :class:`~repro.core.executor_bindings.LayerProgram`, executed in
    schedule order by the :class:`~repro.runtime.dag_executor.
    DagExecutor` over :func:`~repro.core.executor_bindings.
    build_layer_bindings`.  The per-module engines contribute the
    per-op numerics; every one of them computes from the block's own
    parameters.
    """

    def __init__(self, group: ProcessGroup, block: TransformerBlock,
                 attention: str = "sp", ffn: str = "ep",
                 ep_mode: str = "adaptive",
                 fp8_comm: bool = False,
                 tile_tokens: Optional[int] = None):
        self.group = group
        self.block = block
        if attention == "sp":
            self.attn_engine = SPAttentionEngine(group, block.attn)
        elif attention == "tp":
            self.attn_engine = TPAttentionEngine(group, block.attn)
        else:
            raise ValueError(f"unknown attention strategy {attention!r}")
        if ffn == "ep":
            self.ffn_engine = EPFFNEngine(group, block.moe, ep_mode,
                                          fp8_comm=fp8_comm)
        elif ffn == "tp":
            self.ffn_engine = TPFFNEngine(group, block.moe,
                                          fp8_comm=fp8_comm)
        else:
            raise ValueError(f"unknown ffn strategy {ffn!r}")
        self.attention = attention
        self.ffn = ffn
        #: §4.2 tile-granular execution: token-chunk width for fused
        #: groups (None = whole).  Part of the executor cache key, so
        #: changing it can never serve a stale untiled (or differently
        #: tiled) program.
        self.tile_tokens = tile_tokens
        self._executors: dict = {}
        #: Introspection from the last forward.
        self.last_executed_ops: Optional[List[str]] = None
        self.last_executed_tiles: Optional[List[str]] = None

    def executor_for(self, micro_batch: int, seq_len: int):
        """The compiled :class:`~repro.runtime.dag_executor.DagExecutor`
        (its ``.program`` is the layer's IR + overlap schedule) for one
        activation shape at the current ``tile_tokens``; built once."""
        key = (micro_batch, seq_len, self.tile_tokens)
        dag = self._executors.get(key)
        if dag is None:
            from ..core.config import ModelConfig, ParallelConfig
            from ..core.executor_bindings import (build_layer_bindings,
                                                  layer_program)
            from ..runtime.dag_executor import DagExecutor
            attn, moe = self.block.attn, self.block.moe
            ep_mode = getattr(self.ffn_engine, "mode", "adaptive")
            program = layer_program(
                ModelConfig("layer", 1, attn.hidden_size, attn.n_heads,
                            attn.n_heads // attn.n_kv_heads,
                            moe.experts[0].fc1.shape[1], moe.n_experts,
                            moe.top_k),
                ParallelConfig(self.group.size, attention=self.attention,
                               ffn=self.ffn, ep_dispatch=ep_mode),
                micro_batch, seq_len, tile_tokens=self.tile_tokens)
            dag = DagExecutor(
                program,
                build_layer_bindings(self, seq_len, program.tile_plan),
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

        # The router anchor's per-rank value ends with the aux loss
        # (identical on every rank; counted once).
        router_vals = result.per_rank("router")
        aux = router_vals[0][-1]
        if self.ffn == "ep":
            if self.ffn_engine.mode == "a2a":
                exchange = result.per_rank("scatter")[0][0]
                self.ffn_engine.record_telemetry(
                    result.per_rank("ln2"),
                    result.per_rank("weighted_sum"),
                    routings=[v[1] for v in router_vals],
                    tokens_per_rank=[sum(row)
                                     for row in exchange.pair_splits],
                    send_splits=exchange.pair_splits)
            else:
                self.ffn_engine.record_telemetry(
                    result.per_rank("ln2"), result.per_rank("ffn_rs"),
                    routings=[router_vals[0][0]],
                    tokens_per_rank=result.per_rank("ffn_ag")[0][1])

        return result.per_rank("residual2"), aux

    # Every engine computes from the block's own parameters (TP takes
    # tape slices of them), so a step has nothing to copy back or
    # re-slice.  These two no-ops stay only because the frozen
    # wall-clock harness (benchmarks/wallclock/train_workload.py)
    # still calls them between phases.

    def sync_grads_to_reference(self) -> None:
        """No-op: backward already lands every gradient on the
        parameter it belongs to."""

    def refresh_shards(self) -> None:
        """No-op: nothing holds a copy of a weight to re-slice."""
