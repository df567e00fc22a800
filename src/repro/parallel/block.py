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

__all__ = ["ParallelBlockEngine", "shard_sequence", "unshard_sequence"]


def shard_sequence(x: np.ndarray, n: int,
                   requires_grad: bool = False) -> List[Tensor]:
    """Split ``[b, s, h]`` into ``n`` sequence shards as leaf Tensors."""
    s = x.shape[1]
    if s % n != 0:
        raise ValueError(f"sequence {s} not divisible by {n} ranks")
    width = s // n
    return [Tensor(x[:, r * width:(r + 1) * width].copy(),
                   requires_grad=requires_grad) for r in range(n)]


def unshard_sequence(shards: List[Tensor]) -> np.ndarray:
    """Concatenate per-rank shard values back to ``[b, s, h]``."""
    return np.concatenate([s.data for s in shards], axis=1)


class ParallelBlockEngine:
    """Runs one :class:`TransformerBlock` sharded across a group."""

    def __init__(self, group: ProcessGroup, block: TransformerBlock,
                 attention: str = "sp", ffn: str = "ep",
                 ep_mode: str = "adaptive",
                 elem_bytes: Optional[float] = None,
                 fp8_comm: bool = False,
                 dropout: float = 0.0, rng_pool=None):
        self.group = group
        self.block = block
        if attention == "sp":
            self.attn_engine = SPAttentionEngine(group, block.attn,
                                                 elem_bytes,
                                                 dropout=dropout,
                                                 rng_pool=rng_pool)
        elif attention == "tp":
            if dropout > 0.0:
                raise ValueError(
                    "dropout is only wired into SP attention"
                )
            self.attn_engine = TPAttentionEngine(group, block.attn,
                                                 elem_bytes)
        else:
            raise ValueError(f"unknown attention strategy {attention!r}")
        if ffn == "ep":
            self.ffn_engine = EPFFNEngine(group, block.moe, ep_mode,
                                          elem_bytes, fp8_comm=fp8_comm)
        elif ffn == "tp":
            self.ffn_engine = TPFFNEngine(group, block.moe, elem_bytes,
                                          fp8_comm=fp8_comm)
        else:
            raise ValueError(f"unknown ffn strategy {ffn!r}")
        self.attention = attention
        self.ffn = ffn
        #: DAG-backend state: compiled executors keyed by (seq_len,
        #: program identity), plus introspection from the last DAG run.
        self._dag_cache: dict = {}
        self.last_executed_ops: Optional[List[str]] = None
        self.last_executed_tiles: Optional[List[str]] = None
        self.last_remat_report: Optional[dict] = None

    def forward(self, hidden_shards: List[Tensor], seq_len: int,
                dag_program: Optional[object] = None,
                remat_plan: Optional[object] = None,
                vectorized: bool = False
                ) -> Tuple[List[Tensor], Tensor]:
        """Map hidden shards through the block; returns (shards, aux).

        With a ``dag_program`` (a
        :class:`~repro.core.executor_bindings.LayerProgram`), the layer
        instead runs through the
        :class:`~repro.runtime.dag_executor.DagExecutor` in the
        program's schedule order — bitwise-identical to this path;
        ``vectorized`` batches every op over the rank axis
        (:mod:`repro.runtime.vectorized`), and a ``remat_plan`` drops
        unretained activations afterwards.
        """
        if dag_program is not None:
            return self._dag_forward(hidden_shards, seq_len,
                                     dag_program, remat_plan,
                                     vectorized=vectorized)
        if vectorized:
            raise ValueError(
                "vectorized execution requires a dag_program"
            )
        block = self.block
        ln1_out = [block.ln1(h) for h in hidden_shards]
        attn_out = self.attn_engine.forward(ln1_out, seq_len)
        ln2_in = [h + a for h, a in zip(hidden_shards, attn_out)]
        ln2_out = [block.ln2(x) for x in ln2_in]
        if self.ffn == "ep":
            result = self.ffn_engine.forward(ln2_out)
            ffn_out, aux = result.output_shards, result.aux_loss
        else:
            ffn_out, aux = self.ffn_engine.forward(ln2_out)
        return [x + f for x, f in zip(ln2_in, ffn_out)], aux

    def _dag_forward(self, hidden_shards: List[Tensor], seq_len: int,
                     program, remat_plan,
                     vectorized: bool = False
                     ) -> Tuple[List[Tensor], Tensor]:
        """Run the layer through the schedule-ordered DAG executor."""
        from ..core.executor_bindings import build_layer_bindings
        from ..runtime.dag_executor import DagExecutor

        key = (seq_len, id(program))
        dag = self._dag_cache.get(key)
        if dag is None:
            bindings = build_layer_bindings(
                self, seq_len,
                tile_plan=getattr(program, "tile_plan", None))
            dag = DagExecutor(program, bindings, self.group)
            self._dag_cache[key] = dag

        if self.ffn == "ep":
            self.ffn_engine._last_send_splits = None
        tracer = getattr(getattr(self.group, "world", None),
                         "tracer", None)
        result = dag.run({"hidden": hidden_shards}, tracer=tracer,
                         vectorized=vectorized)
        self.last_executed_ops = list(result.executed)
        self.last_executed_tiles = (
            list(result.executed_tiles)
            if result.executed_tiles is not None else None)

        outputs = result.per_rank("residual2")
        router_vals = result.per_rank("router")
        if self.ffn == "ep":
            from .ep_ffn import EPForwardResult
            if self.ffn_engine.mode == "a2a":
                aux = router_vals[0][3]
                routings = [v[1] for v in router_vals]
                tokens = np.array([int(v[1].kept.sum())
                                   for v in router_vals])
                ffn_out = result.per_rank("weighted_sum")
            else:
                aux = router_vals[0][2]
                routings = [router_vals[0][0]]
                tokens = np.asarray(result.per_rank("ffn_ag")[0][1])
                ffn_out = result.per_rank("ffn_rs")
            ep_result = EPForwardResult(
                output_shards=ffn_out, aux_loss=aux, routing=routings,
                tokens_per_rank=tokens)
            self.ffn_engine.record_telemetry(result.per_rank("ln2"),
                                             ep_result)
        else:
            aux = router_vals[0][2]

        self.last_remat_report = (
            result.apply_remat(remat_plan)
            if remat_plan is not None else None)
        return outputs, aux

    def sync_grads_to_reference(self) -> None:
        """Fold any TP weight-shard gradients back onto the reference
        module (no-op for SP/EP, whose weights are shared objects)."""
        for engine in (self.attn_engine, self.ffn_engine):
            sync = getattr(engine, "sync_grads_to_reference", None)
            if sync is not None:
                sync()

    def refresh_shards(self) -> None:
        """Re-derive TP weight shards after an optimizer step."""
        for engine in (self.attn_engine, self.ffn_engine):
            refresh = getattr(engine, "refresh_shards", None)
            if refresh is not None:
                refresh()
