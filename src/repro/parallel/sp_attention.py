"""Ulysses-style sequence-parallel attention (§3.1).

Each of the ``n`` ranks holds a ``[b, s/n, h]`` sequence shard and a full
*replica* of the attention weights.  The forward pass follows Fig. 20:

    qkv = MatMul(ln1_out, qkv_weight)          # local, seq-sharded
    q_rope, k_rope = RoPE(q, k)                # local positions known
    qkv_a2a = All-to-All(q_rope, k_rope, v)    # seq-shard -> head-shard
    attn = SelfAttention(qkv_a2a)              # full sequence, n-th of heads
    attn_a2a = All-to-All(attn)                # head-shard -> seq-shard
    attn_out = MatMul(attn_a2a, out_weight)    # local

Communication per pass is the Eq. 2 volume — two all-to-alls that shrink
with both ``n`` and the GQA ratio ``m`` — versus TP's all-gather +
reduce-scatter of the full activation (Eq. 1).

Weights are *shared Tensor objects* across ranks: gradient contributions
from every rank accumulate on the replica exactly as the hierarchical
parameter sync of Appendix A.1 would produce.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

import numpy as np

from ..comm.group import ProcessGroup
from ..core.operators import TilePlan, forward_tiles
from ..model.layers import SelfAttention
from ..runtime.dag_executor import OpBinding, _SeqCtx, per_rank
from ..tensor import ops
from .dist_ops import dist_all_to_all

__all__ = ["sp_attention_bindings"]


def sp_attention_bindings(group: ProcessGroup, attn: SelfAttention,
                          tile_plan: Optional[TilePlan]
                          ) -> List[OpBinding]:
    """SP attention over sequence shards with a replicated ``attn``:
    qkv_proj → rope → A2A → attention → A2A → out_proj.  The chain
    reads ``ln1`` and ends at ``out_proj``; ``tile_plan`` token-chunks
    the two A2As (§4.2)."""
    n = group.size
    if attn.n_heads % n != 0:
        raise ValueError(
            f"n_heads={attn.n_heads} not divisible by SP size {n}"
        )
    if attn.n_kv_heads % n != 0:
        raise ValueError(
            f"n_kv_heads={attn.n_kv_heads} not divisible by SP size {n}"
        )
    # Token-chunked A2As (§4.2): every (source, dest) chunk's sequence
    # extent is the local shard, tiled into `tile_tokens` slices.
    t_qkv = forward_tiles(tile_plan, "a2a+attn")
    t_attn = forward_tiles(tile_plan, "a2a+gemm")

    def qkv_proj(r: int, get: Callable[[str], Any]) -> Any:
        # Fused projection split into (q, k, v).
        shard = get("ln1")
        b, s_local, _ = shard.shape
        return attn.split_qkv(attn.qkv_proj(shard), b, s_local)

    def rope(r: int, get: Callable[[str], Any]) -> Any:
        # Rotate q/k with this rank's global positions.
        q, k, v = get("qkv_proj")
        local_s = q.shape[1]
        positions = np.arange(r * local_s, (r + 1) * local_s)
        return (ops.rope_rotate(q, attn.rope_base, positions),
                ops.rope_rotate(k, attn.rope_base, positions),
                v)

    def qkv_a2a(ctx: _SeqCtx) -> List[Any]:
        # Split the head axis (2), gather the sequence axis (1): rank r
        # then holds all positions for its n-th of the q and kv heads.
        triples = ctx.env["rope"]
        q_full, k_full, v_full = (
            dist_all_to_all(group, [t[i] for t in triples],
                            split_axis=2, concat_axis=1,
                            tag="sp_attn:qkv_a2a",
                            tiles=t_qkv, tile_label="qkv_a2a")
            for i in range(3))
        return list(zip(q_full, k_full, v_full))

    def attention(r: int, get: Callable[[str], Any]) -> Any:
        # Causal SDPA over the full sequence.
        q_full, k_full, v_full = get("qkv_a2a")
        out = ops.scaled_dot_product_attention(
            q_full.transpose(0, 2, 1, 3),
            k_full.transpose(0, 2, 1, 3),
            v_full.transpose(0, 2, 1, 3),
            causal=True,
        )
        return out.transpose(0, 2, 1, 3)

    def attn_a2a(ctx: _SeqCtx) -> List[Any]:
        return dist_all_to_all(
            group, ctx.env["attention"], split_axis=1, concat_axis=2,
            tag="sp_attn:attn_a2a", tiles=t_attn, tile_label="attn_a2a")

    def out_proj(r: int, get: Callable[[str], Any]) -> Any:
        # Flatten heads, project.
        shard = get("attn_a2a")
        b, s_local = shard.shape[0], shard.shape[1]
        return attn.out_proj(shard.reshape(b, s_local, attn.hidden_size))

    return [
        per_rank("qkv_proj", ("ln1",), qkv_proj),
        per_rank("rope", ("qkv_proj",), rope),
        OpBinding("qkv_a2a", ("qkv_a2a",), ("rope",), qkv_a2a),
        per_rank("attention", ("qkv_a2a",), attention),
        OpBinding("attn_a2a", ("attn_a2a",), ("attention",), attn_a2a),
        per_rank("out_proj", ("attn_a2a",), out_proj),
    ]
