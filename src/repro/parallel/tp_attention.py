"""Megatron-style tensor-parallel attention (the baseline of §3.1).

Each rank computes with a *head shard* of the attention weights: its
slice of the fused QKV projection columns and the matching rows of the
output projection, taken from the module's own parameters on the tape.
Activations enter and leave sequence-sharded (Megatron's TP+SP
hybrid), so the critical path carries:

    all-gather  [b, s/n, h] -> [b, s, h]      (before QKV projection)
    reduce-scatter of the partial output      (after output projection)

which is exactly the Eq. 1 volume ``2 b s h (n-1)/n`` per pass — constant
in ``n``, the scalability limitation §7 discusses.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from ..comm.group import ProcessGroup
from ..core.operators import TilePlan, forward_tiles
from ..model.layers import SelfAttention
from ..runtime.dag_executor import OpBinding, _SeqCtx, per_rank
from ..tensor import ops
from .dist_ops import dist_all_gather, dist_reduce_scatter

__all__ = ["tp_attention_bindings"]


def tp_attention_bindings(group: ProcessGroup, attn: SelfAttention,
                          tile_plan: Optional[TilePlan]
                          ) -> List[OpBinding]:
    """TP attention: AG in, head-sharded compute, RS out.  The chain
    reads ``ln1`` and ends at ``attn_rs``; ``tile_plan`` chunks the AG
    per source rank and the RS per destination rank (§4.2).

    Each GEMM reads rank r's contiguous slice of the module's own
    (cast) weight, taken on the tape, so backward lands the shard's
    gradient on the parameter itself.
    """
    n = group.size
    if attn.n_heads % n != 0:
        raise ValueError(
            f"n_heads={attn.n_heads} not divisible by TP size {n}"
        )
    if attn.n_kv_heads % n != 0:
        raise ValueError(
            f"n_kv_heads={attn.n_kv_heads} not divisible by TP size {n}"
        )
    ag_tiled = forward_tiles(tile_plan, "attn_ag+gemm") >= 2
    rs_tiled = forward_tiles(tile_plan, "attn_gemm+rs") >= 2

    def ag(ctx: _SeqCtx) -> List[Any]:
        return dist_all_gather(
            group, ctx.env["ln1"], axis=1,
            tag="tp_attn:ag", tiled=ag_tiled, tile_label="attn_ag")

    def qkv_proj(r: int, get: Callable[[str], Any]) -> Any:
        # This rank's head-shard projection of the full sequence, split
        # into 4-D (q, k, v).  The fused ``[Q | K | V]`` weight is
        # column-sharded by head within each part.
        x, w = attn.qkv_proj.operands(get("attn_ag"))
        h = attn.hidden_size
        hd = attn.head_dim
        kv = attn.n_kv_heads * hd
        w_r = ops.concat([ops.shard(part, n, r, axis=1) for part in
                          (w[:, :h], w[:, h:h + kv], w[:, h + kv:])],
                         axis=1)
        b, s, _ = x.shape
        qkv = x @ w_r
        q_width = h // n
        kv_width = kv // n
        q = qkv[:, :, :q_width].reshape(b, s, q_width // hd, hd)
        k = qkv[:, :, q_width:q_width + kv_width].reshape(
            b, s, kv_width // hd, hd)
        v = qkv[:, :, q_width + kv_width:].reshape(
            b, s, kv_width // hd, hd)
        return q, k, v

    def rope(r: int, get: Callable[[str], Any]) -> Any:
        # Full-sequence rotation (positions implicit).
        q, k, v = get("qkv_proj")
        return (ops.rope_rotate(q, attn.rope_base),
                ops.rope_rotate(k, attn.rope_base), v)

    def attention(r: int, get: Callable[[str], Any]) -> Any:
        # Causal SDPA, heads re-flattened.
        q, k, v = get("rope")
        b, s = q.shape[0], q.shape[1]
        q_width = q.shape[2] * q.shape[3]
        out = ops.scaled_dot_product_attention(
            q.transpose(0, 2, 1, 3), k.transpose(0, 2, 1, 3),
            v.transpose(0, 2, 1, 3), causal=True)
        return out.transpose(0, 2, 1, 3).reshape(b, s, q_width)

    def out_proj(r: int, get: Callable[[str], Any]) -> Any:
        # Row-sharded partial product.
        out, w = attn.out_proj.operands(get("attention"))
        return out @ ops.shard(w, n, r, axis=0)

    def rs(ctx: _SeqCtx) -> List[Any]:
        # Partial products sum across ranks; scatter back to seq shards.
        return dist_reduce_scatter(
            group, ctx.env["out_proj"], axis=1,
            tag="tp_attn:rs", tiled=rs_tiled, tile_label="attn_rs")

    return [
        OpBinding("attn_ag", ("attn_ag",), ("ln1",), ag),
        per_rank("qkv_proj", ("attn_ag",), qkv_proj),
        per_rank("rope", ("qkv_proj",), rope),
        per_rank("attention", ("rope",), attention),
        per_rank("out_proj", ("attention",), out_proj),
        OpBinding("attn_rs", ("attn_rs",), ("out_proj",), rs),
    ]
