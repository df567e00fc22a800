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

import numpy as np

from ..comm.group import ProcessGroup
from ..model.layers import SelfAttention
from ..tensor import Tensor

__all__ = ["SPAttentionEngine"]


class SPAttentionEngine:
    """Runs a replicated :class:`SelfAttention` over sequence shards."""

    def __init__(self, group: ProcessGroup, attn: SelfAttention):
        n = group.size
        if attn.n_heads % n != 0:
            raise ValueError(
                f"n_heads={attn.n_heads} not divisible by SP size {n}"
            )
        if attn.n_kv_heads % n != 0:
            raise ValueError(
                f"n_kv_heads={attn.n_kv_heads} not divisible by SP size {n}"
            )
        self.group = group
        self.attn = attn

    # -- per-op handlers (graph-node granularity) --------------------------
    #
    # One method per forward-graph op; the bindings in
    # repro.core.executor_bindings.attention_bindings sequence them.

    def op_qkv(self, shard: Tensor):
        """``qkv_proj``: fused projection split into (q, k, v)."""
        b, s_local, _ = shard.shape
        qkv = self.attn.qkv_proj(shard)
        return self.attn.split_qkv(qkv, b, s_local)

    def op_rope(self, qkv, rank: int, local_s: int):
        """``rope``: rotate q/k with this rank's global positions."""
        from ..tensor import ops
        q, k, v = qkv
        positions = np.arange(rank * local_s, (rank + 1) * local_s)
        return (ops.rope_rotate(q, self.attn.rope_base, positions),
                ops.rope_rotate(k, self.attn.rope_base, positions),
                v)

    def op_attention(self, qkv_full):
        """``attention``: causal SDPA over the full sequence."""
        from ..tensor import ops
        q_full, k_full, v_full = qkv_full
        out = ops.scaled_dot_product_attention(
            q_full.transpose(0, 2, 1, 3),
            k_full.transpose(0, 2, 1, 3),
            v_full.transpose(0, 2, 1, 3),
            causal=True,
        )
        return out.transpose(0, 2, 1, 3)

    def op_out_proj(self, attn_shard: Tensor) -> Tensor:
        """``out_proj``: flatten heads, project."""
        b, s_local = attn_shard.shape[0], attn_shard.shape[1]
        flat = attn_shard.reshape(b, s_local, self.attn.hidden_size)
        return self.attn.out_proj(flat)
