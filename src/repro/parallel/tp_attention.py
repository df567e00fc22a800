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

from ..comm.group import ProcessGroup
from ..model.layers import SelfAttention
from ..tensor import Tensor, ops

__all__ = ["TPAttentionEngine"]


class TPAttentionEngine:
    """Runs head-sharded attention over sequence-sharded activations."""

    def __init__(self, group: ProcessGroup, attn: SelfAttention):
        n = group.size
        if attn.n_heads % n != 0:
            raise ValueError(
                f"n_heads={attn.n_heads} not divisible by TP size {n}"
            )
        if attn.n_kv_heads % n != 0:
            raise ValueError(
                f"n_kv_heads={attn.n_kv_heads} not divisible by TP size {n}"
            )
        self.group = group
        self.attn = attn

    # -- per-op handlers (graph-node granularity) --------------------------
    #
    # One method per forward-graph op; the bindings in
    # repro.core.executor_bindings.attention_bindings sequence them.
    # Each GEMM reads rank r's contiguous slice of the module's own
    # (cast) weight, taken on the tape, so backward lands the shard's
    # gradient on the parameter itself.

    def op_qkv(self, x: Tensor, r: int):
        """``qkv_proj``: this rank's head-shard projection of the full
        sequence, split into 4-D (q, k, v).  The fused ``[Q | K | V]``
        weight is column-sharded by head within each part."""
        attn, n = self.attn, self.group.size
        x, w = attn.qkv_proj.operands(x)
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

    def op_rope(self, qkv):
        """``rope``: full-sequence rotation (positions implicit)."""
        q, k, v = qkv
        return (ops.rope_rotate(q, self.attn.rope_base),
                ops.rope_rotate(k, self.attn.rope_base), v)

    def op_attention(self, qkv):
        """``attention``: causal SDPA, heads re-flattened."""
        q, k, v = qkv
        b, s = q.shape[0], q.shape[1]
        q_width = q.shape[2] * q.shape[3]
        out = ops.scaled_dot_product_attention(
            q.transpose(0, 2, 1, 3), k.transpose(0, 2, 1, 3),
            v.transpose(0, 2, 1, 3), causal=True)
        return out.transpose(0, 2, 1, 3).reshape(b, s, q_width)

    def op_out_proj(self, out: Tensor, r: int) -> Tensor:
        """``out_proj``: row-sharded partial product."""
        out, w = self.attn.out_proj.operands(out)
        return out @ ops.shard(w, self.group.size, r, axis=0)

