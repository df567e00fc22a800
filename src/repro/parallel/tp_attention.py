"""Megatron-style tensor-parallel attention (the baseline of §3.1).

Each rank holds a *head shard* of the attention weights: its slice of the
fused QKV projection columns and the matching rows of the output
projection.  Activations enter and leave sequence-sharded (Megatron's
TP+SP hybrid), so the critical path carries:

    all-gather  [b, s/n, h] -> [b, s, h]      (before QKV projection)
    reduce-scatter of the partial output      (after output projection)

which is exactly the Eq. 1 volume ``2 b s h (n-1)/n`` per pass — constant
in ``n``, the scalability limitation §7 discusses.
"""

from __future__ import annotations

from typing import List

import numpy as np

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
        self._shard_weights()

    def _shard_weights(self) -> None:
        """Slice the reference weights into per-rank leaf Tensors.

        The fused QKV weight ``[h, h + 2·kv·hd]`` is laid out as
        ``[Q | K | V]``; each part is column-sharded by head.  The output
        projection ``[h, h]`` is row-sharded by head so per-rank partial
        products sum to the full result.
        """
        attn, n = self.attn, self.group.size
        h = attn.hidden_size
        hd = attn.head_dim
        kv = attn.n_kv_heads * hd
        w = attn.qkv_proj.weight.data
        q_w, k_w, v_w = w[:, :h], w[:, h:h + kv], w[:, h + kv:]

        self.qkv_weights: List[Tensor] = []
        self.out_weights: List[Tensor] = []
        q_cols = h // n
        kv_cols = kv // n
        out_w = attn.out_proj.weight.data
        for r in range(n):
            q_r = q_w[:, r * q_cols:(r + 1) * q_cols]
            k_r = k_w[:, r * kv_cols:(r + 1) * kv_cols]
            v_r = v_w[:, r * kv_cols:(r + 1) * kv_cols]
            self.qkv_weights.append(Tensor(
                np.concatenate([q_r, k_r, v_r], axis=1).copy(),
                requires_grad=True, name=f"qkv_shard_{r}"))
            self.out_weights.append(Tensor(
                out_w[r * q_cols:(r + 1) * q_cols, :].copy(),
                requires_grad=True, name=f"out_shard_{r}"))

    # -- per-op handlers (graph-node granularity) --------------------------
    #
    # One method per forward-graph op; the bindings in
    # repro.core.executor_bindings.attention_bindings sequence them.

    def op_qkv(self, x: Tensor, r: int):
        """``qkv_proj``: this rank's head-shard projection of the full
        sequence, split into 4-D (q, k, v)."""
        attn, n = self.attn, self.group.size
        heads_local = attn.n_heads // n
        kv_local = attn.n_kv_heads // n
        hd = attn.head_dim
        b, s, _ = x.shape
        qkv = x @ self.qkv_weights[r]
        q_width = heads_local * hd
        kv_width = kv_local * hd
        q = qkv[:, :, :q_width].reshape(b, s, heads_local, hd)
        k = qkv[:, :, q_width:q_width + kv_width].reshape(
            b, s, kv_local, hd)
        v = qkv[:, :, q_width + kv_width:].reshape(b, s, kv_local, hd)
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
        return out @ self.out_weights[r]

    def sync_grads_to_reference(self) -> None:
        """Accumulate the shard gradients onto the reference weights.

        A real TP deployment keeps the shards as the optimizer state;
        here the reference module owns the parameters, so the assembled
        gradients are added to it before the optimizer step.
        """
        d_qkv, d_out = self.reference_weight_grads()
        qkv_w = self.attn.qkv_proj.weight
        out_w = self.attn.out_proj.weight
        qkv_w.grad = d_qkv if qkv_w.grad is None else qkv_w.grad + d_qkv
        out_w.grad = d_out if out_w.grad is None else out_w.grad + d_out

    def refresh_shards(self) -> None:
        """Re-slice the (updated) reference weights into the shards."""
        attn, n = self.attn, self.group.size
        h = attn.hidden_size
        hd = attn.head_dim
        kv = attn.n_kv_heads * hd
        w = attn.qkv_proj.weight.data
        q_w, k_w, v_w = w[:, :h], w[:, h:h + kv], w[:, h + kv:]
        q_cols = h // n
        kv_cols = kv // n
        out_w = attn.out_proj.weight.data
        for r in range(n):
            q_r = q_w[:, r * q_cols:(r + 1) * q_cols]
            k_r = k_w[:, r * kv_cols:(r + 1) * kv_cols]
            v_r = v_w[:, r * kv_cols:(r + 1) * kv_cols]
            self.qkv_weights[r].data = np.concatenate(
                [q_r, k_r, v_r], axis=1).copy()
            self.qkv_weights[r].grad = None
            self.out_weights[r].data = \
                out_w[r * q_cols:(r + 1) * q_cols, :].copy()
            self.out_weights[r].grad = None

    def reference_weight_grads(self) -> tuple:
        """Assemble full-weight gradients from the per-rank shard grads.

        Returns ``(qkv_grad, out_grad)`` shaped like the reference
        weights, for equivalence tests against the single-rank model.
        """
        attn, n = self.attn, self.group.size
        h = attn.hidden_size
        hd = attn.head_dim
        kv = attn.n_kv_heads * hd
        q_cols = h // n
        kv_cols = kv // n

        qkv_grad = np.zeros_like(attn.qkv_proj.weight.data)
        out_grad = np.zeros_like(attn.out_proj.weight.data)
        for r in range(n):
            g = self.qkv_weights[r].grad
            if g is None:
                continue
            qkv_grad[:, r * q_cols:(r + 1) * q_cols] = g[:, :q_cols]
            qkv_grad[:, h + r * kv_cols:h + (r + 1) * kv_cols] = \
                g[:, q_cols:q_cols + kv_cols]
            qkv_grad[:, h + kv + r * kv_cols:h + kv + (r + 1) * kv_cols] = \
                g[:, q_cols + kv_cols:]
            og = self.out_weights[r].grad
            if og is not None:
                out_grad[r * q_cols:(r + 1) * q_cols, :] = og
        return qkv_grad, out_grad
