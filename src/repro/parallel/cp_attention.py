"""Context-parallel (CP) attention — the §3.1 alternative MegaScale-MoE
explored and rejected.

CP partitions *all* activations along the sequence dimension and ring-
exchanges K/V so each rank attends its queries against every earlier
position.  Under causal masking the workload is inherently imbalanced:
with a contiguous layout, the rank holding the tail of the sequence
attends against almost the whole context while the head rank attends
against almost nothing — "the entire training process is often
constrained by the most imbalanced data batch".  The zigzag layout pairs
chunk ``r`` with chunk ``2n-1-r`` on the same rank, balancing the
quadratic term, though block-granularity effects keep perfect balance
out of reach.

This module provides:

* :class:`CPAttentionEngine` — numerically exact CP attention over
  simulated ranks (both layouts), validated against the reference;
* :func:`cp_workload_shares` / :func:`cp_imbalance` — the per-rank
  causal-FLOPs analysis behind the paper's rejection;
* :func:`cp_attention_comm_volume` — K/V ring-exchange volume,
  ``2·bsh/m·(n-1)/n`` per pass (GQA-reduced, like SP).
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..comm.group import ProcessGroup
from ..model.layers import SelfAttention
from ..tensor import Tensor, ops
from .dist_ops import dist_all_gather

__all__ = [
    "CPAttentionEngine",
    "cp_layout_positions",
    "cp_workload_shares",
    "cp_imbalance",
    "cp_attention_comm_volume",
]


def cp_layout_positions(seq_len: int, n: int,
                        layout: str = "contiguous") -> List[np.ndarray]:
    """Absolute token positions held by each rank under a CP layout.

    ``contiguous``: rank r holds chunk r.  ``zigzag``: the sequence is
    cut into 2n chunks and rank r holds chunks r and 2n-1-r, pairing a
    cheap head chunk with an expensive tail chunk.
    """
    if layout == "contiguous":
        if seq_len % n != 0:
            raise ValueError(
                f"seq_len {seq_len} not divisible by {n} ranks"
            )
        width = seq_len // n
        return [np.arange(r * width, (r + 1) * width) for r in range(n)]
    if layout == "zigzag":
        if seq_len % (2 * n) != 0:
            raise ValueError(
                f"zigzag needs seq_len divisible by 2n = {2 * n}"
            )
        width = seq_len // (2 * n)
        out = []
        for r in range(n):
            head = np.arange(r * width, (r + 1) * width)
            tail_chunk = 2 * n - 1 - r
            tail = np.arange(tail_chunk * width, (tail_chunk + 1) * width)
            out.append(np.concatenate([head, tail]))
        return out
    raise ValueError(f"unknown CP layout {layout!r}")


def cp_workload_shares(seq_len: int, n: int,
                       layout: str = "contiguous") -> np.ndarray:
    """Fraction of total causal-attention FLOPs each rank performs.

    Position ``p`` attends to ``p+1`` keys, so a rank's work is
    ``sum(p+1)`` over its positions.
    """
    positions = cp_layout_positions(seq_len, n, layout)
    work = np.array([float((pos + 1).sum()) for pos in positions])
    return work / work.sum()


def cp_imbalance(seq_len: int, n: int,
                 layout: str = "contiguous") -> float:
    """Max-over-mean workload ratio — the pipeline-stalling factor."""
    shares = cp_workload_shares(seq_len, n, layout)
    return float(shares.max() * n)


def cp_attention_comm_volume(b: int, s: int, h: int, n: int,
                             m: int) -> float:
    """Per-pass K/V ring-exchange elements per rank ensemble.

    Each rank circulates its K and V chunks (``2·(s/n)·h/m`` elements
    per rank) through ``n-1`` hops: total ``2 b s h/m (n-1)/n`` — like
    SP, shrinking with GQA, but paid on every attention regardless of
    balance.
    """
    if n <= 1:
        return 0.0
    return 2.0 * b * s * h / m * (n - 1) / n


class CPAttentionEngine:
    """Context-parallel causal attention over simulated ranks."""

    def __init__(self, group: ProcessGroup, attn: SelfAttention,
                 layout: str = "contiguous"):
        if layout not in ("contiguous", "zigzag"):
            raise ValueError(f"unknown CP layout {layout!r}")
        self.group = group
        self.attn = attn
        self.layout = layout

    def forward(self, hidden_shards: List[Tensor],
                seq_len: int) -> List[Tensor]:
        """Map per-rank ``ln1_out`` shards (in layout order) to
        ``attn_out`` shards.

        ``hidden_shards[r]`` holds the positions given by
        :func:`cp_layout_positions` for rank ``r``, concatenated.
        """
        group, attn = self.group, self.attn
        group.check_shards(hidden_shards)
        n = group.size
        positions = cp_layout_positions(seq_len, n, self.layout)

        qs, ks, vs = [], [], []
        for rank, shard in enumerate(hidden_shards):
            b, s_local, _ = shard.shape
            if s_local != positions[rank].shape[0]:
                raise ValueError(
                    f"rank {rank} shard covers {s_local} positions, "
                    f"layout expects {positions[rank].shape[0]}"
                )
            qkv = attn.qkv_proj(shard)
            q, k, v = attn.split_qkv(qkv, b, s_local)
            qs.append(ops.rope_rotate(q, attn.rope_base, positions[rank]))
            ks.append(ops.rope_rotate(k, attn.rope_base, positions[rank]))
            vs.append(v)

        # Ring exchange emulated as an all-gather of K and V along the
        # sequence axis (same total volume as n-1 ring hops).
        k_full = dist_all_gather(group, ks, axis=1, tag="cp_attn:kv_ring")
        v_full = dist_all_gather(group, vs, axis=1, tag="cp_attn:kv_ring")
        all_positions = np.concatenate(positions)

        outs = []
        for rank in range(n):
            out_heads = _attention_with_positions(
                qs[rank], k_full[rank], v_full[rank],
                positions[rank], all_positions, attn)
            b, s_local = out_heads.shape[0], out_heads.shape[1]
            flat = out_heads.reshape(b, s_local, attn.hidden_size)
            outs.append(attn.out_proj(flat))
        return outs


def _attention_with_positions(q: Tensor, k: Tensor, v: Tensor,
                              q_pos: np.ndarray, k_pos: np.ndarray,
                              attn: SelfAttention) -> Tensor:
    """Causal attention with explicit absolute positions.

    ``q`` is ``[b, sq, q_heads, d]``; ``k``/``v`` are
    ``[b, sk, kv_heads, d]``.  Query at position p attends keys with
    position <= p.
    """
    qh = q.transpose(0, 2, 1, 3)
    kh = k.transpose(0, 2, 1, 3)
    vh = v.transpose(0, 2, 1, 3)
    mask = k_pos[None, :] > q_pos[:, None]
    return ops.scaled_dot_product_attention(
        qh, kh, vh, mask=mask).transpose(0, 2, 1, 3)
