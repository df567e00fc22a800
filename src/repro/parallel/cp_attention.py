"""Context-parallel (CP) attention — the §3.1 alternative MegaScale-MoE
explored and rejected.

CP partitions *all* activations along the sequence dimension and ring-
exchanges K/V so each rank attends its queries against every earlier
position.  Under causal masking the workload is inherently imbalanced:
with a contiguous layout, the rank holding the tail of the sequence
attends against almost the whole context while the head rank attends
against almost nothing — "the entire training process is often
constrained by the most imbalanced data batch".  Balancing layouts
that pair a head chunk with a tail chunk are out of scope: no plan
runs CP, and the scorecard's ``s3_1.cp_over_sp`` row prices the
contiguous layout the section argues from.

This module is analysis only — no plan runs CP — and provides:

* :func:`cp_workload_shares` / :func:`cp_imbalance` — the per-rank
  causal-FLOPs analysis behind the paper's rejection;
* :func:`cp_attention_comm_volume` — K/V ring-exchange volume,
  ``2·bsh/m·(n-1)/n`` per pass (GQA-reduced, like SP).
"""

from __future__ import annotations

from typing import List

import numpy as np

__all__ = [
    "cp_layout_positions",
    "cp_workload_shares",
    "cp_imbalance",
    "cp_attention_comm_volume",
]


def cp_layout_positions(seq_len: int, n: int) -> List[np.ndarray]:
    """Absolute token positions held by each rank: the contiguous CP
    layout, rank r holding chunk r."""
    if seq_len % n != 0:
        raise ValueError(
            f"seq_len {seq_len} not divisible by {n} ranks"
        )
    width = seq_len // n
    return [np.arange(r * width, (r + 1) * width) for r in range(n)]


def cp_workload_shares(seq_len: int, n: int) -> np.ndarray:
    """Fraction of total causal-attention FLOPs each rank performs.

    Position ``p`` attends to ``p+1`` keys, so a rank's work is
    ``sum(p+1)`` over its positions.
    """
    positions = cp_layout_positions(seq_len, n)
    work = np.array([float((pos + 1).sum()) for pos in positions])
    return work / work.sum()


def cp_imbalance(seq_len: int, n: int) -> float:
    """Max-over-mean workload ratio — the pipeline-stalling factor."""
    shares = cp_workload_shares(seq_len, n)
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
