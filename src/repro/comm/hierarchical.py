"""Hierarchical parameter/gradient synchronization (Appendix A.1, Fig. 5).

SP attention replicates the attention weights across the ``n`` ranks of a
node, so gradient synchronization nominally involves ``n×`` more data than
TP attention.  The paper shows this is cheap in practice because the extra
reduction happens *intra-node* over NVLink: the sync becomes a four-step
hierarchical collective

1. intra-node reduce-scatter (data of size ``P`` on ``n`` devices),
2. inter-node reduce-scatter (data of size ``P/n`` on ``d`` devices),
3. inter-node all-gather     (data of size ``P/n`` on ``d`` devices),
4. intra-node all-gather     (data of size ``P`` on ``n`` devices),

whose *inter-node* volume — the bottleneck — equals TP attention's
``2 P/n (d-1)/d``.  This module implements the data movement for both
schemes on simulated ranks and reports the volumes so tests and the
Fig. 14 bench can verify the equivalence.  Gradients keep their dtype
end to end: cross-rank sums go through
:func:`~repro.comm.collectives.rank_ordered_sum`, and the inter-node leg
can run §5's BF16 all-to-all, whose wire carries ``uint16`` words.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..precision.formats import BF16, decode, encode, round_bf16
from .collectives import (all_gather, all_reduce, all_to_all,
                          rank_ordered_sum, reduce_scatter)
from .group import World

__all__ = [
    "hierarchical_sync",
    "flat_sync",
    "hierarchical_inter_node_volume",
    "hierarchical_intra_node_volume",
    "tp_inter_node_volume",
]


def _bf16_a2a_sum(group, flats: List[np.ndarray],
                  tag: str) -> List[np.ndarray]:
    """§5's DP compression (Fig. 10) of one group's sum: each
    accumulated gradient is cast to BF16 once and its shards go to
    their owners by all-to-all as ``uint16`` words; each owner sums
    the decoded shards in float64 and all-gathers the sum in BF16.
    No BF16 accumulation ever happens.  Results keep the input dtype.
    """
    d = group.size
    size, dtype = flats[0].size, flats[0].dtype
    pad = np.zeros(-size % d, dtype=dtype)
    words = [encode(round_bf16(np.concatenate([f, pad])), BF16)
             for f in flats]
    received = all_to_all(group, [np.split(w, d) for w in words],
                          tag=tag + ":inter_bf16_a2a")
    sums = [rank_ordered_sum(decode(w, BF16) for w in chunks)
            for chunks in received]
    fulls = all_gather(group, [encode(round_bf16(s), BF16) for s in sums],
                       tag=tag + ":inter_bf16_ag")
    return [decode(f[:size], BF16).astype(dtype) for f in fulls]


def _inter_node_sum(group, flats: List[np.ndarray], tag: str,
                    compress: bool) -> List[np.ndarray]:
    """Sum equal-size 1-D arrays across one group of ``d > 1`` peers.

    Exact: a reduce-scatter and an all-gather (the ledger separates
    the two steps), or, when the size does not divide ``d``, one ring
    all-reduce.  With ``compress`` the leg is :func:`_bf16_a2a_sum`.
    Results keep the input dtype.
    """
    if compress:
        return _bf16_a2a_sum(group, flats, tag)
    if flats[0].size % group.size == 0:
        pieces = reduce_scatter(group, flats, tag=tag + ":inter_rs")
        return all_gather(group, pieces, tag=tag + ":inter_ag")
    return all_reduce(group, flats, tag=tag + ":inter_fallback")


def hierarchical_sync(
    world: World,
    grads: Sequence[np.ndarray],
    tag: str = "param_sync_sp",
    compress: bool = False,
) -> List[np.ndarray]:
    """All-reduce replicated gradients with the 4-step hierarchical scheme.

    Args:
        world: Simulated world; ``world.ranks_per_node`` is the replication
            degree ``n`` and the number of nodes is the DP degree ``d``.
        grads: One gradient tensor per rank (all the same shape and
            dtype), flattened internally.  ``grads[r]`` belongs to global
            rank ``r``.
        compress: Run the inter-node leg as §5's BF16 all-to-all.

    Returns:
        Per-rank fully-reduced gradients with the original shape and
        dtype.
    """
    n = world.ranks_per_node
    if world.size % n != 0:
        raise ValueError(
            f"world size {world.size} not divisible by ranks_per_node {n}"
        )
    first = np.asarray(grads[0])
    shape, dtype = first.shape, first.dtype
    flats = [np.asarray(g, dtype=dtype).reshape(-1) for g in grads]
    numel = flats[0].size
    if numel % n != 0:
        pad = np.zeros(n - numel % n, dtype=dtype)
        flats = [np.concatenate([f, pad]) for f in flats]

    # Step 1: intra-node reduce-scatter (size P over n ranks).
    shards: List[np.ndarray] = [flats[0]] * world.size
    for g in world.intra_node_groups():
        outs = reduce_scatter(g, [flats[r] for r in g.ranks],
                              tag=tag + ":intra_rs")
        for r, out in zip(g.ranks, outs):
            shards[r] = out

    # Steps 2+3: inter-node reduce-scatter + all-gather = all-reduce of the
    # P/n shard across same-local-rank peers: TP's flat sync.
    shards = flat_sync(world, shards, tag, compress)

    # Step 4: intra-node all-gather back to size P on every rank.
    results = list(shards)
    for g in world.intra_node_groups():
        fulls = all_gather(g, [shards[r] for r in g.ranks],
                           tag=tag + ":intra_ag")
        for r, full in zip(g.ranks, fulls):
            results[r] = full[:numel].reshape(shape)
    return results


def flat_sync(
    world: World,
    grads: Sequence[np.ndarray],
    tag: str = "param_sync_tp",
    compress: bool = False,
) -> List[np.ndarray]:
    """TP-attention-style sync: inter-node RS + AG of the ``P/n`` shard.

    With TP each rank already holds a distinct ``P/n`` shard, replicated
    only across the ``d`` DP peers (one per node at the same local rank).
    Arguments and results as for :func:`hierarchical_sync`.
    """
    shape = np.asarray(grads[0]).shape
    results = list(grads)
    for g in world.cross_node_groups():
        flats = [np.asarray(grads[r]).reshape(-1) for r in g.ranks]
        if g.size > 1:
            flats = _inter_node_sum(g, flats, tag, compress)
        for r, flat in zip(g.ranks, flats):
            results[r] = flat.reshape(shape)
    return results


def hierarchical_inter_node_volume(param_bytes: float, n: int,
                                   d: int) -> float:
    """Per-rank inter-node bytes for hierarchical SP sync (Appendix A.1)."""
    if d <= 1:
        return 0.0
    return 2.0 * param_bytes / n * (d - 1) / d


def hierarchical_intra_node_volume(param_bytes: float, n: int) -> float:
    """Per-rank intra-node bytes for hierarchical SP sync (Appendix A.1)."""
    if n <= 1:
        return 0.0
    return 2.0 * param_bytes * (n - 1) / n


def tp_inter_node_volume(param_bytes: float, n: int, d: int) -> float:
    """Per-rank inter-node bytes for TP-attention sync (Appendix A.1)."""
    if d <= 1:
        return 0.0
    return 2.0 * (param_bytes / n) * (d - 1) / d
