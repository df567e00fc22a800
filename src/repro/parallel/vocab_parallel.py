"""Vocab-parallel LM head and cross-entropy.

With a 65,536-token vocabulary (§6.1) the LM-head logits tensor
``[tokens, vocab]`` is the single largest activation, so production
systems shard the output projection across the model-parallel ranks and
compute the softmax cross-entropy *without ever materializing full
logits* (Megatron-LM's vocab-parallel loss, used by both compared
systems).  Each rank holds ``vocab/n`` output columns:

1. local logits ``x @ W_r``  → ``[T, V/n]``;
2. a *detached* global row-max (softmax is shift-invariant, so no
   gradient flows through the max — a numpy side-channel suffices);
3. local ``sum(exp(logits - max))`` reduced with a differentiable
   all-reduce → the log-sum-exp;
4. each target's logit lives on exactly one rank; a differentiable
   all-reduce of the per-rank partial picks it up.

The result equals the reference dense cross-entropy to float precision,
while each rank's logits stay ``1/n`` of the full width.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..comm.group import ProcessGroup
from ..tensor import Tensor
from .dist_ops import dist_all_reduce

__all__ = ["shard_lm_head", "vocab_parallel_cross_entropy",
           "vocab_parallel_loss"]


def shard_lm_head(weight: np.ndarray, n: int) -> List[Tensor]:
    """Column-shard an ``[h, V]`` LM-head weight into ``n`` leaves."""
    h, vocab = weight.shape
    if vocab % n != 0:
        raise ValueError(f"vocab {vocab} not divisible by {n} ranks")
    width = vocab // n
    return [Tensor(weight[:, r * width:(r + 1) * width].copy(),
                   requires_grad=True, name=f"lm_head_shard_{r}")
            for r in range(n)]


def vocab_parallel_cross_entropy(
    group: ProcessGroup,
    logit_shards: Sequence[Tensor],
    targets: np.ndarray,
) -> Tensor:
    """Mean cross-entropy from per-rank ``[T, V/n]`` logit shards.

    ``targets`` holds global vocabulary ids of shape ``[T]`` (or any
    shape flattening to T).  Returns a scalar Tensor on the shared tape;
    gradients flow to every shard.
    """
    group.check_shards(logit_shards)
    n = group.size
    targets = np.asarray(targets).reshape(-1)
    t = logit_shards[0].shape[0]
    width = logit_shards[0].shape[-1]
    if targets.shape[0] != t:
        raise ValueError(
            f"targets cover {targets.shape[0]} rows, logits have {t}"
        )
    if (targets < 0).any() or (targets >= n * width).any():
        raise ValueError("target id outside the sharded vocabulary")

    # 2. Detached global max per row (shift-invariance: no grad path).
    global_max = np.max(
        [shard.data.max(axis=-1) for shard in logit_shards], axis=0)
    shift = global_max[:, None]

    # 3. Differentiable log-sum-exp via an all-reduce of local sums.
    local_sums = [
        (shard - Tensor(shift)).exp().sum(axis=-1, keepdims=True)
        for shard in logit_shards
    ]
    global_sums = dist_all_reduce(group, local_sums, tag="vocab_ce:sumexp")

    # 4. The target logit, assembled by summing per-rank partials.
    rows = np.arange(t)
    partials = []
    for r, shard in enumerate(logit_shards):
        local_ids = targets - r * width
        mine = (local_ids >= 0) & (local_ids < width)
        # Rows not owned contribute zero; clamp indices for the gather.
        safe_ids = np.where(mine, local_ids, 0)
        gathered = shard[rows, safe_ids]
        partials.append(gathered * Tensor(mine.astype(shard.dtype)))
    target_logits = dist_all_reduce(group, partials, tag="vocab_ce:target")

    # Every rank computes the identical loss; take rank 0's copy.
    lse = global_sums[0].log().reshape(t) + Tensor(global_max)
    loss = (lse - target_logits[0]).mean()
    return loss


def vocab_parallel_loss(
    group: ProcessGroup,
    hidden_shards: Sequence[Tensor],
    head_shards: Sequence[Tensor],
    targets: np.ndarray,
) -> Tensor:
    """Sequence-sharded hidden states × vocab-sharded head → mean CE.

    ``hidden_shards[r]`` is rank r's ``[b, s/n, h]`` slice and
    ``head_shards[r]`` its ``[h, V/n]`` columns.  Each rank's tokens
    need logits over the *full* vocabulary, so hidden states circulate
    (here: every rank evaluates its head shard on the concatenated
    sequence — the all-gather the paper's SP region performs anyway),
    then the sharded cross-entropy above finishes the job.
    """
    group.check_shards(hidden_shards)
    group.check_shards(head_shards)
    from .dist_ops import dist_all_gather
    flats = [s.reshape(-1, s.shape[-1]) if s.ndim == 3 else s
             for s in hidden_shards]
    fulls = dist_all_gather(group, flats, axis=0, tag="vocab_ce:ag")
    logit_shards = [fulls[r] @ head_shards[r]
                    for r in range(group.size)]
    return vocab_parallel_cross_entropy(group, logit_shards, targets)
