"""Token-routing results and precomputed dispatch mappings.

Section 3.2 ("Efficient operators"): instead of ``torch.scatter_add`` /
``torch.gather``, MegaScale-MoE *pre-calculates the mapping from each row
of the input tensor (a token) to the corresponding row of the output
tensor* from the routing result, then performs scatter/gather as pure
index-driven data movement.  This module builds those mappings.

A routing decision for ``T`` tokens with top-``k`` produces ``T·k``
(token, slot) pairs.  :class:`DispatchPlan` sorts the pairs by expert —
and, for the overlapped AG+scatter+GroupedGEMM kernel, secondarily by
*source rank* (§4.2) — yielding:

* ``token_of_row``  — for output row ``r``, which input token it reads;
* ``slot_of_row``   — which of the token's k slots it corresponds to;
* ``expert_counts`` — contiguous row counts per expert (GroupedGEMM sizes).

The plan is the only place the routing → row-order decision is made.
Every MoE path moves its rows through it: :meth:`DispatchPlan.dispatch`
is the scatter, :meth:`DispatchPlan.combine` the gate-weighted gather.
Because each EP rank holds a contiguous block of experts, the
expert-major row order is also destination-rank-major, so the A2A
sender's send buffer is the plan's rows; the receiver builds a plan over
its arrivals (keyed by source rank) and un-sorts by inverting its
``token_of_row``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..tensor import Tensor, ops

__all__ = ["RoutingResult", "DispatchPlan", "build_dispatch_plan"]


@dataclass
class RoutingResult:
    """Output of the gating network for a flat batch of tokens.

    Attributes:
        expert_index: ``[T, k]`` int array — chosen expert per slot.
        gate_weight: ``[T, k]`` float array — combine weight per slot
            (already renormalized over the k chosen experts).
        kept: ``[T, k]`` bool array — False where the token-slot was
            dropped by the capacity limit (§3.2 "Load balance").
    """

    expert_index: np.ndarray
    gate_weight: np.ndarray
    kept: np.ndarray

    def __post_init__(self):
        if self.expert_index.shape != self.gate_weight.shape:
            raise ValueError("expert_index and gate_weight shapes differ")
        if self.kept.shape != self.expert_index.shape:
            raise ValueError("kept mask shape differs from expert_index")

    @property
    def n_tokens(self) -> int:
        return self.expert_index.shape[0]

    @property
    def top_k(self) -> int:
        return self.expert_index.shape[1]

    def tokens_per_expert(self, n_experts: int) -> np.ndarray:
        """Kept token-slots routed to each expert."""
        idx = self.expert_index[self.kept]
        return np.bincount(idx, minlength=n_experts)


@dataclass
class DispatchPlan:
    """Precomputed index maps for scatter (dispatch) and gather (combine)."""

    #: For each output row (sorted by expert): source token id. ``[R]``
    token_of_row: np.ndarray
    #: For each output row: which top-k slot of that token. ``[R]``
    slot_of_row: np.ndarray
    #: Rows assigned to each expert, contiguous in row order. ``[E]``
    expert_counts: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.token_of_row.shape[0]

    def expert_slices(self) -> Tuple[Tuple[int, int, int], ...]:
        """(expert, start_row, end_row) for every non-empty expert."""
        offsets = np.concatenate([[0], np.cumsum(self.expert_counts)])
        return tuple(
            (e, int(offsets[e]), int(offsets[e + 1]))
            for e in range(len(self.expert_counts))
            if self.expert_counts[e] > 0
        )

    def dispatch(self, x: Tensor) -> Tensor:
        """Scatter: row ``r`` is a copy of token ``token_of_row[r]``."""
        return ops.take_rows(x, self.token_of_row)

    def combine(self, rows: Tensor, weights: Tensor,
                n_tokens: int) -> Tensor:
        """Gather: scale each row by its ``[T, k]`` gate weight, then sum
        the rows back per token into ``[n_tokens, h]`` (§4.1: the
        weighted sum runs after FC2)."""
        w_rows = weights[self.token_of_row, self.slot_of_row]
        return ops.put_rows(rows * w_rows.reshape(-1, 1),
                            self.token_of_row, n_tokens)


def build_dispatch_plan(
    routing: RoutingResult,
    n_experts: int,
    source_rank_of_token: Optional[np.ndarray] = None,
) -> DispatchPlan:
    """Build the row-index maps for a routing result.

    Args:
        routing: Router output over a flat token batch.
        n_experts: Total experts visible to this plan (global experts for
            the reference model, local experts for an EP rank).
        source_rank_of_token: Optional ``[T]`` array giving the rank each
            token arrived from.  When provided, rows are sorted by
            ``(expert, source_rank)`` — the §4.2 ordering that lets each
            GroupedGEMM tile depend on as few source ranks as possible.

    Returns:
        A :class:`DispatchPlan` with stable ordering (ties keep token
        order) so results are deterministic.
    """
    t, k = routing.expert_index.shape
    pair_token = np.repeat(np.arange(t), k)
    pair_slot = np.tile(np.arange(k), t)
    pair_expert = routing.expert_index.reshape(-1)
    pair_kept = routing.kept.reshape(-1)

    kept_pos = np.nonzero(pair_kept)[0]
    experts = pair_expert[kept_pos]
    if (experts < 0).any() or (experts >= n_experts).any():
        raise ValueError(
            f"expert index out of range [0, {n_experts}) in routing result"
        )
    if source_rank_of_token is not None:
        ranks = np.asarray(source_rank_of_token)[pair_token[kept_pos]]
        order = np.lexsort((kept_pos, ranks, experts))
    else:
        order = np.lexsort((kept_pos, experts))
    sorted_pos = kept_pos[order]

    token_of_row = pair_token[sorted_pos]
    slot_of_row = pair_slot[sorted_pos]
    expert_counts = np.bincount(experts, minlength=n_experts)

    return DispatchPlan(
        token_of_row=token_of_row,
        slot_of_row=slot_of_row,
        expert_counts=expert_counts,
    )
