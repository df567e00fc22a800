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

:func:`a2a_wire` owns the all-to-all wire of training's EP dispatch and
of the serving bridge: a token crosses to each rank holding any of its
experts once, as the row of its *cell* (destination rank, source rank,
token), with one gate weight per (token, expert).  Only the token's
first destination rank sums its gate-scaled terms into one partial row;
a term on a later rank returns alone, so the source's combine is the
reference ``(0 + s_a) + s_b`` in expert order bit for bit
(docs/INTERNALS.md §19).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..tensor import Tensor, ops, scatter_add_rows

__all__ = ["RoutingResult", "DispatchPlan", "build_dispatch_plan",
           "A2AWire", "a2a_wire", "pack_wire", "unpack_wire"]


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


@dataclass
class A2AWire:
    """The cells of one all-to-all crossing (see the module docstring).

    Pair ``p`` — row ``p`` of one dispatch plan over every source's
    tokens — goes from source ``src[p]``'s token ``token[p]`` (tokens
    numbered ``[0, t)`` over all ``a`` sources) to destination
    ``dest[p]`` of ``e``.  A cell key is ``(dest * a + src) * t +
    token``: sorted keys run by (dest, src) link, then token.
    """

    t: int
    a: int
    e: int
    src: np.ndarray
    dest: np.ndarray
    #: Sorted unique cell keys: one token row each on the dispatch leg.
    keys: np.ndarray
    #: Sorted keys of the combine leg's partial rows (a cell repeats
    #: once per extra term on a rank after the token's first).
    back_keys: np.ndarray
    #: For each pair: its index in ``keys`` / ``back_keys``, and its
    #: ``dest * a + src`` link.
    sent_of_pair: np.ndarray
    back_of_pair: np.ndarray
    link: np.ndarray
    #: ``[e, a]`` token rows, gate weights and partial rows per link.
    sent: np.ndarray
    pairs: np.ndarray
    back: np.ndarray

    def send_layout(self, h: int):
        """``(weight positions, row mask)`` of the dispatch wire,
        source-major: link (j, i)'s chunk holds its ``h``-wide token
        rows, then its gate weights."""
        return _wire_layout(h, self.sent.T.reshape(-1),
                            self.pairs.T.reshape(-1))

    def receive_layout(self, h: int):
        """The same chunks as the destinations hold them, in
        destination-major order."""
        return _wire_layout(h, self.sent.reshape(-1),
                            self.pairs.reshape(-1))

    def send_tokens(self) -> np.ndarray:
        """The token of each sent row, source-major, each link's in
        token order."""
        keys, t = self.keys, self.t
        return keys[np.argsort(keys // t % self.a, kind="stable")] % t

    def send_gates(self) -> np.ndarray:
        """The pair of each sent gate weight, source-major, each
        link's in plan order."""
        return np.argsort(self.src * self.e + self.dest, kind="stable")

    def receive_gates(self) -> np.ndarray:
        """The pair of each received gate weight, destination-major."""
        return np.argsort(self.link, kind="stable")

    def back_tokens(self) -> np.ndarray:
        """The token of each partial row, source-major, each source's
        in arrival (destination) order."""
        keys, t = self.back_keys, self.t
        return keys[np.argsort(keys // t % self.a, kind="stable")] % t


def a2a_wire(dest: np.ndarray, src: np.ndarray, token: np.ndarray,
             a: int, e: int, t: int) -> A2AWire:
    """The cells of a crossing (:class:`A2AWire`'s pairs, in plan
    order)."""
    n_pairs = token.shape[0]
    cell = (dest * a + src) * t + token
    first = np.full(t, e)
    np.minimum.at(first, token, dest)
    # One stable sort groups the pairs by cell, in plan (expert)
    # order inside each; ``cell // t`` is the (j, i) link.
    by_cell = np.argsort(cell, kind="stable")
    sorted_cell = cell[by_cell]
    new_row = np.empty(n_pairs, dtype=bool)
    new_row[:1] = True
    np.not_equal(sorted_cell[1:], sorted_cell[:-1], out=new_row[1:])
    new_back = new_row | (dest > first[token])[by_cell]
    keys = sorted_cell[new_row]
    back_keys = sorted_cell[new_back]
    sent_of_pair = np.empty(n_pairs, dtype=np.int64)
    sent_of_pair[by_cell] = np.cumsum(new_row) - 1
    back_of_pair = np.empty(n_pairs, dtype=np.int64)
    back_of_pair[by_cell] = np.cumsum(new_back) - 1
    link = dest * a + src
    sent = np.bincount(keys // t, minlength=e * a).reshape(e, a)
    pairs = np.bincount(link, minlength=e * a).reshape(e, a)
    back = np.bincount(back_keys // t, minlength=e * a).reshape(e, a)
    return A2AWire(t, a, e, src, dest, keys, back_keys, sent_of_pair,
                   back_of_pair, link, sent, pairs, back)


def pack_wire(x: Tensor, weights: Tensor, cell_token: np.ndarray,
              gate_slot: np.ndarray, is_row: np.ndarray) -> Tensor:
    """One source's dispatch wire on the tape: the rows of ``x`` at
    ``cell_token`` (a take of the cells) where ``is_row``, and the
    flat ``[T * k]`` gate ``weights`` at ``gate_slot`` in the other
    positions, in order.  Backward sums each token's cell gradients in
    wire (destination-rank) order and hands each gate its own
    gradient."""
    h = x.shape[1]
    out = np.empty(is_row.shape[0], dtype=x.dtype)
    out[is_row] = x.data[cell_token].reshape(-1)
    out[~is_row] = weights.data.reshape(-1)[gate_slot]
    x_shape, w_shape, w_dtype = x.shape, weights.shape, weights.dtype

    def backward(g):
        gx = scatter_add_rows(np.zeros(x_shape, dtype=g.dtype), cell_token,
                              g[is_row].reshape(-1, h))
        gw = np.zeros(int(np.prod(w_shape)), dtype=w_dtype)
        gw[gate_slot] = g[~is_row]
        return gx, gw.reshape(w_shape)

    return Tensor.from_op(out, [x, weights], backward, "pack_wire")


def unpack_wire(wire: Tensor, at: np.ndarray, shape) -> Tensor:
    """The elements of a received wire at ``at`` (a row mask or gate
    positions; each element is taken once), as ``shape``."""
    size = wire.shape[0]

    def backward(g):
        full = np.zeros(size, dtype=g.dtype)
        full[at] = g.reshape(-1)
        return (full,)

    return Tensor.from_op(wire.data[at].reshape(shape), [wire], backward,
                          "unpack_wire")


def _wire_layout(h: int, rows: np.ndarray, weights: np.ndarray):
    """A flat wire whose chunk ``c`` holds ``rows[c]`` ``h``-wide rows,
    then ``weights[c]`` weights: ``(weight positions, row mask)``."""
    weight_at = (np.repeat(np.cumsum(rows) * h, weights)
                 + np.arange(int(weights.sum())))
    is_row = np.ones(int(rows.sum()) * h + weight_at.shape[0], dtype=bool)
    is_row[weight_at] = False
    return weight_at, is_row
