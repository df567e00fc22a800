"""Disaggregated attention/expert placement for MoE serving.

DisagMoE-style placement: the world is split into an *attention* group
(ranks ``[0, A)`` — each holds a full replica of the dense weights and
hosts a slice of the request batch) and an *expert* group (ranks
``[A, A+E)`` — each holds ``n_experts / E`` contiguous experts).  Every
MoE layer crosses the bridge twice through the repo's own uneven
all-to-all (:func:`~repro.comm.collectives.all_to_all_uneven`; serving
keeps no tape), so the :class:`~repro.comm.CommLedger` records exact
per-rank wire bytes under ``serve:``-prefixed tags — separate buckets
from the training Eq. 1–4 auditor, which stays balanced.

Bytes: a token crosses to each expert rank that hosts any of its
experts once.  ``serve:dispatch_a2a`` carries one ``hidden``-wide row
per (token, expert rank) plus one gate weight per (token, expert) —
every float the expert side reads; integer routing metadata stays off
the wire.  Each expert rank gate-scales its FC2 outputs and sums a
token's terms into one partial row, so ``serve:combine_a2a`` carries
one row per (token, expert rank) back (for top_k <= 2; see below).

Bitwise contract: each attention rank routes its own rows, and one
dispatch plan per layer orders every rank's rows by (expert, request,
token), with requests numbered rank-major.  The expert rank expands the
token rows it received back into its slice of that plan, whose runs of
(expert, request) are the blocks the unbatched reference
:class:`~repro.model.moe.MoELayer` sends each expert, and one
:func:`~repro.model.moe.grouped_expert_blocks` call runs every block
through its own GEMM.  The reference combine adds a token's
gate-scaled terms into zeros in expert order, ``(0 + s_a) + s_b``.
The expert side computes exactly that for the terms of the token's
first expert rank, and the attention side adds each partial into zeros
in expert-rank order — expert order.  A term on a later expert rank
comes back as its own row, because ``a + (b + c)`` is not
``(a + b) + c``; with top_k <= 2 a later rank holds one term, so every
(token, expert rank) is one row each way.  A request's MoE output is
therefore bitwise independent of which other requests share the
iteration, which is what lets the continuous batcher match the
unbatched sequential golden bit-for-bit.
"""

from __future__ import annotations

from itertools import accumulate
from typing import List, Optional, Sequence

import numpy as np

from ..comm import World
from ..core.config import ServeConfig
from ..model.moe import grouped_expert_blocks
from ..comm.collectives import all_to_all_uneven
from ..tensor import Tensor, scatter_add_rows

__all__ = ["DisaggregatedPlacement", "DISPATCH_TAG", "COMBINE_TAG"]

DISPATCH_TAG = "serve:dispatch_a2a"
COMBINE_TAG = "serve:combine_a2a"


class DisaggregatedPlacement:
    """Rank layout + the MoE bridge collective for serving."""

    def __init__(self, n_experts: int, config: ServeConfig,
                 world: Optional[World] = None):
        a, e = config.attention_ranks, config.expert_ranks
        if n_experts % e != 0:
            raise ValueError(
                f"n_experts={n_experts} not divisible by "
                f"expert_ranks={e}"
            )
        self.config = config
        self.world = world if world is not None else World(a + e)
        if self.world.size != a + e:
            raise ValueError(
                f"world size {self.world.size} != attention_ranks + "
                f"expert_ranks = {a + e}"
            )
        #: Bridge group: all ranks; dispatch/combine a2a runs over it.
        self.bridge = self.world.full_group()
        self.attn_ranks = list(range(a))
        self.expert_ranks = list(range(a, a + e))
        self.n_experts = n_experts
        #: Contiguous experts per expert rank.
        self.experts_per_rank = n_experts // e

    def rank_of_request(self, request_id: int) -> int:
        """Attention-rank index hosting a request (static round-robin)."""
        return request_id % len(self.attn_ranks)

    def moe_forward(self, moe, plan, weights: np.ndarray, rows: np.ndarray,
                    row_bounds: Sequence[int],
                    request_of_row: np.ndarray) -> List[np.ndarray]:
        """One MoE layer across the bridge for the whole active batch.

        ``rows`` are every attention rank's ``[rows, hidden]`` inputs,
        numbered rank-major (rank ``i`` holds rows ``row_bounds[i]`` to
        ``row_bounds[i + 1]``), and ``weights`` their ``[rows, k]`` gate
        weights.  ``plan`` is the layer's one dispatch plan over them,
        sorted by (expert, request, token), where ``request_of_row``
        numbers the requests rank-major.  Returns each attention rank's
        combined ``[rows, hidden]`` array.
        """
        a = len(self.attn_ranks)
        e = len(self.expert_ranks)
        pe = self.experts_per_rank
        h = moe.hidden_size
        dtype = moe.experts[0].fc1.dtype
        t = max(row_bounds[-1], 1)

        # --- routing metadata.  Every plan row is one (token, expert)
        # pair.  A token crosses to each of its expert ranks once, as
        # the row of its *cell* (expert rank j, attention rank i,
        # token).  The pairs of the token's first expert rank share one
        # partial row back; a pair on a later rank comes back alone, so
        # the combine adds every token's terms in expert order for any
        # top_k (for top_k <= 2 every cell comes back as one row).
        expert = np.repeat(np.arange(moe.n_experts), plan.expert_counts)
        dest = expert // pe
        token = plan.token_of_row
        src = np.repeat(np.arange(a), np.diff(row_bounds))[token]
        n_pairs = plan.n_rows
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
        # [e, a] token rows, gate weights and partial rows per link.
        link = dest * a + src
        sent = np.bincount(keys // t, minlength=e * a).reshape(e, a)
        pairs = np.bincount(link, minlength=e * a).reshape(e, a)
        back = np.bincount(back_keys // t, minlength=e * a).reshape(e, a)

        # --- dispatch: attention rank i's chunk for expert rank j is
        # its token rows for j in token order, then the gate weights of
        # its pairs for j in plan order.
        by_src = np.argsort(keys // t % a, kind="stable")
        gate = weights[token, plan.slot_of_row]
        weight_at, is_row = _wire_layout(h, sent.T.reshape(-1),
                                         pairs.T.reshape(-1))
        wire = np.empty(is_row.shape[0], dtype=rows.dtype)
        wire[weight_at] = gate[np.argsort(src * e + dest, kind="stable")]
        wire[is_row] = rows[keys[by_src] % t].reshape(-1)
        chunks = (sent * h + pairs).T.tolist()
        wire_bounds = list(accumulate([0] + [sum(c) for c in chunks]))
        received = all_to_all_uneven(
            self.bridge,
            [wire[lo:hi] for lo, hi in zip(wire_bounds, wire_bounds[1:])]
            + [np.zeros(0, dtype=dtype)] * e,
            [[0] * a + c for c in chunks] + [[0] * (a + e)] * e,
            tag=DISPATCH_TAG)

        # --- expert compute: expert rank j received its (attention
        # rank, token rows then weights) chunks.  One gather expands the
        # token rows into every pair in plan order, so expert rank j's
        # pairs are one contiguous slice of runs of (expert, request) —
        # the blocks of rows the unbatched reference MoELayer sends each
        # expert — and one GroupedGEMM per expert rank runs each run
        # through its own GEMM.  The gate-scaled outputs then sum into the partial rows
        # in plan (expert) order.
        buf = np.concatenate([received[j] for j in self.expert_ranks])
        weight_at, is_row = _wire_layout(h, sent.reshape(-1),
                                         pairs.reshape(-1))
        expanded = Tensor(buf[is_row].reshape(-1, h)[sent_of_pair])
        gate = np.empty(n_pairs, dtype=buf.dtype)
        gate[np.argsort(link, kind="stable")] = buf[weight_at]
        request = request_of_row[token]
        run_start = np.flatnonzero(np.concatenate([
            [n_pairs > 0],
            (expert[1:] != expert[:-1]) | (request[1:] != request[:-1])]))
        runs = list(zip(expert[run_start].tolist(), run_start.tolist(),
                        run_start[1:].tolist() + [n_pairs]))
        rank_bounds = list(accumulate(
            [0] + plan.expert_counts.reshape(e, pe).sum(axis=1).tolist()))
        fc2_out = [
            grouped_expert_blocks(
                moe.experts[j * pe:(j + 1) * pe], expanded[lo:hi],
                [(x - j * pe, start - lo, end - lo)
                 for x, start, end in runs if lo <= start < hi]).data
            for j, (lo, hi) in enumerate(zip(rank_bounds, rank_bounds[1:]))]
        partial = scatter_add_rows(
            np.zeros((back_keys.shape[0], h), dtype=dtype),
            back_of_pair,
            np.concatenate(fc2_out) * gate.reshape(-1, 1))
        back_bounds = list(accumulate([0] + back.sum(axis=1).tolist()))
        combined = all_to_all_uneven(
            self.bridge,
            [np.zeros((0, h), dtype=dtype)] * a
            + [partial[lo:hi] for lo, hi in
               zip(back_bounds, back_bounds[1:])],
            [[0] * (a + e)] * a + [b + [0] * e for b in back.tolist()],
            tag=COMBINE_TAG)

        # --- combine: attention rank i's partial rows arrive expert-
        # rank-major, then by (token, pair); adding them into zeros
        # sums every token's terms in the reference's plan order.
        by_src = np.argsort(back_keys // t % a, kind="stable")
        out = scatter_add_rows(
            np.zeros((row_bounds[-1], h), dtype=dtype),
            back_keys[by_src] % t,
            np.concatenate(combined[:a]))
        return [out[lo:hi] for lo, hi in zip(row_bounds, row_bounds[1:])]


def _wire_layout(h: int, rows: np.ndarray, weights: np.ndarray):
    """A flat wire whose chunk ``c`` holds ``rows[c]`` ``h``-wide rows,
    then ``weights[c]`` weights: ``(weight positions, row mask)``."""
    weight_at = (np.repeat(np.cumsum(rows) * h, weights)
                 + np.arange(int(weights.sum())))
    is_row = np.ones(int(rows.sum()) * h + weight_at.shape[0], dtype=bool)
    is_row[weight_at] = False
    return weight_at, is_row
