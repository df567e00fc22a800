"""Expert-parallel FFN with A2A dispatch (§3.2, Fig. 6).

Each of the ``n`` ranks owns ``E/n`` whole experts (full GEMM shapes —
the GEMM-efficiency advantage over TP) plus a replica of the router gate.
Activations enter and leave sequence-sharded (``[b, s/n, h]``).

Token rows travel to their experts' ranks via an uneven all-to-all, and
return the same way, on the wire of :func:`~repro.model.routing.a2a_wire`:
a token crosses to each rank holding any of its experts once, with one
gate weight per (token, expert); that rank expands the row to its
experts, gate-scales their outputs and returns one partial row per cell
(for top_k <= 2).  Eq. 3, ``2 k/n · b s h (n-1)/n``, counts one row per
(token, expert) — an upper bound once a rank holds several experts; it
shrinks with ``n`` but grows with top-``k``.  The AG/RS dispatch mode,
MegaScale's alternative for large top-k, shares the AG-based FFN of
:mod:`repro.parallel.ag_ffn` with TP.

Each expert's rows are ordered by ``(source rank, token)`` — the §4.2
ordering that minimizes the number of source ranks each GroupedGEMM tile
depends on.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from ..comm.group import ProcessGroup
from ..core.operators import TilePlan, forward_tiles
from ..model.moe import MoELayer, grouped_expert_blocks
from ..model.routing import (RoutingResult, a2a_wire, build_dispatch_plan,
                             pack_wire, unpack_wire)
from ..runtime.dag_executor import OpBinding, _SeqCtx, per_rank
from ..tensor import Tensor, ops
from .dist_ops import dist_all_to_all_uneven

__all__ = ["A2AExchange", "ep_a2a_bindings", "global_aux_loss"]


def token_rows(shards: Sequence[Any]) -> List[Any]:
    """``[b, s/n, h]`` shards flattened to ``[tokens, h]`` rows."""
    return [s.reshape(-1, s.shape[-1]) if s.ndim == 3 else s
            for s in shards]


def ep_a2a_bindings(group: ProcessGroup, moe: MoELayer,
                    tile_plan: Optional[TilePlan]) -> List[OpBinding]:
    """EP FFN with A2A dispatch (§3.2 Eq. 3): route local tokens, send
    each token to each expert rank it needs once, with its gate
    weights, and return one gate-scaled partial row per cell.  The
    chain reads ``ln2`` and ends at ``weighted_sum``; the ``router``
    anchor's per-rank values end with the aux loss and ``scatter``'s
    start with the :class:`A2AExchange`."""
    n = group.size
    if moe.n_experts % n != 0:
        raise ValueError(
            f"n_experts={moe.n_experts} not divisible by EP size {n}"
        )
    local = moe.n_experts // n
    # Ragged dispatch tiles per source rank (§4.2 swizzled order); the
    # return A2A ("ggemm+a2a") has no downstream compute to overlap
    # with and stays whole.
    dispatch_tiled = forward_tiles(tile_plan, "a2a+ggemm") >= 2

    def router(ctx: _SeqCtx) -> List[Any]:
        # Replicated gate over local tokens => the same decisions the
        # reference model makes for those tokens.
        flats = token_rows(ctx.env["ln2"])
        routings, weights, probs = zip(*(moe.router._route(flat)
                                         for flat in flats))
        aux = global_aux_loss(moe, probs, routings)
        return [(flat, routing, w, aux)
                for flat, routing, w in zip(flats, routings, weights)]

    def scatter(ctx: _SeqCtx) -> List[Any]:
        # One exchange over every rank's routing, and each rank's send
        # wire — its cell rows and gate weights, packed per destination.
        flats, routings, weights, _ = zip(*ctx.env["router"])
        x = A2AExchange(routings, moe.n_experts, local, flats[0].shape[1])
        return [(x, pack_wire(flat, w, *x.send[i]))
                for i, (flat, w) in enumerate(zip(flats, weights))]

    def dispatch(ctx: _SeqCtx) -> List[Any]:
        x = ctx.env["scatter"][0][0]
        return dist_all_to_all_uneven(
            group, [v[1] for v in ctx.env["scatter"]], x.send_splits,
            tag="ep_ffn:dispatch_a2a", tiled=dispatch_tiled,
            tile_label="dispatch_a2a")

    def experts(ctx: _SeqCtx) -> List[Any]:
        # Rank j expands the cells it received into its (expert, source
        # rank, token) rows, runs one GroupedGEMM, gate-scales the
        # outputs and sums each cell's terms into its partial rows (the
        # wire's pre-sum rule).
        x = ctx.env["scatter"][0][0]
        out = []
        for j, received in enumerate(ctx.env["dispatch_a2a"]):
            is_row, gate_at, cell_of_pair, blocks, back_of_pair, n_back = \
                x.recv[j]
            rows = ops.take_rows(
                unpack_wire(received, is_row, (-1, x.hidden)), cell_of_pair)
            fc2_out = grouped_expert_blocks(
                moe.experts[j * local:(j + 1) * local], rows, blocks)
            gates = unpack_wire(received, gate_at, (-1, 1))
            out.append(ops.put_rows(fc2_out * gates, back_of_pair, n_back))
        return out

    def combine(ctx: _SeqCtx) -> List[Any]:
        x = ctx.env["scatter"][0][0]
        return dist_all_to_all_uneven(
            group, ctx.env["fc1"], x.back_splits, tag="ep_ffn:combine_a2a")

    def weighted(r: int, get: Callable[[str], Any]) -> Any:
        # The expert ranks applied the gate weights after FC2 (§4.1);
        # the source adds its partial rows back per token.
        return get("scatter")[0].combine(r, get("combine_a2a")) \
            .reshape(*get("ln2").shape)

    return [
        OpBinding("router", ("router",), ("ln2",), router),
        OpBinding("scatter", ("scatter",), ("router",), scatter),
        OpBinding("dispatch_a2a", ("dispatch_a2a",), ("scatter",),
                  dispatch),
        OpBinding("fc1", ("fc1", "fc3", "swiglu", "fc2"),
                  ("dispatch_a2a", "scatter"), experts),
        OpBinding("combine_a2a", ("combine_a2a",), ("fc1", "scatter"),
                  combine),
        per_rank("weighted_sum", ("combine_a2a", "scatter", "ln2"),
                 weighted),
    ]


def global_aux_loss(moe: MoELayer, probs: Sequence[Tensor],
                    routings: Sequence[RoutingResult]) -> Tensor:
    """Balance loss over the global batch from per-rank routings.

    ``f`` (dispatch fractions) uses globally-summed counts; ``P``
    (mean routed probability) averages the per-rank means, which
    equals the global mean for equal shards.  ``probs`` are each
    rank's router softmax outputs, so gradients flow to the replica
    from every rank through the one gate GEMM that routed it —
    matching the reference single-rank computation.
    """
    router = moe.router
    g_size = router.experts_per_group
    n_groups = router.n_experts // g_size

    counts = np.zeros(router.n_experts, dtype=np.float64)
    for routing in routings:
        counts += np.bincount(routing.expert_index[routing.kept]
                              .reshape(-1),
                              minlength=router.n_experts)
    group_counts = counts.reshape(n_groups, g_size).sum(axis=1)
    f = group_counts / max(group_counts.sum(), 1.0)

    total: Optional[Tensor] = None
    weight_total = 0
    for rank_probs in probs:
        t = rank_probs.shape[0]
        p_local = rank_probs.reshape(t, n_groups, g_size) \
            .sum(axis=-1).sum(axis=0)
        piece = (p_local * Tensor(f)).sum() * float(n_groups)
        total = piece if total is None else total + piece
        weight_total += t
    return total * (1.0 / weight_total)


class A2AExchange:
    """Per-rank index maps of one EP all-to-all crossing.

    One dispatch plan over every rank's tokens (numbered rank-major)
    orders the pairs by (expert, source rank, token), and
    :func:`~repro.model.routing.a2a_wire` turns it into cells.
    ``send[i]`` holds source ``i``'s :func:`~repro.model.routing.pack_wire`
    maps; ``recv[j]`` destination ``j``'s row mask, its pairs' gate
    positions (plan order), cells, expert blocks and partial rows, and
    its partial-row count; ``back_token[i]`` the token of each partial
    row source ``i`` receives.  ``send_splits`` / ``back_splits`` count
    wire elements per (source, dest) and partial rows per (dest,
    source); ``pair_splits`` (token, expert) pairs per (source, dest).
    """

    def __init__(self, routings: Sequence[RoutingResult], n_experts: int,
                 local: int, hidden: int):
        n, k = len(routings), routings[0].top_k
        self.tokens = [r.n_tokens for r in routings]
        first = np.cumsum([0] + self.tokens)
        plan = build_dispatch_plan(RoutingResult(*(
            np.concatenate([getattr(r, f) for r in routings])
            for f in ("expert_index", "gate_weight", "kept"))), n_experts)
        token = plan.token_of_row
        dest = np.repeat(np.arange(n_experts), plan.expert_counts) // local
        wire = a2a_wire(dest, np.repeat(np.arange(n), self.tokens)[token],
                        token, n, n, max(int(first[-1]), 1))
        h = self.hidden = hidden
        chunk = wire.sent * h + wire.pairs
        self.send_splits = chunk.T.tolist()
        self.back_splits = wire.back.tolist()
        self.pair_splits = wire.pairs.T.tolist()
        # Each token's index on its own rank.
        on_rank = np.arange(first[-1]) - np.repeat(first[:-1], self.tokens)

        def per_rank(values, counts):
            """``values`` cut into ``n`` runs of ``counts``."""
            ends = np.cumsum(counts).tolist()
            return [values[lo:hi] for lo, hi in zip([0] + ends, ends)]

        # Source i's wire: its cells per destination in token order,
        # then its pairs' gate weights in plan order.
        gates = wire.send_gates()
        self.send = list(zip(
            per_rank(on_rank[wire.send_tokens()], wire.sent.sum(axis=0)),
            per_rank(on_rank[token[gates]] * k + plan.slot_of_row[gates],
                     wire.pairs.sum(axis=0)),
            per_rank(wire.send_layout(h)[1], chunk.sum(axis=0))))
        self.back_token = per_rank(on_rank[wire.back_tokens()],
                                   wire.back.sum(axis=0))

        # Destination j's pairs are one run of plan rows; its wire holds
        # each source's chunk in rank order.  Positions are made
        # relative to j's wire, cells and partial rows.
        weight_at, is_row = wire.receive_layout(h)
        at_dest = plan.expert_counts.reshape(n, local).sum(axis=1)
        rb, cb, bb = (np.cumsum(c) - c for c in (
            chunk.sum(axis=1), wire.sent.sum(axis=1), wire.back.sum(axis=1)))
        gate_at = np.empty(plan.n_rows, dtype=np.int64)
        gate_at[wire.receive_gates()] = weight_at - np.repeat(
            rb, wire.pairs.sum(axis=1))
        blocks = [[] for _ in range(n)]
        starts = np.cumsum(at_dest) - at_dest
        for e, lo, hi in plan.expert_slices():
            j = e // local
            blocks[j].append((e % local, lo - starts[j], hi - starts[j]))
        self.recv = list(zip(
            per_rank(is_row, chunk.sum(axis=1)),
            per_rank(gate_at, at_dest),
            per_rank(wire.sent_of_pair - cb[dest], at_dest),
            blocks,
            per_rank(wire.back_of_pair - bb[dest], at_dest),
            wire.back.sum(axis=1).tolist()))

    def combine(self, i: int, partial: Tensor) -> Tensor:
        """Source ``i``'s ``[tokens, h]`` output: its partial rows added
        into zeros in arrival (rank, hence expert) order."""
        return ops.put_rows(partial, self.back_token[i], self.tokens[i])
