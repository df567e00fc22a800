"""Expert-parallel FFN with both dispatch modes (§3.2, Fig. 6).

Each of the ``n`` ranks owns ``E/n`` whole experts (full GEMM shapes —
the GEMM-efficiency advantage over TP) plus a replica of the router gate.
Activations enter and leave sequence-sharded (``[b, s/n, h]``).

Two communication patterns are implemented:

* **A2A** (classic expert parallelism): token rows travel to their
  experts' ranks via an uneven all-to-all, and return the same way, on
  the wire of :func:`~repro.model.routing.a2a_wire`: a token crosses
  to each rank holding any of its experts once, with one gate weight
  per (token, expert); that rank expands the row to its experts,
  gate-scales their outputs and returns one partial row per cell (for
  top_k <= 2).  Eq. 3, ``2 k/n · b s h (n-1)/n``, counts one row per
  (token, expert) — an upper bound once a rank holds several experts;
  it shrinks with ``n`` but grows with top-``k``.
* **AG/RS** (MegaScale's alternative for large top-k): all-gather the
  token shards, *locally scatter* (discard rows not routed to this
  rank's experts), compute, assemble a full-size contribution, and
  reduce-scatter.  Volume equals TP's Eq. 4 regardless of ``k``, and the
  ring pattern is faster than all-to-all in practice (Fig. 7).

Each expert's rows are ordered by ``(source rank, token)`` — the §4.2
ordering that minimizes the number of source ranks each GroupedGEMM tile
depends on.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..comm.group import ProcessGroup
from ..model.moe import (MoELayer, grouped_expert_blocks,
                         grouped_expert_forward)
from ..model.routing import (RoutingResult, a2a_wire, build_dispatch_plan,
                             pack_wire, unpack_wire)
from ..tensor import Tensor, ops

__all__ = ["A2AExchange", "EPFFNEngine", "choose_dispatch_mode"]


def choose_dispatch_mode(top_k: int, ep_size: int) -> str:
    """Adaptive dispatch-mode choice (§3.2).

    A2A moves ``2k/n``·X elements versus AG/RS's ``2``·X, so on volume
    alone A2A wins while ``k < n``; but A2A's all-pairs pattern is less
    efficient than the ring collectives, so MegaScale switches to AG/RS
    once ``k`` approaches ``n`` (Fig. 7 puts the crossover near top-k≈6
    on an 8-GPU node).
    """
    return "a2a" if top_k < 0.75 * ep_size else "ag_rs"


class EPFFNEngine:
    """Runs a reference :class:`MoELayer`'s experts under EP."""

    def __init__(self, group: ProcessGroup, moe: MoELayer,
                 mode: str = "adaptive",
                 fp8_comm: bool = False):
        n = group.size
        if moe.n_experts % n != 0:
            raise ValueError(
                f"n_experts={moe.n_experts} not divisible by EP size {n}"
            )
        if mode not in ("a2a", "ag_rs", "adaptive"):
            raise ValueError(f"unknown dispatch mode {mode!r}")
        self.group = group
        self.moe = moe
        self.local_experts = moe.n_experts // n
        if mode == "adaptive":
            mode = choose_dispatch_mode(moe.top_k, n)
        self.mode = mode
        #: §5 FP8 communication compression (AG/RS dispatch mode only:
        #: the A2A path already carries selected rows).
        self.fp8_comm = fp8_comm
        #: Conservation telemetry from the most recent forward pass
        #: (consumed by ``repro.verify``'s token-conservation and
        #: router-mass invariants); None until the first forward.
        self.last_telemetry: Optional[dict] = None
        #: When a list, every forward's telemetry is appended to it
        #: (the comm audit recounts a window's A2A bytes from them).
        self.telemetry_log: Optional[list] = None

    # -- per-op handlers (graph-node granularity) --------------------------
    #
    # One method per forward-graph op; the bindings in
    # repro.core.executor_bindings.ffn_bindings sequence them.

    def op_route(self, flat: Tensor):
        """``router`` (A2A mode): replicated gate over local tokens.
        Returns ``(routing, gate_weights, probs)``; the balance loss is
        built from ``probs`` (:meth:`_global_aux_loss`)."""
        return self.moe.router._route(flat)

    def op_scatter_a2a(self, flats: Sequence[Tensor],
                       routings: Sequence[RoutingResult],
                       weights: Sequence[Tensor]):
        """``scatter`` (A2A mode): one exchange over every rank's
        routing, and each rank's send wire — its cell rows and gate
        weights, packed per destination."""
        x = A2AExchange(routings, self.moe.n_experts, self.local_experts,
                        flats[0].shape[1])
        return [(x, pack_wire(flat, w, *x.send[i]))
                for i, (flat, w) in enumerate(zip(flats, weights))]

    def op_experts_a2a(self, received: Tensor, x: "A2AExchange",
                       j: int) -> Tensor:
        """``fc1``–``fc2`` (A2A mode): rank ``j`` expands the cells it
        received into its (expert, source rank, token) rows, runs one
        GroupedGEMM, gate-scales the outputs and sums each cell's terms
        into its partial rows (the wire's pre-sum rule)."""
        is_row, gate_at, cell_of_pair, blocks, back_of_pair, n_back = \
            x.recv[j]
        rows = ops.take_rows(unpack_wire(received, is_row, (-1, x.hidden)),
                             cell_of_pair)
        local = self.local_experts
        fc2_out = grouped_expert_blocks(
            self.moe.experts[j * local:(j + 1) * local], rows, blocks)
        gates = unpack_wire(received, gate_at, (-1, 1))
        return ops.put_rows(fc2_out * gates, back_of_pair, n_back)

    def op_route_full(self, full: Tensor):
        """``router`` (AG/RS mode): replicated gate over all tokens."""
        return self.moe.router(full)

    def op_scatter_ag(self, full: Tensor, routing: RoutingResult,
                      j: int, source_rank: np.ndarray):
        """``scatter`` (AG/RS mode): keep rows routed to rank ``j``'s
        experts, sorted by (expert, source rank)."""
        local_lo = j * self.local_experts
        local_hi = local_lo + self.local_experts
        masked = RoutingResult(
            expert_index=routing.expert_index,
            gate_weight=routing.gate_weight,
            kept=routing.kept
            & (routing.expert_index >= local_lo)
            & (routing.expert_index < local_hi),
        )
        plan = build_dispatch_plan(masked, self.moe.n_experts,
                                   source_rank_of_token=source_rank)
        return plan, plan.dispatch(full)

    def op_experts_ag(self, ffn_in: Tensor, plan, j: int) -> Tensor:
        """``fc1``–``fc2`` (AG/RS mode): local GroupedGEMM."""
        local_lo = j * self.local_experts
        return grouped_expert_forward(
            self.moe.experts[local_lo:local_lo + self.local_experts],
            ffn_in, plan, expert_offset=local_lo)

    def record_telemetry(self, inputs: Sequence[Tensor],
                         outputs: Sequence[Tensor],
                         routings: Sequence[RoutingResult],
                         tokens_per_rank: Sequence[int],
                         send_splits: Optional[List[List[int]]] = None
                         ) -> None:
        """Snapshot what dispatch/combine moved, as plain numbers.

        The verify invariants check conservation laws against this.
        ``inputs``/``outputs`` are the per-rank ``ln2`` shards and the
        combined FFN output shards; ``routings`` is one result per rank
        (A2A) or the single replicated one (AG/RS), captured as
        ``experts`` (-1 where dropped) for the comm audit's recount;
        ``send_splits`` is the A2A dispatch's per-rank (token, expert)
        pairs per destination.
        """
        self.last_telemetry = {
            "mode": self.mode,
            "top_k": self.moe.top_k,
            "tokens_in": [int(np.prod(s.shape[:-1])) for s in inputs],
            "tokens_per_rank": np.asarray(tokens_per_rank).tolist(),
            "kept_pairs": [int(r.kept.sum()) for r in routings],
            "gate_mass": [
                np.asarray((r.gate_weight * r.kept).sum(axis=1))
                for r in routings
            ],
            "fully_kept": [np.asarray(r.kept.all(axis=1))
                           for r in routings],
            "input_shapes": [tuple(s.shape) for s in inputs],
            "output_shapes": [tuple(s.shape) for s in outputs],
            "send_splits": send_splits,
            "experts": [np.where(r.kept, r.expert_index, -1)
                        for r in routings],
            "experts_per_rank": self.local_experts,
        }
        if self.telemetry_log is not None:
            self.telemetry_log.append(self.last_telemetry)

    def _global_aux_loss(self, probs: Sequence[Tensor],
                         routings: Sequence[RoutingResult]) -> Tensor:
        """Balance loss over the global batch from per-rank routings.

        ``f`` (dispatch fractions) uses globally-summed counts; ``P``
        (mean routed probability) averages the per-rank means, which
        equals the global mean for equal shards.  ``probs`` are each
        rank's router softmax outputs, so gradients flow to the replica
        from every rank through the one gate GEMM that routed it —
        matching the reference single-rank computation.
        """
        moe = self.moe
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
