"""Expert-parallel FFN with both dispatch modes (§3.2, Fig. 6).

Each of the ``n`` ranks owns ``E/n`` whole experts (full GEMM shapes —
the GEMM-efficiency advantage over TP) plus a replica of the router gate.
Activations enter and leave sequence-sharded (``[b, s/n, h]``).

Two communication patterns are implemented:

* **A2A** (classic expert parallelism): token rows travel to their
  experts' ranks via an uneven all-to-all, and return the same way.
  Per-pass volume is Eq. 3, ``2 k/n · b s h (n-1)/n`` — shrinks with
  ``n`` but grows with top-``k``.
* **AG/RS** (MegaScale's alternative for large top-k): all-gather the
  token shards, *locally scatter* (discard rows not routed to this
  rank's experts), compute, assemble a full-size contribution, and
  reduce-scatter.  Volume equals TP's Eq. 4 regardless of ``k``, and the
  ring pattern is faster than all-to-all in practice (Fig. 7).

Received rows are sorted by ``(expert, source rank)`` — the §4.2
ordering that minimizes the number of source ranks each GroupedGEMM tile
depends on.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..comm.group import ProcessGroup
from ..model.moe import (MoELayer, grouped_expert_blocks,
                         grouped_expert_forward)
from ..model.routing import RoutingResult, build_dispatch_plan
from ..tensor import Tensor, ops

__all__ = ["EPFFNEngine", "choose_dispatch_mode"]


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

    # -- per-op handlers (graph-node granularity) --------------------------
    #
    # One method per forward-graph op; the bindings in
    # repro.core.executor_bindings.ffn_bindings sequence them.

    def op_route(self, flat: Tensor):
        """``router`` (A2A mode): replicated gate over local tokens."""
        return self.moe.router.route(flat)

    def op_scatter_a2a(self, flat: Tensor, routing: RoutingResult):
        """``scatter`` (A2A mode): sort kept (token, slot) pairs by
        destination rank, then expert, then token order."""
        n = self.group.size
        pair_token = np.repeat(np.arange(routing.n_tokens),
                               routing.top_k)
        pair_slot = np.tile(np.arange(routing.top_k), routing.n_tokens)
        pair_expert = routing.expert_index.reshape(-1)
        kept = routing.kept.reshape(-1)
        pos = np.nonzero(kept)[0]
        dest = pair_expert[pos] // self.local_experts
        order = np.lexsort((pos, pair_expert[pos], dest))
        sel = pos[order]
        send_rows = ops.take_rows(flat, pair_token[sel])
        meta = {
            "token": pair_token[sel],
            "slot": pair_slot[sel],
            "expert": pair_expert[sel],
        }
        splits = np.bincount(dest[order], minlength=n).tolist()
        return send_rows, meta, splits

    def op_experts_a2a(self, received: Tensor, metas, all_splits,
                       j: int) -> Tensor:
        """``fc1``–``fc2`` (A2A mode): sort received rows by (expert,
        source rank), GroupedGEMM, un-sort back to arrival order."""
        n = self.group.size
        expert_ids = np.concatenate([
            metas[i]["expert"][_split_slice(all_splits[i], j)]
            for i in range(n)
        ]) if received.shape[0] else np.zeros(0, dtype=np.int64)
        source_rank = np.concatenate([
            np.full(all_splits[i][j], i) for i in range(n)
        ]) if received.shape[0] else np.zeros(0, dtype=np.int64)
        order = np.lexsort((np.arange(expert_ids.shape[0]),
                            source_rank, expert_ids))
        sorted_rows = ops.take_rows(received, order)
        counts = np.bincount(expert_ids - j * self.local_experts,
                             minlength=self.local_experts)
        fc2_out = _grouped_forward_by_counts(
            self.moe.experts[j * self.local_experts:
                             (j + 1) * self.local_experts],
            sorted_rows, counts)
        inverse = np.argsort(order)
        return ops.take_rows(fc2_out, inverse)

    def op_combine_weighted(self, rows: Tensor, meta, weights: Tensor,
                            t_local: int, out_shape) -> Tensor:
        """``weighted_sum`` (A2A mode): gate-weight returned rows and
        scatter-add them back into token order (§4.1)."""
        w_rows = weights[meta["token"], meta["slot"]]
        scaled = rows * w_rows.reshape(-1, 1)
        combined = ops.put_rows(scaled, meta["token"], t_local)
        return combined.reshape(*out_shape)

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
        ffn_in = ops.take_rows(full, plan.token_of_row)
        return plan, ffn_in

    def op_experts_ag(self, ffn_in: Tensor, plan, j: int) -> Tensor:
        """``fc1``–``fc2`` (AG/RS mode): local GroupedGEMM."""
        local_lo = j * self.local_experts
        return grouped_expert_forward(
            self.moe.experts[local_lo:local_lo + self.local_experts],
            ffn_in, plan, expert_offset=local_lo)

    def op_gather_ag(self, fc2_out: Tensor, plan, weights: Tensor,
                     t_total: int) -> Tensor:
        """``gather`` (AG/RS mode): weighted full-size contribution."""
        w_rows = weights[plan.token_of_row, plan.slot_of_row]
        scaled = fc2_out * w_rows.reshape(-1, 1)
        return ops.put_rows(scaled, plan.token_of_row, t_total)

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
        (A2A) or the single replicated one (AG/RS); ``send_splits`` is
        the A2A dispatch's per-rank row counts per destination.
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
        }

    def _global_aux_loss(self, flats: List[Tensor],
                         routings: List[RoutingResult]) -> Tensor:
        """Balance loss over the global batch from per-rank routings.

        ``f`` (dispatch fractions) uses globally-summed counts; ``P``
        (mean routed probability) averages the per-rank means, which
        equals the global mean for equal shards.  The per-rank P graphs
        re-run the gate forward, so gradients flow to the replica from
        every rank — matching the reference single-rank computation.
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
        for flat in flats:
            t = flat.shape[0]
            probs = ops.softmax(router.gate(flat), axis=-1)
            p_local = probs.reshape(t, n_groups, g_size).sum(axis=-1) \
                .sum(axis=0)
            piece = (p_local * Tensor(f)).sum() * float(n_groups)
            total = piece if total is None else total + piece
            weight_total += t
        return total * (1.0 / weight_total)


def _split_slice(splits: Sequence[int], j: int) -> slice:
    start = int(np.sum(splits[:j]))
    return slice(start, start + splits[j])


def _grouped_forward_by_counts(experts, rows: Tensor,
                               counts: np.ndarray) -> Tensor:
    """GroupedGEMM over contiguous per-expert row blocks given counts."""
    ends = np.cumsum(counts).tolist()
    return grouped_expert_blocks(
        experts, rows,
        [(e, end - int(count), end)
         for e, (count, end) in enumerate(zip(counts, ends))])
