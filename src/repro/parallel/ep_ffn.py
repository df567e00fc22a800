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
from ..model.moe import MoELayer, grouped_expert_forward
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
        """``scatter`` (A2A mode): the plan's (expert, token) rows are
        already destination-rank-major — each rank holds a contiguous
        block of experts — so they are the send buffer, split by the
        expert counts summed per rank."""
        plan = build_dispatch_plan(routing, self.moe.n_experts)
        splits = plan.expert_counts.reshape(self.group.size, -1) \
            .sum(axis=1).tolist()
        return plan, plan.dispatch(flat), splits

    def op_experts_a2a(self, received: Tensor,
                       expert_counts: Sequence[np.ndarray],
                       j: int) -> Tensor:
        """``fc1``–``fc2`` (A2A mode): rank ``j``'s arrivals come
        source-rank-major, each source's rows in its plan's expert
        order (``expert_counts[i]`` is source ``i``'s plan counts).  A
        plan over the arrivals sorts them by (expert, source rank) for
        the GroupedGEMM, and the inverse of its ``token_of_row`` (one
        slot per arrival) un-sorts the outputs back to arrival order."""
        n, local = self.group.size, self.local_experts
        counts = np.stack([c[j * local:(j + 1) * local]
                           for c in expert_counts]).reshape(-1)
        expert = np.repeat(np.tile(np.arange(local), n), counts)[:, None]
        source = np.repeat(np.repeat(np.arange(n), local), counts)
        arrivals = RoutingResult(expert_index=expert,
                                 gate_weight=np.ones(expert.shape),
                                 kept=np.ones(expert.shape, dtype=bool))
        plan = build_dispatch_plan(arrivals, local,
                                   source_rank_of_token=source)
        fc2_out = grouped_expert_forward(
            self.moe.experts[j * local:(j + 1) * local],
            plan.dispatch(received), plan)
        row_of_arrival = np.empty(plan.n_rows, dtype=np.int64)
        row_of_arrival[plan.token_of_row] = np.arange(plan.n_rows)
        return ops.take_rows(fc2_out, row_of_arrival)

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
