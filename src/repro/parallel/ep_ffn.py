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

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..comm.group import ProcessGroup
from ..model.moe import (MoELayer, grouped_expert_blocks,
                         grouped_expert_forward)
from ..model.routing import RoutingResult, build_dispatch_plan
from ..tensor import Tensor, ops
from .dist_ops import (
    dist_all_gather,
    dist_all_to_all_uneven,
    dist_reduce_scatter,
)

__all__ = ["EPFFNEngine", "EPForwardResult", "choose_dispatch_mode"]


def choose_dispatch_mode(top_k: int, ep_size: int) -> str:
    """Adaptive dispatch-mode choice (§3.2).

    A2A moves ``2k/n``·X elements versus AG/RS's ``2``·X, so on volume
    alone A2A wins while ``k < n``; but A2A's all-pairs pattern is less
    efficient than the ring collectives, so MegaScale switches to AG/RS
    once ``k`` approaches ``n`` (Fig. 7 puts the crossover near top-k≈6
    on an 8-GPU node).
    """
    return "a2a" if top_k < 0.75 * ep_size else "ag_rs"


@dataclass
class EPForwardResult:
    """Per-rank outputs of an EP forward pass."""

    output_shards: List[Tensor]
    aux_loss: Tensor
    routing: List[RoutingResult]
    tokens_per_rank: np.ndarray


class EPFFNEngine:
    """Runs a reference :class:`MoELayer`'s experts under EP."""

    def __init__(self, group: ProcessGroup, moe: MoELayer,
                 mode: str = "adaptive",
                 elem_bytes: Optional[float] = None,
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
        self.elem_bytes = elem_bytes
        #: §5 FP8 communication compression (AG/RS dispatch mode only:
        #: the A2A path already carries selected rows).
        self.fp8_comm = fp8_comm
        #: Conservation telemetry from the most recent forward pass
        #: (consumed by ``repro.verify``'s token-conservation and
        #: router-mass invariants); None until the first forward.
        self.last_telemetry: Optional[dict] = None
        self._last_send_splits: Optional[List[List[int]]] = None

    # -- shared helpers ----------------------------------------------------

    def _flatten(self, shards: Sequence[Tensor]) -> List[Tensor]:
        flats = []
        for shard in shards:
            if shard.ndim == 3:
                flats.append(shard.reshape(-1, shard.shape[-1]))
            else:
                flats.append(shard)
        return flats

    # -- per-op handlers (graph-node granularity) --------------------------
    #
    # One method per forward-graph op, shared verbatim by the legacy
    # call chains below and the DAG executor's bindings, so both paths
    # build the identical autograd tape.

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

    def forward(self, hidden_shards: List[Tensor]) -> EPForwardResult:
        """Map ``ln2_out`` shards to combined MoE-output shards."""
        self.group.check_shards(hidden_shards)
        self._last_send_splits = None
        if self.mode == "a2a":
            result = self._forward_a2a(hidden_shards)
        else:
            result = self._forward_ag_rs(hidden_shards)
        self.record_telemetry(hidden_shards, result)
        return result

    def record_telemetry(self, hidden_shards: Sequence[Tensor],
                         result: EPForwardResult) -> None:
        """Snapshot what dispatch/combine moved, as plain numbers.

        The verify invariants check conservation laws against this; the
        DAG executor calls it too so both backends expose the same
        telemetry surface.
        """
        self.last_telemetry = {
            "mode": self.mode,
            "top_k": self.moe.top_k,
            "tokens_in": [int(np.prod(s.shape[:-1]))
                          for s in hidden_shards],
            "tokens_per_rank": np.asarray(
                result.tokens_per_rank).tolist(),
            "kept_pairs": [int(r.kept.sum()) for r in result.routing],
            "gate_mass": [
                np.asarray((r.gate_weight * r.kept).sum(axis=1))
                for r in result.routing
            ],
            "fully_kept": [np.asarray(r.kept.all(axis=1))
                           for r in result.routing],
            "input_shapes": [tuple(s.shape) for s in hidden_shards],
            "output_shapes": [tuple(s.shape)
                              for s in result.output_shards],
            "send_splits": self._last_send_splits,
        }

    # -- A2A dispatch --------------------------------------------------------

    def _forward_a2a(self, hidden_shards: List[Tensor]) -> EPForwardResult:
        group = self.group
        n = group.size
        flats = self._flatten(hidden_shards)

        # 1. Local routing on each rank (replicated gate => the same
        #    decisions the reference model makes for those tokens).
        routings: List[RoutingResult] = []
        weight_tensors: List[Tensor] = []
        for flat in flats:
            routing, weights = self.op_route(flat)
            routings.append(routing)
            weight_tensors.append(weights)
        aux = self._global_aux_loss(flats, routings)

        # 2. Sort each rank's kept (token, slot) pairs by destination
        #    rank, then expert, then token order.
        send_rows: List[Tensor] = []
        send_meta = []
        send_splits = []
        for flat, routing in zip(flats, routings):
            rows, meta, splits = self.op_scatter_a2a(flat, routing)
            send_rows.append(rows)
            send_meta.append(meta)
            send_splits.append(splits)

        # 3. Dispatch all-to-all.
        self._last_send_splits = [list(s) for s in send_splits]
        received = dist_all_to_all_uneven(
            group, send_rows, send_splits, elem_bytes=self.elem_bytes,
            tag="ep_ffn:dispatch_a2a",
        )

        # 4. On each expert rank: sort received rows by (expert, source
        #    rank) and run the local experts' GroupedGEMM.
        returned = [
            self.op_experts_a2a(received[j], send_meta, send_splits, j)
            for j in range(n)
        ]

        # 5. Combine all-to-all: transpose the split matrix.
        back_splits = [[send_splits[i][j] for i in range(n)]
                       for j in range(n)]
        combined_rows = dist_all_to_all_uneven(
            group, returned, back_splits, elem_bytes=self.elem_bytes,
            tag="ep_ffn:combine_a2a",
        )

        # 6. Weighted sum on the source rank (gate weight applied after
        #    FC2, §4.1).
        outputs = [
            self.op_combine_weighted(
                rows, send_meta[rank], weight_tensors[rank],
                flats[rank].shape[0], hidden_shards[rank].shape)
            for rank, rows in enumerate(combined_rows)
        ]

        return EPForwardResult(
            output_shards=outputs,
            aux_loss=aux,
            routing=routings,
            tokens_per_rank=np.array(
                [r.kept.sum() for r in routings]),
        )

    # -- AG/RS dispatch ------------------------------------------------------

    def _forward_ag_rs(self, hidden_shards: List[Tensor]) -> EPForwardResult:
        group = self.group
        n = group.size
        flats = self._flatten(hidden_shards)
        t_locals = [f.shape[0] for f in flats]
        t_total = sum(t_locals)

        # 1. All-gather the token shards: every rank sees all T tokens.
        if self.fp8_comm:
            from .dist_ops_fp8 import dist_all_gather_fp8
            fulls = dist_all_gather_fp8(group, flats,
                                        tag="ep_ffn:dispatch_ag")
        else:
            fulls = dist_all_gather(group, flats, axis=0,
                                    elem_bytes=self.elem_bytes,
                                    tag="ep_ffn:dispatch_ag")

        # Token -> source-rank map for the §4.2 tile ordering.
        source_rank = np.concatenate([
            np.full(t, i) for i, t in enumerate(t_locals)])

        contributions: List[Tensor] = []
        routings: List[RoutingResult] = []
        aux: Optional[Tensor] = None
        for j in range(n):
            # 2. Route the full batch locally (identical on every rank);
            #    only rank j's expert rows are used downstream, so the
            #    shared gate accumulates exactly the reference gradient.
            routing, weights, aux_j = self.op_route_full(fulls[j])
            routings.append(routing)
            if j == 0:
                aux = aux_j  # identical across ranks; count once

            # 3. Local scatter: keep only rows routed to local experts,
            #    sorted by (expert, source rank).
            plan, ffn_in = self.op_scatter_ag(fulls[j], routing, j,
                                              source_rank)

            # 4. Local experts' GroupedGEMM.
            fc2_out = self.op_experts_ag(ffn_in, plan, j)

            # 5. Gather: weighted rows assembled into a full-size tensor.
            contributions.append(
                self.op_gather_ag(fc2_out, plan, weights, t_total))

        # 6. Reduce-scatter the contributions back to sequence shards.
        if self.fp8_comm:
            from .dist_ops_fp8 import dist_reduce_scatter_fp8
            out_flats = dist_reduce_scatter_fp8(
                group, contributions, tag="ep_ffn:combine_rs")
        else:
            out_flats = dist_reduce_scatter(
                group, contributions, axis=0,
                elem_bytes=self.elem_bytes, tag="ep_ffn:combine_rs",
            )
        outputs = [flat.reshape(*shard.shape)
                   for flat, shard in zip(out_flats, hidden_shards)]
        return EPForwardResult(
            output_shards=outputs,
            aux_loss=aux,
            routing=routings[:1],
            tokens_per_rank=np.asarray(t_locals),
        )

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
