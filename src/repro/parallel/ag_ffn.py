"""The AG-based FFNs: EP with AG/RS dispatch, and TP (§3.2).

Both all-gather the token shards, route the full batch on a replicated
gate, scatter the rows this rank computes, run its experts, assemble a
full-size contribution and reduce-scatter it back to sequence shards.
The critical path carries the Eq. 4 volume ``2 b s h (n-1)/n`` (AG in,
RS out) regardless of top-``k``, and the ring pattern is faster than
all-to-all in practice (Fig. 7).  They differ only in which rows and
weights a rank computes with:

* **EP AG/RS** (MegaScale's alternative for large top-k): each rank
  owns ``E/n`` whole experts and *locally scatters* — discards rows not
  routed to its experts, orders the rest by (expert, source rank), the
  §4.2 tile ordering.
* **TP** (the Megatron baseline): every expert's intermediate dimension
  is sharded — fc1/fc3 column-sharded to ``[h, h_ffn/n]``, fc2
  row-sharded to ``[h_ffn/n, h]`` — so every rank processes *all*
  routed tokens on thin GEMM shards, the GEMM-efficiency penalty
  Fig. 13 measures.

Under FP8 communication (§5) the AG and RS move per-token FP8 payloads
(:mod:`repro.parallel.dist_ops_fp8`), tiled exactly like their BF16
twins.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

import numpy as np

from ..comm.group import ProcessGroup
from ..core.operators import TilePlan, forward_tiles
from ..model.moe import (MoELayer, grouped_expert_blocks,
                         grouped_expert_forward)
from ..model.routing import RoutingResult, build_dispatch_plan
from ..runtime.dag_executor import OpBinding, _SeqCtx, per_rank
from .dist_ops import dist_all_gather, dist_reduce_scatter
from .dist_ops_fp8 import dist_all_gather_fp8, dist_reduce_scatter_fp8
from .ep_ffn import token_rows

__all__ = ["ag_ffn_bindings"]


def ag_ffn_bindings(group: ProcessGroup, moe: MoELayer, strategy: str,
                    fp8_comm: bool, tile_plan: Optional[TilePlan]
                    ) -> List[OpBinding]:
    """The AG-based FFN for ``strategy`` ``"ep"`` (AG/RS dispatch) or
    ``"tp"``.  The chain reads ``ln2`` and ends at ``ffn_rs``; the
    ``router`` anchor's per-rank values end with the aux loss.
    ``tile_plan`` chunks the AG per source rank and the RS per
    destination rank (§4.2), at either wire precision."""
    n = group.size
    if strategy == "ep":
        if moe.n_experts % n != 0:
            raise ValueError(
                f"n_experts={moe.n_experts} not divisible by EP size {n}"
            )
        ag_tag, rs_tag = "ep_ffn:dispatch_ag", "ep_ffn:combine_rs"
        ag_key, rs_key = "ag+scatter+ggemm", "ggemm+gather+rs"
    else:
        ffn_hidden = moe.experts[0].fc1.shape[1]
        if ffn_hidden % n != 0:
            raise ValueError(
                f"ffn_hidden_size={ffn_hidden} not divisible by TP size {n}"
            )
        ag_tag, rs_tag = "tp_ffn:ag", "tp_ffn:rs"
        ag_key, rs_key = "tp_ffn_ag+gemm", "tp_ffn_gemm+rs"
    local = moe.n_experts // n
    # Source/dest-rank tile swizzle (§4.2).
    ag_tiled = forward_tiles(tile_plan, ag_key) >= 2
    rs_tiled = forward_tiles(tile_plan, rs_key) >= 2

    def ag(ctx: _SeqCtx) -> List[Any]:
        flats = token_rows(ctx.env["ln2"])
        t_locals = [f.shape[0] for f in flats]
        if fp8_comm:
            fulls = dist_all_gather_fp8(group, flats, tag=ag_tag,
                                        tiled=ag_tiled, tile_label="ffn_ag")
        else:
            fulls = dist_all_gather(group, flats, axis=0, tag=ag_tag,
                                    tiled=ag_tiled, tile_label="ffn_ag")
        return [(full, t_locals) for full in fulls]

    def route(r: int, get: Callable[[str], Any]) -> Any:
        # Identical on every rank; only rank r's rows are used
        # downstream, so the shared gate accumulates exactly the
        # reference gradient.
        return moe.router(get("ffn_ag")[0])

    def scatter(r: int, get: Callable[[str], Any]) -> Any:
        full, t_locals = get("ffn_ag")
        routing = get("router")[0]
        if strategy == "tp":
            # Expert-sort all kept rows (every rank keeps everything —
            # TP shards weights, not tokens).
            plan = build_dispatch_plan(routing, moe.n_experts)
            return plan, plan.dispatch(full)
        # Keep rows routed to rank r's experts, sorted by (expert,
        # source rank): the token -> source-rank map gives the §4.2
        # tile ordering.
        source_rank = np.concatenate([
            np.full(t, i) for i, t in enumerate(t_locals)])
        masked = RoutingResult(
            expert_index=routing.expert_index,
            gate_weight=routing.gate_weight,
            kept=routing.kept
            & (routing.expert_index >= r * local)
            & (routing.expert_index < (r + 1) * local),
        )
        plan = build_dispatch_plan(masked, moe.n_experts,
                                   source_rank_of_token=source_rank)
        return plan, plan.dispatch(full)

    def experts(r: int, get: Callable[[str], Any]) -> Any:
        plan, ffn_in = get("scatter")
        if strategy == "tp":
            # Thin GEMM shards over every routed token: rank r's tape
            # slice of each expert's own weights, so an expert no token
            # reached keeps no gradient.
            return grouped_expert_blocks(moe.experts, ffn_in,
                                         plan.expert_slices(),
                                         shard=(r, n))
        # Local GroupedGEMM over this rank's whole experts.
        return grouped_expert_forward(
            moe.experts[r * local:(r + 1) * local], ffn_in, plan,
            expert_offset=r * local)

    def gather(r: int, get: Callable[[str], Any]) -> Any:
        plan = get("scatter")[0]
        return plan.combine(get("fc1"), get("router")[1],
                            sum(get("ffn_ag")[1]))

    def rs(ctx: _SeqCtx) -> List[Any]:
        if fp8_comm:
            out_flats = dist_reduce_scatter_fp8(
                group, ctx.env["gather"], tag=rs_tag,
                tiled=rs_tiled, tile_label="ffn_rs")
        else:
            out_flats = dist_reduce_scatter(
                group, ctx.env["gather"], axis=0,
                tag=rs_tag, tiled=rs_tiled, tile_label="ffn_rs")
        return [flat.reshape(*shard.shape)
                for flat, shard in zip(out_flats, ctx.env["ln2"])]

    return [
        OpBinding("ffn_ag", ("ffn_ag",), ("ln2",), ag),
        per_rank("router", ("ffn_ag",), route),
        per_rank("scatter", ("ffn_ag", "router"), scatter),
        per_rank("fc1", ("scatter",), experts,
                 covers=("fc1", "fc3", "swiglu", "fc2")),
        per_rank("gather", ("fc1", "scatter", "router", "ffn_ag"),
                 gather),
        OpBinding("ffn_rs", ("ffn_rs",), ("gather", "ln2"), rs),
    ]
