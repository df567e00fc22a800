"""Tensor-parallel FFN — the Megatron baseline for experts (§3.2).

TP shards *every* expert's intermediate dimension across the ``n`` ranks:
fc1/fc3 are column-sharded to ``[h, h_ffn/n]`` and fc2 row-sharded to
``[h_ffn/n, h]``.  Every rank therefore processes *all* routed tokens on
thin GEMM shards — the GEMM-efficiency penalty the paper measures in
Fig. 13 — and the critical path carries the full Eq. 4 volume
``2 b s h (n-1)/n`` (all-gather in, reduce-scatter out), independent of
top-k and of ``n``.
"""

from __future__ import annotations

from ..comm.group import ProcessGroup
from ..model.moe import MoELayer, grouped_expert_blocks
from ..model.routing import build_dispatch_plan
from ..tensor import Tensor

__all__ = ["TPFFNEngine"]


class TPFFNEngine:
    """Runs a reference :class:`MoELayer` with intermediate-dim sharding."""

    def __init__(self, group: ProcessGroup, moe: MoELayer,
                 fp8_comm: bool = False):
        n = group.size
        ffn_hidden = moe.experts[0].fc1.shape[1]
        if ffn_hidden % n != 0:
            raise ValueError(
                f"ffn_hidden_size={ffn_hidden} not divisible by TP size {n}"
            )
        self.group = group
        self.moe = moe
        #: §5 FP8 communication compression: per-token FP8 payloads on
        #: the forward AG/RS path, grouped per-channel FP8 gradients.
        self.fp8_comm = fp8_comm

    # -- per-op handlers (graph-node granularity) --------------------------
    #
    # One method per forward-graph op; the bindings in
    # repro.core.executor_bindings.ffn_bindings sequence them.

    def op_route_full(self, full: Tensor):
        """``router``: replicated gate over all gathered tokens."""
        return self.moe.router(full)

    def op_scatter(self, full: Tensor, routing):
        """``scatter``: expert-sort all kept rows (every rank keeps
        everything — TP shards weights, not tokens)."""
        plan = build_dispatch_plan(routing, self.moe.n_experts)
        return plan, plan.dispatch(full)

    def op_experts(self, ffn_in: Tensor, plan, r: int) -> Tensor:
        """``fc1``–``fc2``: thin GEMM shards over every routed token —
        rank ``r``'s tape slice of each expert's own weights, so an
        expert no token reached keeps no gradient."""
        return grouped_expert_blocks(self.moe.experts, ffn_in,
                                     plan.expert_slices(),
                                     shard=(r, self.group.size))
