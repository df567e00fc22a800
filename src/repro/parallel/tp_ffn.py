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

from typing import List

import numpy as np

from ..comm.group import ProcessGroup
from ..model.moe import MoELayer
from ..model.routing import build_dispatch_plan
from ..tensor import Tensor, ops

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
        self._shard_weights()

    def _shard_weights(self) -> None:
        """Column-shard fc1/fc3 and row-shard fc2 of every expert."""
        n = self.group.size
        self.shards: List[List[dict]] = [[] for _ in range(n)]
        for expert in self.moe.experts:
            fh = expert.fc1.shape[1]
            width = fh // n
            for r in range(n):
                cols = slice(r * width, (r + 1) * width)
                self.shards[r].append({
                    "fc1": Tensor(expert.fc1.data[:, cols].copy(),
                                  requires_grad=True),
                    "fc3": Tensor(expert.fc3.data[:, cols].copy(),
                                  requires_grad=True),
                    "fc2": Tensor(expert.fc2.data[cols, :].copy(),
                                  requires_grad=True),
                })

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
        """``fc1``–``fc2``: thin GEMM shards over every routed token."""
        return ops.grouped_swiglu(
            ffn_in,
            [(s["fc1"], s["fc3"], s["fc2"]) for s in self.shards[r]],
            plan.expert_slices())

    def sync_grads_to_reference(self) -> None:
        """Accumulate shard gradients onto the reference experts."""
        grads = self.reference_weight_grads()
        for expert, grad in zip(self.moe.experts, grads):
            for key in ("fc1", "fc3", "fc2"):
                param = getattr(expert, key)
                param.grad = (grad[key] if param.grad is None
                              else param.grad + grad[key])

    def refresh_shards(self) -> None:
        """Re-slice the (updated) reference expert weights."""
        n = self.group.size
        for e, expert in enumerate(self.moe.experts):
            fh = expert.fc1.shape[1]
            width = fh // n
            for r in range(n):
                cols = slice(r * width, (r + 1) * width)
                shard = self.shards[r][e]
                shard["fc1"].data = expert.fc1.data[:, cols].copy()
                shard["fc3"].data = expert.fc3.data[:, cols].copy()
                shard["fc2"].data = expert.fc2.data[cols, :].copy()
                for key in ("fc1", "fc3", "fc2"):
                    shard[key].grad = None

    def reference_weight_grads(self) -> List[dict]:
        """Assemble full fc1/fc3/fc2 grads per expert from shard grads."""
        n = self.group.size
        out = []
        for e, expert in enumerate(self.moe.experts):
            fh = expert.fc1.shape[1]
            width = fh // n
            fc1 = np.zeros_like(expert.fc1.data)
            fc3 = np.zeros_like(expert.fc3.data)
            fc2 = np.zeros_like(expert.fc2.data)
            for r in range(n):
                cols = slice(r * width, (r + 1) * width)
                shard = self.shards[r][e]
                if shard["fc1"].grad is not None:
                    fc1[:, cols] = shard["fc1"].grad
                if shard["fc3"].grad is not None:
                    fc3[:, cols] = shard["fc3"].grad
                if shard["fc2"].grad is not None:
                    fc2[cols, :] = shard["fc2"].grad
            out.append({"fc1": fc1, "fc3": fc3, "fc2": fc2})
        return out
