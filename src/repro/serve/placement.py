"""Disaggregated attention/expert placement for MoE serving.

DisagMoE-style placement: the world is split into an *attention* group
(ranks ``[0, A)`` — each holds a full replica of the dense weights and
hosts a slice of the request batch) and an *expert* group (ranks
``[A, A+E)`` — each holds ``n_experts / E`` contiguous experts).  Every
MoE layer crosses the bridge twice through the repo's own uneven
all-to-all: ``serve:dispatch_a2a`` carries routed token rows attention →
experts, ``serve:combine_a2a`` carries FC2 outputs back.  Both legs go
through :func:`~repro.parallel.dist_ops.dist_all_to_all_uneven`, so the
:class:`~repro.comm.CommLedger` records exact per-rank wire bytes under
``serve:``-prefixed tags — separate buckets from the training Eq. 1–4
auditor, which stays balanced.

Bitwise contract: each attention rank routes its whole row array with
one dispatch plan sorted by (expert, request, token), so every
(request, expert) block is contiguous and holds exactly the rows the
unbatched reference :class:`~repro.model.moe.MoELayer` sends that
expert.  Each expert rank runs one
:func:`~repro.model.moe.grouped_expert_blocks` call whose GEMMs are per
block, and the combine (gate-scale, then row scatter-add) is per-row
arithmetic — so a request's MoE output is bitwise independent of which
other requests share the iteration.  That independence is what lets
the continuous batcher match the unbatched sequential golden
bit-for-bit.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from ..comm import World
from ..core.config import ServeConfig
from ..model.moe import grouped_expert_blocks
from ..parallel.dist_ops import dist_all_to_all_uneven
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

    def moe_forward(self, moe, routed: List[Dict[str, Any]]
                    ) -> List[np.ndarray]:
        """One MoE layer across the bridge for the whole active batch.

        ``routed[i]`` is attention rank ``i``'s route result (a dict
        from the ``route`` binding: ``plan`` — one dispatch plan over
        the rank's rows, sorted by (expert, request, token) —
        ``weights``, ``ffn_in`` in plan order, ``row_request`` and
        ``n_requests``).  Returns each rank's combined ``[rows, hidden]``
        array.
        """
        a = len(self.attn_ranks)
        e = len(self.expert_ranks)
        pe = self.experts_per_rank
        n = self.bridge.size
        # Empty send/return buffers must not widen the rows they are
        # concatenated with across the bridge.
        dtype = moe.experts[0].fc1.dtype
        empty = np.zeros((0, moe.hidden_size), dtype=dtype)

        # --- dispatch: plan rows are sorted by expert, so expert rank
        # j's rows are one contiguous chunk of ffn_in and the rank's
        # send buffer is ffn_in itself.  blocks[i][x, r] counts rank i's
        # rows for (expert x, request r) — the (expert, request) blocks
        # tile each chunk in that order.
        blocks: List[np.ndarray] = []
        send_tensors: List[Tensor] = []
        send_splits: List[List[int]] = []
        for r in routed:
            plan = r["plan"]
            n_req = r["n_requests"]
            expert_of_row = np.repeat(np.arange(moe.n_experts),
                                      plan.expert_counts)
            request_of_row = r["row_request"][plan.token_of_row]
            counts = np.bincount(expert_of_row * n_req + request_of_row,
                                 minlength=moe.n_experts * n_req)
            blocks.append(counts.reshape(moe.n_experts, n_req))
            send_tensors.append(Tensor(r["ffn_in"]))
            send_splits.append([0] * a + plan.expert_counts.reshape(
                e, pe).sum(axis=1).tolist())
        for _ in range(e):
            send_tensors.append(Tensor(empty))
            send_splits.append([0] * n)

        received = dist_all_to_all_uneven(
            self.bridge, send_tensors, send_splits, tag=DISPATCH_TAG)

        # --- expert compute: expert rank j's receive buffer is the
        # source-rank-major concatenation of those chunks; one
        # GroupedGEMM runs every (source, local expert, request) block,
        # each block through its own GEMM — the rows the unbatched
        # reference sends that expert, so outputs are bitwise-identical
        # per request.
        back_tensors: List[Tensor] = [Tensor(empty) for _ in range(a)]
        back_splits: List[List[int]] = [[0] * n for _ in range(a)]
        for j in range(e):
            buf = received[self.expert_ranks[j]]
            row_blocks = []
            splits = [0] * n
            off = 0
            for i in range(a):
                start = off
                for local, counts in enumerate(
                        blocks[i][j * pe:(j + 1) * pe]):
                    for c in counts.tolist():
                        row_blocks.append((local, off, off + c))
                        off += c
                splits[i] = off - start
            if off != buf.shape[0]:
                raise RuntimeError(
                    f"expert rank {j}: blocks cover {off} of "
                    f"{buf.shape[0]} received rows"
                )
            back_tensors.append(grouped_expert_blocks(
                moe.experts[j * pe:(j + 1) * pe], buf, row_blocks))
            back_splits.append(splits)

        combined = dist_all_to_all_uneven(
            self.bridge, back_tensors, back_splits, tag=COMBINE_TAG)

        # --- combine: rank i gets its rows back expert-rank-major, i.e.
        # in plan order.  Then the reference combine: gate-scale after
        # FC2, scatter-add per token.
        outputs: List[np.ndarray] = []
        for i, r in enumerate(routed):
            plan = r["plan"]
            fc2_out = combined[i].data
            if fc2_out.shape[0] != plan.n_rows:
                raise RuntimeError(
                    f"attention rank {i}: expected {plan.n_rows} "
                    f"combined rows, received {fc2_out.shape[0]}"
                )
            w_rows = r["weights"][plan.token_of_row, plan.slot_of_row]
            outputs.append(scatter_add_rows(
                np.zeros((len(r["row_request"]), moe.hidden_size),
                         dtype=dtype),
                plan.token_of_row, fc2_out * w_rows.reshape(-1, 1)))
        return outputs
