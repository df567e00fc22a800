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

Bitwise contract: every GEMM is per-(request, expert) on the same
contiguous rows the reference :class:`~repro.model.moe.MoELayer` would
use, and the combine applies the identical row scatter-add — so a
request's MoE output is bitwise independent of which other requests
share the iteration.  That independence is what lets the continuous
batcher match the unbatched sequential golden bit-for-bit.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from ..comm import World
from ..core.config import ServeConfig
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

    def moe_forward(self, moe, routed: List[List[Dict[str, Any]]]
                    ) -> List[List[np.ndarray]]:
        """One MoE layer across the bridge for the whole active batch.

        ``routed[i]`` holds attention rank ``i``'s per-request route
        results (dicts from the ``route`` binding: ``t``, ``plan``,
        ``weights``, ``ffn_in``).  Returns the per-request combined
        ``[t, hidden]`` arrays in the same nesting.
        """
        a = len(self.attn_ranks)
        e = len(self.expert_ranks)
        pe = self.experts_per_rank
        n = self.bridge.size
        hidden = moe.hidden_size
        # Empty send/return buffers must not widen the rows they are
        # concatenated with across the bridge.
        dtype = moe.experts[0].fc1.dtype

        # --- dispatch: reorder each attention rank's routed rows by
        # destination expert rank.  Plan rows are already sorted by
        # expert, so a request's rows for expert rank j are one
        # contiguous slice; the send tensor is (dest-major,
        # request-minor) concatenation.
        send_tensors: List[Tensor] = []
        send_splits: List[List[int]] = []
        # seg_meta[j][src] = [(item, counts per local expert), ...] in
        # the request order rank ``src`` sent them — exactly the row
        # order expert rank j receives within src's chunk.
        seg_meta: List[List[List[Any]]] = [
            [[] for _ in range(a)] for _ in range(e)
        ]
        for i in range(a):
            pieces: List[List[np.ndarray]] = [[] for _ in range(e)]
            for item in routed[i]:
                plan = item["plan"]
                bounds = np.concatenate(
                    [[0], np.cumsum(plan.expert_counts)])
                for j in range(e):
                    lo = int(bounds[j * pe])
                    hi = int(bounds[(j + 1) * pe])
                    pieces[j].append(item["ffn_in"][lo:hi])
                    counts = plan.expert_counts[j * pe:(j + 1) * pe]
                    seg_meta[j][i].append((item, counts))
            flat = [seg for j in range(e) for seg in pieces[j]]
            if flat:
                send = np.concatenate(flat, axis=0)
            else:
                send = np.zeros((0, hidden), dtype=dtype)
            splits = [0] * n
            for j in range(e):
                splits[self.expert_ranks[j]] = int(
                    sum(seg.shape[0] for seg in pieces[j]))
            send_tensors.append(Tensor(np.ascontiguousarray(send)))
            send_splits.append(splits)
        for _ in range(e):
            send_tensors.append(Tensor(np.zeros((0, hidden), dtype=dtype)))
            send_splits.append([0] * n)

        received = dist_all_to_all_uneven(
            self.bridge, send_tensors, send_splits, tag=DISPATCH_TAG)

        # --- expert compute: walk each expert rank's receive buffer in
        # arrival order (source-rank-major, request-minor, local-expert-
        # minor) and run one GEMM per (request, expert) segment — the
        # same contiguous operand the reference grouped_expert_forward
        # uses, so outputs are bitwise-identical per request.
        back_tensors: List[Tensor] = []
        back_splits: List[List[int]] = []
        for _ in range(a):
            back_tensors.append(Tensor(np.zeros((0, hidden), dtype=dtype)))
            back_splits.append([0] * n)
        for j in range(e):
            buf = received[self.expert_ranks[j]].data
            out_parts: List[np.ndarray] = []
            rows_from_src = [0] * a
            off = 0
            for src in range(a):
                for item, counts in seg_meta[j][src]:
                    for le in range(pe):
                        c = int(counts[le])
                        if c == 0:
                            continue
                        seg = buf[off:off + c]
                        expert = moe.experts[j * pe + le]
                        out_parts.append(expert(Tensor(seg)).data)
                        off += c
                        rows_from_src[src] += c
            if off != buf.shape[0]:
                raise RuntimeError(
                    f"expert rank {j}: consumed {off} of "
                    f"{buf.shape[0]} received rows"
                )
            if out_parts:
                out = np.concatenate(out_parts, axis=0)
            else:
                out = np.zeros((0, hidden), dtype=dtype)
            splits = [0] * n
            for src in range(a):
                splits[src] = rows_from_src[src]
            back_tensors.append(Tensor(np.ascontiguousarray(out)))
            back_splits.append(splits)

        combined = dist_all_to_all_uneven(
            self.bridge, back_tensors, back_splits, tag=COMBINE_TAG)

        # --- reassemble per request: rank i's receive buffer is
        # (expert-rank-major, request-minor); a request's plan-order
        # rows are the j-ascending concatenation of its segments, which
        # is exactly expert-ascending order.  Then the reference
        # combine: gate-scale after FC2, scatter-add per token.
        outputs: List[List[np.ndarray]] = []
        for i in range(a):
            buf = combined[i].data
            # chunk offsets per expert rank within rank i's buffer
            chunk_off = [0] * e
            pos = 0
            for j in range(e):
                chunk_off[j] = pos
                pos += sum(
                    int(counts.sum())
                    for item, counts in seg_meta[j][i]
                )
            if pos != buf.shape[0]:
                raise RuntimeError(
                    f"attention rank {i}: expected {pos} combined rows, "
                    f"received {buf.shape[0]}"
                )
            # per-(j, item) start offsets in request order
            item_off: List[Dict[int, int]] = [dict() for _ in range(e)]
            for j in range(e):
                cursor = chunk_off[j]
                for item, counts in seg_meta[j][i]:
                    item_off[j][id(item)] = cursor
                    cursor += int(counts.sum())
            rank_out: List[np.ndarray] = []
            for item in routed[i]:
                plan = item["plan"]
                parts: List[np.ndarray] = []
                for j in range(e):
                    c = int(plan.expert_counts[
                        j * pe:(j + 1) * pe].sum())
                    if c == 0:
                        continue
                    lo = item_off[j][id(item)]
                    parts.append(buf[lo:lo + c])
                if parts:
                    fc2_out = np.concatenate(parts, axis=0)
                else:
                    fc2_out = np.zeros((0, hidden), dtype=dtype)
                w_rows = item["weights"][plan.token_of_row,
                                         plan.slot_of_row]
                scaled = fc2_out * w_rows.reshape(-1, 1)
                rank_out.append(scatter_add_rows(
                    np.zeros((item["t"], hidden), dtype=dtype),
                    plan.token_of_row, scaled))
            outputs.append(rank_out)
        return outputs
