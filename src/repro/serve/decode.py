"""Forward-only decode programs on the operator-DAG IR.

One transformer layer of a serving iteration is expressed as a 12-op
:class:`~repro.core.operators.OpGraph` and executed through the same
:class:`~repro.runtime.dag_executor.DagExecutor` the trainer uses — in
its forward-only mode (``retain=``), which streams activations out of
the env as soon as their last reader ran (a decode step holds no tape).

Each :class:`~repro.runtime.dag_executor.OpBinding` has a ``seq``
handler only and closes over a mutable :class:`DecodeState`: the
scheduler assigns ``state.batch`` and ``state.layer`` between runs while
the program/bindings are built once.

Every anchor's env value is a per-attention-rank ``[rows, width]``
array: the rank's requests' rows concatenated in batch order
(:class:`RowLayout`).  Row-local work — norms, residual adds, RoPE, the
router's softmax/top-k — runs once per rank over the whole array (the
bridge's gate-scaled combine once per layer); every GEMM, KV access and
attention call runs once per request segment (:func:`segment_linear`).
A one-row product is a gemv and differs bitwise from the same row inside
a GEMM, so a request's rows never join another request's GEMM — the
bitwise-equality contract between continuous-batched and
sequential-golden decode.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from ..core.operators import Op, OpGraph
from ..model.routing import RoutingResult, build_dispatch_plan
from ..runtime.dag_executor import OpBinding
from ..tensor import Tensor, ops
from .kv_cache import PagedKVCache

__all__ = ["ActiveRequest", "DecodeProgram", "DecodeState", "RowLayout",
           "build_decode_graph", "build_decode_bindings",
           "decode_program", "segment_linear"]


class ActiveRequest:
    """One admitted request's mutable in-flight state."""

    def __init__(self, request, cache: PagedKVCache):
        self.request = request
        self.cache = cache
        #: Tokens committed so far (prompt + generated).
        self.tokens: List[int] = list(request.prompt)
        #: KV positions already committed.
        self.pos = 0
        self.generated: List[int] = []
        #: Per-step ``[vocab]`` logits rows (the argmax inputs) — the
        #: serve_golden invariant compares these bitwise.
        self.logits_log: List[np.ndarray] = []
        #: This iteration's input token ids (prompt on prefill, the
        #: last generated token on decode).
        self.cur_ids: np.ndarray = np.asarray(request.prompt,
                                              dtype=np.int64)
        self.restarts = 0

    @property
    def cur_len(self) -> int:
        return int(self.cur_ids.shape[0])

    @property
    def is_prefill(self) -> bool:
        return self.pos == 0

    @property
    def done(self) -> bool:
        return len(self.generated) >= self.request.max_new_tokens

    def commit(self, next_token: int, logits_row: np.ndarray) -> None:
        """Advance one iteration: KV commit + greedy token append."""
        s = self.cur_len
        self.cache.advance(s)
        self.pos += s
        self.generated.append(int(next_token))
        self.tokens.append(int(next_token))
        self.logits_log.append(logits_row)
        self.cur_ids = np.asarray([next_token], dtype=np.int64)

    def reset(self) -> None:
        """Restart from scratch after a rank crash (an eviction swaps
        the KV out instead): greedy decode is deterministic, so the
        replay is bitwise-identical to an uninterrupted run."""
        self.cache.release()
        self.tokens = list(self.request.prompt)
        self.pos = 0
        self.generated = []
        self.logits_log = []
        self.cur_ids = np.asarray(self.request.prompt, dtype=np.int64)
        self.restarts += 1


@dataclass
class DecodeProgram:
    """Minimal program contract for :class:`DagExecutor` (no tiles)."""

    graph: OpGraph
    order: List[str]
    tile_graph: Optional[OpGraph] = None


@dataclass(frozen=True)
class RowLayout:
    """One attention rank's iteration rows: its requests' input tokens
    concatenated in batch order."""

    #: ``(start, end)`` rows of each request, in batch order.
    bounds: Tuple[Tuple[int, int], ...]
    #: ``[rows]`` batch index of the request each row belongs to.
    row_request: np.ndarray
    #: ``[rows]`` absolute (KV) position of each row.
    row_pos: np.ndarray
    #: ``[rows]`` input token id of each row.
    ids: np.ndarray

    @classmethod
    def of(cls, items: Sequence[ActiveRequest]) -> "RowLayout":
        lens = np.asarray([item.cur_len for item in items], dtype=np.int64)
        ends = np.cumsum(lens)
        starts = ends - lens
        row_request = np.repeat(np.arange(len(items)), lens)
        first_pos = np.asarray([item.pos for item in items], dtype=np.int64)
        row_pos = (np.arange(row_request.shape[0])
                   + np.repeat(first_pos - starts, lens))
        ids = np.concatenate([item.cur_ids for item in items]
                             or [np.zeros(0, dtype=np.int64)])
        return cls(tuple(zip(starts.tolist(), ends.tolist())),
                   row_request, row_pos, ids)


class DecodeState:
    """Mutable context the decode bindings close over.

    Assigning :attr:`batch` (per-attention-rank lists of
    :class:`ActiveRequest`) lays the iteration's rows out once:
    :attr:`layouts` holds each rank's :class:`RowLayout`, and the MoE
    bridge's rank-major numbering of every rank's rows
    (:attr:`row_bounds`) and requests (:attr:`request_of_row`).
    """

    def __init__(self, model: Any, placement: Any):
        self.model = model
        self.placement = placement
        #: Layer the next DAG run computes.
        self.layer = 0
        self.batch = [[] for _ in placement.attn_ranks]

    @property
    def batch(self) -> List[List[ActiveRequest]]:
        return self._batch

    @batch.setter
    def batch(self, batch: List[List[ActiveRequest]]) -> None:
        self._batch = batch
        self.layouts = [RowLayout.of(items) for items in batch]
        #: ``[A + 1]`` bounds of each attention rank's rows.
        self.row_bounds = list(accumulate(
            [0] + [layout.ids.shape[0] for layout in self.layouts]))
        first_request = accumulate([0] + [len(items) for items in batch])
        #: ``[rows]`` request of each row, requests numbered rank-major.
        self.request_of_row = np.concatenate([
            layout.row_request + first for layout, first in
            zip(self.layouts, first_request)])

    @property
    def block(self):
        return self.model.blocks[self.layer]


def segment_linear(linear, x: np.ndarray,
                   bounds: Sequence[Tuple[int, int]]) -> np.ndarray:
    """``linear`` applied to each row segment ``x[a:b]`` on its own.

    Each segment's product is written into one shared output buffer and
    carries exactly the bits ``linear(Tensor(x[a:b]))`` produces — a
    one-row segment stays a gemv, a multi-row one a GEMM over only its
    own rows.  Under a precision policy (whose casts live in
    :meth:`~repro.model.layers.Linear.operands`), each segment runs
    through the layer itself.
    """
    from ..precision.policy import current_policy
    weight = linear.weight.data
    out = np.empty((x.shape[0], weight.shape[1]),
                   dtype=np.result_type(x.dtype, weight.dtype))
    direct = current_policy() is None
    for a, b in bounds:
        if direct:
            np.matmul(x[a:b], weight, out=out[a:b])
        else:
            out[a:b] = linear(Tensor(x[a:b])).data
    return out


def build_decode_graph() -> OpGraph:
    """One serving layer as IR ops (Fig. 20 flow, forward only)."""
    return OpGraph([
        Op("attn_ln", "memory", deps=()),
        Op("qkv", "gemm", deps=("attn_ln",)),
        Op("rope_append", "memory", deps=("qkv",)),
        Op("attend", "attn", deps=("rope_append",)),
        Op("attn_out", "gemm", deps=("attend",)),
        Op("attn_residual", "memory", deps=("attn_out",)),
        Op("ffn_ln", "memory", deps=("attn_residual",)),
        Op("route", "gemm", deps=("ffn_ln",)),
        Op("moe_dispatch", "comm", comm_pattern="a2a", comm_scope="inter",
           deps=("route",)),
        Op("moe_experts", "gemm", deps=("moe_dispatch",)),
        Op("moe_combine", "comm", comm_pattern="a2a", comm_scope="inter",
           deps=("moe_experts",)),
        Op("ffn_residual", "memory",
           deps=("attn_residual", "moe_combine")),
    ])


def build_decode_bindings(state: DecodeState) -> List[OpBinding]:
    """Numeric handlers for the decode graph, closing over ``state``."""

    def rank_op(op: str, reads, fn) -> OpBinding:
        """``fn(layout, rank_batch, *rank_values)`` once per rank."""
        def seq(ctx):
            return [fn(layout, items, *(ctx.env[r][rank] for r in reads))
                    for rank, (layout, items) in
                    enumerate(zip(state.layouts, state.batch))]
        return OpBinding(op, (op,), tuple(reads), seq)

    def attn_ln(layout, items, hidden):
        return state.block.ln1(Tensor(hidden)).data

    def qkv(layout, items, x):
        return segment_linear(state.block.attn.qkv_proj, x, layout.bounds)

    def rope_append(layout, items, qkv_rows):
        attn = state.block.attn
        q, k, v = attn.split_qkv(Tensor(qkv_rows[None]), 1,
                                 qkv_rows.shape[0])
        q_rot = ops.rope_rotate(q, attn.rope_base, layout.row_pos).data
        k_rot = ops.rope_rotate(k, attn.rope_base, layout.row_pos).data
        kv = []
        for item, (a, b) in zip(items, layout.bounds):
            item.cache.put(state.layer, k_rot[0, a:b], v.data[0, a:b],
                           item.pos)
            kv.append(item.cache.gather(state.layer, item.pos + b - a))
        return q_rot, kv

    def attend(layout, items, rope_out):
        q_rot, kv = rope_out
        attn = state.block.attn
        out = np.empty((q_rot.shape[1], attn.hidden_size), dtype=q_rot.dtype)
        for (a, b), (k_cache, v_cache) in zip(layout.bounds, kv):
            heads = attn.decode_attend(Tensor(q_rot[:, a:b]),
                                       Tensor(k_cache[None]),
                                       Tensor(v_cache[None]))
            out[a:b] = heads.data.reshape(b - a, attn.hidden_size)
        return out

    def attn_out(layout, items, ctx_rows):
        return segment_linear(state.block.attn.out_proj, ctx_rows,
                              layout.bounds)

    def add(layout, items, x, y):
        return x + y

    def ffn_ln(layout, items, x):
        return state.block.ln2(Tensor(x)).data

    def route(layout, items, x):
        moe = state.block.moe
        logits = segment_linear(moe.router.gate, x, layout.bounds)
        routing, weights, _ = moe.router.route_logits(Tensor(logits),
                                                      layout.bounds)
        return routing, weights.data, x

    def moe_bridge(ctx):
        # One dispatch plan per layer over every attention rank's rows,
        # sorted by (expert, request, token).
        moe = state.block.moe
        routings, weights, rows = zip(*ctx.env["route"])
        routing = RoutingResult(
            np.concatenate([r.expert_index for r in routings]),
            np.concatenate([r.gate_weight for r in routings]),
            np.concatenate([r.kept for r in routings]))
        plan = build_dispatch_plan(
            routing, moe.n_experts,
            source_rank_of_token=state.request_of_row)
        return state.placement.moe_forward(
            moe, plan, np.concatenate(weights), np.concatenate(rows),
            state.row_bounds, state.request_of_row)

    return [
        rank_op("attn_ln", ("hidden",), attn_ln),
        rank_op("qkv", ("attn_ln",), qkv),
        rank_op("rope_append", ("qkv",), rope_append),
        rank_op("attend", ("rope_append",), attend),
        rank_op("attn_out", ("attend",), attn_out),
        rank_op("attn_residual", ("hidden", "attn_out"), add),
        rank_op("ffn_ln", ("attn_residual",), ffn_ln),
        rank_op("route", ("ffn_ln",), route),
        OpBinding("moe_dispatch",
                  ("moe_dispatch", "moe_experts", "moe_combine"),
                  ("route",), moe_bridge),
        rank_op("ffn_residual", ("attn_residual", "moe_dispatch"), add),
    ]


def decode_program() -> DecodeProgram:
    """The decode graph with its (trivially topological) op order."""
    graph = build_decode_graph()
    return DecodeProgram(graph=graph, order=[op.name for op in graph])
