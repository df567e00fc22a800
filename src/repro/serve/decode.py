"""Forward-only decode programs on the operator-DAG IR.

One transformer layer of a serving iteration is expressed as a 12-op
:class:`~repro.core.operators.OpGraph` and executed through the same
:class:`~repro.runtime.dag_executor.DagExecutor` the trainer uses — in
its forward-only mode (``retain=``), which streams activations out of
the env as soon as their last reader ran (a decode step holds no tape).

Each :class:`~repro.core.executor_bindings.OpBinding` has a ``seq``
handler only and closes over a mutable :class:`DecodeState`: the
scheduler mutates ``state.batch`` and ``state.layer`` between runs while
the program/bindings are built once.
Every anchor's env value is a per-attention-rank list of per-request
payloads — requests never share a kernel, which is the bitwise-equality
contract between continuous-batched and sequential-golden decode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

import numpy as np

from ..core.executor_bindings import OpBinding
from ..core.operators import Op, OpGraph
from ..model.routing import build_dispatch_plan
from ..tensor import Tensor, ops
from .kv_cache import PagedKVCache

__all__ = ["ActiveRequest", "DecodeProgram", "DecodeState",
           "build_decode_graph", "build_decode_bindings",
           "decode_program"]


class ActiveRequest:
    """One admitted request's mutable in-flight state."""

    def __init__(self, request, cache: PagedKVCache, admission_seq: int):
        self.request = request
        self.cache = cache
        self.admission_seq = admission_seq
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
        """Restart from scratch (crash re-queue / eviction): greedy
        decode is deterministic, so the replay is bitwise-identical to
        an uninterrupted run."""
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


@dataclass
class DecodeState:
    """Mutable context the decode bindings close over."""

    model: Any
    placement: Any
    #: Per-attention-rank lists of :class:`ActiveRequest`.
    batch: List[List[ActiveRequest]] = field(default_factory=list)
    #: Layer the next DAG run computes.
    layer: int = 0

    @property
    def block(self):
        return self.model.blocks[self.layer]


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


def _per_item(state: DecodeState, fn) -> Callable:
    """Lift a per-request function over the rank/batch nesting."""
    def handler(ctx):
        return [[fn(item, val)
                 for item, val in zip(state.batch[rank_index], values)]
                for rank_index, values in enumerate(ctx)]
    return handler


def build_decode_bindings(state: DecodeState) -> List[OpBinding]:
    """Numeric handlers for the decode graph, closing over ``state``."""
    model = state.model
    attn_cfg = model.config

    def lift(op: str, reads, fn) -> OpBinding:
        per = _per_item(state, fn)

        def seq(ctx):
            value_lists = [ctx.env[r] for r in reads]
            # zip the reads per rank: fn receives a tuple of values
            merged = [list(zip(*vals)) if len(reads) > 1 else
                      [(v,) for v in vals[0]]
                      for vals in
                      [[vl[i] for vl in value_lists]
                       for i in range(len(state.batch))]]
            return per(merged)
        return OpBinding(op, (op,), tuple(reads), seq)

    def attn_ln(item, vals):
        (hidden,) = vals
        return state.block.ln1(hidden)

    def qkv(item, vals):
        (x,) = vals
        return state.block.attn.qkv_proj(x)

    def rope_append(item: ActiveRequest, vals):
        (qkv_t,) = vals
        attn = state.block.attn
        s = item.cur_len
        q, k, v = attn.split_qkv(qkv_t, 1, s)
        positions = np.arange(item.pos, item.pos + s)
        q_rot = ops.rope_rotate(q, attn.rope_base, positions)
        k_rot = ops.rope_rotate(k, attn.rope_base, positions)
        item.cache.put(state.layer, k_rot.data[0], v.data[0], item.pos)
        k_cache, v_cache = item.cache.gather(state.layer, item.pos + s)
        return (q_rot, Tensor(k_cache[None]), Tensor(v_cache[None]))

    def attend(item, vals):
        ((q_rot, k_cache, v_cache),) = vals
        return state.block.attn.decode_attend(q_rot, k_cache, v_cache)

    def attn_out(item: ActiveRequest, vals):
        (ctx_heads,) = vals
        attn = state.block.attn
        flat = ctx_heads.reshape(1, item.cur_len, attn.hidden_size)
        return attn.out_proj(flat)

    def attn_residual(item, vals):
        hidden, a_out = vals
        return hidden + a_out

    def ffn_ln(item, vals):
        (x,) = vals
        return state.block.ln2(x)

    def route(item: ActiveRequest, vals):
        (x,) = vals
        moe = state.block.moe
        x_flat = x.reshape(-1, attn_cfg.hidden_size)
        routing, weights = moe.router.route(x_flat)
        plan = build_dispatch_plan(routing, moe.n_experts)
        ffn_in = ops.take_rows(x_flat, plan.token_of_row)
        return {
            "t": x_flat.shape[0],
            "plan": plan,
            "weights": weights.data,
            "ffn_in": ffn_in.data,
        }

    def moe_bridge(ctx):
        routed = ctx.env["route"]
        combined = state.placement.moe_forward(state.block.moe, routed)
        out = []
        for rank_combined, rank_batch in zip(combined, state.batch):
            out.append([
                Tensor(rows.reshape(1, item.cur_len,
                                    attn_cfg.hidden_size))
                for rows, item in zip(rank_combined, rank_batch)
            ])
        return out

    def ffn_residual(item, vals):
        ln2_in, moe_out = vals
        return ln2_in + moe_out

    return [
        lift("attn_ln", ("hidden",), attn_ln),
        lift("qkv", ("attn_ln",), qkv),
        lift("rope_append", ("qkv",), rope_append),
        lift("attend", ("rope_append",), attend),
        lift("attn_out", ("attend",), attn_out),
        lift("attn_residual", ("hidden", "attn_out"), attn_residual),
        lift("ffn_ln", ("attn_residual",), ffn_ln),
        lift("route", ("ffn_ln",), route),
        OpBinding("moe_dispatch",
                  ("moe_dispatch", "moe_experts", "moe_combine"),
                  ("route",), moe_bridge),
        lift("ffn_residual", ("attn_residual", "moe_dispatch"),
             ffn_residual),
    ]


def decode_program() -> DecodeProgram:
    """The decode graph with its (trivially topological) op order."""
    graph = build_decode_graph()
    return DecodeProgram(graph=graph, order=[op.name for op in graph])
