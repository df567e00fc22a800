"""Bindings from the operator IR to numeric execution.

One :class:`~repro.core.operators.OpGraph` drives three things in this
repo: the overlap schedule (:mod:`repro.core.schedule`), the event
simulation (:mod:`repro.sim`), and — through this module — the actual
numeric forward pass.  Each :class:`OpBinding` attaches a numeric
handler to one forward-graph op (or a small *covers* group of ops that
one engine method computes together, e.g. the grouped-GEMM chain
``fc1``/``fc3``/``swiglu``/``fc2``).  The handler sees every rank's
activations, calls the per-op engine methods
(``SPAttentionEngine.op_qkv``, ``EPFFNEngine.op_scatter_a2a``, …) and
issues the ``dist_*`` collectives; this list is the one place a
layer's op sequence is spelled.  Every FFN path's ``scatter`` anchor
holds a :class:`~repro.model.routing.DispatchPlan` first, and its
gate-weighted combine is that plan's
:meth:`~repro.model.routing.DispatchPlan.combine`.

:func:`layer_program` closes the loop with the scheduler: it builds the
forward graph, prices it with the :class:`~repro.perf.KernelModel`,
runs the :class:`~repro.core.schedule.HolisticScheduler`, and flattens
the task list (expanding ``fused:`` kernels back to member ops in graph
order) into the op-level execution order the
:class:`~repro.runtime.dag_executor.DagExecutor` follows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .config import GPU_SPECS, ModelConfig, ParallelConfig
from .operators import (OpGraph, TilePlan, build_forward_graph,
                        plan_tiles, tile_forward_graph)
from .schedule import HolisticScheduler

__all__ = [
    "LayerProgram",
    "OpBinding",
    "attention_bindings",
    "build_layer_bindings",
    "expand_task",
    "ffn_bindings",
    "layer_program",
    "per_rank",
    "unit_map",
]


def _dist_ops():
    # Imported lazily: repro.parallel builds on repro.core.
    from ..parallel import dist_ops
    return dist_ops


def _group_tiles(tile_plan: Optional[TilePlan], fuse_group: str) -> int:
    """Planned tile count for one forward fuse group (1 = whole)."""
    if tile_plan is None:
        return 1
    return tile_plan.group_tiles.get(fuse_group + "/fwd", 1)


# ---------------------------------------------------------------------------
# Binding model
# ---------------------------------------------------------------------------

class _SeqCtx:
    """Whole-world view a handler runs against."""

    __slots__ = ("group", "env")

    def __init__(self, group: Any, env: Dict[str, List[Any]]):
        self.group = group
        #: anchor name -> per-rank value list.
        self.env = env


@dataclass(frozen=True)
class OpBinding:
    """Numeric handler for one forward-graph op (or covers group).

    Attributes:
        op: Anchor op name — the binding executes when the DAG
            executor's order reaches the first op in ``covers``.
        covers: Graph ops this handler computes in one call.  Covers
            groups exist where one engine method spans several IR ops
            (the grouped-GEMM experts chain); every graph op must be
            covered by exactly one binding.
        reads: Anchor names (or layer inputs) whose values the handler
            consumes.  Must all be produced earlier in any valid
            topological execution order — the executor checks this.
        seq: Whole-world handler; returns the per-rank value list.
    """

    op: str
    covers: Tuple[str, ...]
    reads: Tuple[str, ...]
    seq: Callable[[_SeqCtx], List[Any]]


def per_rank(op: str, reads: Sequence[str],
             fn: Callable[[int, Callable[[str], Any]], Any],
             covers: Optional[Sequence[str]] = None) -> OpBinding:
    """Lift one per-rank function into a ``seq`` handler.

    ``fn(r, get)`` computes rank ``r``'s value from ``get(name)`` — the
    rank's slice of an earlier anchor's value; the handler loops ranks
    in order.  Only valid for ops with no communication.
    """
    covers_t = tuple(covers) if covers is not None else (op,)

    def seq(ctx: _SeqCtx) -> List[Any]:
        out = []
        for r in range(ctx.group.size):
            def get(name: str, _r: int = r) -> Any:
                return ctx.env[name][_r]
            out.append(fn(r, get))
        return out

    return OpBinding(op, covers_t, tuple(reads), seq)


# ---------------------------------------------------------------------------
# Strategy binding factories
# ---------------------------------------------------------------------------

def _token_rows(shards: Sequence[Any]) -> List[Any]:
    """``[b, s/n, h]`` shards flattened to ``[tokens, h]`` rows."""
    return [s.reshape(-1, s.shape[-1]) if s.ndim == 3 else s
            for s in shards]


def _sp_attention_bindings(eng: Any, seq_len: int,
                           tile_plan: Optional[TilePlan] = None
                           ) -> List[OpBinding]:
    """SP (Ulysses) attention: qkv_proj → rope → A2A → attn → A2A →
    out_proj, replicated weights (§3.1, Fig. 20).  ``eng`` is the
    :class:`~repro.parallel.sp_attention.SPAttentionEngine`; the chain
    reads ``ln1`` and ends at ``out_proj``."""
    group = eng.group
    local_s = seq_len // group.size
    # Token-chunked A2As (§4.2): every (source, dest) chunk's sequence
    # extent is the local shard, tiled into `tile_tokens` slices.
    t_qkv = _group_tiles(tile_plan, "a2a+attn")
    t_attn = _group_tiles(tile_plan, "a2a+gemm")

    def qkv_a2a(ctx: _SeqCtx) -> List[Any]:
        # Split the head axis (2), gather the sequence axis (1): rank r
        # then holds all positions for its n-th of the q and kv heads.
        d = _dist_ops()
        triples = ctx.env["rope"]
        q_full, k_full, v_full = (
            d.dist_all_to_all(group, [t[i] for t in triples],
                              split_axis=2, concat_axis=1,
                              tag="sp_attn:qkv_a2a",
                              tiles=t_qkv, tile_axis=1,
                              tile_label="qkv_a2a")
            for i in range(3))
        return list(zip(q_full, k_full, v_full))

    def attn_a2a(ctx: _SeqCtx) -> List[Any]:
        return _dist_ops().dist_all_to_all(
            group, ctx.env["attention"], split_axis=1, concat_axis=2,
            tag="sp_attn:attn_a2a",
            tiles=t_attn, tile_axis=1, tile_label="attn_a2a")

    return [
        per_rank("qkv_proj", ("ln1",),
                 lambda r, get: eng.op_qkv(get("ln1"))),
        per_rank("rope", ("qkv_proj",),
                 lambda r, get: eng.op_rope(get("qkv_proj"), r, local_s)),
        OpBinding("qkv_a2a", ("qkv_a2a",), ("rope",), qkv_a2a),
        per_rank("attention", ("qkv_a2a",),
                 lambda r, get: eng.op_attention(get("qkv_a2a"))),
        OpBinding("attn_a2a", ("attn_a2a",), ("attention",), attn_a2a),
        per_rank("out_proj", ("attn_a2a",),
                 lambda r, get: eng.op_out_proj(get("attn_a2a"))),
    ]


def _tp_attention_bindings(eng: Any,
                           tile_plan: Optional[TilePlan] = None
                           ) -> List[OpBinding]:
    """TP (Megatron) attention: AG in, head-sharded compute, RS out.
    ``eng`` is the :class:`~repro.parallel.tp_attention.
    TPAttentionEngine`; the chain reads ``ln1`` and ends at
    ``attn_rs``."""
    group = eng.group
    ag_tiled = _group_tiles(tile_plan, "attn_ag+gemm") >= 2
    rs_tiled = _group_tiles(tile_plan, "attn_gemm+rs") >= 2

    def ag(ctx: _SeqCtx) -> List[Any]:
        return _dist_ops().dist_all_gather(
            group, ctx.env["ln1"], axis=1,
            tag="tp_attn:ag", tiled=ag_tiled, tile_label="attn_ag")

    def rs(ctx: _SeqCtx) -> List[Any]:
        # Partial products sum across ranks; scatter back to seq shards.
        return _dist_ops().dist_reduce_scatter(
            group, ctx.env["out_proj"], axis=1,
            tag="tp_attn:rs", tiled=rs_tiled, tile_label="attn_rs")

    return [
        OpBinding("attn_ag", ("attn_ag",), ("ln1",), ag),
        per_rank("qkv_proj", ("attn_ag",),
                 lambda r, get: eng.op_qkv(get("attn_ag"), r)),
        per_rank("rope", ("qkv_proj",),
                 lambda r, get: eng.op_rope(get("qkv_proj"))),
        per_rank("attention", ("rope",),
                 lambda r, get: eng.op_attention(get("rope"))),
        per_rank("out_proj", ("attention",),
                 lambda r, get: eng.op_out_proj(get("attention"), r)),
        OpBinding("attn_rs", ("attn_rs",), ("out_proj",), rs),
    ]


def _ep_a2a_bindings(ffn: Any,
                     tile_plan: Optional[TilePlan] = None
                     ) -> List[OpBinding]:
    """EP FFN with A2A dispatch (§3.2 Eq. 3): route local tokens, send
    each token to each expert rank it needs once, with its gate
    weights, and return one gate-scaled partial row per cell (the wire
    of :func:`~repro.model.routing.a2a_wire`).  ``ffn`` is an
    :class:`~repro.parallel.ep_ffn.EPFFNEngine` in ``a2a`` mode; the
    chain reads ``ln2`` and ends at ``weighted_sum``."""
    group = ffn.group
    n = group.size
    # Ragged dispatch tiles per source rank (§4.2 swizzled order); the
    # return A2A ("ggemm+a2a") has no downstream compute to overlap
    # with and stays whole.
    dispatch_tiled = _group_tiles(tile_plan, "a2a+ggemm") >= 2

    def router(ctx: _SeqCtx) -> List[Any]:
        # Replicated gate => the same decisions the reference model
        # makes for those tokens.
        flats = _token_rows(ctx.env["ln2"])
        routings, weights, probs = zip(*(ffn.op_route(flat)
                                         for flat in flats))
        aux = ffn._global_aux_loss(probs, routings)
        return [(flat, routing, w, aux)
                for flat, routing, w in zip(flats, routings, weights)]

    def scatter(ctx: _SeqCtx) -> List[Any]:
        flats, routings, weights, _ = zip(*ctx.env["router"])
        return ffn.op_scatter_a2a(flats, routings, weights)

    def dispatch(ctx: _SeqCtx) -> List[Any]:
        x = ctx.env["scatter"][0][0]
        return _dist_ops().dist_all_to_all_uneven(
            group, [v[1] for v in ctx.env["scatter"]], x.send_splits,
            tag="ep_ffn:dispatch_a2a", tiled=dispatch_tiled,
            tile_label="dispatch_a2a")

    def experts(ctx: _SeqCtx) -> List[Any]:
        x = ctx.env["scatter"][0][0]
        return [ffn.op_experts_a2a(ctx.env["dispatch_a2a"][j], x, j)
                for j in range(n)]

    def combine(ctx: _SeqCtx) -> List[Any]:
        x = ctx.env["scatter"][0][0]
        return _dist_ops().dist_all_to_all_uneven(
            group, ctx.env["fc1"], x.back_splits, tag="ep_ffn:combine_a2a")

    def weighted(r: int, get: Callable[[str], Any]) -> Any:
        # The expert ranks applied the gate weights after FC2 (§4.1);
        # the source adds its partial rows back per token.
        return get("scatter")[0].combine(r, get("combine_a2a")) \
            .reshape(*get("ln2").shape)

    return [
        OpBinding("router", ("router",), ("ln2",), router),
        OpBinding("scatter", ("scatter",), ("router",), scatter),
        OpBinding("dispatch_a2a", ("dispatch_a2a",), ("scatter",),
                  dispatch),
        OpBinding("fc1", ("fc1", "fc3", "swiglu", "fc2"),
                  ("dispatch_a2a", "scatter"), experts),
        OpBinding("combine_a2a", ("combine_a2a",), ("fc1", "scatter"),
                  combine),
        per_rank("weighted_sum", ("combine_a2a", "scatter", "ln2"),
                 weighted),
    ]


def _ag_ffn_bindings(ffn: Any, flavor: str,
                     tile_plan: Optional[TilePlan] = None
                     ) -> List[OpBinding]:
    """The two AG-based FFN paths share one shape (§3.2 Eq. 4):
    all-gather tokens, route the full batch, local scatter + experts,
    weighted full-size contribution, reduce-scatter.

    ``flavor`` is ``"ep"`` (AG/RS expert dispatch — ``ffn`` is an
    :class:`~repro.parallel.ep_ffn.EPFFNEngine` holding whole experts
    per rank) or ``"tp"`` (Megatron FFN — a
    :class:`~repro.parallel.tp_ffn.TPFFNEngine` with every expert's
    intermediate dim sharded); they differ only in tags and the expert
    handler.  The chain reads ``ln2`` and ends at ``ffn_rs``.
    """
    group = ffn.group
    if flavor == "ep":
        ag_tag, rs_tag = "ep_ffn:dispatch_ag", "ep_ffn:combine_rs"
        ag_key, rs_key = "ag+scatter+ggemm", "ggemm+gather+rs"
    else:
        ag_tag, rs_tag = "tp_ffn:ag", "tp_ffn:rs"
        ag_key, rs_key = "tp_ffn_ag+gemm", "tp_ffn_gemm+rs"
    # Source/dest-rank tile swizzle (§4.2); the FP8-wire collectives
    # keep their fused quantize-transfer kernels whole.
    ag_tiled = (not ffn.fp8_comm
                and _group_tiles(tile_plan, ag_key) >= 2)
    rs_tiled = (not ffn.fp8_comm
                and _group_tiles(tile_plan, rs_key) >= 2)

    def ag(ctx: _SeqCtx) -> List[Any]:
        flats = _token_rows(ctx.env["ln2"])
        t_locals = [f.shape[0] for f in flats]
        if ffn.fp8_comm:
            from ..parallel.dist_ops_fp8 import dist_all_gather_fp8
            fulls = dist_all_gather_fp8(group, flats, tag=ag_tag)
        else:
            fulls = _dist_ops().dist_all_gather(
                group, flats, axis=0, tag=ag_tag,
                tiled=ag_tiled, tile_label="ffn_ag")
        return [(full, t_locals) for full in fulls]

    def route(r: int, get: Callable[[str], Any]) -> Any:
        # Identical on every rank; only rank r's expert rows are used
        # downstream, so the shared gate accumulates exactly the
        # reference gradient.
        return ffn.op_route_full(get("ffn_ag")[0])

    def scatter(r: int, get: Callable[[str], Any]) -> Any:
        full, t_locals = get("ffn_ag")
        routing = get("router")[0]
        if flavor == "ep":
            # Token -> source-rank map for the §4.2 tile ordering.
            source_rank = np.concatenate([
                np.full(t, i) for i, t in enumerate(t_locals)])
            return ffn.op_scatter_ag(full, routing, r, source_rank)
        return ffn.op_scatter(full, routing)

    def experts(r: int, get: Callable[[str], Any]) -> Any:
        plan, ffn_in = get("scatter")
        if flavor == "ep":
            return ffn.op_experts_ag(ffn_in, plan, r)
        return ffn.op_experts(ffn_in, plan, r)

    def gather(r: int, get: Callable[[str], Any]) -> Any:
        plan = get("scatter")[0]
        return plan.combine(get("fc1"), get("router")[1],
                            sum(get("ffn_ag")[1]))

    def rs(ctx: _SeqCtx) -> List[Any]:
        if ffn.fp8_comm:
            from ..parallel.dist_ops_fp8 import dist_reduce_scatter_fp8
            out_flats = dist_reduce_scatter_fp8(
                group, ctx.env["gather"], tag=rs_tag)
        else:
            out_flats = _dist_ops().dist_reduce_scatter(
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


def attention_bindings(eng: Any, seq_len: int,
                       tile_plan: Optional[TilePlan] = None
                       ) -> List[OpBinding]:
    """The attention half of a layer for an SP or TP attention engine:
    reads ``ln1``; the last binding's values are the output shards."""
    from ..parallel.sp_attention import SPAttentionEngine
    if isinstance(eng, SPAttentionEngine):
        return _sp_attention_bindings(eng, seq_len, tile_plan)
    return _tp_attention_bindings(eng, tile_plan)


def ffn_bindings(ffn: Any, tile_plan: Optional[TilePlan] = None
                 ) -> List[OpBinding]:
    """The FFN half of a layer for an EP or TP FFN engine: reads
    ``ln2``; the last binding's values are the output shards and the
    ``router`` anchor's per-rank values end with the aux loss."""
    from ..parallel.tp_ffn import TPFFNEngine
    if isinstance(ffn, TPFFNEngine):
        return _ag_ffn_bindings(ffn, "tp", tile_plan)
    if ffn.mode == "a2a":
        return _ep_a2a_bindings(ffn, tile_plan)
    return _ag_ffn_bindings(ffn, "ep", tile_plan)


def build_layer_bindings(engine: Any, seq_len: int,
                         tile_plan: Optional[TilePlan] = None
                         ) -> List[OpBinding]:
    """All bindings for one :class:`ParallelBlockEngine` layer.

    The set matches the forward graph that
    :func:`~repro.core.operators.build_forward_graph` emits for the
    engine's strategy combination — the DAG executor validates the
    covers partition against the graph at construction time.

    ``tile_plan`` (from :func:`~repro.core.operators.plan_tiles`)
    switches the fused groups' collectives to chunked per-tile
    transfers; compute handlers are unchanged — all of a tiled GEMM's
    tiles execute in its one whole-tensor call, never splitting a BLAS
    reduction, which keeps results bitwise-identical to untiled.
    """
    block = engine.block
    attention = attention_bindings(engine.attn_engine, seq_len, tile_plan)
    ffn = ffn_bindings(engine.ffn_engine, tile_plan)
    attn_out, ffn_out = attention[-1].op, ffn[-1].op
    # RMSNorm and the residual adds act per token, so they run locally
    # on each sequence shard (§2.2).
    return [
        per_rank("ln1", ("hidden",),
                 lambda r, get: block.ln1(get("hidden"))),
        *attention,
        per_rank("residual1", ("hidden", attn_out),
                 lambda r, get: get("hidden") + get(attn_out)),
        per_rank("ln2", ("residual1",),
                 lambda r, get: block.ln2(get("residual1"))),
        *ffn,
        per_rank("residual2", ("residual1", ffn_out),
                 lambda r, get: get("residual1") + get(ffn_out)),
    ]


# ---------------------------------------------------------------------------
# Schedule → execution order
# ---------------------------------------------------------------------------

def expand_task(graph: OpGraph, task_name: str) -> List[str]:
    """Member op names of one scheduled task, in graph order.

    A ``fused:<group>/<phase>`` task expands to every graph op with
    that fuse group and phase; a plain task is its own single member.
    """
    if task_name.startswith("fused:"):
        key = task_name[len("fused:"):]
        fuse_group, phase = key.rsplit("/", 1)
        return [op.name for op in graph
                if op.fuse_group == fuse_group and op.phase == phase]
    return [task_name]


def unit_map(graph: OpGraph, tasks: Sequence[Any]) -> Dict[str, str]:
    """Map each graph op name to the scheduled task (unit) running it."""
    mapping: Dict[str, str] = {}
    for task in tasks:
        for name in expand_task(graph, task.name):
            mapping[name] = task.name
    return mapping


@dataclass
class LayerProgram:
    """One layer's IR, its overlap schedule, and the flattened order.

    ``order`` is the op-level execution order the numeric DAG executor
    follows: the scheduler's task list with fused kernels expanded back
    to member ops in graph order.  Because the task list is
    topologically ordered over task dependencies and fused members are
    contiguous, ``order`` is a valid topological order of the op graph
    — the executor re-validates this on construction.
    """

    graph: OpGraph
    tasks: List[Any]
    order: List[str]
    durations: Dict[str, float] = field(default_factory=dict)
    #: Tile-granular companion program (§4.2), present when the layer
    #: was built with ``tile_tokens``: the forward graph with fused
    #: groups decomposed into per-tile sub-ops, its own schedule, and
    #: the flattened tile-level order the simulator/conformance checks
    #: compare executed tile streams against.
    tile_graph: Optional[OpGraph] = None
    tile_tasks: Optional[List[Any]] = None
    tile_order: Optional[List[str]] = None
    tile_plan: Optional[TilePlan] = None
    tile_durations: Dict[str, float] = field(default_factory=dict)

    def task_of(self) -> Dict[str, str]:
        """Op name → scheduled unit name."""
        return unit_map(self.graph, self.tasks)

    @property
    def tiled(self) -> bool:
        """Whether this program carries a tile-granular decomposition."""
        return self.tile_graph is not None


def layer_program(model: ModelConfig, parallel: ParallelConfig,
                  micro_batch: int, seq_len: int,
                  tile_tokens: Optional[int] = None
                  ) -> LayerProgram:
    """Build the graph → price it on an H800 → schedule it with both
    overlap levels → flatten the order.

    ``tile_tokens`` additionally plans the §4.2 tile decomposition and
    attaches the tiled graph/schedule/order to the program (validating
    that the tile width divides the local sequence shard).
    """
    from ..perf.estimator import KernelModel
    graph = build_forward_graph(model, parallel, micro_batch,
                                seq_len=seq_len)
    kernel_model = KernelModel(GPU_SPECS["h800"])
    durations = kernel_model.durations(graph)
    scheduler = HolisticScheduler()
    tasks = scheduler.schedule(graph, durations)
    order = [name for task in tasks
             for name in expand_task(graph, task.name)]
    program = LayerProgram(graph=graph, tasks=tasks, order=order,
                           durations=durations)
    if tile_tokens is not None:
        plan = plan_tiles(graph, parallel.model_parallel_size, seq_len,
                          tile_tokens)
        if plan.group_tiles:
            tile_graph = tile_forward_graph(graph, plan)
            tile_durations = kernel_model.durations(tile_graph)
            tile_tasks = scheduler.schedule(tile_graph, tile_durations)
            program.tile_graph = tile_graph
            program.tile_tasks = tile_tasks
            program.tile_order = [
                name for task in tile_tasks
                for name in expand_task(tile_graph, task.name)]
            program.tile_plan = plan
            program.tile_durations = tile_durations
    return program
