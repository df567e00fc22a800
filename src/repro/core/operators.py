"""Operator-level decomposition of an MoE layer (§4, Fig. 20).

MegaScale-MoE's overlap machinery works because each MoE layer is broken
into *operators that run as GPU kernels* rather than a monolithic
autograd module.  This module builds that operator DAG for any strategy
combination (SP/TP attention × EP/TP FFN), for both the forward and the
backward pass, annotated with everything the scheduler and performance
model need:

* ``flops``       — arithmetic work (GEMMs, attention);
* ``mem_bytes``   — HBM traffic (memory-bound ops: norms, RoPE, SwiGLU,
  scatter/gather — the ops §6.1 blames for MoE's lower MFU);
* ``comm_bytes``  — per-rank wire bytes, with pattern and scope;
* ``deps``        — data dependencies (activation producers);
* ``fuse_group``  — which intra-operator overlap kernel the op belongs
  to (§4.2: A2A+GEMM, GEMM+A2A, AG+scatter+GroupedGEMM,
  GroupedGEMM+gather+RS).

Element sizes default to BF16 (2 bytes) as in the paper's training.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .config import ModelConfig, ParallelConfig, choose_dispatch_mode

__all__ = [
    "Op",
    "OpGraph",
    "build_forward_graph",
    "build_backward_graph",
    "BACKWARD_MIRROR",
    "TilePlan",
    "TILE_SEP",
    "forward_tiles",
    "tile_name",
    "fusable_groups",
    "plan_tiles",
    "tile_forward_graph",
    "tiled_members",
]

COMPUTE_KINDS = ("gemm", "attn", "memory")
COMM_PATTERNS = ("a2a", "ag", "rs", "ar")


@dataclass(frozen=True)
class Op:
    """One schedulable unit of work on a rank.

    ``comm_bytes`` is what this rank sends; for ring collectives that is
    ``(n-1)``× the shard, matching the ledger conventions.
    """

    name: str
    kind: str                      # "gemm" | "attn" | "memory" | "comm"
    flops: float = 0.0
    mem_bytes: float = 0.0
    comm_bytes: float = 0.0
    comm_pattern: str = ""         # a2a | ag | rs | ar
    comm_scope: str = "intra"      # intra-node (NVLink) or inter (NIC)
    deps: Tuple[str, ...] = ()
    produces: Tuple[str, ...] = ()
    fuse_group: str = ""
    phase: str = "fwd"             # fwd | bwd | remat
    #: GEMM tile shape (per-expert for grouped GEMMs) for the
    #: shape-aware efficiency model; 0 means "not a GEMM".
    gemm_shape: Tuple[float, float, float] = (0.0, 0.0, 0.0)
    #: ``(index, count)`` when this op is one tile of a decomposed
    #: fused-group member (§4.2 intra-operator overlap); None for
    #: whole ops.  Tile index order is the swizzled execution order:
    #: ascending source rank for AG/RS groups, ascending token chunk
    #: for A2A-adjacent groups.
    tile: Optional[Tuple[int, int]] = None
    #: Name of the whole op this tile was split from ("" for whole ops).
    tile_of: str = ""

    def __post_init__(self):
        if self.kind == "comm":
            if self.comm_pattern not in COMM_PATTERNS:
                raise ValueError(
                    f"comm op {self.name!r} needs a pattern from "
                    f"{COMM_PATTERNS}, got {self.comm_pattern!r}"
                )
        elif self.kind not in COMPUTE_KINDS:
            raise ValueError(f"unknown op kind {self.kind!r}")


class OpGraph:
    """A validated DAG of :class:`Op` records in topological order."""

    def __init__(self, ops: Sequence[Op]):
        self.ops: List[Op] = list(ops)
        self._by_name: Dict[str, Op] = {}
        self.validate()

    def validate(self) -> None:
        """Check the op list is a well-formed DAG in topological order.

        Raises :class:`ValueError` on duplicate op names, dependencies
        on unknown ops, dependency cycles, and list orderings that
        place an op before one of its dependencies — in that check
        order, so the most specific diagnosis wins (a cycle is reported
        as a cycle, not as a misordering).  A list in topological order
        is acyclic, so the O(V+E) order check runs first and the cycle
        search only when it fails.
        """
        self._by_name = {}
        for op in self.ops:
            if op.name in self._by_name:
                raise ValueError(f"duplicate op name {op.name!r}")
            self._by_name[op.name] = op
        for op in self.ops:
            for dep in op.deps:
                if dep not in self._by_name:
                    raise ValueError(
                        f"op {op.name!r} depends on unknown op {dep!r}"
                    )
        try:
            self._check_topological()
        except ValueError:
            self._check_acyclic()
            raise

    def _check_acyclic(self) -> None:
        """Kahn's algorithm; any op never reaching in-degree 0 is cyclic."""
        indegree = {op.name: len(op.deps) for op in self.ops}
        consumers: Dict[str, List[str]] = {op.name: [] for op in self.ops}
        for op in self.ops:
            for dep in op.deps:
                consumers[dep].append(op.name)
        ready = [name for name, deg in indegree.items() if deg == 0]
        resolved = 0
        while ready:
            name = ready.pop()
            resolved += 1
            for consumer in consumers[name]:
                indegree[consumer] -= 1
                if indegree[consumer] == 0:
                    ready.append(consumer)
        if resolved != len(self.ops):
            stuck = sorted(n for n, deg in indegree.items() if deg > 0)
            raise ValueError(
                f"dependency cycle involving ops {stuck}"
            )

    def _check_topological(self) -> None:
        seen = set()
        for op in self.ops:
            for dep in op.deps:
                if dep not in seen:
                    raise ValueError(
                        f"op {op.name!r} appears before its dependency "
                        f"{dep!r}"
                    )
            seen.add(op.name)

    def __iter__(self):
        return iter(self.ops)

    def __len__(self):
        return len(self.ops)

    def __getitem__(self, name: str) -> Op:
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def comm_ops(self) -> List[Op]:
        """All communication ops, in graph order."""
        return [op for op in self.ops if op.kind == "comm"]

# ---------------------------------------------------------------------------
# Forward graph
# ---------------------------------------------------------------------------

def build_forward_graph(
    model: ModelConfig,
    parallel: ParallelConfig,
    micro_batch: int,
    elem_bytes: float = 2.0,
    seq_len: Optional[int] = None,
) -> OpGraph:
    """Operator DAG for one MoE layer's forward pass on one rank."""
    dims = _Dims(model, parallel, micro_batch, elem_bytes,
                 seq_len or model.seq_len)
    ops: List[Op] = []
    ops += _attention_forward(dims)
    ops += _ffn_forward(dims)
    return OpGraph(ops)


class _Dims:
    """Shared size arithmetic for graph builders."""

    def __init__(self, model: ModelConfig, parallel: ParallelConfig,
                 micro_batch: int, elem_bytes: float, seq_len: int):
        self.model = model
        self.parallel = parallel
        self.b = micro_batch
        self.s = seq_len
        self.h = model.hidden_size
        self.n = parallel.model_parallel_size
        self.m = model.gqa_ratio
        self.k = model.top_k
        self.fh = model.ffn_hidden_size
        self.E = model.n_experts
        self.eb = elem_bytes
        # Tokens this rank is responsible for in the SP region.
        self.local_tokens = self.b * self.s / self.n
        self.total_tokens = self.b * self.s

    @property
    def ep_mode(self) -> str:
        mode = self.parallel.ep_dispatch
        if mode == "adaptive":
            mode = choose_dispatch_mode(self.k, self.n)
        return mode

    def ring_send(self, full_elements: float) -> float:
        """Per-rank bytes for a ring AG/RS whose full tensor has
        ``full_elements``."""
        return full_elements / self.n * (self.n - 1) * self.eb

    def a2a_send(self, local_elements: float) -> float:
        """Per-rank bytes for an A2A where this rank redistributes
        ``local_elements``."""
        return local_elements * (self.n - 1) / self.n * self.eb


def _attention_forward(d: _Dims) -> List[Op]:
    qkv_width = d.model.qkv_output_size
    t_loc = d.local_tokens
    ops: List[Op] = [
        Op("ln1", "memory",
           mem_bytes=2 * t_loc * d.h * d.eb,
           deps=(), produces=("ln1_out",)),
    ]
    if d.parallel.attention == "sp":
        ops += [
            Op("qkv_proj", "gemm",
               flops=2 * t_loc * d.h * qkv_width,
               mem_bytes=(t_loc * (d.h + qkv_width)
                          + d.h * qkv_width) * d.eb,
               deps=("ln1",), produces=("qkv",),
               fuse_group="gemm+a2a",
               gemm_shape=(t_loc, d.h, qkv_width)),
            Op("rope", "memory",
               mem_bytes=2 * t_loc * (d.h + d.h / d.m) * d.eb,
               deps=("qkv_proj",), produces=("q_rope", "k_rope")),
            Op("qkv_a2a", "comm",
               comm_bytes=d.a2a_send(t_loc * qkv_width),
               comm_pattern="a2a",
               deps=("rope",), produces=("qkv_a2a",),
               fuse_group="a2a+attn"),
            Op("attention", "attn",
               flops=2 * 2 * d.b * d.s * (d.s / 2) * d.h / d.n,
               mem_bytes=d.total_tokens * qkv_width / d.n * d.eb,
               deps=("qkv_a2a",), produces=("attn",),
               fuse_group="a2a+attn"),
            Op("attn_a2a", "comm",
               comm_bytes=d.a2a_send(d.total_tokens * d.h / d.n),
               comm_pattern="a2a",
               deps=("attention",), produces=("attn_a2a",),
               fuse_group="a2a+gemm"),
            Op("out_proj", "gemm",
               flops=2 * t_loc * d.h * d.h,
               mem_bytes=(2 * t_loc * d.h + d.h * d.h) * d.eb,
               deps=("attn_a2a",), produces=("attn_out",),
               fuse_group="a2a+gemm",
               gemm_shape=(t_loc, d.h, d.h)),
        ]
    else:  # Megatron TP attention: AG in, RS out (Eq. 1 volume).
        ops += [
            Op("attn_ag", "comm",
               comm_bytes=d.ring_send(d.total_tokens * d.h),
               comm_pattern="ag",
               deps=("ln1",), produces=("ln1_out_full",),
               fuse_group="attn_ag+gemm"),
            Op("qkv_proj", "gemm",
               flops=2 * d.total_tokens * d.h * qkv_width / d.n,
               mem_bytes=(d.total_tokens * (d.h + qkv_width / d.n)
                          + d.h * qkv_width / d.n) * d.eb,
               deps=("attn_ag",), produces=("qkv",),
               fuse_group="attn_ag+gemm",
               gemm_shape=(d.total_tokens, d.h, qkv_width / d.n)),
            Op("rope", "memory",
               mem_bytes=2 * d.total_tokens * (d.h + d.h / d.m)
               / d.n * d.eb,
               deps=("qkv_proj",), produces=("q_rope", "k_rope")),
            Op("attention", "attn",
               flops=2 * 2 * d.b * d.s * (d.s / 2) * d.h / d.n,
               mem_bytes=d.total_tokens * qkv_width / d.n * d.eb,
               deps=("rope",), produces=("attn",)),
            Op("out_proj", "gemm",
               flops=2 * d.total_tokens * d.h * d.h / d.n,
               mem_bytes=(d.total_tokens * (d.h / d.n + d.h)
                          + d.h * d.h / d.n) * d.eb,
               deps=("attention",), produces=("attn_partial",),
               fuse_group="attn_gemm+rs",
               gemm_shape=(d.total_tokens, d.h / d.n, d.h)),
            Op("attn_rs", "comm",
               comm_bytes=d.ring_send(d.total_tokens * d.h),
               comm_pattern="rs",
               deps=("out_proj",), produces=("attn_out",),
               fuse_group="attn_gemm+rs"),
        ]
    ops.append(Op("residual1", "memory",
                  mem_bytes=3 * d.local_tokens * d.h * d.eb,
                  deps=(ops[-1].name,), produces=("ln2_in",)))
    return ops


def _ffn_forward(d: _Dims) -> List[Op]:
    ops: List[Op] = [
        Op("ln2", "memory",
           mem_bytes=2 * d.local_tokens * d.h * d.eb,
           deps=("residual1",), produces=("ln2_out",)),
    ]
    routed = d.total_tokens * d.k / d.n  # rows per rank after dispatch

    # In A2A mode the router gates this rank's local tokens before
    # dispatch; in the AG-based modes every rank routes the *gathered*
    # batch (the gate is replicated, so decisions are identical), so the
    # router joins the fused AG+scatter kernel and depends on the AG —
    # the IR mirrors what the numeric executor actually runs.
    if d.parallel.ffn == "ep" and d.ep_mode == "ag_rs":
        ops += [
            Op("ffn_ag", "comm",
               comm_bytes=d.ring_send(d.total_tokens * d.h),
               comm_pattern="ag",
               deps=("ln2",), produces=("ln2_out_ag",),
               fuse_group="ag+scatter+ggemm"),
            Op("router", "gemm",
               flops=2 * d.total_tokens * d.h * d.E,
               mem_bytes=d.total_tokens * (d.h + d.E) * d.eb,
               deps=("ffn_ag",), produces=("routing",),
               fuse_group="ag+scatter+ggemm",
               gemm_shape=(d.total_tokens, d.h, d.E)),
            Op("scatter", "memory",
               mem_bytes=(d.total_tokens * d.h + routed * d.h) * d.eb,
               deps=("ffn_ag", "router"), produces=("ffn_in",),
               fuse_group="ag+scatter+ggemm"),
        ]
        gemm_dep = "scatter"
    elif d.parallel.ffn == "ep":  # a2a dispatch
        ops += [
            Op("router", "gemm",
               flops=2 * d.local_tokens * d.h * d.E,
               mem_bytes=d.local_tokens * (d.h + d.E) * d.eb,
               deps=("ln2",), produces=("routing",),
               gemm_shape=(d.local_tokens, d.h, d.E)),
            Op("scatter", "memory",
               mem_bytes=2 * d.local_tokens * d.k * d.h * d.eb,
               deps=("ln2", "router"), produces=("send_rows",)),
            Op("dispatch_a2a", "comm",
               comm_bytes=d.a2a_send(d.local_tokens * d.k * d.h),
               comm_pattern="a2a",
               deps=("scatter",), produces=("ffn_in",),
               fuse_group="a2a+ggemm"),
        ]
        gemm_dep = "dispatch_a2a"
    else:  # TP FFN: AG in, every rank runs all routed rows on shards.
        ops += [
            Op("ffn_ag", "comm",
               comm_bytes=d.ring_send(d.total_tokens * d.h),
               comm_pattern="ag",
               deps=("ln2",), produces=("ln2_out_ag",),
               fuse_group="tp_ffn_ag+gemm"),
            Op("router", "gemm",
               flops=2 * d.total_tokens * d.h * d.E,
               mem_bytes=d.total_tokens * (d.h + d.E) * d.eb,
               deps=("ffn_ag",), produces=("routing",),
               fuse_group="tp_ffn_ag+gemm",
               gemm_shape=(d.total_tokens, d.h, d.E)),
            Op("scatter", "memory",
               mem_bytes=(d.total_tokens * d.h
                          + d.total_tokens * d.k * d.h) * d.eb,
               deps=("ffn_ag", "router"), produces=("ffn_in",),
               fuse_group="tp_ffn_ag+gemm"),
        ]
        gemm_dep = "scatter"

    if d.parallel.ffn == "ep":
        rows, width, experts_here = routed, d.fh, d.E / d.n
        ggemm_fuse = ("ag+scatter+ggemm" if d.ep_mode == "ag_rs"
                      else "a2a+ggemm")
    else:
        rows, width, experts_here = d.total_tokens * d.k, d.fh / d.n, d.E
        ggemm_fuse = "tp_ffn_ag+gemm"

    weight_bytes = experts_here * d.h * width * d.eb
    rows_per_expert = rows / max(experts_here, 1)
    ops += [
        Op("fc1", "gemm",
           flops=2 * rows * d.h * width,
           mem_bytes=(rows * (d.h + width)) * d.eb + weight_bytes,
           deps=(gemm_dep,), produces=("fc1_out",),
           fuse_group=ggemm_fuse,
           gemm_shape=(rows_per_expert, d.h, width)),
        Op("fc3", "gemm",
           flops=2 * rows * d.h * width,
           mem_bytes=(rows * (d.h + width)) * d.eb + weight_bytes,
           deps=(gemm_dep,), produces=("fc3_out",),
           gemm_shape=(rows_per_expert, d.h, width)),
        Op("swiglu", "memory",
           mem_bytes=3 * rows * width * d.eb,
           deps=("fc1", "fc3"), produces=("fc2_in",)),
        Op("fc2", "gemm",
           flops=2 * rows * width * d.h,
           mem_bytes=(rows * (width + d.h)) * d.eb + weight_bytes,
           deps=("swiglu",), produces=("fc2_out",),
           fuse_group="ggemm+gather+rs" if d.parallel.ffn == "ep"
           and d.ep_mode == "ag_rs" else (
               "tp_ffn_gemm+rs" if d.parallel.ffn == "tp" else ""),
           gemm_shape=(rows_per_expert, width, d.h)),
    ]

    if d.parallel.ffn == "ep" and d.ep_mode == "ag_rs":
        ops += [
            Op("gather", "memory",
               mem_bytes=(routed * d.h + d.total_tokens * d.h) * d.eb,
               deps=("fc2",), produces=("fc2_out_full",),
               fuse_group="ggemm+gather+rs"),
            Op("ffn_rs", "comm",
               comm_bytes=d.ring_send(d.total_tokens * d.h),
               comm_pattern="rs",
               deps=("gather",), produces=("ffn_out",),
               fuse_group="ggemm+gather+rs"),
        ]
        last = "ffn_rs"
    elif d.parallel.ffn == "ep":
        ops += [
            Op("combine_a2a", "comm",
               comm_bytes=d.a2a_send(d.local_tokens * d.k * d.h),
               comm_pattern="a2a",
               deps=("fc2",), produces=("combined_rows",),
               fuse_group="ggemm+a2a"),
            Op("weighted_sum", "memory",
               mem_bytes=2 * d.local_tokens * d.k * d.h * d.eb,
               deps=("combine_a2a",), produces=("ffn_out",)),
        ]
        last = "weighted_sum"
    else:
        ops += [
            Op("gather", "memory",
               mem_bytes=(d.total_tokens * d.k * d.h
                          + d.total_tokens * d.h) * d.eb,
               deps=("fc2",), produces=("fc2_out_full",),
               fuse_group="tp_ffn_gemm+rs"),
            Op("ffn_rs", "comm",
               comm_bytes=d.ring_send(d.total_tokens * d.h),
               comm_pattern="rs",
               deps=("gather",), produces=("ffn_out",),
               fuse_group="tp_ffn_gemm+rs"),
        ]
        last = "ffn_rs"

    ops.append(Op("residual2", "memory",
                  mem_bytes=3 * d.local_tokens * d.h * d.eb,
                  deps=(last,), produces=("hidden_next",)))
    return ops


# ---------------------------------------------------------------------------
# Backward graph
# ---------------------------------------------------------------------------

#: How each forward compute op mirrors into the backward pass: per
#: backward op, its name suffix, the factors on the forward op's FLOPs
#: and HBM bytes, the suffix of the gradient it produces
#: (``d_<name><grad>``) and whether it stays in the forward op's fuse
#: group.  :func:`build_backward_graph` builds its ops from this table,
#: and the plan search's bound prices the same numbers without them.
BACKWARD_MIRROR: Dict[str, Tuple[Tuple[str, float, float, str, bool],
                                 ...]] = {
    "gemm": ((".dgrad", 1.0, 1.0, "_in", True),
             (".wgrad", 1.0, 1.0, "_w", False)),
    "attn": ((".bwd", 2.5, 2.0, "", True),),
    "memory": ((".bwd", 1.0, 2.0, "", True),),
}


def build_backward_graph(
    fwd: OpGraph,
    selective_remat: bool = True,
) -> OpGraph:
    """Operator DAG for one MoE layer's backward pass on one rank.

    Built by mirroring the forward graph ``fwd`` (from
    :func:`build_forward_graph`) in reverse: every collective becomes
    its dual, and every compute op becomes the ops
    :data:`BACKWARD_MIRROR` names — a GEMM a dgrad and a wgrad GEMM
    (same FLOPs each), attention 2.5× its FLOPs and 2× its bytes, a
    memory op 2× its traffic.  With ``selective_remat`` the
    recompute/re-communicate ops of Fig. 8b — the activations the
    paper's plan does not retain — are inserted (phase ``"remat"``)
    with dependencies that let the scheduler overlap them.
    """
    dual = {"ag": "rs", "rs": "ag", "a2a": "a2a", "ar": "ar"}

    ops: List[Op] = []
    prev_name: Optional[str] = None
    for op in reversed(list(fwd)):
        deps = (prev_name,) if prev_name else ()
        if op.kind == "comm":
            bwd = Op(f"{op.name}.bwd", "comm",
                     comm_bytes=op.comm_bytes,
                     comm_pattern=dual[op.comm_pattern],
                     comm_scope=op.comm_scope,
                     deps=deps, produces=(f"d_{op.name}",),
                     fuse_group=op.fuse_group, phase="bwd")
            ops.append(bwd)
            prev_name = bwd.name
            continue
        mirrored = [
            Op(op.name + suffix, op.kind,
               flops=op.flops * flops, mem_bytes=op.mem_bytes * mem_bytes,
               deps=deps, produces=(f"d_{op.name}{grad}",),
               fuse_group=op.fuse_group if fused else "", phase="bwd",
               gemm_shape=op.gemm_shape)
            for suffix, flops, mem_bytes, grad, fused
            in BACKWARD_MIRROR[op.kind]]
        ops += mirrored
        prev_name = mirrored[0].name

    if selective_remat:
        # The remat transform lives next to the plan it follows (lazy
        # import: core.remat imports Op from this module).
        from .remat import insert_remat_ops
        ops = insert_remat_ops(fwd, ops)
    return OpGraph(ops)


# ---------------------------------------------------------------------------
# Tile decomposition (§4.2 intra-operator overlap)
# ---------------------------------------------------------------------------

#: Separator between a base op name and its tile index ("qkv_a2a#t0").
TILE_SEP = "#t"


def tile_name(base: str, index: int) -> str:
    """The sub-op name of one tile of a decomposed fused-group op."""
    return f"{base}{TILE_SEP}{index}"


@dataclass(frozen=True)
class TilePlan:
    """How a forward graph's fused groups decompose into tiles.

    ``group_tiles`` maps ``"<fuse_group>/<phase>"`` keys (the same keys
    the scheduler fuses on) to tile counts ``T >= 2``; groups absent
    from the map stay whole.  AG/RS-adjacent groups tile per source
    rank (``T = n``, ascending-rank swizzle), dense A2A-adjacent groups
    tile by token chunks of ``tile_tokens`` sequence positions per
    rank, and the ragged EP dispatch group tiles per source rank.
    """

    tile_tokens: int
    group_tiles: Mapping[str, int]

    def tiles_of(self, op: Op) -> int:
        """Tile count for one op (1 = stays whole)."""
        if not op.fuse_group or op.phase != "fwd":
            return 1
        return self.group_tiles.get(f"{op.fuse_group}/{op.phase}", 1)


def forward_tiles(plan: Optional[TilePlan], fuse_group: str) -> int:
    """Planned tile count of one forward fuse group (1 = whole, and
    every group of an untiled layer, ``plan=None``)."""
    if plan is None:
        return 1
    return plan.group_tiles.get(fuse_group + "/fwd", 1)


def fusable_groups(graph: OpGraph) -> Dict[str, List[str]]:
    """Groups the scheduler would fuse: >= 1 comm and >= 1 compute op.

    Returns ``{"<fuse_group>/<phase>": [member names in graph order]}``
    — the same keying :class:`~repro.core.schedule.HolisticScheduler`
    uses, so the tile transform and the fusion pass agree on which
    groups are §4.2 fused kernels.
    """
    groups: Dict[str, List[str]] = {}
    for op in graph:
        if op.fuse_group:
            groups.setdefault(
                f"{op.fuse_group}/{op.phase}", []).append(op.name)
    return {
        key: names for key, names in groups.items()
        if any(graph[n].kind == "comm" for n in names)
        and any(graph[n].kind != "comm" for n in names)
    }


def plan_tiles(graph: OpGraph, parallel_size: int, seq_len: int,
               tile_tokens: int) -> TilePlan:
    """Choose per-group tile counts for one forward graph.

    ``tile_tokens`` is the token-chunk width (sequence positions per
    rank) for dense A2A-adjacent groups; it must divide the local
    sequence shard ``seq_len / parallel_size`` exactly — tiles never
    pad, so an uneven split is a configuration error.  AG/RS and the
    ragged EP-dispatch groups always use ``parallel_size`` tiles (one
    per source rank, the paper's swizzled ordering).
    """
    if tile_tokens < 1:
        raise ValueError(f"tile_tokens must be >= 1, got {tile_tokens}")
    if seq_len % parallel_size != 0:
        raise ValueError(
            f"sequence length {seq_len} not divisible by "
            f"{parallel_size} ranks")
    local_seq = seq_len // parallel_size
    if local_seq % tile_tokens != 0:
        raise ValueError(
            f"tile_tokens={tile_tokens} must divide the local "
            f"sequence shard {local_seq} (= {seq_len}/{parallel_size}); "
            f"valid values: divisors of {local_seq}")
    token_tiles = local_seq // tile_tokens
    group_tiles: Dict[str, int] = {}
    for key, members in fusable_groups(graph).items():
        patterns = {graph[n].comm_pattern
                    for n in members if graph[n].kind == "comm"}
        if patterns & {"ag", "rs"}:
            tiles = parallel_size          # source/dest-rank swizzle
        elif "ggemm" in key:
            tiles = parallel_size          # ragged dispatch: per rank
        else:
            tiles = token_tiles            # dense A2A: token chunks
        if tiles >= 2:
            group_tiles[key] = tiles
    return TilePlan(tile_tokens=tile_tokens, group_tiles=group_tiles)


def tile_forward_graph(graph: OpGraph, plan: TilePlan) -> OpGraph:
    """Decompose fused groups of a forward graph into per-tile sub-ops.

    Every member of a planned group becomes ``T`` sub-ops named
    ``<op>#t<i>`` with work attributes split ``1/T`` each and deps that
    encode the §4.2 pipeline: tile ``i`` depends on tile ``i`` of each
    same-group producer (comm tile → consumer tile), on tile ``i-1`` of
    itself (in-order streams, the source-rank-sorted order), and on the
    *last* tile of any tiled producer outside its group.  Untiled
    consumers of a tiled op wait for its last tile.  The result is a
    valid :class:`OpGraph` whose topological orders are exactly the
    legal tile interleavings the ``tile_conformance`` invariant
    accepts.
    """
    tiles_of = {op.name: plan.tiles_of(op) for op in graph}
    tiled_ops: List[Op] = []
    for op in graph:
        count = tiles_of[op.name]
        if count < 2:
            deps = tuple(
                tile_name(d, tiles_of[d] - 1) if tiles_of[d] >= 2 else d
                for d in op.deps)
            tiled_ops.append(op if deps == op.deps
                             else replace(op, deps=deps))
            continue
        m, k, n = op.gemm_shape
        for i in range(count):
            deps = []
            for dep in op.deps:
                dep_op = graph[dep]
                if (tiles_of[dep] == count
                        and dep_op.fuse_group == op.fuse_group):
                    deps.append(tile_name(dep, i))
                elif tiles_of[dep] >= 2:
                    deps.append(tile_name(dep, tiles_of[dep] - 1))
                else:
                    deps.append(dep)
            if i > 0:
                deps.append(tile_name(op.name, i - 1))
            tiled_ops.append(replace(
                op,
                name=tile_name(op.name, i),
                flops=op.flops / count,
                mem_bytes=op.mem_bytes / count,
                comm_bytes=op.comm_bytes / count,
                deps=tuple(deps),
                produces=tuple(tile_name(p, i) for p in op.produces),
                gemm_shape=(m / count, k, n),
                tile=(i, count),
                tile_of=op.name,
            ))
    return OpGraph(tiled_ops)


def tiled_members(graph: OpGraph) -> Dict[str, List[str]]:
    """``{base op name: [tile sub-op names, ascending]}`` of a graph."""
    members: Dict[str, List[str]] = {}
    for op in graph:
        if op.tile is not None:
            members.setdefault(op.tile_of, []).append(op.name)
    return members
