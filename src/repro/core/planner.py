"""Parallelism planning (§3, Fig. 4, §7).

:func:`plan_cluster` is the one planner: it enumerates every
shape-divisible (MP degree, SP/TP attention, EP/TP FFN, dispatch mode,
PP, DP, precision, remat) combination for a described cluster, drops
the ones that do not fit the bottleneck GPU's HBM, and returns the one
the simulator prices fastest, skipping plans whose lower bound shows
they cannot win.  On the paper's 8-GPU nodes this recovers the
MegaScale-MoE choice — SP attention and EP experts inside the node,
all-to-all dispatch left of the Fig. 7 crossover and
all-gather/reduce-scatter right of it, PP across nodes, DP outermost —
and raises :class:`NoFeasiblePlan` instead of emitting a plan that does
not fit.

Also provides the Fig. 7 timing comparison of the three dispatch
collectives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..comm.cost import (
    LinkSpec,
    all_to_all_time,
    ring_all_gather_time,
    ring_reduce_scatter_time,
)
from .analysis import (
    ep_ffn_comm_volume,
    held_activation_bytes,
    param_memory_per_gpu,
    scale_up_ratio,
    sp_attention_comm_volume,
    tp_attention_comm_volume,
)
from .cluster import ClusterSpec
from .config import ModelConfig, ParallelConfig, TrainConfig
from .remat import RematPlan, default_remat_plan, no_remat_plan

__all__ = ["dispatch_mode_times", "dispatch_crossover_top_k",
           "NoFeasiblePlan", "PlanCandidate", "ScoredPlan",
           "PlanSearchResult", "plan_cluster"]

#: Wire bytes per element for each training precision policy (§5).
_PRECISION_BYTES = {"bf16": 2.0, "fp8": 1.0, "fp32": 4.0}

#: Fraction of the bottleneck GPU's HBM a plan may fill; the rest is
#: left for collective scratch, workspaces and fragmentation.
HBM_HEADROOM = 0.9

#: The activation-retention plan each ``PlanCandidate.remat`` names.
_REMAT_PLANS = {"selective": default_remat_plan(), "none": no_remat_plan()}


def dispatch_mode_times(
    model: ModelConfig,
    top_k: int,
    n: int,
    link: LinkSpec,
    micro_batch: int = 1,
    precision: str = "bf16",
) -> Dict[str, float]:
    """Fig. 7 — dispatch time per collective choice for a given top-k.

    Returns seconds for ``a2a`` (uneven all-to-all of routed rows),
    ``ag`` (all-gather of all tokens) and ``rs`` (reduce-scatter of the
    combined tensor).  Dispatch under AG/RS mode costs ``ag``; combine
    costs ``rs``; A2A mode pays ``a2a`` both ways.

    ``precision`` threads the training precision policy onto the wire.
    Under ``"fp8"`` the AG/RS payloads travel FP8-E4M3 with one 4-byte
    per-token scale, exactly the wire format of
    :mod:`repro.parallel.dist_ops_fp8`, while the uneven all-to-all
    stays in the training activation format — so fp8 shifts the
    crossover toward smaller top-k (a uniform element-size rescale
    would cancel out of the comparison entirely).
    """
    tokens = micro_batch * model.seq_len
    h = model.hidden_size
    if precision == "fp8":
        # AG/RS legs are fp8-compressed (1 byte/elem + a 4-byte scale
        # per token row); the uneven a2a keeps the bf16 training format.
        a2a_elem = _PRECISION_BYTES["bf16"]
        ring_elem = _PRECISION_BYTES["fp8"] + 4.0 / h
    else:
        a2a_elem = ring_elem = _PRECISION_BYTES[precision]
    a2a_bytes = tokens * top_k / n * h * (n - 1) / n * a2a_elem
    full_bytes = tokens * h * ring_elem
    return {
        "a2a": all_to_all_time(a2a_bytes, n, link),
        "ag": ring_all_gather_time(full_bytes, n, link),
        "rs": ring_reduce_scatter_time(full_bytes, n, link),
    }


def dispatch_crossover_top_k(model: ModelConfig, n: int,
                             link: LinkSpec,
                             precision: str = "bf16") -> int:
    """Smallest top-k at which AG/RS dispatch beats A2A (Fig. 7)."""
    for k in range(1, model.n_experts + 1):
        times = dispatch_mode_times(model, k, n, link,
                                    precision=precision)
        if times["ag"] + times["rs"] <= 2 * times["a2a"]:
            return k
    return model.n_experts + 1


# ---------------------------------------------------------------------------
# Plan-space optimizer: describe cluster → enumerate → price → emit.
# ---------------------------------------------------------------------------


class NoFeasiblePlan(RuntimeError):
    """No candidate satisfies divisibility + memory on this cluster.

    Raised (instead of silently emitting an OOM plan) when every
    enumerated combination either fails a shape-divisibility check or
    does not fit the bottleneck GPU's HBM even with full remat.
    """

    def __init__(self, message: str, n_enumerated: int = 0):
        super().__init__(message)
        self.n_enumerated = n_enumerated


@dataclass(frozen=True)
class PlanCandidate:
    """One point of the plan space the enumerator walks.

    Combines the parallelism assignment with the precision policy and
    the rematerialization plan — the three axes that change what moves
    on the wire and what stays in HBM.
    """

    parallel: ParallelConfig
    precision: str = "bf16"
    remat: str = "selective"

    def __post_init__(self):
        if self.precision not in _PRECISION_BYTES:
            raise ValueError(f"unknown precision {self.precision!r}")
        if self.remat not in _REMAT_PLANS:
            raise ValueError(f"unknown remat plan {self.remat!r}")

    @property
    def elem_bytes(self) -> float:
        """Wire bytes per activation element under this precision."""
        return _PRECISION_BYTES[self.precision]

    @property
    def remat_plan(self) -> RematPlan:
        """The activation-retention plan ``remat`` names."""
        return _REMAT_PLANS[self.remat]

    def describe(self) -> str:
        """One-line label, e.g. ``SP+EP n=8 pp=1 dp=4 a2a fp8 ...``."""
        p = self.parallel
        return (f"{p.strategy_name} n={p.model_parallel_size} "
                f"pp={p.pipeline_size} dp={p.data_parallel_size} "
                f"{p.ep_dispatch} {self.precision} remat={self.remat}")


@dataclass
class ScoredPlan:
    """A simulated candidate plus its price tags.

    ``iteration`` is the :class:`~repro.perf.systems.SystemPerfModel`
    simulation that prices it.  ``cross_node_a2a_bytes`` is the MoNTA
    accounting: per-iteration dispatch bytes that cross node boundaries.
    """

    candidate: PlanCandidate
    iteration: object  # IterationBreakdown
    cross_node_a2a_bytes: float = 0.0
    rationale: Dict[str, str] = field(default_factory=dict)  # winner only

    @property
    def iteration_time(self) -> float:
        return self.iteration.iteration_time


@dataclass
class PlanSearchResult:
    """Outcome of one plan-space search over a described cluster."""

    model: ModelConfig
    cluster: ClusterSpec
    train: TrainConfig
    best: ScoredPlan
    #: Every simulated plan, fastest first (``ranked[0] is best``).
    ranked: List[ScoredPlan]
    n_enumerated: int
    n_feasible: int
    scale_up_ratio: float

    @property
    def n_simulated(self) -> int:
        return len(self.ranked)

    def explain(self) -> str:
        """Human-readable winner summary with per-choice rationale."""
        best = self.best
        lines = [
            self.cluster.describe(),
            f"plan space: {self.n_enumerated} combinations, "
            f"{self.n_feasible} feasible, "
            f"{self.n_simulated} simulated",
            f"strategy = {best.candidate.parallel.strategy_name} "
            f"(PP={best.candidate.parallel.pipeline_size}, "
            f"DP={best.candidate.parallel.data_parallel_size})",
        ]
        lines += [f"  {key}: {why}"
                  for key, why in best.rationale.items()]
        lines.append(f"  scale-up ratio R = {self.scale_up_ratio:.2f} "
                     f"({'>' if self.scale_up_ratio > 1 else '<='} 1)")
        lines.append(f"  simulated iteration time = "
                     f"{best.iteration_time * 1e3:.1f} ms")
        return "\n".join(lines)


def _divisors(x: int) -> List[int]:
    return [d for d in range(1, x + 1) if x % d == 0]


def _raw_candidates(model: ModelConfig, cluster: ClusterSpec,
                    train: TrainConfig) -> List[PlanCandidate]:
    """Every shape-divisible combination, before the memory gate."""
    out: List[PlanCandidate] = []
    n_gpus = cluster.n_gpus
    micro = train.micro_batch_size
    for n in _divisors(n_gpus):
        attentions = []
        if model.n_heads % n == 0 and model.n_kv_heads % n == 0:
            attentions.append("sp")
        if model.n_heads % n == 0 and model.hidden_size % n == 0:
            attentions.append("tp")
        if n == 1:
            attentions = ["sp"]  # degenerate: no MP communication
        ffns: List[Tuple[str, str]] = []
        if model.n_experts % n == 0:
            if n == 1:
                ffns.append(("ep", "a2a"))
            else:
                ffns.append(("ep", "a2a"))
                ffns.append(("ep", "ag_rs"))
        if model.ffn_hidden_size % n == 0 and n > 1:
            ffns.append(("tp", "adaptive"))
        if n == 1 and not ffns:
            ffns.append(("ep", "a2a"))
        for p in _divisors(n_gpus // n):
            if model.n_layers % p != 0:
                continue
            d = n_gpus // (n * p)
            if train.global_batch_size % (d * micro) != 0:
                continue
            for attention in attentions:
                for ffn, mode in ffns:
                    for precision in ("bf16", "fp8"):
                        for remat in ("selective", "none"):
                            out.append(PlanCandidate(
                                parallel=ParallelConfig(
                                    model_parallel_size=n,
                                    attention=attention,
                                    ffn=ffn,
                                    pipeline_size=p,
                                    data_parallel_size=d,
                                    ep_dispatch=mode,
                                ),
                                precision=precision,
                                remat=remat,
                            ))
    return out


def _within_memory(model: ModelConfig, cluster: ClusterSpec,
                   candidates: List[PlanCandidate],
                   micro: int) -> List[PlanCandidate]:
    """The candidates whose static plus in-flight activation bytes
    (:func:`~repro.core.analysis.memory_per_gpu`'s total) stay under
    the bottleneck HBM's headroom.

    The precision x remat copies of a parallel shape share its static
    bytes, and retained elements depend only on the remat plan and
    ``n``, so each is computed once per search and combined with
    ``memory_per_gpu``'s own arithmetic.
    """
    cap = cluster.bottleneck_gpu().memory_bytes * HBM_HEADROOM
    static: Dict[ParallelConfig, float] = {}
    retained: Dict[Tuple[str, int], float] = {}
    out = []
    for c in candidates:
        par = c.parallel
        if par not in static:
            static[par] = param_memory_per_gpu(model, par)["total"]
        key = (c.remat, par.model_parallel_size)
        if key not in retained:
            retained[key] = c.remat_plan.retained_elements(model, par,
                                                           micro)
        need = static[par] + held_activation_bytes(
            model, par, retained[key], c.elem_bytes)
        if need < cap:
            out.append(c)
    return out


def _cross_node_a2a_bytes(model: ModelConfig, cluster: ClusterSpec,
                          cand: PlanCandidate,
                          train: TrainConfig) -> float:
    """MoNTA accounting: per-iteration a2a bytes crossing nodes."""
    par = cand.parallel
    n = par.model_parallel_size
    cross = cluster.cross_node_fraction(n)
    if cross == 0.0:
        return 0.0
    b = train.micro_batch_size
    s, h = model.seq_len, model.hidden_size
    vol = 0.0
    if par.attention == "sp":
        vol += sp_attention_comm_volume(b, s, h, n, model.gqa_ratio)
    if par.ffn == "ep" and par.ep_dispatch == "a2a":
        vol += ep_ffn_comm_volume(b, s, h, n, model.top_k)
    m = train.global_batch_size // (par.data_parallel_size * b)
    # fwd + bwd passes, every layer, every micro-batch.
    return vol * cand.elem_bytes * cross * 2.0 * model.n_layers * m


def _rationale(model: ModelConfig, cluster: ClusterSpec,
               cand: PlanCandidate, train: TrainConfig) -> Dict[str, str]:
    """Per-choice reasoning for one scored plan."""
    par = cand.parallel
    n = par.model_parallel_size
    b, s, h = train.micro_batch_size, model.seq_len, model.hidden_size
    out: Dict[str, str] = {}
    sp_vol = sp_attention_comm_volume(b, s, h, n, model.gqa_ratio)
    tp_vol = tp_attention_comm_volume(b, s, h, n)
    if par.attention == "sp":
        ratio = sp_vol / tp_vol if tp_vol else 0.0
        out["attention"] = (
            f"SP (Ulysses): a2a volume is {ratio:.2f}x of TP's ring "
            f"volume at n={n}, GQA m={model.gqa_ratio} (Eq. 2)")
    else:
        out["attention"] = (
            f"TP: heads {model.n_heads}/{model.n_kv_heads} constrain "
            f"SP at n={n}, or TP simply priced faster here (Eq. 1)")
    if par.ffn == "ep":
        out["ffn"] = (
            f"EP with {par.ep_dispatch} dispatch: top-k={model.top_k} "
            f"vs EP size {n} (Fig. 7 crossover)")
    else:
        out["ffn"] = f"TP FFN: priced faster than EP at n={n} (Eq. 4)"
    cross = cluster.cross_node_fraction(n)
    if cross > 0.0:
        out["placement"] = (
            f"MP group of {n} spans nodes of {cluster.gpus_per_node}: "
            f"{cross * 100:.0f}% of dispatch bytes ride the RDMA tier")
    else:
        out["placement"] = (
            f"MP group of {n} fits inside the {cluster.gpus_per_node}-"
            f"GPU NVLink domain: zero cross-node dispatch traffic")
    out["pipeline"] = (
        f"PP={par.pipeline_size}, DP={par.data_parallel_size}: fits "
        f"{cluster.bottleneck_gpu().name} HBM with remat={cand.remat}")
    out["precision"] = (
        f"{cand.precision}: {cand.elem_bytes:.0f} B/elem on the wire"
        + (" (§5 fp8 communication compression)"
           if cand.precision == "fp8" else ""))
    return out


def plan_cluster(
    model: ModelConfig,
    cluster: ClusterSpec,
    train: Optional[TrainConfig] = None,
    calibration=None,
    top: int = 1,
) -> PlanSearchResult:
    """Search the plan space for a model on a described cluster.

    One price: the :class:`~repro.perf.systems.SystemPerfModel` event
    simulation (calibrated when a :class:`CalibrationReport` from
    ``calibrate_from_spans`` is supplied), searched branch-and-bound.
    Every feasible candidate gets the perf model's
    :meth:`~repro.perf.systems.SystemPerfModel.lower_bound`; candidates
    are simulated in ``(bound, describe())`` order until the next bound
    exceeds the ``top``-th best simulated time, so ``ranked[:top]`` is
    exactly the simulator's ranking over every feasible plan.  Returns
    every simulated plan, fastest first, with the winner's per-choice
    rationale.

    Raises:
        NoFeasiblePlan: when no combination passes the divisibility
            and memory gates.
    """
    from ..perf.systems import MegaScalePerfModel

    if top < 1:
        raise ValueError(f"top must be >= 1, got {top}")
    train = train or TrainConfig()
    raw = _raw_candidates(model, cluster, train)
    feasible = _within_memory(model, cluster, raw, train.micro_batch_size)
    if not feasible:
        raise NoFeasiblePlan(
            f"no feasible plan for {model.name} on "
            f"{cluster.describe()}: {len(raw)} combinations enumerated"
            f", all fail shape or memory constraints",
            n_enumerated=len(raw),
        )

    gpu = cluster.bottleneck_gpu()
    # One perf model per (remat, precision): each prices a layer shape
    # (and its bound) once, and lives only as long as this search.
    perf = {(remat, precision): MegaScalePerfModel(
                cluster=cluster,
                calibration=calibration,
                selective_remat=remat == "selective",
                elem_bytes=elem_bytes,
            )
            for remat in _REMAT_PLANS
            for precision, elem_bytes in _PRECISION_BYTES.items()}

    # The remat-free model bounds both remat settings (remat only adds
    # ops), so each (layer shape, precision) is bounded once.
    queue = sorted(
        (perf["none", c.precision].lower_bound(model, c.parallel, train,
                                               gpu), c.describe(), c)
        for c in feasible)
    ranked: List[ScoredPlan] = []
    for bound, _, c in queue:
        if len(ranked) >= top and bound > ranked[top - 1].iteration_time:
            break
        ranked.append(ScoredPlan(
            candidate=c,
            iteration=perf[c.remat, c.precision].iteration(
                model, c.parallel, train, gpu),
            cross_node_a2a_bytes=_cross_node_a2a_bytes(
                model, cluster, c, train),
        ))
        ranked.sort(key=lambda s: (s.iteration_time,
                                   s.cross_node_a2a_bytes,
                                   s.candidate.describe()))

    best = ranked[0]
    best.rationale = _rationale(model, cluster, best.candidate, train)
    ratio = scale_up_ratio(
        model.ffn_hidden_size, gpu.nvlink_bandwidth, gpu.peak_flops,
        max(best.candidate.parallel.model_parallel_size, 2))
    return PlanSearchResult(
        model=model,
        cluster=cluster,
        train=train,
        best=best,
        ranked=ranked,
        n_enumerated=len(raw),
        n_feasible=len(feasible),
        scale_up_ratio=ratio,
    )
