"""End-to-end iteration-time models for MegaScale-MoE and Megatron-LM.

Assembles the per-layer operator graphs (:mod:`repro.core.operators`),
the kernel/collective duration oracle (:mod:`repro.perf.estimator`), the
holistic scheduler (:mod:`repro.core.schedule`) and the event simulator
(:mod:`repro.sim.engine`) into one number per training iteration, plus
the breakdown Fig. 12a plots (FlashAttention / GEMM / exposed comm /
others / bubble / DP).

The two systems differ exactly where the paper says they differ:

===============  =========================  ==========================
                 Megatron-LM                MegaScale-MoE
===============  =========================  ==========================
parallelism      TP attention + TP FFN      SP attention + EP FFN
overlap          none (torch.autograd)      inter- + intra-operator
scatter/gather   torch.scatter_add (slow)   custom index-mapped kernels
DP gradients     FP32 reduce-scatter        BF16 all-to-all (§5)
remat            stores all activations     selective remat (§4.1)
===============  =========================  ==========================
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from ..core.cluster import ClusterSpec
from ..core.config import (
    GPUSpec,
    ModelConfig,
    ParallelConfig,
    TrainConfig,
)
from ..core.operators import (OpGraph, build_backward_graph,
                              build_forward_graph)
from ..core.schedule import HolisticScheduler, OverlapConfig
from .estimator import CalibrationReport, KernelModel, calibrated_durations

__all__ = ["IterationBreakdown", "SystemPerfModel", "MegatronPerfModel",
           "MegaScalePerfModel"]


@dataclass
class IterationBreakdown:
    """One training iteration, decomposed (seconds, per GPU timeline)."""

    system: str
    iteration_time: float
    attn_time: float
    gemm_time: float
    memory_op_time: float
    exposed_comm_time: float
    bubble_time: float
    dp_exposed_time: float
    optimizer_time: float
    global_batch_tokens: float
    n_gpus: int
    #: Raw per-layer makespans, for debugging and ablations.
    layer_fwd_time: float = 0.0
    layer_bwd_time: float = 0.0

    @property
    def tokens_per_second(self) -> float:
        return self.global_batch_tokens / self.iteration_time

    def mfu(self, model: ModelConfig, gpu: GPUSpec) -> float:
        """Model FLOPs Utilization for this iteration."""
        flops = model.train_flops_per_token() * self.global_batch_tokens
        return flops / (self.iteration_time * self.n_gpus
                        * gpu.peak_flops)

    def fraction(self, attr: str) -> float:
        """One component's share of the iteration time."""
        return getattr(self, attr) / self.iteration_time


@dataclass
class _Half:
    """One pass of one layer shape on one rank: the forward, or the
    backward under one remat setting.  ``kinds`` (seconds per op kind)
    are shared by every price read from it, so readers must not mutate
    them; ``makespan`` and ``exposed_comm`` are its holistic schedule's,
    set when a price (not a bound) first reads it."""

    graph: Optional[OpGraph]
    durations: Optional[Dict[str, float]]
    kinds: Dict[str, float]
    makespan: Optional[float] = None
    exposed_comm: float = 0.0


@dataclass(frozen=True)
class SystemPerfModel:
    """Common machinery; subclasses pin the paper's system differences.

    Frozen because each layer half is measured and scheduled once per
    instance (and its :meth:`remat_twin`): a setting changed after the
    first call would leave stale costs behind.
    """

    name: str = "generic"
    overlap: OverlapConfig = field(default_factory=OverlapConfig.full)
    mem_eff: float = 0.80
    grad_elem_bytes: float = 4.0
    selective_remat: bool = False
    #: Re-run the full layer forward during backward (Megatron's
    #: ``--recompute-granularity full``, needed to fit 352B-scale
    #: activations without selective rematerialization).
    full_recompute: bool = False
    dp_overlap_fraction: float = 0.5
    elem_bytes: float = 2.0
    #: Optional cluster description: collectives then price against the
    #: link tier their group actually crosses, and model-parallel
    #: groups larger than a node spill onto the RDMA tier.
    cluster: Optional[ClusterSpec] = None
    #: Optional span-derived corrections (execute → trace → calibrate):
    #: per-anchor measured/modeled scales applied to every duration the
    #: scheduler and simulator consume.
    calibration: Optional[CalibrationReport] = None
    #: Layer halves this instance and its :meth:`remat_twin` have
    #: measured, keyed by what the layer graphs and the kernel model
    #: read (never ``pp`` or ``dp``); a backward's key adds its remat.
    _halves: Dict[Tuple, _Half] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def remat_twin(self) -> "SystemPerfModel":
        """This model under the other remat setting, sharing its layer
        halves: remat changes only the backward graph, so the twins
        measure and schedule each layer shape's forward once."""
        twin = replace(self, selective_remat=not self.selective_remat)
        object.__setattr__(twin, "_halves", self._halves)
        return twin

    # -- per-layer -----------------------------------------------------------

    def kernel_model(self, gpu: GPUSpec,
                     mp_group_size: int = 0) -> KernelModel:
        """Duration oracle with this system's memory-op efficiency."""
        return KernelModel(gpu, mem_eff=self.mem_eff,
                           cluster=self.cluster,
                           mp_group_size=mp_group_size)

    def layer_halves(self, model: ModelConfig, parallel: ParallelConfig,
                     micro_batch: int, gpu: GPUSpec, km: KernelModel,
                     remat: bool, scheduled: bool) -> Tuple[_Half, _Half]:
        """One MoE layer's forward half on one rank and its backward
        half under ``remat``, each measured on first use and, when
        ``scheduled``, list-scheduled on first use.

        A scheduled half drops its duration map, and a backward its
        graph; a forward keeps its graph until both remat backwards
        have been built from it.
        """
        shape = (model, parallel.model_parallel_size, parallel.attention,
                 parallel.ffn, parallel.ep_dispatch, micro_batch, gpu)
        halves = self._halves
        if shape not in halves:
            halves[shape] = self._measured(km, build_forward_graph(
                model, parallel, micro_batch, self.elem_bytes))
        fwd = halves[shape]
        if shape + (remat,) not in halves:
            halves[shape + (remat,)] = self._measured(km, build_backward_graph(
                fwd.graph, selective_remat=remat))
        bwd = halves[shape + (remat,)]
        if scheduled:
            for half in (fwd, bwd):
                if half.makespan is None:
                    _, timeline = HolisticScheduler(
                        self.overlap).schedule_timeline(half.graph,
                                                        half.durations)
                    half.makespan = timeline.makespan
                    half.exposed_comm = timeline.exposed_comm
                    half.durations = None
            bwd.graph = None
        if (fwd.makespan is not None and shape + (False,) in halves
                and shape + (True,) in halves):
            fwd.graph = None
        return fwd, bwd

    def _measured(self, km: KernelModel, graph: OpGraph) -> _Half:
        """An unscheduled half: ``graph``, its (calibrated when a
        report is installed) durations and its per-kind times."""
        if self.calibration is not None:
            durations = calibrated_durations(km, graph, self.calibration)
        else:
            durations = km.durations(graph)
        return _Half(graph, durations, _kind_times(graph, durations))

    # -- iteration ------------------------------------------------------------

    def iteration(self, model: ModelConfig, parallel: ParallelConfig,
                  train: TrainConfig, gpu: GPUSpec) -> IterationBreakdown:
        """Full iteration-time model for one (system, job) pair."""
        return self._priced(model, parallel, train, gpu, bound=False)

    def lower_bound(self, model: ModelConfig, parallel: ParallelConfig,
                    train: TrainConfig, gpu: GPUSpec) -> float:
        """A floor under ``iteration(...).iteration_time`` for this job
        under either remat setting: :meth:`iteration`'s own formula over
        the compute-stream busy time of each remat-free layer graph,
        unscheduled.  The scheduler runs every compute op and fused
        comm+compute unit on one stream, a fused unit lasts at least its
        compute part, and remat only adds ops.
        """
        return self._priced(model, parallel, train, gpu,
                            bound=True).iteration_time

    def _priced(self, model: ModelConfig, parallel: ParallelConfig,
                train: TrainConfig, gpu: GPUSpec,
                bound: bool) -> IterationBreakdown:
        p = parallel.pipeline_size
        d = parallel.data_parallel_size
        n = parallel.model_parallel_size
        n_gpus = parallel.total_gpus
        micro = train.micro_batch_size
        if train.global_batch_size % (d * micro) != 0:
            raise ValueError(
                f"global batch {train.global_batch_size} not divisible by "
                f"dp×micro = {d}×{micro}"
            )
        m = train.global_batch_size // (d * micro)
        layers_per_stage = model.n_layers / p

        km = self.kernel_model(gpu, parallel.model_parallel_size)
        fwd, bwd = self.layer_halves(
            model, parallel, micro, gpu, km,
            remat=self.selective_remat and not bound, scheduled=not bound)
        kinds_f, kinds_b = fwd.kinds, bwd.kinds
        if bound:
            fwd_makespan, layer_bwd = _busy(kinds_f), _busy(kinds_b)
            exposed_comm = 0.0
        else:
            fwd_makespan, layer_bwd = fwd.makespan, bwd.makespan
            exposed_comm = fwd.exposed_comm + bwd.exposed_comm
        if self.full_recompute:
            kinds_b = {kind: t + kinds_f[kind]
                       for kind, t in kinds_b.items()}

        # Embedding + LM head on the boundary stages (vocab-parallel).
        tokens_local = micro * model.seq_len / n
        head_flops = 2 * tokens_local * model.hidden_size \
            * model.vocab_size / max(n, 1) * n  # vocab sharded over n
        head_time = head_flops / (gpu.peak_flops * km.gemm_max_eff)
        extras = 3.0 * head_time  # fwd + 2× in backward

        bwd_makespan = layer_bwd
        if self.full_recompute:
            bwd_makespan += fwd_makespan
        period = (fwd_makespan + bwd_makespan) * layers_per_stage
        period_last = period + extras
        eff_period = max(period, period_last)

        pp_time = eff_period * m
        bubble = eff_period * (p - 1)
        compute_total = pp_time + bubble

        # Data-parallel gradient sync across nodes (Appendix A.1 keeps
        # inter-node volume identical for SP and TP attention).
        from ..core.analysis import param_memory_per_gpu
        params_bytes = param_memory_per_gpu(model, parallel)["params"] \
            / 2.0  # params stored at 2 B each, back to parameter count
        grad_bytes = params_bytes * self.grad_elem_bytes
        dp_link = km.inter_link()
        dp_time = (2.0 * grad_bytes * (d - 1) / max(d, 1)
                   / dp_link.bandwidth) if d > 1 else 0.0
        dp_exposed = dp_time * (1.0 - self.dp_overlap_fraction)

        # Optimizer: streaming 18 bytes/param through HBM.
        opt_time = params_bytes * 18.0 / gpu.memory_bandwidth

        total = compute_total + dp_exposed + opt_time

        scale = layers_per_stage * m
        return IterationBreakdown(
            system=self.name,
            iteration_time=total,
            attn_time=(kinds_f["attn"] + kinds_b["attn"]) * scale,
            gemm_time=(kinds_f["gemm"] + kinds_b["gemm"]) * scale
            + extras * m,
            memory_op_time=(kinds_f["memory"] + kinds_b["memory"]) * scale,
            exposed_comm_time=exposed_comm * scale,
            bubble_time=bubble,
            dp_exposed_time=dp_exposed,
            optimizer_time=opt_time,
            global_batch_tokens=train.global_batch_size * model.seq_len,
            n_gpus=n_gpus,
            layer_fwd_time=fwd_makespan,
            layer_bwd_time=layer_bwd,
        )


def _kind_times(graph, durations: Dict[str, float]) -> Dict[str, float]:
    """Seconds per op kind (non-attn/gemm compute counts as memory)."""
    out = {"attn": 0.0, "gemm": 0.0, "memory": 0.0, "comm": 0.0}
    for op in graph:
        out[op.kind if op.kind in out else "memory"] += durations[op.name]
    return out


def _busy(kinds: Dict[str, float]) -> float:
    """Busy time of the compute stream: every non-comm op's duration."""
    return kinds["attn"] + kinds["gemm"] + kinds["memory"]


def MegatronPerfModel(**overrides) -> SystemPerfModel:
    """The Megatron-LM baseline as characterized in §3 and §6.1."""
    defaults = dict(
        name="megatron-lm",
        overlap=OverlapConfig.none(),
        mem_eff=0.50,            # torch.scatter_add / torch.gather
        grad_elem_bytes=4.0,     # FP32 gradient reduce-scatter
        selective_remat=False,
        full_recompute=True,     # fits activations at 352B scale
        dp_overlap_fraction=0.5,
    )
    defaults.update(overrides)
    return SystemPerfModel(**defaults)


def MegaScalePerfModel(**overrides) -> SystemPerfModel:
    """MegaScale-MoE with all communication optimizations enabled."""
    defaults = dict(
        name="megascale-moe",
        overlap=OverlapConfig.full(),
        mem_eff=0.85,            # custom CUDA scatter/gather (§3.2)
        grad_elem_bytes=2.0,     # BF16 all-to-all DP compression (§5)
        selective_remat=True,
        dp_overlap_fraction=0.5,
    )
    defaults.update(overrides)
    return SystemPerfModel(**defaults)
