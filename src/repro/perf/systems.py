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

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..core.cluster import ClusterSpec
from ..core.config import (
    GPUSpec,
    ModelConfig,
    ParallelConfig,
    TrainConfig,
)
from ..core.operators import build_backward_graph, build_forward_graph
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


@dataclass(frozen=True)
class _LayerCost:
    """The per-layer scalars :meth:`SystemPerfModel.iteration` reads.

    ``kinds_f``/``kinds_b`` are shared by every iteration priced from
    this entry, so readers must not mutate them.
    """

    fwd_makespan: float
    bwd_makespan: float
    exposed_comm: float  # forward + backward
    kinds_f: Dict[str, float]
    kinds_b: Dict[str, float]


@dataclass(frozen=True)
class SystemPerfModel:
    """Common machinery; subclasses pin the paper's system differences.

    Frozen because :meth:`iteration` prices each layer shape once per
    instance: a setting changed after the first call would leave stale
    costs behind.
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
    #: Layer costs this instance has priced, keyed by what the layer
    #: graphs and the kernel model read: never ``pp`` or ``dp``.
    _layer_costs: Dict[Tuple, _LayerCost] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    #: Remat-free layer graphs a bound built, held for the price of the
    #: same shape and dropped when it reads them.
    _shared_graphs: Dict[Tuple, list] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    # -- per-layer -----------------------------------------------------------

    def kernel_model(self, gpu: GPUSpec,
                     mp_group_size: int = 0) -> KernelModel:
        """Duration oracle with this system's memory-op efficiency."""
        return KernelModel(gpu, mem_eff=self.mem_eff,
                           cluster=self.cluster,
                           mp_group_size=mp_group_size)

    def _durations(self, km: KernelModel, graph) -> Dict[str, float]:
        """Modeled durations, calibrated when a report is installed."""
        if self.calibration is not None:
            return calibrated_durations(km, graph, self.calibration)
        return km.durations(graph)

    def layer_graphs(self, model: ModelConfig, parallel: ParallelConfig,
                     micro_batch: int, km: KernelModel,
                     selective_remat: bool):
        """``[(graph, durations)]`` of one MoE layer's forward and
        backward pass on one rank: the graphs and duration maps both the
        schedules and the per-kind times read."""
        fwd = build_forward_graph(model, parallel, micro_batch,
                                  self.elem_bytes)
        bwd = build_backward_graph(fwd, selective_remat=selective_remat)
        return [(g, self._durations(km, g)) for g in (fwd, bwd)]

    def _layer_cost(self, model: ModelConfig, parallel: ParallelConfig,
                    micro_batch: int, gpu: GPUSpec, km: KernelModel,
                    bound: bool) -> _LayerCost:
        """One layer's scalars, priced on the first call per shape.

        With ``bound`` the makespans are each graph's compute-stream
        busy time (the sum of its non-comm durations), built without
        remat: the scheduler puts every compute op and every fused
        comm+compute unit on one stream, a fused unit lasts at least
        its compute part, and remat only adds ops — so this floors the
        simulated makespan under any overlap and either remat setting.
        Without selective remat the bound and the price read the same
        graphs, so the bound's graphs are held until the price reads
        them.
        """
        shape = (model, parallel.model_parallel_size, parallel.attention,
                 parallel.ffn, parallel.ep_dispatch, micro_batch, gpu)
        key = (bound,) + shape
        cost = self._layer_costs.get(key)
        if cost is None:
            graphs = self._shared_graphs.pop(shape, None)
            if graphs is None:
                graphs = self.layer_graphs(
                    model, parallel, micro_batch, km,
                    self.selective_remat and not bound)
                if (bound and not self.selective_remat
                        and (False,) + shape not in self._layer_costs):
                    self._shared_graphs[shape] = graphs
            (fwd, d_fwd), (bwd, d_bwd) = graphs
            kinds_f = _kind_times(fwd, d_fwd)
            kinds_b = _kind_times(bwd, d_bwd)
            if bound:
                cost = _LayerCost(_busy(kinds_f), _busy(kinds_b), 0.0,
                                  kinds_f, kinds_b)
            else:
                scheduler = HolisticScheduler(self.overlap)
                _, tl_fwd = scheduler.schedule_timeline(fwd, d_fwd)
                _, tl_bwd = scheduler.schedule_timeline(bwd, d_bwd)
                cost = _LayerCost(
                    tl_fwd.makespan, tl_bwd.makespan,
                    tl_fwd.exposed_comm + tl_bwd.exposed_comm,
                    kinds_f, kinds_b)
            self._layer_costs[key] = cost
        return cost

    # -- iteration ------------------------------------------------------------

    def iteration(self, model: ModelConfig, parallel: ParallelConfig,
                  train: TrainConfig, gpu: GPUSpec) -> IterationBreakdown:
        """Full iteration-time model for one (system, job) pair."""
        return self._priced(model, parallel, train, gpu, bound=False)

    def lower_bound(self, model: ModelConfig, parallel: ParallelConfig,
                    train: TrainConfig, gpu: GPUSpec) -> float:
        """A floor under ``iteration(...).iteration_time`` for this job
        under either remat setting: :meth:`iteration`'s own formula over
        the compute-stream busy time of each layer graph, unscheduled.
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
        layer = self._layer_cost(model, parallel, micro, gpu, km, bound)
        kinds_f, kinds_b = layer.kinds_f, layer.kinds_b
        if self.full_recompute:
            kinds_b = {kind: t + kinds_f[kind]
                       for kind, t in kinds_b.items()}

        # Embedding + LM head on the boundary stages (vocab-parallel).
        tokens_local = micro * model.seq_len / n
        head_flops = 2 * tokens_local * model.hidden_size \
            * model.vocab_size / max(n, 1) * n  # vocab sharded over n
        head_time = head_flops / (gpu.peak_flops * km.gemm_max_eff)
        extras = 3.0 * head_time  # fwd + 2× in backward

        bwd_makespan = layer.bwd_makespan
        if self.full_recompute:
            bwd_makespan += layer.fwd_makespan
        period = (layer.fwd_makespan + bwd_makespan) * layers_per_stage
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
            exposed_comm_time=layer.exposed_comm * scale,
            bubble_time=bubble,
            dp_exposed_time=dp_exposed,
            optimizer_time=opt_time,
            global_batch_tokens=train.global_batch_size * model.seq_len,
            n_gpus=n_gpus,
            layer_fwd_time=layer.fwd_makespan,
            layer_bwd_time=layer.bwd_makespan,
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
