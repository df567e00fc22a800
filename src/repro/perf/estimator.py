"""Kernel and collective duration estimation from GPU specifications.

Times every :class:`~repro.core.operators.Op` on a given
:class:`~repro.core.config.GPUSpec` with a roofline model:

* GEMMs run at ``min(peak·eff, mem_bw·intensity)`` — thin shards (e.g.
  TP slicing each expert's intermediate dimension) automatically lose
  efficiency because their arithmetic intensity drops, reproducing the
  GEMM-efficiency argument of §3.2 without a hand-tuned penalty.
* Attention (FlashAttention-style) has its own efficiency cap.
* Memory-bound ops move their bytes at a fraction of HBM bandwidth;
  the fraction is a knob because MegaScale-MoE's custom CUDA
  scatter/gather ops beat ``torch.scatter_add`` (§3.2).
* Collectives use the α–β models of :mod:`repro.comm.cost`; all-to-all
  pays the all-pairs efficiency penalty (Fig. 7); ``comm_scope``
  selects NVLink vs NIC.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

from ..comm.cost import (
    LinkSpec,
    tiered_all_to_all_time,
    tiered_ring_time,
)
from ..core.cluster import ClusterSpec
from ..core.config import GPUSpec
from ..core.operators import Op, OpGraph

__all__ = [
    "KernelModel",
    "AnchorCalibration",
    "CalibrationReport",
    "DAG_SPAN_PREFIX",
    "TILE_SPAN_PREFIX",
    "calibrate_from_spans",
    "calibrated_durations",
]


@dataclass
class KernelModel:
    """Per-op duration oracle for one GPU model.

    Attributes:
        gpu: Hardware specification (Table 4).
        gemm_max_eff: Peak fraction a well-shaped GEMM reaches.
        attn_eff: Peak fraction for FlashAttention kernels.
        mem_eff: HBM-bandwidth fraction for memory-bound ops (lower for
            stock ``torch.scatter_add``-style kernels, higher for the
            paper's custom scatter/gather).
        link_eff: Achievable fraction of the spec'd NVLink bandwidth.
        a2a_eff: Additional all-to-all inefficiency vs ring collectives.
        kernel_latency: Fixed launch/dispatch overhead per op.
        cluster: Optional cluster description; when set, collectives
            price against the link tier their group actually crosses
            (MoNTA-style) instead of deriving both tiers from ``gpu``.
        mp_group_size: Size of the model-parallel group the graph's
            "intra"-scoped collectives run over; a group larger than
            the cluster's node size spills onto the inter-node tier.
            0 means "fits in the node" (the legacy assumption).
    """

    gpu: GPUSpec
    gemm_max_eff: float = 0.55
    attn_eff: float = 0.35
    mem_eff: float = 0.80
    link_eff: float = 0.42
    a2a_eff: float = 0.60
    kernel_latency: float = 5e-6
    cluster: Optional[ClusterSpec] = None
    mp_group_size: int = 0
    #: Tile-quantization constants of the shape-efficiency factor
    #: d/(d+c), separately for the row (M) and the weight (N/K)
    #: dimensions: few rows per expert (micro-batch 1) dominate the
    #: grouped-GEMM inefficiency, while thin TP weight shards add a
    #: smaller penalty.  Calibrated once against Table 3's 240-GPU rows.
    shape_tile_rows: float = 512.0
    shape_tile_weights: float = 128.0

    def intra_link(self) -> LinkSpec:
        """The NVLink link as the cost models see it."""
        if self.cluster is not None:
            return self.cluster.intra_link
        return LinkSpec(
            bandwidth=self.gpu.nvlink_bandwidth * self.link_eff,
            latency=1e-5,
            a2a_efficiency=self.a2a_eff,
        )

    def inter_link(self) -> LinkSpec:
        """The inter-node NIC link as the cost models see it."""
        if self.cluster is not None:
            return self.cluster.inter_link
        return LinkSpec(
            bandwidth=self.gpu.nic_bandwidth,
            latency=2e-5,
            a2a_efficiency=self.a2a_eff,
        )

    def _mp_spans_nodes(self) -> bool:
        """Does the model-parallel group spill past the NVLink domain?"""
        return (self.cluster is not None and self.mp_group_size
                > self.cluster.gpus_per_node)

    def op_duration(self, op: Op) -> float:
        """Seconds for one op on one rank."""
        if op.kind == "comm":
            return self._comm_duration(op)
        return self.compute_duration(op.kind, op.flops, op.mem_bytes,
                                     op.gemm_shape)

    def compute_duration(self, kind: str, flops: float, mem_bytes: float,
                         gemm_shape: Tuple[float, float, float]) -> float:
        """Seconds for one compute op of ``kind`` on one rank, priced
        from its work alone (no :class:`Op` record needed)."""
        if kind == "gemm":
            eff = self.gemm_max_eff * self._shape_factor(gemm_shape)
            compute = flops / (self.gpu.peak_flops * eff)
            memory = mem_bytes / self.gpu.memory_bandwidth
            return max(compute, memory) + self.kernel_latency
        if kind == "attn":
            compute = flops / (self.gpu.peak_flops * self.attn_eff)
            memory = mem_bytes / self.gpu.memory_bandwidth
            return max(compute, memory) + self.kernel_latency
        # memory-bound
        return (mem_bytes / (self.gpu.memory_bandwidth * self.mem_eff)
                + self.kernel_latency)

    def _comm_duration(self, op: Op) -> float:
        if op.comm_scope != "inter" and self._mp_spans_nodes():
            # An "intra"-scoped collective whose group spans nodes pays
            # the tier each byte actually crosses (MoNTA accounting).
            assert self.cluster is not None
            n, r = self.mp_group_size, self.cluster.gpus_per_node
            intra, inter = self.intra_link(), self.inter_link()
            if op.comm_pattern == "a2a":
                return tiered_all_to_all_time(op.comm_bytes, n, r,
                                              intra, inter)
            # comm_bytes = (n-1) × shard; recover the full tensor size
            # the tiered ring model expects.
            total = op.comm_bytes * n / max(n - 1, 1)
            return tiered_ring_time(total, n, r, intra, inter)
        link = (self.inter_link() if op.comm_scope == "inter"
                else self.intra_link())
        if op.comm_pattern == "a2a":
            # comm_bytes already includes the (n-1)/n self-exclusion.
            return (op.comm_bytes / (link.bandwidth * link.a2a_efficiency)
                    + link.latency)
        # Ring AG/RS/AR: comm_bytes = (n-1) × shard, moved at link speed.
        return op.comm_bytes / link.bandwidth + link.latency

    def durations(self, graph: OpGraph) -> Dict[str, float]:
        """Duration map for a whole operator graph."""
        return {op.name: self.op_duration(op) for op in graph}

    def _shape_factor(self, shape) -> float:
        m, k, n = shape
        if not (m and k and n):
            return 1.0
        cm, cw = self.shape_tile_rows, self.shape_tile_weights
        return (m / (m + cm)) * (k / (k + cw)) * (n / (n + cw))

    def gemm_efficiency(self, rows: float, k_dim: float,
                        n_dim: float) -> float:
        """Achieved peak fraction of an ``[rows,k]×[k,n]`` GEMM.

        Combines the shape (tile-quantization) factor with the roofline:
        thin shards — e.g. TP slicing ``h_ffn`` to ``h_ffn/n`` — lose
        efficiency on both counts, which is the §3.2 argument for EP.
        """
        flops = 2.0 * rows * k_dim * n_dim
        bytes_moved = 2.0 * (rows * k_dim + k_dim * n_dim + rows * n_dim)
        intensity = flops / bytes_moved
        roof = intensity * self.gpu.memory_bandwidth / self.gpu.peak_flops
        return min(self.gemm_max_eff * self._shape_factor(
            (rows, k_dim, n_dim)), roof)


# -- span-driven calibration --------------------------------------------------
#
# The DAG executor emits one tracer span per binding ("dag.op:<anchor>"
# with an ``ops`` attribute listing the graph ops the binding covers).
# These spans measure what actually ran, so they can pull the roofline
# model toward reality: per-anchor measured/predicted ratios become
# multiplicative corrections on the modeled durations the scheduler and
# simulator consume.  On this numpy testbed the "measured" times are
# wall-clock of the simulation itself — the value here is the closed
# loop (execute → trace → calibrate → re-simulate), which is exactly
# how the real system would be tuned against profiler output.

#: Span-name prefix the DAG executor uses for per-binding spans.
DAG_SPAN_PREFIX = "dag.op:"

#: Span-name prefix the chunked collectives use for per-tile spans
#: (``dag.tile:<op>#t<i>``, §4.2).  Calibrating a *tile graph* against
#: these spans fits each comm tile sub-op directly; ``dag.op:`` spans
#: whose covered base ops were tile-decomposed expand to all their
#: sub-ops, so atomic compute bindings calibrate their tiles too.
TILE_SPAN_PREFIX = "dag.tile:"


def _expand_to_graph_ops(graph: OpGraph, names) -> Tuple[str, ...]:
    """Map span-attr op names onto graph members, expanding a base op
    that was tile-decomposed (absent, but with ``<name>#t0`` present)
    to all its tile sub-ops."""
    from ..core.operators import tile_name
    ops = []
    for o in names:
        if o in graph:
            ops.append(o)
            continue
        i = 0
        while tile_name(o, i) in graph:
            ops.append(tile_name(o, i))
            i += 1
    return tuple(ops)


@dataclass(frozen=True)
class AnchorCalibration:
    """Measured-vs-modeled timing for one executed binding anchor."""

    anchor: str
    ops: Tuple[str, ...]
    samples: int
    measured: float  #: mean measured seconds per occurrence
    predicted: float  #: modeled seconds summed over the covered ops

    @property
    def scale(self) -> float:
        """Multiplicative correction measured/predicted (1.0 if
        the model predicts zero time)."""
        if self.predicted <= 0.0:
            return 1.0
        return self.measured / self.predicted


@dataclass
class CalibrationReport:
    """Per-anchor corrections derived from one traced DAG run."""

    anchors: Dict[str, AnchorCalibration] = field(default_factory=dict)
    #: op name -> owning anchor (ops never traced fall back to the
    #: median scale across anchors).
    op_anchor: Dict[str, str] = field(default_factory=dict)

    @property
    def default_scale(self) -> float:
        """Median anchor scale — the fallback for untraced ops."""
        scales = [a.scale for a in self.anchors.values()]
        return statistics.median(scales) if scales else 1.0

    def scale_for(self, op_name: str) -> float:
        """The correction factor to apply to one op's modeled time."""
        anchor = self.op_anchor.get(op_name)
        if anchor is None:
            return self.default_scale
        return self.anchors[anchor].scale


def calibrate_from_spans(model: KernelModel, graph: OpGraph,
                         spans: Iterable,
                         prefix: str = DAG_SPAN_PREFIX
                         ) -> CalibrationReport:
    """Fit per-anchor corrections from DAG-executor tracer spans.

    ``spans`` is any iterable of closed
    :class:`~repro.obs.tracer.Span`-like objects (``name``,
    ``duration``, ``attrs``); spans whose name does not start with
    ``prefix`` are ignored, so the whole ``tracer.spans`` list can be
    passed directly.  Multiple occurrences of one anchor (layers,
    steps) average into a single measurement.
    """
    measured: Dict[str, list] = {}
    covered: Dict[str, Tuple[str, ...]] = {}
    for span in spans:
        name = getattr(span, "name", "")
        if not name.startswith(prefix) or not getattr(span, "closed",
                                                     True):
            continue
        anchor = name[len(prefix):]
        measured.setdefault(anchor, []).append(float(span.duration))
        ops = _expand_to_graph_ops(
            graph, str(span.attrs.get("ops", anchor)).split(","))
        covered[anchor] = ops or covered.get(anchor, ())
    report = CalibrationReport()
    for anchor, durations in sorted(measured.items()):
        ops = covered.get(anchor, ())
        predicted = sum(model.op_duration(graph[o]) for o in ops)
        report.anchors[anchor] = AnchorCalibration(
            anchor=anchor, ops=ops, samples=len(durations),
            measured=sum(durations) / len(durations),
            predicted=predicted,
        )
        for op_name in ops:
            report.op_anchor[op_name] = anchor
    return report


def calibrated_durations(model: KernelModel, graph: OpGraph,
                         report: CalibrationReport) -> Dict[str, float]:
    """:meth:`KernelModel.durations` with per-anchor corrections
    applied — drop-in for the scheduler/simulator duration map."""
    return {
        op.name: model.op_duration(op) * report.scale_for(op.name)
        for op in graph
    }
