"""Cluster description for the plan-space optimizer.

A :class:`ClusterSpec` is the typed "describe cluster" input of the
``repro plan`` pipeline: nodes × :class:`~repro.core.config.GPUSpec`
with the two link tiers every collective crosses — intra-node NVLink
and inter-node RDMA — as explicit :class:`~repro.comm.cost.LinkSpec`
values.  Heterogeneous fleets (mixed H800/A100/H20 nodes, Table 4 of
the Megatron Core efficiency report) are first-class: a node list may
mix GPU models, and synchronous training is paced by the slowest
member, so :meth:`ClusterSpec.bottleneck_gpu` is what the cost models
price compute against.

The tier selection rule is MoNTA's network-traffic-aware view: a
communication group that fits inside one node crosses only NVLink; a
group that spans nodes pays the RDMA tier for its cross-node share
(:meth:`cross_node_fraction`), which is why the planner prefers expert
placements that keep all-to-all traffic inside the node.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..comm.cost import LinkSpec
from .config import GPU_SPECS, GPUSpec

__all__ = ["ClusterSpec", "default_intra_link", "default_inter_link"]

#: Achievable fraction of spec'd NVLink bandwidth (matches
#: :class:`~repro.perf.estimator.KernelModel.link_eff`).
_NVLINK_EFF = 0.42
#: All-to-all efficiency vs ring traffic (§3.2, Fig. 7).
_A2A_EFF = 0.60


def default_intra_link(gpu: GPUSpec) -> LinkSpec:
    """The NVLink tier a GPU model offers, as the cost models see it."""
    return LinkSpec(bandwidth=gpu.nvlink_bandwidth * _NVLINK_EFF,
                    latency=1e-5, a2a_efficiency=_A2A_EFF)


def default_inter_link(gpu: GPUSpec) -> LinkSpec:
    """The inter-node RDMA tier a GPU model's NIC offers."""
    return LinkSpec(bandwidth=gpu.nic_bandwidth, latency=2e-5,
                    a2a_efficiency=_A2A_EFF)


@dataclass(frozen=True)
class ClusterSpec:
    """One training cluster: nodes × GPUs with tiered links.

    Attributes:
        name: Human-readable cluster label.
        gpus_per_node: Ranks per node (the NVLink domain size).
        node_gpus: GPU model name per node, in node order; mixed models
            describe a heterogeneous fleet.  Names resolve through
            :data:`~repro.core.config.GPU_SPECS`.
        intra_link: The NVLink tier (per-rank effective bandwidth).
        inter_link: The RDMA/NIC tier crossing node boundaries.
    """

    name: str
    gpus_per_node: int
    node_gpus: Tuple[str, ...]
    intra_link: LinkSpec = field(default=None)  # type: ignore[assignment]
    inter_link: LinkSpec = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.gpus_per_node < 1:
            raise ValueError(
                f"gpus_per_node must be >= 1, got {self.gpus_per_node}"
            )
        if not self.node_gpus:
            raise ValueError("node_gpus must name at least one node")
        unknown = sorted(set(self.node_gpus) - set(GPU_SPECS))
        if unknown:
            raise ValueError(
                f"unknown GPU models {unknown}; known: "
                f"{sorted(GPU_SPECS)}"
            )
        # Default link tiers derive from the slowest member's hardware
        # (a mixed ring runs at its weakest link).
        if self.intra_link is None:
            object.__setattr__(
                self, "intra_link", default_intra_link(
                    self.bottleneck_gpu()))
        if self.inter_link is None:
            object.__setattr__(
                self, "inter_link", default_inter_link(
                    self.bottleneck_gpu()))

    # -- shape ---------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.node_gpus)

    @property
    def n_gpus(self) -> int:
        return self.n_nodes * self.gpus_per_node

    @property
    def is_heterogeneous(self) -> bool:
        return len(set(self.node_gpus)) > 1

    def bottleneck_gpu(self) -> GPUSpec:
        """The spec synchronous training actually runs at.

        Lock-step data/pipeline parallelism is paced by the slowest
        participant, and capacity is bounded by the smallest HBM, so a
        heterogeneous fleet prices as the element-wise minimum of its
        members (Megatron Core report, Table 4 mixed-fleet rows).
        """
        gpus = [GPU_SPECS[name] for name in set(self.node_gpus)]
        if len(gpus) == 1:
            return gpus[0]
        return GPUSpec(
            name="min(" + ",".join(sorted(set(self.node_gpus))) + ")",
            peak_flops=min(g.peak_flops for g in gpus),
            memory_bytes=min(g.memory_bytes for g in gpus),
            memory_bandwidth=min(g.memory_bandwidth for g in gpus),
            nvlink_bandwidth=min(g.nvlink_bandwidth for g in gpus),
            nic_bandwidth=min(g.nic_bandwidth for g in gpus),
            sm_count=min(g.sm_count for g in gpus),
        )

    # -- tier selection (MoNTA) ----------------------------------------------

    def cross_node_fraction(self, group_size: int) -> float:
        """Fraction of a group's all-to-all peer traffic crossing nodes.

        A rank in a group of ``g`` spanning nodes of ``r`` ranks talks
        to ``g - 1`` peers, of which ``g - r`` sit on other nodes; with
        uniform routing that share of the dispatch bytes pays the RDMA
        tier.  Zero for groups that fit inside a node.
        """
        g, r = group_size, self.gpus_per_node
        if g <= r or g <= 1:
            return 0.0
        return (g - r) / (g - 1)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def homogeneous(gpu: str = "h800", n_nodes: int = 1,
                    gpus_per_node: int = 8,
                    name: str = "") -> "ClusterSpec":
        """A uniform fleet of one GPU model with derived link tiers."""
        return ClusterSpec(
            name=name or f"{n_nodes}x{gpus_per_node}x{gpu}",
            gpus_per_node=gpus_per_node,
            node_gpus=(gpu,) * n_nodes,
        )

    # -- (de)serialization ---------------------------------------------------

    @staticmethod
    def from_dict(payload: Dict) -> "ClusterSpec":
        """Build a spec from a ``--cluster`` file's payload."""
        try:
            node_gpus = tuple(payload["node_gpus"])
            gpus_per_node = int(payload["gpus_per_node"])
        except (KeyError, TypeError) as exc:
            raise ValueError(
                f"cluster spec needs 'node_gpus' and 'gpus_per_node': "
                f"{exc}"
            ) from None
        return ClusterSpec(
            name=str(payload.get("name", "cluster")),
            gpus_per_node=gpus_per_node,
            node_gpus=node_gpus,
            intra_link=_link_from_dict(payload.get("intra_link")),
            inter_link=_link_from_dict(payload.get("inter_link")),
        )

    @staticmethod
    def load(path: str) -> "ClusterSpec":
        with open(path) as handle:
            return ClusterSpec.from_dict(json.load(handle))

    def describe(self) -> str:
        """One-line cluster summary for plan output."""
        models = ",".join(sorted(set(self.node_gpus)))
        tier = (f"NVLink {self.intra_link.bandwidth / 1e9:.0f}GB/s / "
                f"RDMA {self.inter_link.bandwidth / 1e9:.0f}GB/s")
        kind = "mixed" if self.is_heterogeneous else "uniform"
        return (f"{self.name}: {self.n_nodes} nodes x "
                f"{self.gpus_per_node} GPUs ({kind}: {models}; {tier})")


def _link_from_dict(payload) -> LinkSpec:
    if payload is None:
        return None  # type: ignore[return-value]
    return LinkSpec(
        bandwidth=float(payload["bandwidth"]),
        latency=float(payload.get("latency", 1e-5)),
        a2a_efficiency=float(payload.get("a2a_efficiency", _A2A_EFF)),
    )
