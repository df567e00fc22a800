"""Analytic (α–β) cost models for the simulated collectives.

These models turn "bytes on the wire" into seconds, and are the timing
backend for the performance model (:mod:`repro.perf`) that regenerates the
paper's tables and figures.  They follow the standard α–β formulation:
a collective over ``n`` ranks decomposes into communication *steps*, each
costing ``α`` (link latency) plus ``moved_bytes / β`` (bandwidth term).

Two empirical effects from the paper are modelled explicitly:

* **All-to-all inefficiency** (§3.2, Fig. 7): all-to-all requires each
  worker to talk to all others, whereas all-gather and reduce-scatter use
  a ring of neighbour transfers; in practice A2A achieves a lower fraction
  of link bandwidth.  ``LinkSpec.a2a_efficiency`` captures this.
* **Hierarchical pipelining** (Appendix A.1, Fig. 5b): the four steps of
  hierarchical parameter sync use distinct resources (NVLink vs NIC) and
  are chunked so the stages overlap; the pipelined time approaches the
  maximum stage time rather than the sum.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "LinkSpec",
    "ring_all_gather_time",
    "ring_reduce_scatter_time",
    "all_to_all_time",
    "hierarchical_sync_time",
    "flat_sync_time",
    "cross_node_fraction",
    "tiered_all_to_all_time",
    "tiered_ring_time",
]


@dataclass(frozen=True)
class LinkSpec:
    """A communication link as seen by one rank.

    Attributes:
        bandwidth: Unidirectional per-rank bandwidth in bytes/second.
        latency: Per-step base latency (α) in seconds.
        a2a_efficiency: Fraction of ``bandwidth`` achieved by all-to-all
            traffic patterns (ring patterns achieve ~1.0).
    """

    bandwidth: float
    latency: float = 1e-5
    a2a_efficiency: float = 0.6

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be > 0, got {self.bandwidth}")
        if not 0 < self.a2a_efficiency <= 1:
            raise ValueError(
                f"a2a_efficiency must be in (0, 1], got {self.a2a_efficiency}"
            )


def ring_all_gather_time(total_bytes: float, n: int, link: LinkSpec) -> float:
    """Time to all-gather a tensor of ``total_bytes`` across ``n`` ranks.

    Ring algorithm: ``n-1`` steps, each moving one ``total/n`` shard.
    """
    if n <= 1:
        return 0.0
    shard = total_bytes / n
    return (n - 1) * (link.latency + shard / link.bandwidth)


def ring_reduce_scatter_time(total_bytes: float, n: int,
                             link: LinkSpec) -> float:
    """Time to reduce-scatter ``total_bytes`` across ``n`` ranks (ring)."""
    return ring_all_gather_time(total_bytes, n, link)


def all_to_all_time(per_rank_send_bytes: float, n: int,
                    link: LinkSpec) -> float:
    """Time for an all-to-all where each rank sends ``per_rank_send_bytes``.

    The all-pairs traffic pattern reaches only ``a2a_efficiency`` of link
    bandwidth and pays one latency per peer.
    """
    if n <= 1:
        return 0.0
    effective_bw = link.bandwidth * link.a2a_efficiency
    return (n - 1) * link.latency + per_rank_send_bytes / effective_bw


def hierarchical_sync_time(
    param_bytes: float,
    n: int,
    d: int,
    intra: LinkSpec,
    inter: LinkSpec,
    pipelined: bool = True,
    chunks: int = 8,
) -> float:
    """Time for the 4-step hierarchical sync of ``param_bytes`` replicated
    over ``n`` intra-node ranks × ``d`` nodes (Appendix A.1).

    With ``pipelined=True`` the transfer is segmented into ``chunks``
    pieces whose stages overlap across the two resources (NVLink for
    the intra-node stages, NIC for the inter-node ones, Fig. 5b): the
    makespan approaches the busier *resource*'s total work, plus a
    fill/drain term that shrinks with the chunk count.  An explicit
    event simulation of the chunked pipeline validates this closed form
    (tests/test_hierarchical_pipeline_sim.py).
    """
    intra_rs = ring_reduce_scatter_time(param_bytes, n, intra)
    inter_rs = ring_reduce_scatter_time(param_bytes / max(n, 1), d, inter)
    inter_ag = ring_all_gather_time(param_bytes / max(n, 1), d, inter)
    intra_ag = ring_all_gather_time(param_bytes, n, intra)
    stages = [intra_rs, inter_rs, inter_ag, intra_ag]
    if not pipelined:
        return sum(stages)
    nvlink_busy = intra_rs + intra_ag
    nic_busy = inter_rs + inter_ag
    bottleneck = max(nvlink_busy, nic_busy)
    fill_drain = (sum(stages) - bottleneck) / max(chunks, 1)
    return bottleneck + fill_drain


def cross_node_fraction(group_size: int, gpus_per_node: int) -> float:
    """Fraction of all-to-all peer traffic that crosses node boundaries.

    A rank in a group of ``g`` spanning nodes of ``r`` ranks sends to
    ``g - 1`` peers, ``g - r`` of them off-node; with uniform routing
    that share of the bytes rides the inter-node tier.  Zero when the
    group fits inside one node.
    """
    g, r = group_size, gpus_per_node
    if g <= r or g <= 1:
        return 0.0
    return (g - r) / (g - 1)


def tiered_all_to_all_time(per_rank_send_bytes: float, n: int,
                           gpus_per_node: int, intra: LinkSpec,
                           inter: LinkSpec) -> float:
    """All-to-all over a group that may span node boundaries.

    The intra-node share of each rank's traffic moves on NVLink while
    the cross-node share moves on the NIC; the two resources transfer
    concurrently (MoNTA's overlapping of inter-/intra-node pipelines),
    so the makespan is the busier tier's time.  Collapses to
    :func:`all_to_all_time` on the intra tier for node-local groups.
    """
    if n <= 1:
        return 0.0
    cross = cross_node_fraction(n, gpus_per_node)
    if cross == 0.0:
        return all_to_all_time(per_rank_send_bytes, n, intra)
    local_peers = min(n, gpus_per_node) - 1
    remote_peers = (n - 1) - local_peers
    t_intra = (local_peers * intra.latency
               + per_rank_send_bytes * (1.0 - cross)
               / (intra.bandwidth * intra.a2a_efficiency))
    t_inter = (remote_peers * inter.latency
               + per_rank_send_bytes * cross
               / (inter.bandwidth * inter.a2a_efficiency))
    return max(t_intra, t_inter)


def tiered_ring_time(total_bytes: float, n: int, gpus_per_node: int,
                     intra: LinkSpec, inter: LinkSpec) -> float:
    """Ring AG/RS over a group that may span node boundaries.

    A synchronous ring is paced by its slowest hop: once the ring
    crosses nodes, every one of the ``n - 1`` shard steps waits for the
    NIC-bound crossings, so the whole collective prices at the
    inter-node tier (this is why the planner keeps TP/SP/EP groups
    inside the node whenever the model's shapes allow it).
    """
    link = inter if n > gpus_per_node else intra
    return ring_all_gather_time(total_bytes, n, link)


def flat_sync_time(param_bytes: float, n: int, d: int,
                   inter: LinkSpec) -> float:
    """Time for TP-attention sync: inter-node RS + AG of the ``P/n`` shard."""
    shard = param_bytes / max(n, 1)
    return (ring_reduce_scatter_time(shard, d, inter)
            + ring_all_gather_time(shard, d, inter))
