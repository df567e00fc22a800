"""Simulated NCCL substrate: process groups, collectives, cost models."""

from .group import CommLedger, CommRecord, ProcessGroup, World
from .collectives import (
    all_gather,
    all_to_all,
    all_to_all_uneven,
    rank_ordered_sum,
    reduce_scatter,
    send_leg,
)
from .cost import (
    LinkSpec,
    all_to_all_time,
    flat_sync_time,
    hierarchical_sync_time,
    ring_all_gather_time,
    ring_reduce_scatter_time,
)
from .hierarchical import (
    flat_sync,
    hierarchical_inter_node_volume,
    hierarchical_intra_node_volume,
    hierarchical_sync,
)

__all__ = [
    "CommLedger",
    "CommRecord",
    "ProcessGroup",
    "World",
    "all_gather",
    "all_to_all",
    "all_to_all_uneven",
    "rank_ordered_sum",
    "reduce_scatter",
    "send_leg",
    "LinkSpec",
    "all_to_all_time",
    "flat_sync_time",
    "hierarchical_sync_time",
    "ring_all_gather_time",
    "ring_reduce_scatter_time",
    "flat_sync",
    "hierarchical_inter_node_volume",
    "hierarchical_intra_node_volume",
    "hierarchical_sync",
]
