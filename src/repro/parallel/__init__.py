"""Parallel execution engines over simulated ranks."""

from .block import ParallelBlockEngine, shard_sequence
from .dist_ops import (
    dist_all_gather,
    dist_all_to_all,
    dist_all_to_all_uneven,
    dist_reduce_scatter,
)
from .ep_ffn import EPFFNEngine, choose_dispatch_mode
from .pipeline import (
    PipelineTask,
    one_f_one_b_schedule,
    stage_partition,
    validate_schedule,
)
from .cp_attention import (
    cp_attention_comm_volume,
    cp_imbalance,
    cp_layout_positions,
    cp_workload_shares,
)
from .sp_attention import SPAttentionEngine
from .tp_attention import TPAttentionEngine
from .tp_ffn import TPFFNEngine

__all__ = [
    "ParallelBlockEngine",
    "shard_sequence",
    "dist_all_gather",
    "dist_all_to_all",
    "dist_all_to_all_uneven",
    "dist_reduce_scatter",
    "EPFFNEngine",
    "choose_dispatch_mode",
    "PipelineTask",
    "one_f_one_b_schedule",
    "validate_schedule",
    "SPAttentionEngine",
    "TPAttentionEngine",
    "TPFFNEngine",
    "cp_attention_comm_volume",
    "cp_imbalance",
    "cp_layout_positions",
    "cp_workload_shares",
    "stage_partition",
]
