"""Parallel strategies over simulated ranks: one binding factory each."""

from .ag_ffn import ag_ffn_bindings
from .block import ParallelBlockEngine, build_layer_bindings, shard_sequence
from .dist_ops import (
    dist_all_gather,
    dist_all_to_all,
    dist_all_to_all_uneven,
    dist_reduce_scatter,
)
from .ep_ffn import ep_a2a_bindings
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
from .sp_attention import sp_attention_bindings
from .tp_attention import tp_attention_bindings

__all__ = [
    "ParallelBlockEngine",
    "build_layer_bindings",
    "shard_sequence",
    "dist_all_gather",
    "dist_all_to_all",
    "dist_all_to_all_uneven",
    "dist_reduce_scatter",
    "ag_ffn_bindings",
    "ep_a2a_bindings",
    "PipelineTask",
    "one_f_one_b_schedule",
    "validate_schedule",
    "sp_attention_bindings",
    "tp_attention_bindings",
    "cp_attention_comm_volume",
    "cp_imbalance",
    "cp_layout_positions",
    "cp_workload_shares",
    "stage_partition",
]
