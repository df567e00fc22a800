"""The paper's primary contribution: configs, analysis, planning,
scheduling, rematerialization, and the end-to-end trainer."""

from .analysis import (
    ActivationBudget,
    activation_budget,
    activation_elements_full,
    activation_elements_remat,
    attention_comm_volume,
    ep_ffn_comm_volume,
    ffn_comm_volume,
    memory_per_gpu,
    param_memory_per_gpu,
    scale_up_ratio,
    sp_attention_comm_volume,
    tp_attention_comm_volume,
    tp_ffn_comm_volume,
)
from .config import (
    GPU_SPECS,
    MODEL_ZOO,
    AttentionParallelism,
    FFNParallelism,
    GPUSpec,
    ModelConfig,
    ParallelConfig,
    TrainConfig,
)
from .autoschedule import AutoScheduleResult, AutoScheduler
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .cluster import ClusterSpec
from .operators import Op, OpGraph, build_backward_graph, \
    build_forward_graph
from .planner import (
    NoFeasiblePlan,
    PlanCandidate,
    PlanSearchResult,
    ScoredPlan,
    dispatch_crossover_top_k,
    dispatch_mode_times,
    enumerate_plans,
    plan_cluster,
)
from .remat import (
    ActivationSpec,
    RematPlan,
    activation_table,
    default_remat_plan,
    no_remat_plan,
)
from .schedule import FusedKernel, HolisticScheduler, OverlapConfig
from .trainer import MegaScaleTrainer, TrainStepResult

__all__ = [
    "ActivationBudget",
    "activation_budget",
    "activation_elements_full",
    "activation_elements_remat",
    "attention_comm_volume",
    "ep_ffn_comm_volume",
    "ffn_comm_volume",
    "memory_per_gpu",
    "param_memory_per_gpu",
    "scale_up_ratio",
    "sp_attention_comm_volume",
    "tp_attention_comm_volume",
    "tp_ffn_comm_volume",
    "GPU_SPECS",
    "MODEL_ZOO",
    "AttentionParallelism",
    "FFNParallelism",
    "GPUSpec",
    "ModelConfig",
    "ParallelConfig",
    "TrainConfig",
    "Op",
    "OpGraph",
    "build_backward_graph",
    "build_forward_graph",
    "ClusterSpec",
    "NoFeasiblePlan",
    "PlanCandidate",
    "PlanSearchResult",
    "ScoredPlan",
    "dispatch_crossover_top_k",
    "dispatch_mode_times",
    "enumerate_plans",
    "plan_cluster",
    "ActivationSpec",
    "RematPlan",
    "activation_table",
    "default_remat_plan",
    "no_remat_plan",
    "FusedKernel",
    "HolisticScheduler",
    "OverlapConfig",
    "MegaScaleTrainer",
    "TrainStepResult",
    "AutoScheduleResult",
    "AutoScheduler",
    "CheckpointError",
    "load_checkpoint",
    "save_checkpoint",
]
