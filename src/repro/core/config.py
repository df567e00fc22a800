"""Model, hardware, and parallelism configuration.

This module encodes the paper's evaluation setup:

* :class:`ModelConfig` — the symbols of Table 1 plus derived parameter
  and FLOP counts; :data:`MODEL_ZOO` holds the six configurations of
  Table 2 (and the Mixtral-8×2B variant used in Figure 16).
* :class:`GPUSpec` — the hardware specifications of Table 4 (H800, A100,
  H20) plus H100 for the Appendix A.1 discussion.
* :class:`ParallelConfig` — sizes and strategy choices for attention
  (TP or SP) and FFN (TP or EP), pipeline and data parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

__all__ = [
    "AttentionParallelism",
    "FFNParallelism",
    "GPUSpec",
    "ModelConfig",
    "ParallelConfig",
    "ServeConfig",
    "TrainConfig",
    "GPU_SPECS",
    "MODEL_ZOO",
]


@dataclass(frozen=True)
class ModelConfig:
    """An MoE transformer configuration (symbols from Table 1/2).

    Attributes:
        name: Configuration name.
        n_layers: Number of transformer layers.
        hidden_size: Model hidden dimension ``h``.
        n_heads: Number of query heads.
        gqa_ratio: ``m`` — ratio of query heads to key-value heads.
        ffn_hidden_size: Expert intermediate dimension ``h_ffn``.
        n_experts: Experts per MoE layer.
        top_k: Experts each token is routed to.
        vocab_size: Vocabulary size (65,536 in the paper's evaluation).
        seq_len: Training sequence length ``s`` (8,192 in the evaluation).
    """

    name: str
    n_layers: int
    hidden_size: int
    n_heads: int
    gqa_ratio: int
    ffn_hidden_size: int
    n_experts: int
    top_k: int
    vocab_size: int = 65536
    seq_len: int = 8192

    def __post_init__(self):
        if self.n_heads % self.gqa_ratio != 0:
            raise ValueError(
                f"n_heads={self.n_heads} not divisible by "
                f"gqa_ratio={self.gqa_ratio}"
            )
        if self.hidden_size % self.n_heads != 0:
            raise ValueError(
                f"hidden_size={self.hidden_size} not divisible by "
                f"n_heads={self.n_heads}"
            )
        if self.top_k > self.n_experts:
            raise ValueError(
                f"top_k={self.top_k} exceeds n_experts={self.n_experts}"
            )

    # -- shapes ----------------------------------------------------------

    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.n_heads

    @property
    def n_kv_heads(self) -> int:
        return self.n_heads // self.gqa_ratio

    @property
    def qkv_output_size(self) -> int:
        """Output width of the fused QKV projection: ``h (1 + 2/m)``."""
        return self.hidden_size + 2 * self.n_kv_heads * self.head_dim

    # -- parameter counts --------------------------------------------------

    @property
    def attention_params_per_layer(self) -> int:
        """QKV + output projection + the two RMSNorm weights."""
        h = self.hidden_size
        return h * self.qkv_output_size + h * h + 2 * h

    @property
    def expert_params(self) -> int:
        """One expert: SwiGLU fc1, fc3 (gate) and fc2."""
        return 3 * self.hidden_size * self.ffn_hidden_size

    @property
    def ffn_params_per_layer(self) -> int:
        """All experts plus the router."""
        return (self.n_experts * self.expert_params
                + self.hidden_size * self.n_experts)

    @property
    def params_per_layer(self) -> int:
        return self.attention_params_per_layer + self.ffn_params_per_layer

    @property
    def embedding_params(self) -> int:
        """Input embedding plus untied LM head."""
        return 2 * self.vocab_size * self.hidden_size

    @property
    def total_params(self) -> int:
        return self.n_layers * self.params_per_layer + self.embedding_params

    @property
    def activated_params(self) -> int:
        """Parameters touched per token (top-k experts only)."""
        per_layer = (self.attention_params_per_layer
                     + self.hidden_size * self.n_experts
                     + self.top_k * self.expert_params)
        return self.n_layers * per_layer + self.embedding_params

    # -- FLOP counts -------------------------------------------------------

    def flops_per_token(self, seq_len: int = 0, causal: bool = True) -> float:
        """Forward-pass FLOPs per token (GEMMs + attention score/value).

        MFU in the paper counts "FlashAttention and GEMMs" (§6.1); we use
        the standard 2·params convention for GEMMs plus the attention
        quadratic term (halved under causal masking).
        """
        s = seq_len or self.seq_len
        h = self.hidden_size
        gemm_params = (h * self.qkv_output_size  # QKV projection
                       + h * h                   # output projection
                       + h * self.n_experts      # router
                       + self.top_k * self.expert_params)
        per_layer = 2.0 * gemm_params
        attend = s / 2 if causal else s
        per_layer += 2.0 * 2.0 * attend * h  # QK^T and AV
        lm_head = 2.0 * self.vocab_size * h
        return self.n_layers * per_layer + lm_head

    def train_flops_per_token(self, seq_len: int = 0) -> float:
        """Forward + backward FLOPs per token (backward = 2× forward)."""
        return 3.0 * self.flops_per_token(seq_len)

    def scaled(self, **overrides) -> "ModelConfig":
        """A copy with some fields replaced (for scaled-down runs)."""
        return replace(self, **overrides)


#: Table 2 of the paper, plus the Mixtral-8×2B variant from Figure 16.
MODEL_ZOO: Dict[str, ModelConfig] = {
    cfg.name: cfg
    for cfg in (
        ModelConfig("internal-352b", 60, 4096, 32, 4, 14336, 32, 3),
        ModelConfig("mixtral-8x7b", 32, 4096, 32, 4, 14336, 8, 2),
        ModelConfig("mixtral-8x22b", 56, 6144, 48, 6, 16384, 8, 2),
        ModelConfig("hunyuan-large", 64, 6400, 80, 10, 18304, 16, 1),
        ModelConfig("phi-3.5-moe", 32, 4096, 32, 4, 6400, 16, 2),
        ModelConfig("deepseekmoe", 28, 2048, 16, 1, 1408, 64, 6),
        ModelConfig("mixtral-8x2b", 32, 2048, 16, 4, 7168, 8, 2),
    )
}


@dataclass(frozen=True)
class GPUSpec:
    """One GPU model (Table 4) as seen by the performance model.

    Attributes:
        name: Marketing name.
        peak_flops: Dense BF16 peak in FLOP/s.
        memory_bytes: HBM capacity in bytes.
        memory_bandwidth: HBM bandwidth in bytes/s.
        nvlink_bandwidth: Per-GPU NVLink bandwidth in bytes/s.
        nic_bandwidth: Per-GPU inter-node (RDMA) bandwidth in bytes/s.
        sm_count: Streaming multiprocessors (for SM-allocation modelling).
    """

    name: str
    peak_flops: float
    memory_bytes: float
    memory_bandwidth: float
    nvlink_bandwidth: float
    nic_bandwidth: float
    sm_count: int = 132

GB = 1024.0 ** 3
TFLOPS = 1e12

#: Table 4 (H800/A100/H20) plus H100 (Appendix A.1's example) and V100
#: (the Fig. 1 generation baseline).
GPU_SPECS: Dict[str, GPUSpec] = {
    spec.name: spec
    for spec in (
        GPUSpec("v100", 125 * TFLOPS, 32 * GB, 0.9e12, 300e9, 12.5e9, 80),
        GPUSpec("h800", 989 * TFLOPS, 80 * GB, 3.4e12, 400e9, 50e9, 132),
        GPUSpec("a100", 312 * TFLOPS, 80 * GB, 2.0e12, 600e9, 25e9, 108),
        GPUSpec("h20", 148 * TFLOPS, 96 * GB, 4.0e12, 900e9, 50e9, 78),
        GPUSpec("h100", 989 * TFLOPS, 80 * GB, 3.35e12, 450e9, 50e9, 132),
    )
}


class AttentionParallelism:
    """Intra-node strategy for the attention module (§3.1)."""

    TP = "tp"   # Megatron tensor parallelism: shard heads/hidden
    SP = "sp"   # Ulysses sequence parallelism: shard sequence, A2A on heads


class FFNParallelism:
    """Intra-node strategy for the expert/FFN module (§3.2)."""

    TP = "tp"   # shard every expert's intermediate dimension
    EP = "ep"   # whole experts per rank, token dispatch


@dataclass(frozen=True)
class ParallelConfig:
    """A full parallelism assignment for one training job.

    ``model_parallel_size`` is ``n`` from Table 1 — the intra-node degree
    shared by the attention strategy (TP or SP) and the FFN strategy (TP
    or EP).  ``pipeline_size`` × ``data_parallel_size`` ×
    ``model_parallel_size`` must equal the GPU count.
    """

    model_parallel_size: int = 8
    attention: str = AttentionParallelism.SP
    ffn: str = FFNParallelism.EP
    pipeline_size: int = 1
    data_parallel_size: int = 1
    virtual_pipeline_size: int = 1
    #: EP dispatch mode: "a2a", "ag_rs", or "adaptive" (§3.2, Fig. 7).
    ep_dispatch: str = "adaptive"

    def __post_init__(self):
        if self.attention not in ("tp", "sp"):
            raise ValueError(f"unknown attention strategy {self.attention!r}")
        if self.ffn not in ("tp", "ep"):
            raise ValueError(f"unknown ffn strategy {self.ffn!r}")
        if self.ep_dispatch not in ("a2a", "ag_rs", "adaptive"):
            raise ValueError(f"unknown ep_dispatch {self.ep_dispatch!r}")
        for field_name in ("model_parallel_size", "pipeline_size",
                           "data_parallel_size", "virtual_pipeline_size"):
            v = getattr(self, field_name)
            if v < 1:
                raise ValueError(f"{field_name} must be >= 1, got {v}")

    @property
    def total_gpus(self) -> int:
        return (self.model_parallel_size * self.pipeline_size
                * self.data_parallel_size)

    @property
    def strategy_name(self) -> str:
        """Paper notation ``X+Y`` (attention+FFN), e.g. ``SP+EP``."""
        return f"{self.attention.upper()}+{self.ffn.upper()}"

    @staticmethod
    def megascale(model_parallel_size: int = 8, pipeline_size: int = 1,
                  data_parallel_size: int = 1,
                  **kwargs) -> "ParallelConfig":
        """MegaScale-MoE's choice: SP attention + EP FFN (§3)."""
        return ParallelConfig(
            model_parallel_size=model_parallel_size,
            attention=AttentionParallelism.SP,
            ffn=FFNParallelism.EP,
            pipeline_size=pipeline_size,
            data_parallel_size=data_parallel_size,
            **kwargs,
        )

    @staticmethod
    def megatron(model_parallel_size: int = 8, pipeline_size: int = 1,
                 data_parallel_size: int = 1,
                 **kwargs) -> "ParallelConfig":
        """The Megatron-LM baseline: TP for both modules (§6.1)."""
        return ParallelConfig(
            model_parallel_size=model_parallel_size,
            attention=AttentionParallelism.TP,
            ffn=FFNParallelism.TP,
            pipeline_size=pipeline_size,
            data_parallel_size=data_parallel_size,
            **kwargs,
        )


@dataclass(frozen=True)
class TrainConfig:
    """Knobs of one training run."""

    global_batch_size: int = 720
    micro_batch_size: int = 1
    seq_len: int = 8192
    learning_rate: float = 3e-4
    weight_decay: float = 0.1
    adam_beta1: float = 0.9
    adam_beta2: float = 0.95
    adam_eps: float = 1e-8
    grad_clip: float = 1.0
    #: Mixed-precision regime: "bf16" or "fp8" (§5).
    precision: str = "bf16"
    #: Apply DP gradient-communication compression (§5, Fig. 10/17).
    dp_comm_compression: bool = False
    #: Selective activation rematerialization (§4.1, Fig. 8/16).
    selective_remat: bool = True
    #: Router auxiliary (load-balance) loss coefficient (§3.2).
    aux_loss_coeff: float = 0.01
    #: One-valued (None or "sequential" / "dag") and read by nothing:
    #: every layer runs through the sequential DAG executor.  Kept only
    #: because the frozen benchmarks/wallclock/train_workload.py spells
    #: them; the next benchmark PR drops both.
    execution: Optional[str] = None
    backend: Optional[str] = None
    #: §4.2 tile-granular fused-kernel execution: token-chunk width
    #: (sequence positions per rank) for A2A-adjacent fused groups;
    #: AG/RS groups always tile per source rank.  Must divide the
    #: local sequence shard ``seq_len / n`` (validated when the layer
    #: program is planned).  None keeps fused groups whole.
    tile_tokens: Optional[int] = None

    def __post_init__(self):
        if self.precision not in ("bf16", "fp8", "fp32"):
            raise ValueError(f"unknown precision {self.precision!r}")
        if self.global_batch_size < 1 or self.micro_batch_size < 1:
            raise ValueError("batch sizes must be >= 1")
        if self.execution not in (None, "sequential"):
            raise ValueError(
                f"unknown execution mode {self.execution!r}; the only "
                "one is 'sequential'"
            )
        if self.backend not in (None, "dag"):
            raise ValueError(
                f"unknown backend {self.backend!r}; the only one is "
                "'dag'"
            )
        if self.tile_tokens is not None and self.tile_tokens < 1:
            raise ValueError(
                f"tile_tokens must be >= 1, got {self.tile_tokens}"
            )


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of the continuous-batching inference engine.

    The serving path (:mod:`repro.serve`) disaggregates the model
    DisagMoE-style: ``attention_ranks`` hold requests (and their paged
    KV caches) while ``expert_ranks`` hold contiguous expert slices;
    the two groups exchange activation rows through the uneven-a2a
    collectives every MoE layer.  Iteration costs are a simple linear
    model used to advance an injected virtual clock, which is what
    makes the latency-SLO benchmarks deterministic in CI.
    """

    #: Ranks holding requests, KV caches, and attention compute.
    attention_ranks: int = 2
    #: Ranks holding contiguous expert slices (DisagMoE FFN side).
    expert_ranks: int = 2
    #: Tokens per paged KV block.
    kv_block_size: int = 4
    #: Total KV blocks in the (per-attention-rank) pool.
    kv_blocks: int = 128
    #: Maximum concurrently active (admitted) requests.
    max_batch_size: int = 4
    #: Virtual-clock cost of one scheduler iteration (fixed part).
    iteration_cost: float = 1.0
    #: Additional virtual-clock cost per prefill token.
    prefill_token_cost: float = 0.01
    #: Additional virtual-clock cost per decode token.
    decode_token_cost: float = 0.1
    #: Generated tokens per request unless the request overrides it.
    max_new_tokens: int = 4

    def __post_init__(self):
        if self.attention_ranks < 1:
            raise ValueError(
                f"attention_ranks must be >= 1, got "
                f"{self.attention_ranks}"
            )
        if self.expert_ranks < 1:
            raise ValueError(
                f"expert_ranks must be >= 1, got {self.expert_ranks}"
            )
        if self.kv_block_size < 1:
            raise ValueError(
                f"kv_block_size must be >= 1, got {self.kv_block_size}"
            )
        if self.kv_blocks < 1:
            raise ValueError(
                f"kv_blocks must be >= 1, got {self.kv_blocks}"
            )
        if self.max_batch_size < 1:
            raise ValueError(
                f"max_batch_size must be >= 1, got "
                f"{self.max_batch_size}"
            )
        if self.max_new_tokens < 1:
            raise ValueError(
                f"max_new_tokens must be >= 1, got "
                f"{self.max_new_tokens}"
            )
        for name in ("iteration_cost", "prefill_token_cost",
                     "decode_token_cost"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def world_size(self) -> int:
        """Total simulated ranks: attention group + expert group."""
        return self.attention_ranks + self.expert_ranks
