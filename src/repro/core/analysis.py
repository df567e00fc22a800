"""Closed-form analysis from the paper.

Implements, symbol-for-symbol, the analytical results MegaScale-MoE's
design rests on:

* communication volumes of the candidate parallelism strategies
  (Eqs. 1–4, §3.1–3.2),
* the compute/communication scale-up ratio R (Eqs. 5–9, §7),
* per-layer activation-memory totals with and without selective
  activation rematerialization (Appendix A.2, Fig. 20),
* parameter/gradient/optimizer memory per GPU under SP vs TP attention
  (§3.1 "data communication & memory overhead", Fig. 13 discussion),
  and the per-GPU total with held activations that the planner gates on.

All volume functions return **elements**; multiply by the wire element
size to get bytes.  ``b, s, h, n, m, k`` follow Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .config import ModelConfig, ParallelConfig
from .remat import RematPlan

__all__ = [
    "tp_attention_comm_volume",
    "sp_attention_comm_volume",
    "ep_ffn_comm_volume",
    "tp_ffn_comm_volume",
    "attention_comm_volume",
    "ffn_comm_volume",
    "scale_up_ratio",
    "ActivationBudget",
    "activation_elements_full",
    "activation_elements_remat",
    "activation_budget",
    "param_memory_per_gpu",
    "held_activation_bytes",
    "memory_per_gpu",
]


def tp_attention_comm_volume(b: int, s: int, h: int, n: int) -> float:
    """Eq. 1 — per-pass TP attention volume: ``2 b s h (n-1)/n``.

    One all-gather plus one reduce-scatter of the ``[b, s, h]``
    activation, both on the critical path.
    """
    if n <= 1:
        return 0.0
    return 2.0 * b * s * h * (n - 1) / n


def sp_attention_comm_volume(b: int, s: int, h: int, n: int,
                             m: int) -> float:
    """Eq. 2 — per-pass Ulysses SP attention volume.

    ``2 b s h (n-1)/n × (2 + 2/m)/n``: two all-to-alls (QKV heads in,
    attention output out), shrinking with both ``n`` and the GQA ratio
    ``m``.
    """
    if n <= 1:
        return 0.0
    return tp_attention_comm_volume(b, s, h, n) * (2.0 + 2.0 / m) / n


def ep_ffn_comm_volume(b: int, s: int, h: int, n: int, k: int) -> float:
    """Eq. 3 — per-pass EP volume: ``2 k/n × b s h (n-1)/n``.

    Token dispatch and combine, each moving the routed ``k/n`` share.
    """
    if n <= 1:
        return 0.0
    return 2.0 * k / n * b * s * h * (n - 1) / n


def tp_ffn_comm_volume(b: int, s: int, h: int, n: int) -> float:
    """Eq. 4 — per-pass TP FFN volume: ``2 b s h (n-1)/n``."""
    return tp_attention_comm_volume(b, s, h, n)


def attention_comm_volume(model: ModelConfig, parallel: ParallelConfig,
                          micro_batch: int) -> float:
    """Per-pass attention communication elements under ``parallel``."""
    b, s, h = micro_batch, model.seq_len, model.hidden_size
    n = parallel.model_parallel_size
    if parallel.attention == "tp":
        return tp_attention_comm_volume(b, s, h, n)
    return sp_attention_comm_volume(b, s, h, n, model.gqa_ratio)


def ffn_comm_volume(model: ModelConfig, parallel: ParallelConfig,
                    micro_batch: int) -> float:
    """Per-pass FFN communication elements under ``parallel``.

    For EP with the all-gather/reduce-scatter dispatch mode the volume is
    capped at TP's (§3.2: "ensuring that EP's communication overhead
    remains equal to or lower than TP's").
    """
    b, s, h = micro_batch, model.seq_len, model.hidden_size
    n = parallel.model_parallel_size
    if parallel.ffn == "tp":
        return tp_ffn_comm_volume(b, s, h, n)
    a2a = ep_ffn_comm_volume(b, s, h, n, model.top_k)
    ag_rs = tp_ffn_comm_volume(b, s, h, n)
    if parallel.ep_dispatch == "a2a":
        return a2a
    if parallel.ep_dispatch == "ag_rs":
        return ag_rs
    return min(a2a, ag_rs)


def scale_up_ratio(h_ffn: int, bandwidth: float, peak: float,
                   n: int = 8) -> float:
    """Eqs. 5–8 — ratio R of FFN compute time to EP communication time.

    ``R = 3/2 · h_ffn · (bandwidth/peak) · n/(n-1)``.  R is independent of
    the number of experts, top-k, hidden size, and batch (§7, "Scale up");
    R > 1 means expert compute can fully hide dispatch/combine
    communication.  ``bandwidth`` is bytes/s on the dispatch path, ``peak``
    is FLOP/s; both sides assume the same element size, which cancels.
    """
    if n <= 1:
        return float("inf")
    return 1.5 * h_ffn * (bandwidth / peak) * n / (n - 1)


@dataclass(frozen=True)
class ActivationBudget:
    """Activation-memory accounting for one MoE layer (Appendix A.2)."""

    full_elements: float
    remat_elements: float

    @property
    def savings_fraction(self) -> float:
        if self.full_elements == 0:
            return 0.0
        return 1.0 - self.remat_elements / self.full_elements


def activation_elements_full(b: int, s: int, h: int, n: int, m: int,
                             k: int, f: float) -> float:
    """Appendix A.2 — elements stored per layer without rematerialization.

    ``(2n + 2k + 3kf + 12 + 5/m) · b s h / n`` where ``f = h_ffn / h``.
    The term-by-term derivation follows Fig. 20's activation list.
    """
    return (2 * n + 2 * k + 3 * k * f + 12 + 5.0 / m) * b * s * h / n


def activation_elements_remat(b: int, s: int, h: int, n: int, m: int,
                              k: int, f: float) -> float:
    """Appendix A.2 — elements retained with selective rematerialization.

    ``(2kf + 4 + 2/m) · b s h / n``: MegaScale-MoE keeps only ``hidden``,
    ``qkv_a2a``, ``attn_a2a``, ``ln2_in`` (4 + 2/m shares) and the two
    GroupedGEMM outputs ``fc1_out``/``fc3_out`` (2kf shares); everything
    else is recomputed or re-communicated during backward.
    """
    return (2 * k * f + 4 + 2.0 / m) * b * s * h / n


def activation_budget(model: ModelConfig, parallel: ParallelConfig,
                      micro_batch: int) -> ActivationBudget:
    """Per-layer activation budget for a model/parallelism pair."""
    f = model.ffn_hidden_size / model.hidden_size
    args = (micro_batch, model.seq_len, model.hidden_size,
            parallel.model_parallel_size, model.gqa_ratio, model.top_k, f)
    return ActivationBudget(
        full_elements=activation_elements_full(*args),
        remat_elements=activation_elements_remat(*args),
    )


def param_memory_per_gpu(
    model: ModelConfig,
    parallel: ParallelConfig,
    bytes_per_param: float = 2.0,
    optimizer_bytes_per_param: float = 16.0,
) -> Dict[str, float]:
    """Static memory per GPU: parameters, gradients, optimizer states.

    SP attention *replicates* attention weights across the ``n`` model-
    parallel ranks while TP shards them (§3.1); experts are sharded by
    both EP and TP.  ZeRO-1 shards optimizer states across every
    rank that holds an identical copy: the DP group for sharded
    parameters, and the full ``n × d`` replica set for SP's replicated
    attention weights (the hierarchical sync of Appendix A.1 gives each
    rank ownership of a ``P/(n·d)`` shard).  Returns a breakdown in
    bytes.

    ``optimizer_bytes_per_param`` defaults to BF16 mixed precision:
    FP32 master copy (4) + Adam m and v (8) + FP32 gradient (4, counted
    under ``grads``).
    """
    n = parallel.model_parallel_size
    d = parallel.data_parallel_size
    layers_per_stage = model.n_layers / parallel.pipeline_size
    opt_bytes = optimizer_bytes_per_param - 4.0

    attn = model.attention_params_per_layer
    attn_per_gpu = attn if parallel.attention == "sp" else attn / n
    ffn_per_gpu = model.ffn_params_per_layer / n
    embed_per_gpu = model.embedding_params / 2.0 / max(n, 1)
    params = (layers_per_stage * (attn_per_gpu + ffn_per_gpu)
              + embed_per_gpu)

    # ZeRO-1: replicated attention optimizer states shard across n×d;
    # the sharded components across d only.
    attn_replicas = n if parallel.attention == "sp" else 1
    optimizer = layers_per_stage * (
        attn_per_gpu / (attn_replicas * d) + ffn_per_gpu / d
    ) * opt_bytes + embed_per_gpu / d * opt_bytes

    return {
        "params": params * bytes_per_param,
        "grads": params * 4.0,
        "optimizer": optimizer,
        "total": params * (bytes_per_param + 4.0) + optimizer,
    }


def memory_per_gpu(model: ModelConfig, parallel: ParallelConfig,
                   remat: RematPlan, micro_batch: int,
                   elem_bytes: float) -> Dict[str, float]:
    """Per-GPU bytes of a training job: static plus held activations.

    ``static`` is :func:`param_memory_per_gpu`'s total.  ``activations``
    is what ``remat`` retains per layer, at ``elem_bytes`` per element,
    for every layer of the stage and for ``pipeline_size`` micro-batches
    — the most 1F1B keeps in flight, on the first stage.
    """
    static = param_memory_per_gpu(model, parallel)["total"]
    activations = held_activation_bytes(
        model, parallel, remat.retained_elements(model, parallel,
                                                 micro_batch),
        elem_bytes)
    return {"static": static, "activations": activations,
            "total": static + activations}


def held_activation_bytes(model: ModelConfig, parallel: ParallelConfig,
                          retained_elements: float,
                          elem_bytes: float) -> float:
    """:func:`memory_per_gpu`'s ``activations``: ``retained_elements``
    per layer at ``elem_bytes`` each, for every layer of the stage and
    ``pipeline_size`` micro-batches in flight."""
    layers_per_stage = model.n_layers / parallel.pipeline_size
    return (retained_elements * elem_bytes * layers_per_stage
            * parallel.pipeline_size)
