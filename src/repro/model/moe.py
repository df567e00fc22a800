"""Mixture-of-Experts layer: router, experts, grouped computation.

Reference (single-rank) implementation of the paper's MoE FFN:

* :class:`TopKRouter` — trainable gate with top-k selection, the
  device-group auxiliary balance loss of §3.2 ("similar to DeepSeek-V2,
  we treat the experts placed on the same GPU as a group"), and optional
  capacity-based token dropping.
* :class:`Expert` — one SwiGLU FFN (fc1 / fc3 gate / fc2, Fig. 20).
* :class:`MoELayer` — dispatch → GroupedGEMM-style per-expert compute →
  weighted combine.  Following §4.1, the gate-weighted sum is applied
  *after* FC2 so ``ffn_out`` never needs to be stored separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from ..tensor import Tensor, ops
from .layers import Linear, Module, init_linear
from .routing import DispatchPlan, RoutingResult, build_dispatch_plan

if TYPE_CHECKING:
    from ..precision.policy import PrecisionPolicy

__all__ = ["TopKRouter", "Expert", "MoELayer", "MoEOutput",
           "grouped_expert_blocks", "grouped_expert_forward"]


@dataclass
class MoEOutput:
    """Everything a MoE layer forward produces."""

    hidden: Tensor
    aux_loss: Tensor
    routing: RoutingResult
    plan: DispatchPlan
    tokens_per_expert: np.ndarray


class TopKRouter(Module):
    """Trainable gating network with top-k routing.

    Args:
        rng: Initialization source.
        hidden_size: Input feature width.
        n_experts: Total experts.
        top_k: Experts per token.
        experts_per_group: Group size for the balance loss; with EP this
            is ``n_experts / ep_size`` so each group is one GPU's experts
            (§3.2 "Load balance").  Defaults to 1 (per-expert balance).
        capacity_factor: If > 0, each expert keeps at most
            ``ceil(capacity_factor · T · k / E)`` token-slots; the rest
            are dropped.  0 disables dropping.
    """

    def __init__(self, rng: np.random.Generator, hidden_size: int,
                 n_experts: int, top_k: int, experts_per_group: int = 1,
                 capacity_factor: float = 0.0, dtype=np.float32):
        if top_k > n_experts:
            raise ValueError(f"top_k={top_k} > n_experts={n_experts}")
        if n_experts % experts_per_group != 0:
            raise ValueError(
                f"n_experts={n_experts} not divisible by "
                f"experts_per_group={experts_per_group}"
            )
        self.gate = Linear(rng, hidden_size, n_experts, dtype=dtype)
        self.n_experts = n_experts
        self.top_k = top_k
        self.experts_per_group = experts_per_group
        self.capacity_factor = capacity_factor

    def __call__(self, x_flat: Tensor) -> Tuple[RoutingResult, Tensor,
                                                Tensor]:
        """Route a flat ``[T, h]`` batch.

        Returns ``(routing, gate_weights, aux_loss)`` where
        ``gate_weights`` is the differentiable ``[T, k]`` combine-weight
        tensor (renormalized over the selected experts).
        """
        routing, weights, probs = self._route(x_flat)
        aux = self._aux_loss(probs, routing.expert_index, routing.kept)
        return routing, weights, aux

    def route(self, x_flat: Tensor) -> Tuple[RoutingResult, Tensor]:
        """:meth:`__call__` without the balance loss — for callers that
        have no use for it (inference; EP's A2A mode, whose aux loss is
        built once over the global batch)."""
        return self._route(x_flat)[:2]

    def _route(self, x_flat: Tensor) -> Tuple[RoutingResult, Tensor,
                                              Tensor]:
        return self.route_logits(self.gate(x_flat))

    def route_logits(self, logits: Tensor,
                     segments: Optional[Sequence[Tuple[int, int]]] = None
                     ) -> Tuple[RoutingResult, Tensor, Tensor]:
        """The post-gate half of routing: softmax, stable top-k,
        renormalisation and the capacity mask over ``[T, E]`` gate
        logits.  Returns ``(routing, gate_weights, probs)``.

        Everything but the capacity mask is per-row arithmetic.  The
        mask is first-come-first-served over a token batch, so
        ``segments`` (``(start, end)`` row ranges, default the whole
        batch) names the batches it runs over separately — a serving
        rank's rows concatenate several requests, and each request's
        capacity counts only its own ``end - start`` tokens.
        """
        t = logits.shape[0]
        probs = ops.softmax(logits, axis=-1)

        # Top-k selection happens on values only (indices carry no grad).
        raw = probs.data
        idx = np.argsort(-raw, axis=-1, kind="stable")[:, :self.top_k]
        selected = probs[np.arange(t)[:, None], idx]
        denom = selected.sum(axis=-1, keepdims=True)
        weights = selected / (denom + 1e-20)

        kept = np.ones_like(idx, dtype=bool)
        for a, b in segments if segments is not None else ((0, t),):
            kept[a:b] = self._capacity_mask(idx[a:b], b - a)
        routing = RoutingResult(
            expert_index=idx, gate_weight=weights.data.copy(), kept=kept)
        return routing, weights, probs

    def _capacity_mask(self, idx: np.ndarray, t: int) -> np.ndarray:
        """Token-drop mask: first-come-first-served per expert."""
        kept = np.ones_like(idx, dtype=bool)
        if self.capacity_factor <= 0:
            return kept
        capacity = int(np.ceil(
            self.capacity_factor * t * self.top_k / self.n_experts))
        fill = np.zeros(self.n_experts, dtype=np.int64)
        flat_experts = idx.reshape(-1)
        flat_kept = kept.reshape(-1)
        for pos, e in enumerate(flat_experts):
            if fill[e] >= capacity:
                flat_kept[pos] = False
            else:
                fill[e] += 1
        return flat_kept.reshape(idx.shape)

    def _aux_loss(self, probs: Tensor, idx: np.ndarray,
                  kept: np.ndarray) -> Tensor:
        """Device-group balance loss: ``G · Σ_g f_g · P_g``.

        ``f_g`` — fraction of kept token-slots dispatched to group ``g``
        (a constant w.r.t. the gate); ``P_g`` — mean routed probability
        mass of group ``g`` (differentiable).  With
        ``experts_per_group=1`` this reduces to the classic Switch loss.
        """
        g_size = self.experts_per_group
        n_groups = self.n_experts // g_size
        counts = np.bincount(idx[kept].reshape(-1),
                             minlength=self.n_experts).astype(np.float64)
        group_counts = counts.reshape(n_groups, g_size).sum(axis=1)
        total = max(group_counts.sum(), 1.0)
        f = group_counts / total  # dispatch fraction per group

        t = probs.shape[0]
        group_probs = probs.reshape(t, n_groups, g_size).sum(axis=-1)
        p = group_probs.mean(axis=0)  # [n_groups], differentiable
        return (p * f).sum() * float(n_groups)


class Expert(Module):
    """One SwiGLU feed-forward expert: ``fc2(silu(fc1 x) * fc3 x)``."""

    def __init__(self, rng: np.random.Generator, hidden_size: int,
                 ffn_hidden_size: int, dtype=np.float32):
        self.fc1 = Tensor(init_linear(rng, hidden_size, ffn_hidden_size,
                                      dtype), requires_grad=True, name="fc1")
        self.fc3 = Tensor(init_linear(rng, hidden_size, ffn_hidden_size,
                                      dtype), requires_grad=True, name="fc3")
        self.fc2 = Tensor(init_linear(rng, ffn_hidden_size, hidden_size,
                                      dtype), requires_grad=True, name="fc2")

    def weights(self, policy: Optional[PrecisionPolicy] = None,
                shard: Optional[Tuple[int, int]] = None
                ) -> Tuple[Tensor, Tensor, Tensor]:
        """``(fc1, fc3, fc2)`` as the GEMMs read them.

        ``policy`` casts each whole parameter, so a per-tensor scale is
        the unsharded one.  ``shard = (r, n)`` then takes tensor-parallel
        rank ``r``'s contiguous slice of the intermediate dim — fc1/fc3
        columns, fc2 rows — on the tape, so backward lands the shard's
        gradient on the parameter itself.
        """
        fc1, fc3, fc2 = self.fc1, self.fc3, self.fc2
        if policy is not None:
            fc1, fc3, fc2 = (policy.cast_weight(w) for w in (fc1, fc3, fc2))
        if shard is not None:
            r, n = shard
            fc1 = ops.shard(fc1, n, r, axis=1)
            fc3 = ops.shard(fc3, n, r, axis=1)
            fc2 = ops.shard(fc2, n, r, axis=0)
        return fc1, fc3, fc2

    def __call__(self, x: Tensor,
                 shard: Optional[Tuple[int, int]] = None) -> Tensor:
        """The expert on rows ``x``; with ``shard`` (see :meth:`weights`)
        the output is that rank's partial sum."""
        from ..precision.policy import current_policy
        policy = current_policy()
        if policy is not None:
            x = policy.cast_activation(x)
        fc1, fc3, fc2 = self.weights(policy, shard)
        gate_in = x @ fc1
        lin_in = x @ fc3
        fc2_in = gate_in.silu() * lin_in
        if policy is not None:
            # SwiGLU expands the dynamic range; the FC2 input is
            # re-quantized exactly where the paper applies per-token
            # quantization (§7, "FP8 training").  On a TP shard the
            # per-token scale covers only the shard's columns.
            fc2_in = policy.cast_activation(fc2_in)
        return fc2_in @ fc2


def grouped_expert_blocks(experts: Sequence[Expert], rows: Tensor,
                          row_blocks: Sequence[Tuple[int, int, int]],
                          shard: Optional[Tuple[int, int]] = None
                          ) -> Tensor:
    """GroupedGEMM over ``(local expert, start, end)`` row blocks that
    tile ``rows`` in order; ``shard`` runs a TP rank's slice of every
    expert (:meth:`Expert.weights`).

    One fused :func:`~repro.tensor.ops.grouped_swiglu` node — unless a
    :class:`~repro.precision.policy.PrecisionPolicy` is active, whose
    casts live in :meth:`Expert.__call__`; then each block runs through
    its expert and the pieces are concatenated.
    """
    from ..precision.policy import current_policy
    if current_policy() is None:
        return ops.grouped_swiglu(
            rows, [x.weights(shard=shard) for x in experts], row_blocks)
    pieces = [experts[e](rows[a:b], shard)
              for e, a, b in row_blocks if b > a]
    if not pieces:
        return Tensor(np.zeros((0, experts[0].fc2.shape[1]),
                               dtype=rows.dtype))
    return ops.concat(pieces, axis=0)


def grouped_expert_forward(experts: List[Expert], ffn_in: Tensor,
                           plan: DispatchPlan,
                           expert_offset: int = 0) -> Tensor:
    """GroupedGEMM: run each expert on its contiguous row block.

    ``ffn_in`` rows must already be sorted by expert per ``plan``;
    ``expert_offset`` maps plan expert ids onto the local ``experts``
    list (non-zero on EP ranks holding a slice of the expert set).
    """
    blocks = []
    for expert_id, start, end in plan.expert_slices():
        local = expert_id - expert_offset
        if not 0 <= local < len(experts):
            raise IndexError(
                f"plan references expert {expert_id}, but this rank holds "
                f"[{expert_offset}, {expert_offset + len(experts)})"
            )
        blocks.append((local, start, end))
    return grouped_expert_blocks(experts, ffn_in, blocks)


class MoELayer(Module):
    """Router + experts + dispatch/combine, reference implementation."""

    def __init__(self, rng: np.random.Generator, hidden_size: int,
                 ffn_hidden_size: int, n_experts: int, top_k: int,
                 experts_per_group: int = 1, capacity_factor: float = 0.0,
                 dtype=np.float32):
        self.router = TopKRouter(rng, hidden_size, n_experts, top_k,
                                 experts_per_group, capacity_factor, dtype)
        self.experts = [Expert(rng, hidden_size, ffn_hidden_size, dtype)
                        for _ in range(n_experts)]
        self.hidden_size = hidden_size
        self.n_experts = n_experts
        self.top_k = top_k

    def __call__(self, x: Tensor) -> MoEOutput:
        """Forward over ``[b, s, h]`` (or already-flat ``[T, h]``) input."""
        orig_shape = x.shape
        if x.ndim == 3:
            x_flat = x.reshape(-1, orig_shape[-1])
        else:
            x_flat = x
        t = x_flat.shape[0]

        routing, weights, aux = self.router(x_flat)
        plan = build_dispatch_plan(routing, self.n_experts)

        fc2_out = grouped_expert_forward(self.experts, plan.dispatch(x_flat),
                                         plan)
        combined = plan.combine(fc2_out, weights, t)

        if len(orig_shape) == 3:
            combined = combined.reshape(*orig_shape)
        return MoEOutput(
            hidden=combined,
            aux_loss=aux,
            routing=routing,
            plan=plan,
            tokens_per_expert=routing.tokens_per_expert(self.n_experts),
        )
