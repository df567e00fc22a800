"""Transformer building blocks: modules, attention, norms.

The reference (single-rank) implementations of the operators in the
paper's Fig. 20: RMSNorm, fused-QKV projection, RoPE, grouped-query
self-attention, and the output projection.  The parallel engines in
:mod:`repro.parallel` must match these numerically.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..tensor import Tensor, ops

__all__ = ["Module", "Linear", "RMSNorm", "SelfAttention", "init_linear"]


def init_linear(rng: np.random.Generator, fan_in: int, fan_out: int,
                dtype=np.float32) -> np.ndarray:
    """Scaled-normal initialization, std = 1/sqrt(fan_in)."""
    std = 1.0 / np.sqrt(fan_in)
    return (rng.standard_normal((fan_in, fan_out)) * std).astype(dtype)


class Module:
    """Minimal parameter container with recursive traversal."""

    def named_parameters(self, prefix: str = "") -> Iterator[
            Tuple[str, Tensor]]:
        """Yield ``(dotted_name, parameter)`` pairs, depth-first."""
        for name, value in vars(self).items():
            full = f"{prefix}{name}" if not prefix else f"{prefix}.{name}"
            if isinstance(value, Tensor) and value.requires_grad:
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(full)
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{full}.{i}")
                    elif isinstance(item, Tensor) and item.requires_grad:
                        yield f"{full}.{i}", item

    def parameters(self) -> List[Tensor]:
        """All trainable parameter Tensors."""
        return [p for _, p in self.named_parameters()]

    def zero_grad(self) -> None:
        """Clear gradients on every parameter."""
        for p in self.parameters():
            p.zero_grad()

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of every parameter keyed by dotted name."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameters, validating names and shapes strictly."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        extra = set(state) - set(own)
        if missing or extra:
            raise KeyError(
                f"state dict mismatch; missing={sorted(missing)[:5]} "
                f"extra={sorted(extra)[:5]}"
            )
        for name, p in own.items():
            if p.data.shape != state[name].shape:
                raise ValueError(
                    f"shape mismatch for {name}: {p.data.shape} vs "
                    f"{state[name].shape}"
                )
            p.data = state[name].astype(p.data.dtype).copy()


class Linear(Module):
    """``y = x @ W (+ b)`` with weight shape ``[in, out]``."""

    def __init__(self, rng: np.random.Generator, fan_in: int, fan_out: int,
                 bias: bool = False, dtype=np.float32):
        self.weight = Tensor(init_linear(rng, fan_in, fan_out, dtype),
                             requires_grad=True, name="weight")
        self.bias = (Tensor(np.zeros(fan_out, dtype=dtype),
                            requires_grad=True, name="bias")
                     if bias else None)

    def operands(self, x: Tensor) -> Tuple[Tensor, Tensor]:
        """``(x, weight)`` as the GEMM reads them: cast by the installed
        :class:`~repro.precision.policy.PrecisionPolicy`, if any (a TP
        rank slices its shard out of this whole cast weight)."""
        from ..precision.policy import current_policy
        policy = current_policy()
        if policy is None:
            return x, self.weight
        return policy.cast_activation(x), policy.cast_weight(self.weight)

    def __call__(self, x: Tensor) -> Tensor:
        x, weight = self.operands(x)
        out = x @ weight
        if self.bias is not None:
            out = out + self.bias
        return out


class RMSNorm(Module):
    """Root-mean-square normalization with a learned scale."""

    def __init__(self, hidden_size: int, eps: float = 1e-6,
                 dtype=np.float32):
        self.weight = Tensor(np.ones(hidden_size, dtype=dtype),
                             requires_grad=True, name="weight")
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        return ops.rmsnorm(x, self.weight, self.eps)


class SelfAttention(Module):
    """Grouped-query causal self-attention with RoPE.

    Input/output shape ``[batch, seq, hidden]``.  The fused QKV projection
    produces ``h(1 + 2/m)`` channels (Fig. 20's ``qkv`` activation); RoPE
    is applied to Q and K; attention runs per head with KV heads shared
    across ``m`` query heads.
    """

    def __init__(self, rng: np.random.Generator, hidden_size: int,
                 n_heads: int, gqa_ratio: int, rope_base: float = 10000.0,
                 dtype=np.float32):
        if n_heads % gqa_ratio != 0:
            raise ValueError(
                f"n_heads={n_heads} not divisible by gqa_ratio={gqa_ratio}"
            )
        if hidden_size % n_heads != 0:
            raise ValueError(
                f"hidden_size={hidden_size} not divisible by "
                f"n_heads={n_heads}"
            )
        self.hidden_size = hidden_size
        self.n_heads = n_heads
        self.n_kv_heads = n_heads // gqa_ratio
        self.head_dim = hidden_size // n_heads
        self.rope_base = rope_base
        qkv_out = hidden_size + 2 * self.n_kv_heads * self.head_dim
        self.qkv_proj = Linear(rng, hidden_size, qkv_out, dtype=dtype)
        self.out_proj = Linear(rng, hidden_size, hidden_size, dtype=dtype)

    def split_qkv(self, qkv: Tensor, batch: int,
                  seq: int) -> Tuple[Tensor, Tensor, Tensor]:
        """Slice the fused projection into per-head Q, K, V tensors."""
        h = self.hidden_size
        kv = self.n_kv_heads * self.head_dim
        q = qkv[:, :, :h].reshape(batch, seq, self.n_heads, self.head_dim)
        k = qkv[:, :, h:h + kv].reshape(batch, seq, self.n_kv_heads,
                                        self.head_dim)
        v = qkv[:, :, h + kv:].reshape(batch, seq, self.n_kv_heads,
                                       self.head_dim)
        return q, k, v

    def attend(self, q: Tensor, k: Tensor, v: Tensor,
               positions: Optional[np.ndarray] = None) -> Tensor:
        """RoPE + causal attention on ``[b, s, heads, head_dim]`` inputs.

        Returns ``[b, s, q_heads, head_dim]``.  ``positions`` carries the
        absolute token positions when the caller holds a sequence shard.
        """
        q = ops.rope_rotate(q, self.rope_base, positions)
        k = ops.rope_rotate(k, self.rope_base, positions)
        qh = q.transpose(0, 2, 1, 3)
        kh = k.transpose(0, 2, 1, 3)
        vh = v.transpose(0, 2, 1, 3)
        # FlashAttention-style memory behaviour: the s×s attention
        # probabilities are never materialized on the tape; backward
        # recomputes them from Q/K/V (identical gradients).
        from ..tensor.checkpoint import checkpoint_segment
        out = checkpoint_segment(
            lambda a, b, c: ops.scaled_dot_product_attention(
                a, b, c, causal=True),
            qh, kh, vh)
        return out.transpose(0, 2, 1, 3)

    def decode_attend(self, q_rot: Tensor, k_cache: Tensor,
                      v_cache: Tensor) -> Tensor:
        """Attention over cached (already-rotated) K/V for serving.

        ``q_rot`` is ``[1, s_q, n_heads, head_dim]`` with RoPE already
        applied; ``k_cache``/``v_cache`` are ``[1, T, n_kv_heads,
        head_dim]`` — the paged-KV gather, keys post-RoPE.  The queries
        are the *last* ``s_q`` of the ``T`` cached positions, which is
        exactly the bottom-right-aligned causal mask of
        :func:`~repro.tensor.ops.scaled_dot_product_attention`: prefill
        (``s_q == T``) gets the square mask of :meth:`attend`, decode
        (``s_q == 1``) sees every cached key, and chunked prefill
        (``1 < s_q < T``) sees its own prefix.
        """
        qh = q_rot.transpose(0, 2, 1, 3)
        kh = k_cache.transpose(0, 2, 1, 3)
        vh = v_cache.transpose(0, 2, 1, 3)
        out = ops.scaled_dot_product_attention(qh, kh, vh, causal=True)
        return out.transpose(0, 2, 1, 3)

    def __call__(self, x: Tensor) -> Tensor:
        b, s, _ = x.shape
        qkv = self.qkv_proj(x)
        q, k, v = self.split_qkv(qkv, b, s)
        attn = self.attend(q, k, v)
        attn = attn.reshape(b, s, self.hidden_size)
        return self.out_proj(attn)
