"""Full MoE transformer: embedding → N blocks → LM head.

Each block follows the paper's Fig. 20 data flow:

    hidden → RMSNorm → attention → +residual (ln2_in)
           → RMSNorm → MoE FFN   → +residual (next hidden)

The model returns logits plus the summed router auxiliary loss so the
trainer can weight it (§3.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..core.config import ModelConfig
from ..tensor import Tensor, ops
from .layers import Linear, Module, RMSNorm, SelfAttention
from .moe import MoELayer, MoEOutput

__all__ = ["TransformerBlock", "MoETransformer", "ModelForward"]


@dataclass
class ModelForward:
    """Forward-pass outputs of :class:`MoETransformer`."""

    logits: Tensor
    aux_loss: Tensor
    moe_outputs: List[MoEOutput]


class TransformerBlock(Module):
    """One attention + MoE-FFN block with pre-norm residuals."""

    def __init__(self, rng: np.random.Generator, config: ModelConfig,
                 experts_per_group: int = 1, capacity_factor: float = 0.0,
                 dtype=np.float32):
        self.ln1 = RMSNorm(config.hidden_size, dtype=dtype)
        self.attn = SelfAttention(rng, config.hidden_size, config.n_heads,
                                  config.gqa_ratio, dtype=dtype)
        self.ln2 = RMSNorm(config.hidden_size, dtype=dtype)
        self.moe = MoELayer(rng, config.hidden_size, config.ffn_hidden_size,
                            config.n_experts, config.top_k,
                            experts_per_group, capacity_factor, dtype)

    def __call__(self, hidden: Tensor) -> tuple:
        attn_out = self.attn(self.ln1(hidden))
        ln2_in = hidden + attn_out
        moe_out = self.moe(self.ln2(ln2_in))
        return ln2_in + moe_out.hidden, moe_out


class MoETransformer(Module):
    """The reference model every parallel engine is validated against."""

    def __init__(self, config: ModelConfig, seed: int = 0,
                 experts_per_group: int = 1, capacity_factor: float = 0.0,
                 dtype=np.float32):
        rng = np.random.default_rng(seed)
        self.config = config
        self.embedding = Tensor(
            (rng.standard_normal((config.vocab_size, config.hidden_size))
             * 0.02).astype(dtype),
            requires_grad=True, name="embedding",
        )
        self.blocks = [
            TransformerBlock(rng, config, experts_per_group,
                             capacity_factor, dtype)
            for _ in range(config.n_layers)
        ]
        self.final_norm = RMSNorm(config.hidden_size, dtype=dtype)
        self.lm_head = Linear(rng, config.hidden_size, config.vocab_size,
                              dtype=dtype)

    def __call__(self, token_ids: np.ndarray) -> ModelForward:
        """Forward over integer token ids ``[batch, seq]``."""
        token_ids = np.asarray(token_ids)
        if token_ids.ndim != 2:
            raise ValueError(
                f"expected [batch, seq] token ids, got {token_ids.shape}"
            )
        hidden = ops.embedding(self.embedding, token_ids)
        moe_outputs: List[MoEOutput] = []
        aux_total: Optional[Tensor] = None
        for block in self.blocks:
            hidden, moe_out = block(hidden)
            moe_outputs.append(moe_out)
            aux_total = (moe_out.aux_loss if aux_total is None
                         else aux_total + moe_out.aux_loss)
        hidden = self.final_norm(hidden)
        logits = self.lm_head(hidden)
        return ModelForward(logits=logits, aux_loss=aux_total,
                            moe_outputs=moe_outputs)

    def language_model_loss(self, token_ids: np.ndarray,
                            aux_coeff: float = 0.0) -> Tensor:
        """Next-token cross-entropy (+ weighted aux loss) on a batch."""
        forward = self(token_ids[:, :-1])
        loss = ops.cross_entropy(forward.logits, token_ids[:, 1:])
        if aux_coeff > 0:
            loss = loss + forward.aux_loss * aux_coeff
        return loss
