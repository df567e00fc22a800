"""Ablation — token-drop capacity factor vs balance and loss (§3.2).

MegaScale-MoE balances per-GPU expert load with an auxiliary loss plus
token dropping.  This bench sweeps the capacity factor on a miniature
model and reports (a) the worst-case per-device load imbalance after
dropping and (b) the LM loss after a short training run — exposing the
efficiency/quality trade-off the paper navigates.
"""

import numpy as np
import pytest

from conftest import report
from repro.comm import World
from repro.core.config import ModelConfig, ParallelConfig, TrainConfig
from repro.core.trainer import MegaScaleTrainer
from repro.data import MarkovCorpus, batch_iterator
from repro.model import MoETransformer

CONFIG = ModelConfig("cap-mini", n_layers=2, hidden_size=32, n_heads=8,
                     gqa_ratio=2, ffn_hidden_size=48, n_experts=8,
                     top_k=2, vocab_size=64, seq_len=16)
FACTORS = [0.0, 2.0, 1.25, 1.0]  # 0 disables dropping
STEPS = 10


def run_sweep():
    rows = []
    for factor in FACTORS:
        model = MoETransformer(CONFIG, seed=0, capacity_factor=factor,
                               experts_per_group=2, dtype=np.float64)
        train = TrainConfig(global_batch_size=4, micro_batch_size=4,
                            seq_len=16, learning_rate=3e-3,
                            weight_decay=0.0, aux_loss_coeff=0.01)
        trainer = MegaScaleTrainer(
            model, World(4, 4), ParallelConfig.megascale(4), train)
        corpus = MarkovCorpus(vocab_size=64, seed=1)
        losses = [trainer.train_step(b).lm_loss
                  for b in batch_iterator(corpus, 4, 16, seed=2,
                                          limit=STEPS)]
        first_loss = losses[0]

        # Worst per-expert overload after dropping, from a fresh batch.
        probe = next(batch_iterator(corpus, 8, 16, seed=3))
        fwd = model(probe[:, :-1])
        max_imbalance = 0.0
        dropped = 0
        total = 0
        for moe_out in fwd.moe_outputs:
            per_expert = moe_out.routing.tokens_per_expert(
                CONFIG.n_experts)
            mean_load = max(per_expert.mean(), 1e-9)
            max_imbalance = max(max_imbalance,
                                per_expert.max() / mean_load)
            dropped += int((~moe_out.routing.kept).sum())
            total += moe_out.routing.kept.size
        rows.append({
            "factor": factor,
            "first_loss": first_loss,
            "final_loss": losses[-1],
            "max_imbalance": max_imbalance,
            "drop_rate": dropped / total,
        })
    return rows


@pytest.mark.benchmark(group="ablation-capacity")
def test_ablation_capacity_factor(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    report(
        "Ablation: token-drop capacity factor",
        ["capacity factor", "final LM loss", "max load / mean",
         "drop rate"],
        [[("off" if r["factor"] == 0 else r["factor"]),
          r["final_loss"], f"{r['max_imbalance']:.2f}",
          f"{r['drop_rate'] * 100:.1f}%"] for r in rows],
        notes="capacity bounds worst-case per-device load at the price "
              "of dropped tokens",
    )

    by_factor = {r["factor"]: r for r in rows}
    # No dropping without a capacity limit.
    assert by_factor[0.0]["drop_rate"] == 0.0
    # Tighter capacity => bounded imbalance and more drops.
    assert by_factor[1.0]["max_imbalance"] <= \
        by_factor[0.0]["max_imbalance"] + 1e-9
    assert by_factor[1.0]["drop_rate"] >= by_factor[2.0]["drop_rate"]
    # Training makes progress in every setting.
    for r in rows:
        assert r["final_loss"] < r["first_loss"]
