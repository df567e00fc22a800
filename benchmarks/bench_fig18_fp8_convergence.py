"""Figure 18 — FP8 vs BF16 training loss curves.

Paper setup: (a) a 35B MoE trained from scratch and (b) a 176B MoE
continued from a checkpoint, each in BF16 and in FP8 with the paper's
quantization recipe (per-token activations, FP32 accumulation).  Paper
result: stable convergence and consistent loss across both precisions.

The miniature substrate uses emulated FP8-E4M3 GEMM inputs; we also run
the *rejected* per-tensor quantization to show why the paper moved to
per-token scales (§7: SwiGLU "significantly expands the numerical
range").
"""

import numpy as np
import pytest

from conftest import report
from repro.comm import World
from repro.core.config import ModelConfig, ParallelConfig, TrainConfig
from repro.core.trainer import MegaScaleTrainer
from repro.data import MarkovCorpus, batch_iterator
from repro.model import MoETransformer
from repro.precision.policy import bf16_policy, fp8_naive_policy, \
    fp8_policy

CONFIG = ModelConfig("moe-35b-mini", n_layers=2, hidden_size=32,
                     n_heads=8, gqa_ratio=2, ffn_hidden_size=48,
                     n_experts=8, top_k=2, vocab_size=64, seq_len=16)
STEPS = 12


def make_trainer(policy, seed=0):
    model = MoETransformer(CONFIG, seed=seed, dtype=np.float64)
    train = TrainConfig(global_batch_size=4, micro_batch_size=4,
                        seq_len=CONFIG.seq_len, learning_rate=3e-3,
                        weight_decay=0.0, aux_loss_coeff=0.01)
    return MegaScaleTrainer(
        model, World(4, 4), ParallelConfig.megascale(4), train, policy=policy)


def train_curve(policy, steps=STEPS, trainer=None, data_seed=1):
    trainer = trainer or make_trainer(policy)
    corpus = MarkovCorpus(vocab_size=64, seed=0)
    losses = [trainer.train_step(b).lm_loss
              for b in batch_iterator(corpus, 4, CONFIG.seq_len,
                                      seed=data_seed, limit=steps)]
    return np.array(losses), trainer


def run_fig18():
    bf16, bf16_trainer = train_curve(bf16_policy())
    fp8, _ = train_curve(fp8_policy())
    naive, _ = train_curve(fp8_naive_policy())

    # Continued training: load the BF16 checkpoint, continue in FP8.
    continued = make_trainer(fp8_policy(), seed=77)
    continued.load_state_dict(bf16_trainer.state_dict())
    resumed, _ = train_curve(None, steps=6, trainer=continued,
                             data_seed=9)
    return {"bf16": bf16, "fp8": fp8, "fp8_naive": naive,
            "resumed": resumed}


@pytest.mark.benchmark(group="fig18")
def test_fig18_fp8_convergence(benchmark):
    curves = benchmark.pedantic(run_fig18, rounds=1, iterations=1)

    rows = [[i, curves["bf16"][i], curves["fp8"][i],
             curves["fp8_naive"][i]] for i in range(STEPS)]
    report(
        "Fig. 18a: from-scratch loss, BF16 vs FP8 (per-token) vs "
        "FP8 (per-tensor, rejected)",
        ["step", "bf16", "fp8", "fp8_naive"],
        rows,
    )
    report(
        "Fig. 18b: continued training in FP8 from a BF16 checkpoint",
        ["step", "loss"],
        [[i, v] for i, v in enumerate(curves["resumed"])],
        notes="paper: consistent loss across BF16 and FP8",
    )

    bf16, fp8 = curves["bf16"], curves["fp8"]
    rel = np.abs(bf16 - fp8) / bf16
    # Point-wise within batch noise, no systematic drift (Fig. 18).
    assert rel.max() < 0.05
    assert rel.mean() < 0.02
    # Both converge.
    assert bf16[-1] < bf16[0] and fp8[-1] < fp8[0]
    # Continued run picks up near the checkpoint loss and keeps going.
    assert curves["resumed"][0] == pytest.approx(bf16[-1], rel=0.15)
    # The per-tensor curve is reported for reference; at this miniature
    # scale activations lack the SwiGLU outliers that separate the two
    # recipes, so its advantage is exercised deterministically in
    # tests/test_optimizer_and_policy.py instead.
    assert np.isfinite(curves["fp8_naive"]).all()
