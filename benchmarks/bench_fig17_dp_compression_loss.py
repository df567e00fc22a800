"""Figure 17 — loss curves with and without DP communication compression.

Paper setup: a 7B MoE model trained twice, once with FP32 reduce-scatter
gradient sync and once with the §5 compression (one BF16 cast + all-to-
all + FP32 local reduction).  Paper result: the two loss curves are
nearly identical.

Here a config-faithful miniature MoE (numpy substrate, float32 like
the paper's FP32 gradient wire) trains on a learnable synthetic corpus
as two data-parallel replicas of the one trainer, with
``dp_comm_compression`` off and on.  The rejected ring-BF16 design is
covered at the sync level (``test_ring_bf16_worse_than_a2a``).
"""

import numpy as np
import pytest

from conftest import report
from repro.comm import World
from repro.core.config import ModelConfig, ParallelConfig, TrainConfig
from repro.core.trainer import MegaScaleTrainer
from repro.data import MarkovCorpus, batch_iterator
from repro.model import MoETransformer

CONFIG = ModelConfig("moe-7b-mini", n_layers=2, hidden_size=32,
                     n_heads=8, gqa_ratio=2, ffn_hidden_size=48,
                     n_experts=8, top_k=2, vocab_size=64, seq_len=16)
STEPS = 12
DP = 2


def train_curve(compress, seed=0):
    """Per-step losses and DP gradient-sync bytes of one run."""
    model = MoETransformer(CONFIG, seed=0)
    train = TrainConfig(global_batch_size=2 * DP, micro_batch_size=2,
                        seq_len=CONFIG.seq_len, learning_rate=3e-3,
                        weight_decay=0.0, aux_loss_coeff=0.01,
                        dp_comm_compression=compress)
    trainer = MegaScaleTrainer(model, World(DP, 1),
                               ParallelConfig(1, data_parallel_size=DP),
                               train)
    corpus = MarkovCorpus(vocab_size=64, seed=seed)
    batches = batch_iterator(corpus, 2 * DP, CONFIG.seq_len,
                             seed=seed + 1, limit=STEPS)
    losses = [trainer.train_step(b).loss for b in batches]
    sync_bytes = sum(b for tag, b in
                     trainer.world.ledger.bytes_by_tag().items()
                     if tag.startswith("dp_grad"))
    return np.array(losses), sync_bytes


def run_fig17():
    curves = {}
    wire = {}
    for method, compress in (("fp32_rs", False), ("bf16_a2a", True)):
        curves[method], wire[method] = train_curve(compress)
    return curves, wire


@pytest.mark.benchmark(group="fig17")
def test_fig17_dp_compression(benchmark):
    curves, wire = benchmark.pedantic(run_fig17, rounds=1, iterations=1)

    rows = [[step, curves["fp32_rs"][step], curves["bf16_a2a"][step]]
            for step in range(STEPS)]
    report(
        "Fig. 17: training loss, FP32 RS vs BF16-A2A DP compression",
        ["step", "fp32_rs", "bf16_a2a (MegaScale)"],
        rows,
        notes=f"gradient sync bytes: fp32 {wire['fp32_rs'] / 1e6:.1f} MB "
              f"vs bf16 {wire['bf16_a2a'] / 1e6:.1f} MB "
              f"({wire['bf16_a2a'] / wire['fp32_rs'] * 100:.0f}%)",
    )

    # The curves are nearly identical (paper's claim).
    rel = np.abs(curves["fp32_rs"] - curves["bf16_a2a"]) \
        / curves["fp32_rs"]
    assert rel.max() < 0.01
    # Loss actually decreases.
    assert curves["bf16_a2a"][-1] < curves["bf16_a2a"][0]
    # Wire bytes halved.
    assert wire["bf16_a2a"] == pytest.approx(wire["fp32_rs"] / 2,
                                             rel=0.01)
