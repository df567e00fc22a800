"""Figure 19 — a long production run with checkpoint restarts.

Paper setup: a 200B-total / 20B-activated MoE trained for months on
10,000+ GPUs over multi-trillion tokens, restarted multiple times
(different colours in the figure).  Paper result: the loss keeps
converging smoothly across restarts.

The miniature reproduction trains for many more steps than the other
benches, injects three checkpoint/restart events, and checks the loss
trajectory is smooth (no restart discontinuities) and converging toward
the corpus's conditional entropy.
"""

import numpy as np
import pytest

from conftest import report
from repro.comm import World
from repro.core.config import ModelConfig, ParallelConfig, TrainConfig
from repro.core.trainer import MegaScaleTrainer
from repro.data import MarkovCorpus, batch_iterator
from repro.model import MoETransformer

CONFIG = ModelConfig("moe-200b-mini", n_layers=2, hidden_size=32,
                     n_heads=8, gqa_ratio=2, ffn_hidden_size=48,
                     n_experts=8, top_k=2, vocab_size=32, seq_len=16)
STEPS = 40
RESTARTS = (12, 24, 32)


def make_trainer(seed):
    model = MoETransformer(CONFIG, seed=seed, dtype=np.float64)
    train = TrainConfig(global_batch_size=8, micro_batch_size=8,
                        seq_len=CONFIG.seq_len, learning_rate=5e-3,
                        weight_decay=0.0, aux_loss_coeff=0.01)
    return MegaScaleTrainer(
        model, World(4, 4), ParallelConfig.megascale(4), train)


def run_fig19():
    corpus = MarkovCorpus(vocab_size=32, branching=3, temperature=0.1,
                          seed=3)
    batches = list(batch_iterator(corpus, 8, CONFIG.seq_len, seed=4,
                                  limit=STEPS))
    trainer = make_trainer(seed=0)
    losses = []
    segments = []
    segment = 0
    for i, batch in enumerate(batches):
        if i in RESTARTS:
            # Simulated failure: save, build a fresh job, reload.
            state = trainer.state_dict()
            trainer = make_trainer(seed=1000 + i)
            trainer.load_state_dict(state)
            segment += 1
        losses.append(trainer.train_step(batch).lm_loss)
        segments.append(segment)
    return np.array(losses), segments, corpus.conditional_entropy()


@pytest.mark.benchmark(group="fig19")
def test_fig19_production_run(benchmark):
    losses, segments, entropy_floor = benchmark.pedantic(
        run_fig19, rounds=1, iterations=1)

    stride = 4
    report(
        "Fig. 19: long run with restarts (segment = restart epoch)",
        ["step", "segment", "lm loss"],
        [[i, segments[i], losses[i]]
         for i in range(0, STEPS, stride)],
        notes=f"corpus conditional entropy (loss floor) = "
              f"{entropy_floor:.3f} nats; restarts at {RESTARTS}",
    )

    # Overall convergence: final quarter clearly below the first.
    assert losses[-STEPS // 4:].mean() < 0.8 * losses[:STEPS // 4].mean()
    # Loss stays above (approaching) the information-theoretic floor.
    assert losses[-1] > entropy_floor * 0.9
    # No restart discontinuity: the step right after each restart is
    # within the normal step-to-step variation.
    steps_diff = np.abs(np.diff(losses))
    typical = np.percentile(steps_diff, 90)
    for restart in RESTARTS:
        jump = abs(losses[restart] - losses[restart - 1])
        assert jump <= max(typical * 2.0, 0.05), (restart, jump, typical)
    # The trend is monotone at coarse granularity.
    coarse = losses.reshape(-1, 8).mean(axis=1)
    assert all(a >= b - 0.02 for a, b in zip(coarse, coarse[1:]))
