"""Cross-module integration tests: the paper's convergence experiments
at miniature scale (Figs. 17–19), plus end-to-end system checks."""

import numpy as np
import pytest

from repro.comm import World
from repro.core import (
    MegaScaleTrainer,
    ModelConfig,
    ParallelConfig,
    TrainConfig,
)
from repro.data import MarkovCorpus, batch_iterator
from repro.model import MoETransformer
from repro.precision.policy import bf16_policy, fp8_policy


CONFIG = ModelConfig("mini", n_layers=2, hidden_size=32, n_heads=8,
                     gqa_ratio=2, ffn_hidden_size=48, n_experts=8,
                     top_k=2, vocab_size=64, seq_len=16)


def loss_curve(policy, steps=8, seed=0, config=CONFIG, lr=3e-3):
    """Train a fresh model for a few steps under a precision policy."""
    model = MoETransformer(config, seed=0, dtype=np.float64)
    world = World(4, 4)
    tr = TrainConfig(global_batch_size=4, micro_batch_size=4,
                     seq_len=config.seq_len, learning_rate=lr,
                     weight_decay=0.0, aux_loss_coeff=0.01)
    trainer = MegaScaleTrainer(
        model, world, ParallelConfig.megascale(4), tr, policy=policy)
    corpus = MarkovCorpus(vocab_size=64, seed=seed)
    return [trainer.train_step(b).lm_loss
            for b in batch_iterator(corpus, 4, 16, seed=seed + 1,
                                    limit=steps)], trainer


class TestFig18FP8Convergence:
    def test_fp8_matches_bf16_loss_curve(self):
        """Fig. 18: FP8 (per-token quantization) and BF16 loss curves
        coincide."""
        bf16_losses, _ = loss_curve(bf16_policy(), steps=12)
        fp8_losses, _ = loss_curve(fp8_policy(), steps=12)
        rel = np.abs(np.array(bf16_losses) - np.array(fp8_losses)) \
            / np.array(bf16_losses)
        # Point-wise within batch noise, and no systematic drift.
        assert rel.max() < 0.05
        assert rel.mean() < 0.02

    def test_both_curves_decrease(self):
        bf16_losses, _ = loss_curve(bf16_policy(), steps=10)
        fp8_losses, _ = loss_curve(fp8_policy(), steps=10)
        assert bf16_losses[-1] < bf16_losses[0]
        assert fp8_losses[-1] < fp8_losses[0]

    def test_continued_training_from_checkpoint(self):
        """Fig. 18's second panel: continue training a checkpoint in
        FP8; the loss picks up where BF16 left off and keeps falling."""
        bf16_losses, trainer = loss_curve(bf16_policy(), steps=6)
        state = trainer.state_dict()

        model = MoETransformer(CONFIG, seed=99, dtype=np.float64)
        world = World(4, 4)
        tr = TrainConfig(global_batch_size=4, micro_batch_size=4,
                         seq_len=16, learning_rate=3e-3,
                         weight_decay=0.0, aux_loss_coeff=0.01)
        continued = MegaScaleTrainer(
            model, world, ParallelConfig.megascale(4), tr,
            policy=fp8_policy())
        continued.load_state_dict(state)
        corpus = MarkovCorpus(vocab_size=64, seed=0)
        batches = list(batch_iterator(corpus, 4, 16, seed=7, limit=6))
        resumed = [continued.train_step(b).lm_loss for b in batches]
        assert resumed[0] == pytest.approx(bf16_losses[-1], rel=0.15)
        assert resumed[-1] < resumed[0] * 1.02


class TestFig17DPCompression:
    def test_loss_curves_nearly_identical(self):
        """Fig. 17: BF16-A2A gradient compression tracks the FP32
        reduce-scatter baseline."""
        curves = {}
        corpus = MarkovCorpus(vocab_size=64, seed=4)
        batches = list(batch_iterator(corpus, 2, 16, seed=5, limit=16))
        for compress in (False, True):
            model = MoETransformer(CONFIG, seed=0, dtype=np.float64)
            tr = TrainConfig(global_batch_size=4, micro_batch_size=2,
                             seq_len=16, learning_rate=3e-3,
                             weight_decay=0.0, aux_loss_coeff=0.01,
                             dp_comm_compression=compress)
            trainer = MegaScaleTrainer(
                model, World(2, 1), ParallelConfig(1, data_parallel_size=2),
                tr)
            curves[compress] = np.array([
                trainer.train_step(np.concatenate(batches[i:i + 2])).loss
                for i in range(0, len(batches), 2)])
        rel = np.abs(curves[False] - curves[True]) / curves[False]
        assert rel.max() < 0.01
        assert curves[True][-1] < curves[True][0]


class TestFig19ProductionRun:
    def test_convergence_across_restarts(self):
        """Fig. 19: training restarts from checkpoints leave the loss
        trajectory intact (restart = load + continue)."""
        corpus = MarkovCorpus(vocab_size=64, seed=6)
        batches = list(batch_iterator(corpus, 4, 16, seed=8, limit=12))

        # Uninterrupted run.
        ref_losses, _ = loss_curve(None, steps=0)
        model = MoETransformer(CONFIG, seed=0, dtype=np.float64)
        world = World(4, 4)
        tr = TrainConfig(global_batch_size=4, micro_batch_size=4,
                         seq_len=16, learning_rate=3e-3,
                         weight_decay=0.0, aux_loss_coeff=0.01)
        straight = MegaScaleTrainer(
            model, world, ParallelConfig.megascale(4), tr)
        straight_losses = [straight.train_step(b).lm_loss
                           for b in batches]

        # Run with two restarts at steps 4 and 8.
        model2 = MoETransformer(CONFIG, seed=0, dtype=np.float64)
        trainer = MegaScaleTrainer(
            model2, world, ParallelConfig.megascale(4), tr)
        restart_losses = []
        for i, batch in enumerate(batches):
            if i in (4, 8):
                state = trainer.state_dict()
                fresh_model = MoETransformer(CONFIG, seed=123,
                                             dtype=np.float64)
                trainer = MegaScaleTrainer(
                    fresh_model, world, ParallelConfig.megascale(4), tr)
                trainer.load_state_dict(state)
            restart_losses.append(trainer.train_step(batch).lm_loss)

        # Restarting loses optimizer state, so allow a small wobble, but
        # the trajectory must stay close and keep converging.
        diff = np.abs(np.array(straight_losses)
                      - np.array(restart_losses))
        assert diff.max() / np.mean(straight_losses) < 0.1
        assert restart_losses[-1] < restart_losses[0]


class TestLedgerEndToEnd:
    def test_megascale_moves_fewer_bytes_than_megatron(self):
        """The whole point of §3: for a GQA model with small top-k, one
        training step under SP+EP moves fewer per-layer bytes than under
        TP+TP."""
        corpus = MarkovCorpus(vocab_size=64, seed=9)
        batch = next(batch_iterator(corpus, 2, 16, seed=10))
        tr = TrainConfig(global_batch_size=2, micro_batch_size=2,
                         seq_len=16, aux_loss_coeff=0.01)

        world_ms = World(4, 4)
        ms = MegaScaleTrainer(
            MoETransformer(CONFIG, seed=0, dtype=np.float64), world_ms,
            ParallelConfig.megascale(4), tr)
        ms.train_step(batch)
        ms_bytes = world_ms.ledger.total_bytes()

        world_mg = World(4, 4)
        mg = MegaScaleTrainer(
            MoETransformer(CONFIG, seed=0, dtype=np.float64), world_mg,
            ParallelConfig.megatron(4), tr)
        mg.train_step(batch)
        mg_bytes = world_mg.ledger.total_bytes()
        assert ms_bytes < mg_bytes
