"""Tests for the 3D composition: pipeline × model parallelism × data
parallelism — the full Fig. 4 design space, numerically."""

import numpy as np
import pytest

from repro.comm import World
from repro.core.config import ModelConfig
from repro.model import MoETransformer
from repro.parallel.pp_engine import PipelineParallelTrainer
from repro.precision.optimizer import AdamW, clip_grad_norm

CONFIG = ModelConfig("t3d", n_layers=4, hidden_size=16, n_heads=4,
                     gqa_ratio=2, ffn_hidden_size=24, n_experts=4,
                     top_k=2, vocab_size=32, seq_len=8)


def reference_step(batch, n_micro, lr=1e-2, config=CONFIG):
    model = MoETransformer(config, seed=0, dtype=np.float64)
    opt = AdamW(model.parameters(), lr=lr)
    model.zero_grad()
    total = None
    for micro in np.split(batch, n_micro):
        loss = model.language_model_loss(micro, aux_coeff=0.01)
        total = loss if total is None else total + loss
    total = total * (1.0 / n_micro)
    total.backward()
    clip_grad_norm(model.parameters(), 1.0)
    opt.step()
    return model, total.item()


class TestPPxMP:
    @pytest.mark.parametrize("attn,ffn", [
        ("sp", "ep"), ("tp", "tp"), ("sp", "tp"), ("tp", "ep"),
    ])
    def test_matches_reference(self, rng, attn, ffn):
        batch = rng.integers(0, 32, (4, 9))
        ref_model, ref_loss = reference_step(batch, 2)

        model = MoETransformer(CONFIG, seed=0, dtype=np.float64)
        trainer = PipelineParallelTrainer(
            model, World(2, 1), 2,
            optimizer=AdamW(model.parameters(), lr=1e-2),
            aux_loss_coeff=0.01,
            mp_world=World(2, 2), mp_attention=attn, mp_ffn=ffn)
        result = trainer.train_step(batch)
        assert result.loss == pytest.approx(ref_loss, abs=1e-10)
        for (name, a), (_, b) in zip(ref_model.named_parameters(),
                                     model.named_parameters()):
            np.testing.assert_allclose(b.data, a.data, atol=1e-10,
                                       err_msg=f"{name} ({attn}+{ffn})")

    @pytest.mark.parametrize("top_k,dispatch", [(1, "a2a"),
                                                (2, "ag_rs")])
    def test_stage_layers_run_the_layer_program(self, rng, top_k,
                                                dispatch):
        """A stage's layers go through the same scheduled operator
        graph as ``MegaScaleTrainer``'s: golden loss and gradients, a
        recorded schedule-conformant op order, and the same MP bytes
        under every ledger tag."""
        from repro.core.config import ParallelConfig, TrainConfig
        from repro.core.trainer import MegaScaleTrainer
        from repro.runtime import schedule_conformance_problems

        config = CONFIG.scaled(top_k=top_k)
        batch = rng.integers(0, 32, (4, 9))
        ref_model, ref_loss = reference_step(batch, 2, config=config)

        model = MoETransformer(config, seed=0, dtype=np.float64)
        mp_world = World(2, 2)
        trainer = PipelineParallelTrainer(
            model, World(2, 1), 2,
            optimizer=AdamW(model.parameters(), lr=1e-2),
            aux_loss_coeff=0.01, mp_world=mp_world)
        result = trainer.train_step(batch)
        assert result.loss == pytest.approx(ref_loss, rel=1e-9)
        for (name, a), (_, b) in zip(ref_model.named_parameters(),
                                     model.named_parameters()):
            np.testing.assert_allclose(
                b.grad, a.grad, rtol=1e-8,
                atol=1e-8 * np.abs(a.grad).max(), err_msg=name)
        for engine in trainer.block_engines:
            assert engine.ffn_engine.mode == dispatch
            program = engine.executor_for(2, config.seq_len).program
            assert schedule_conformance_problems(
                program, engine.last_executed_ops) == []

        flat = MegaScaleTrainer(
            MoETransformer(config, seed=0, dtype=np.float64),
            World(2, 2), ParallelConfig(2),
            TrainConfig(global_batch_size=4, micro_batch_size=4,
                        seq_len=config.seq_len))
        flat.train_step(batch)
        want = flat.world.ledger.bytes_by_tag()
        assert want and mp_world.ledger.bytes_by_tag() == want

    def test_multi_step_trajectory(self, rng):
        from repro.data import MarkovCorpus, batch_iterator
        corpus = MarkovCorpus(vocab_size=32, seed=2)
        batches = list(batch_iterator(corpus, 4, 8, seed=3, limit=4))

        ref_model = MoETransformer(CONFIG, seed=0, dtype=np.float64)
        ref_opt = AdamW(ref_model.parameters(), lr=1e-2)
        ref_losses = []
        for batch in batches:
            ref_model.zero_grad()
            total = None
            for micro in np.split(batch, 2):
                loss = ref_model.language_model_loss(micro,
                                                     aux_coeff=0.01)
                total = loss if total is None else total + loss
            total = total * 0.5
            total.backward()
            clip_grad_norm(ref_model.parameters(), 1.0)
            ref_opt.step()
            ref_losses.append(total.item())

        model = MoETransformer(CONFIG, seed=0, dtype=np.float64)
        trainer = PipelineParallelTrainer(
            model, World(2, 1), 2,
            optimizer=AdamW(model.parameters(), lr=1e-2),
            aux_loss_coeff=0.01, mp_world=World(2, 2))
        losses = [trainer.train_step(b).loss for b in batches]
        np.testing.assert_allclose(losses, ref_losses, atol=1e-9)

    def test_mp_comm_recorded_in_mp_world(self, rng):
        batch = rng.integers(0, 32, (4, 9))
        mp_world = World(2, 2)
        model = MoETransformer(CONFIG, seed=0, dtype=np.float64)
        trainer = PipelineParallelTrainer(
            model, World(2, 1), 2, mp_world=mp_world,
            aux_loss_coeff=0.01)
        trainer.train_step(batch)
        counts = mp_world.ledger.counts()
        assert counts.get("all_to_all", 0) > 0  # SP/EP traffic

    def test_seq_divisibility_enforced(self, rng):
        model = MoETransformer(
            CONFIG.scaled(seq_len=9), seed=0, dtype=np.float64)
        trainer = PipelineParallelTrainer(
            model, World(2, 1), 1, mp_world=World(2, 2))
        with pytest.raises(ValueError, match="not divisible by MP"):
            trainer.train_step(rng.integers(0, 32, (2, 10)))
