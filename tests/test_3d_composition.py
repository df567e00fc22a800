"""Tests for the 3D composition: pipeline × model parallelism × data
parallelism — the full Fig. 4 design space, numerically, through the
one trainer."""

import numpy as np
import pytest

from repro.comm import World
from repro.core.config import ModelConfig, ParallelConfig, TrainConfig
from repro.core.trainer import MegaScaleTrainer
from repro.model import MoETransformer
from repro.precision.optimizer import AdamW, clip_grad_norm

CONFIG = ModelConfig("t3d", n_layers=4, hidden_size=16, n_heads=4,
                     gqa_ratio=2, ffn_hidden_size=24, n_experts=4,
                     top_k=2, vocab_size=32, seq_len=8)


def make_trainer(n, pp=1, dp=1, attn="sp", ffn="ep", micro=2,
                 config=CONFIG, **train):
    """The trainer over an ``n · pp · dp`` world, float64 model."""
    model = MoETransformer(config, seed=0, dtype=np.float64)
    parallel = ParallelConfig(n, attention=attn, ffn=ffn,
                              pipeline_size=pp, data_parallel_size=dp)
    train = TrainConfig(global_batch_size=4, micro_batch_size=micro,
                        seq_len=config.seq_len, learning_rate=1e-2,
                        weight_decay=0.0, aux_loss_coeff=0.01, **train)
    return MegaScaleTrainer(model, World(n * pp * dp, n), parallel, train)


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


def assert_params_close(ref_model, model, atol=1e-10, label=""):
    for (name, a), (_, b) in zip(ref_model.named_parameters(),
                                 model.named_parameters()):
        np.testing.assert_allclose(b.data, a.data, atol=atol,
                                   err_msg=f"{name} {label}")



def assert_sharded_update_is_unsharded(factory, batches):
    """Train twice: once with the trainer's ZeRO-1 optimizer, once with
    an unsharded AdamW of the same hyper-parameters; the parameters and
    the optimizer state end bit-identical."""
    ends = []
    for sharded in (True, False):
        trainer = factory()
        opt = trainer.optimizer
        assert opt.group is not None
        if not sharded:
            trainer.optimizer = AdamW(
                trainer.params, lr=opt.lr, betas=(opt.beta1, opt.beta2),
                eps=opt.eps, weight_decay=opt.weight_decay)
        for batch in batches:
            trainer.train_step(batch)
        ends.append(trainer.state_dict())
    sharded, unsharded = ends
    assert list(sharded) == list(unsharded)
    for key, value in unsharded.items():
        assert sharded[key].dtype == value.dtype, key
        assert sharded[key].tobytes() == value.tobytes(), key

class TestPPxMP:
    @pytest.mark.parametrize("attn,ffn", [
        ("sp", "ep"), ("tp", "tp"), ("sp", "tp"), ("tp", "ep"),
    ])
    def test_matches_reference(self, rng, attn, ffn):
        batch = rng.integers(0, 32, (4, 9))
        ref_model, ref_loss = reference_step(batch, 2)

        trainer = make_trainer(2, pp=2, attn=attn, ffn=ffn)
        result = trainer.train_step(batch)
        assert result.loss == pytest.approx(ref_loss, abs=1e-10)
        assert_params_close(ref_model, trainer.model,
                            label=f"({attn}+{ffn})")

    @pytest.mark.parametrize("top_k,dispatch", [(1, "a2a"),
                                                (2, "ag_rs")])
    def test_stage_layers_run_the_layer_program(self, rng, top_k,
                                                dispatch):
        """A stage's layers go through the same scheduled operator
        graph as an unpipelined step's: golden loss and gradients, a
        recorded schedule-conformant op order, and the same MP bytes
        under every ledger tag."""
        from repro.runtime import schedule_conformance_problems

        config = CONFIG.scaled(top_k=top_k)
        batch = rng.integers(0, 32, (4, 9))
        ref_model, ref_loss = reference_step(batch, 2, config=config)

        trainer = make_trainer(2, pp=2, config=config)
        result = trainer.train_step(batch)
        assert result.loss == pytest.approx(ref_loss, rel=1e-9)
        for (name, a), (_, b) in zip(ref_model.named_parameters(),
                                     trainer.model.named_parameters()):
            np.testing.assert_allclose(
                b.grad, a.grad, rtol=1e-8,
                atol=1e-8 * np.abs(a.grad).max(), err_msg=name)
        for engine in trainer.engines:
            assert engine.ep_mode == dispatch
            program = engine.executor_for(2, config.seq_len).program
            assert schedule_conformance_problems(
                program, engine.last_executed_ops) == []

        flat = make_trainer(2, micro=4, config=config)
        flat.train_step(batch)
        want = flat.world.ledger.bytes_by_tag()
        got = {tag: b for tag, b in
               trainer.world.ledger.bytes_by_tag().items()
               if not tag.startswith("pp_")}
        assert want and got == want

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

        trainer = make_trainer(2, pp=2)
        losses = [trainer.train_step(b).loss for b in batches]
        np.testing.assert_allclose(losses, ref_losses, atol=1e-9)

    def test_mp_comm_recorded_in_mp_world(self, rng):
        """MP collectives and stage-boundary sends land in the one
        world's ledger."""
        trainer = make_trainer(2, pp=2)
        trainer.train_step(rng.integers(0, 32, (4, 9)))
        counts = trainer.world.ledger.counts()
        assert counts.get("all_to_all", 0) > 0  # SP/EP traffic
        assert counts.get("p2p", 0) > 0

    def test_seq_divisibility_enforced(self, rng):
        trainer = make_trainer(2, pp=2, config=CONFIG.scaled(seq_len=9))
        with pytest.raises(ValueError, match="not divisible by group"):
            trainer.train_step(rng.integers(0, 32, (2, 10)))


class TestPPxMPxDP:
    def test_matches_reference(self, rng):
        """n=2 pp=2 dp=2: two replicas of two micro-batches each match
        the single-rank step on the same four micro-batches."""
        batch = rng.integers(0, 32, (4, 9))
        ref_model, ref_loss = reference_step(batch, 4)
        trainer = make_trainer(2, pp=2, dp=2, micro=1)
        assert trainer.world.size == 8
        result = trainer.train_step(batch)
        assert result.loss == pytest.approx(ref_loss, abs=1e-10)
        assert_params_close(ref_model, trainer.model)

    @pytest.mark.parametrize("pp", [1, 2])
    def test_zero_stages_bit_identical(self, rng, pp):
        """ZeRO-1 shards the update across the DP ranks; the parameters
        it gathers back are the unsharded AdamW's, bit for bit."""
        batches = [rng.integers(0, 32, (4, 9)) for _ in range(3)]
        assert_sharded_update_is_unsharded(
            lambda: make_trainer(2, pp=pp, dp=2, micro=1), batches)

    def test_padded_dp3_bit_identical(self, rng):
        """dp = 3 leaves a padded tail in the shard grid."""
        trainer = make_trainer(1, dp=3, micro=1)
        numel = sum(p.size for p in trainer.params)
        assert numel % 3 != 0
        batches = [rng.integers(0, 32, (6, 9)) for _ in range(3)]
        assert_sharded_update_is_unsharded(
            lambda: make_trainer(1, dp=3, micro=1), batches)

    def test_sync_split_follows_appendix_a1(self, rng):
        """Intra- and inter-node sync bytes are the A.1 volumes of the
        replicated parameters; experts and routers only cross nodes."""
        from repro.comm import (hierarchical_inter_node_volume,
                                hierarchical_intra_node_volume)
        from repro.core.trainer import is_replicated

        n, dp = 2, 2
        trainer = make_trainer(n, pp=2, dp=dp, micro=1)
        trainer.train_step(rng.integers(0, 32, (4, 9)))
        by_tag = trainer.world.ledger.bytes_by_tag()
        intra = sum(b for t, b in by_tag.items() if ":intra_" in t)
        inter = sum(b for t, b in by_tag.items() if ":inter_" in t)
        want_intra = want_inter = 0.0
        for name, p in trainer.model.named_parameters():
            if p.grad is None:
                continue  # an idle expert sits the sync out
            size = p.data.nbytes
            if is_replicated(name):
                want_intra += n * dp * hierarchical_intra_node_volume(
                    size, n)
                want_inter += n * dp * hierarchical_inter_node_volume(
                    size, n, dp)
            else:
                want_inter += dp * hierarchical_inter_node_volume(
                    size, 1, dp)
        assert intra == pytest.approx(want_intra)
        assert inter == pytest.approx(want_inter)
        assert not any(":intra_" in t for t in by_tag
                       if t.startswith("dp_grad:expert"))
