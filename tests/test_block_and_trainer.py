"""End-to-end equivalence: block engine combos and MegaScaleTrainer."""

import numpy as np
import pytest

from repro.comm import World
from repro.core import MegaScaleTrainer, ParallelConfig, \
    TrainConfig
from repro.data import MarkovCorpus, batch_iterator
from repro.model import MoETransformer
from repro.model.transformer import TransformerBlock
from repro.parallel import ParallelBlockEngine, shard_sequence
from repro.precision.optimizer import AdamW, clip_grad_norm
from repro.precision.policy import bf16_policy
from repro.tensor import Tensor
from conftest import eval_loss, unshard_sequence


@pytest.fixture
def block_setup(rng, tiny_config):
    block = TransformerBlock(np.random.default_rng(0), tiny_config,
                             dtype=np.float64)
    x = rng.standard_normal((2, 8, tiny_config.hidden_size))
    xt = Tensor(x, requires_grad=True)
    hidden, moe_out = block(xt)
    return block, x, hidden.data.copy(), moe_out.aux_loss.item()


class TestParallelBlockEngine:
    @pytest.mark.parametrize("attn,ffn", [
        ("sp", "ep"), ("sp", "tp"), ("tp", "ep"), ("tp", "tp"),
    ])
    def test_all_strategy_combos_match(self, block_setup, attn, ffn):
        block, x, ref_hidden, ref_aux = block_setup
        block.zero_grad()
        world = World(4, 4)
        engine = ParallelBlockEngine(world.full_group(), block, attn, ffn)
        shards = shard_sequence(x, 4)
        outs, aux = engine.forward(shards, 8)
        np.testing.assert_allclose(unshard_sequence(outs), ref_hidden,
                                   atol=1e-9)
        assert aux.item() == pytest.approx(ref_aux, abs=1e-10)

    def test_invalid_strategies(self, block_setup):
        block = block_setup[0]
        world = World(4, 4)
        with pytest.raises(ValueError, match="attention strategy"):
            ParallelBlockEngine(world.full_group(), block, "cp", "ep")
        with pytest.raises(ValueError, match="ffn strategy"):
            ParallelBlockEngine(world.full_group(), block, "sp", "zero")

    def test_shard_helpers(self, rng):
        x = rng.standard_normal((2, 8, 4))
        shards = shard_sequence(x, 4)
        assert len(shards) == 4 and shards[0].shape == (2, 2, 4)
        np.testing.assert_array_equal(unshard_sequence(shards), x)
        with pytest.raises(ValueError, match="divisible"):
            shard_sequence(x, 3)


def train_reference(config, batches, lr=1e-2, aux=0.01):
    model = MoETransformer(config, seed=0, dtype=np.float64)
    opt = AdamW(model.parameters(), lr=lr)
    losses = []
    for batch in batches:
        model.zero_grad()
        loss = model.language_model_loss(batch, aux_coeff=aux)
        loss.backward()
        clip_grad_norm(model.parameters(), 1.0)
        opt.step()
        losses.append(loss.item())
    return model, losses


class TestMegaScaleTrainer:
    def make(self, config, n, **kwargs):
        model = MoETransformer(config, seed=0, dtype=np.float64)
        world = World(n, n)
        tr = TrainConfig(global_batch_size=4, micro_batch_size=4,
                         seq_len=config.seq_len, learning_rate=1e-2,
                         weight_decay=0.0, aux_loss_coeff=0.01)
        trainer = MegaScaleTrainer(
            model, world, ParallelConfig.megascale(n), tr, **kwargs)
        return trainer

    def test_losses_match_reference_exactly(self, tiny_config):
        corpus = MarkovCorpus(vocab_size=64, seed=0)
        batches = list(batch_iterator(corpus, 4, 16, limit=4))
        _, ref_losses = train_reference(tiny_config, batches)
        trainer = self.make(tiny_config, 4)
        dist_losses = [trainer.train_step(b).loss for b in batches]
        np.testing.assert_allclose(dist_losses, ref_losses, atol=1e-9)

    def test_megatron_trainer_matches_too(self, tiny_config):
        corpus = MarkovCorpus(vocab_size=64, seed=0)
        batches = list(batch_iterator(corpus, 4, 16, limit=3))
        _, ref_losses = train_reference(tiny_config, batches)
        model = MoETransformer(tiny_config, seed=0, dtype=np.float64)
        world = World(4, 4)
        tr = TrainConfig(global_batch_size=4, micro_batch_size=4,
                         seq_len=16, learning_rate=1e-2,
                         weight_decay=0.0, aux_loss_coeff=0.01)
        trainer = MegaScaleTrainer(
            model, world, ParallelConfig.megatron(world.size), tr)
        assert trainer.parallel.strategy_name == "TP+TP"
        losses = [trainer.train_step(b).loss for b in batches]
        np.testing.assert_allclose(losses, ref_losses, atol=1e-9)

    def test_world_size_mismatch(self, tiny_config):
        model = MoETransformer(tiny_config, seed=0)
        with pytest.raises(ValueError, match="world size"):
            MegaScaleTrainer(model, World(4, 4),
                             ParallelConfig.megascale(8),
                             TrainConfig())

    def test_sequence_divisibility(self, tiny_config):
        trainer = self.make(tiny_config, 4)
        with pytest.raises(ValueError, match="divisible"):
            trainer.train_step(np.zeros((1, 11), dtype=int))

    def test_eval_loss_no_mutation(self, tiny_config, rng):
        trainer = self.make(tiny_config, 4)
        ids = rng.integers(0, 64, (2, 17))
        before = {k: v.copy() for k, v in trainer.state_dict().items()}
        eval_loss(trainer, ids)
        after = trainer.state_dict()
        for k in before:
            np.testing.assert_array_equal(before[k], after[k])

    def test_checkpoint_roundtrip(self, tiny_config, rng):
        trainer = self.make(tiny_config, 4)
        ids = rng.integers(0, 64, (2, 17))
        trainer.train_step(ids)
        state = trainer.state_dict()
        fresh = self.make(tiny_config, 4)
        fresh.load_state_dict(state)
        assert eval_loss(fresh, ids) == pytest.approx(
            eval_loss(trainer, ids))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_state_dict_replays_a_window_bit_for_bit(self, tiny_config,
                                                     rng, dtype):
        """The benchmark's ``timed_windows`` restores the state saved
        after warm-up and requires the replayed losses to repeat
        exactly; the state keeps the model's dtype both ways."""
        model = MoETransformer(tiny_config, seed=0, dtype=dtype)
        trainer = MegaScaleTrainer(
            model, World(4, 4), ParallelConfig.megascale(4),
            TrainConfig(global_batch_size=2, micro_batch_size=2,
                        seq_len=tiny_config.seq_len, learning_rate=1e-2))
        batches = [rng.integers(0, 64, (2, 17)) for _ in range(4)]
        trainer.train_step(batches[0])
        saved = trainer.state_dict()
        assert all(v.dtype == dtype for k, v in saved.items()
                   if k != "opt/step_count")
        frozen = {k: v.copy() for k, v in saved.items()}
        first = [trainer.train_step(b).loss for b in batches[1:]]
        # the in-place updates did not reach into the saved copy
        for k, v in saved.items():
            np.testing.assert_array_equal(v, frozen[k])
        trainer.load_state_dict(saved)
        assert all(m.dtype == v.dtype == dtype for m, v in
                   zip(trainer.optimizer.m, trainer.optimizer.v))
        assert [trainer.train_step(b).loss for b in batches[1:]] == first
        # and a second restore from the same dict still works
        trainer.load_state_dict(saved)
        assert trainer.train_step(batches[1]).loss == first[0]

    def test_float64_era_checkpoint_is_cast_once(self, tiny_config, rng):
        """Moments saved as float64 (every checkpoint before the update
        phase moved to the parameter dtype) load into a float32 model
        as float32 and stay float32 through the next steps."""
        def make():
            model = MoETransformer(tiny_config, seed=0)
            return MegaScaleTrainer(
                model, World(4, 4), ParallelConfig.megascale(4),
                TrainConfig(global_batch_size=2, micro_batch_size=2,
                            seq_len=tiny_config.seq_len))
        trainer, twin = make(), make()
        ids = rng.integers(0, 64, (2, 17))
        trainer.train_step(ids)
        state = trainer.state_dict()
        legacy = {k: (v.astype(np.float64) if k.startswith("opt/m")
                      or k.startswith("opt/v") else v)
                  for k, v in state.items()}
        twin.load_state_dict(legacy)
        for m, v, p in zip(twin.optimizer.m, twin.optimizer.v,
                           twin.model.parameters()):
            assert m.dtype == v.dtype == p.data.dtype == np.float32
        assert twin.train_step(ids).loss == trainer.train_step(ids).loss
        assert all(m.dtype == np.float32 for m in twin.optimizer.m)

    def test_step_result_telemetry(self, tiny_config, rng):
        trainer = self.make(tiny_config, 4)
        ids = rng.integers(0, 64, (2, 17))
        result = trainer.train_step(ids)
        assert result.tokens == 2 * 16
        assert result.grad_norm > 0
        assert result.loss == pytest.approx(
            result.lm_loss + 0.01 * result.aux_loss)

    def test_float32_step_moves_four_bytes_per_element(self, tiny_config,
                                                        rng):
        """The default float32 model puts float32 on the wire: one
        sp+ep ``ag_rs`` step books exactly the Eq. 2 / Eq. 4 element
        counts (forward plus the dual backward collectives) x 4 B."""
        from repro.core.analysis import (sp_attention_comm_volume,
                                         tp_ffn_comm_volume)
        n, b, s = 4, 2, tiny_config.seq_len
        h, m = tiny_config.hidden_size, tiny_config.gqa_ratio
        model = MoETransformer(tiny_config, seed=0)
        world = World(n, n)
        trainer = MegaScaleTrainer(
            model, world, ParallelConfig.megascale(n, ep_dispatch="ag_rs"),
            TrainConfig(global_batch_size=b, micro_batch_size=b,
                        seq_len=s, aux_loss_coeff=0.01))
        trainer.train_step(rng.integers(0, 64, (b, s + 1)))
        elements_per_pass = (
            sp_attention_comm_volume(b, s, h, n, m) * n / 2.0
            + tp_ffn_comm_volume(b, s, h, n) * n)
        assert model.embedding.data.itemsize == 4
        assert world.ledger.total_bytes() == (
            2 * tiny_config.n_layers * elements_per_pass * 4)

    def test_training_reduces_loss(self, tiny_config):
        corpus = MarkovCorpus(vocab_size=64, seed=1)
        trainer = self.make(tiny_config, 4)
        batches = list(batch_iterator(corpus, 4, 16, limit=10))
        first = eval_loss(trainer, batches[0])
        for batch in batches:
            trainer.train_step(batch)
        assert eval_loss(trainer, batches[0]) < first


COMBOS = [("sp", "ep"), ("sp", "tp"), ("tp", "ep"), ("tp", "tp")]


class TestEnginesTrainTheModelsOwnWeights:
    """Every engine computes from the model's parameters — TP through
    tape slices of them — so the casts, the gradients and the idle
    experts are the single-rank model's."""

    def make(self, config, attn, ffn, **kwargs):
        model = MoETransformer(config, seed=0, dtype=np.float64)
        tr = TrainConfig(global_batch_size=4, micro_batch_size=4,
                         seq_len=config.seq_len, learning_rate=1e-2,
                         weight_decay=0.0, aux_loss_coeff=0.01)
        return MegaScaleTrainer(
            model, World(4, 4),
            ParallelConfig(model_parallel_size=4, attention=attn, ffn=ffn),
            tr, **kwargs)

    @pytest.mark.parametrize("attn,ffn", COMBOS)
    def test_first_step_loss_follows_bf16_policy(self, tiny_config, attn,
                                                 ffn):
        batch = next(batch_iterator(MarkovCorpus(vocab_size=64, seed=0),
                                    4, 16, limit=1))
        golden = MoETransformer(tiny_config, seed=0, dtype=np.float64)
        with bf16_policy():
            want = golden.language_model_loss(batch, aux_coeff=0.01).item()
        trainer = self.make(tiny_config, attn, ffn, policy=bf16_policy())
        got = trainer.train_step(batch).loss
        assert abs(got - want) / want < 1e-6

    @pytest.mark.parametrize("attn,ffn", [("sp", "tp"), ("tp", "tp")])
    def test_idle_tp_expert_keeps_no_grad_and_its_weights(self, tiny_config,
                                                          attn, ffn,
                                                          monkeypatch):
        batches = list(batch_iterator(MarkovCorpus(vocab_size=64, seed=0),
                                      4, 16, limit=2))
        trainer = self.make(tiny_config, attn, ffn)
        trainer.train_step(batches[0])  # every expert busy: Adam moments
        idle = 3
        for block in trainer.model.blocks:
            # A constant logit offset keeps expert 3 out of every top-k.
            bias = np.zeros(tiny_config.n_experts)
            bias[idle] = -1e4
            router = block.moe.router
            monkeypatch.setattr(
                router, "route_logits",
                lambda logits, route=router.route_logits:
                    route(logits + Tensor(bias)))
        before = {name: p.data.copy()
                  for name, p in trainer.model.named_parameters()}
        trainer.train_step(batches[1])
        for name, p in trainer.model.named_parameters():
            if f".experts.{idle}." in name:
                assert p.grad is None, name
                np.testing.assert_array_equal(p.data, before[name],
                                              err_msg=name)
            elif ".experts." in name:
                assert p.grad is not None, name
