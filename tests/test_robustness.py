"""Robustness and determinism tests across the stack."""

import numpy as np
import pytest

from repro.comm import World, flat_sync, hierarchical_sync
from repro.core.config import ModelConfig, ParallelConfig, TrainConfig
from repro.core.trainer import MegaScaleTrainer
from repro.data import MarkovCorpus, batch_iterator
from repro.ft import FaultPlan, FaultSpec, RankCrash
from repro.model import MoETransformer


class TestDeterminism:
    def make_trainer(self):
        cfg = ModelConfig("det", 2, 32, 8, 2, 48, 8, 2, vocab_size=64,
                          seq_len=16)
        model = MoETransformer(cfg, seed=0, dtype=np.float64)
        train = TrainConfig(global_batch_size=4, micro_batch_size=4,
                            seq_len=16, learning_rate=1e-2,
                            weight_decay=0.0, aux_loss_coeff=0.01)
        return MegaScaleTrainer(
            model, World(4, 4), ParallelConfig.megascale(4), train)

    def test_trainer_fully_deterministic(self):
        corpus = MarkovCorpus(vocab_size=64, seed=0)
        batches = list(batch_iterator(corpus, 4, 16, seed=1, limit=4))
        runs = []
        for _ in range(2):
            trainer = self.make_trainer()
            runs.append([trainer.train_step(b).loss for b in batches])
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_routing_deterministic_under_ties(self):
        """Equal logits must route identically every time (stable
        argsort) — nondeterministic ties would break cross-rank
        agreement."""
        from repro.model.moe import TopKRouter
        from repro.tensor import Tensor
        rng = np.random.default_rng(0)
        router = TopKRouter(rng, 8, 4, 2, dtype=np.float64)
        router.gate.weight.data[:] = 0.0  # all logits identical
        x = Tensor(rng.standard_normal((16, 8)))
        first, _, _ = router(x)
        second, _, _ = router(x)
        np.testing.assert_array_equal(first.expert_index,
                                      second.expert_index)


class TestHierarchicalFallbacks:
    def test_indivisible_inter_shard(self, rng):
        """When the P/n shard doesn't divide by d, the inter-node phase
        zero-pads it to a multiple of d and still sums exactly."""
        world = World(6, ranks_per_node=2)  # n=2, d=3; pick awkward numel
        grads = [rng.standard_normal(10) for _ in range(6)]
        outs = hierarchical_sync(world, grads)
        for out in outs:
            np.testing.assert_allclose(out, np.sum(grads, axis=0),
                                       rtol=1e-12)
        assert any(r.tag.endswith(":inter_rs")
                   for r in world.ledger.records)

    def test_fallback_consults_the_fault_plan(self, rng):
        """The padded indivisible leg is a reduce-scatter like any
        other: a crash scheduled on it fires."""
        world = World(4, ranks_per_node=2)  # d=2; size 5 is indivisible
        plan = FaultPlan([FaultSpec("crash", at_call=0,
                                    op="reduce_scatter")])
        world.attach_fault_plan(plan)
        with pytest.raises(RankCrash):
            flat_sync(world, [rng.standard_normal(5) for _ in range(4)])
        assert plan.calls == 1


class TestTrainingWithDropping:
    def test_ep_trainer_converges_with_capacity(self):
        """Distributed EP training with rank-local token dropping is not
        reference-identical (capacity is enforced per rank), but it must
        converge and respect the capacity bound."""
        cfg = ModelConfig("cap", 2, 32, 8, 2, 48, 8, 2, vocab_size=64,
                          seq_len=16)
        model = MoETransformer(cfg, seed=0, capacity_factor=1.5,
                               experts_per_group=2, dtype=np.float64)
        train = TrainConfig(global_batch_size=4, micro_batch_size=4,
                            seq_len=16, learning_rate=3e-3,
                            weight_decay=0.0, aux_loss_coeff=0.01)
        trainer = MegaScaleTrainer(
            model, World(4, 4), ParallelConfig.megascale(4), train)
        corpus = MarkovCorpus(vocab_size=64, seed=1)
        losses = [trainer.train_step(b).lm_loss
                  for b in batch_iterator(corpus, 4, 16, seed=2,
                                          limit=8)]
        assert np.isfinite(losses).all()
        assert losses[-1] < losses[0]


class TestDeepStack:
    def test_deeper_model_wide_world_equivalence(self):
        """8 ranks × 4 layers: the equivalence holds at depth, not just
        in the 2-layer smoke configurations."""
        cfg = ModelConfig("deep", 4, 32, 8, 1, 48, 8, 2, vocab_size=32,
                          seq_len=16)
        corpus = MarkovCorpus(vocab_size=32, seed=3)
        batch = next(batch_iterator(corpus, 2, 16, seed=4))

        ref = MoETransformer(cfg, seed=0, dtype=np.float64)
        ref_loss = ref.language_model_loss(batch, aux_coeff=0.01)
        ref_loss.backward()
        ref_value = ref_loss.item()

        model = MoETransformer(cfg, seed=0, dtype=np.float64)
        train = TrainConfig(global_batch_size=2, micro_batch_size=2,
                            seq_len=16, aux_loss_coeff=0.01)
        trainer = MegaScaleTrainer(
            model, World(8, 8), ParallelConfig.megascale(8), train)
        total, lm, aux = trainer.loss(batch)
        assert total.item() == pytest.approx(ref_value, abs=1e-10)
        total.backward()
        for (name, a), (_, b) in zip(ref.named_parameters(),
                                     model.named_parameters()):
            if a.grad is None:
                assert b.grad is None, name
            else:
                np.testing.assert_allclose(b.grad, a.grad, atol=1e-9,
                                           err_msg=name)
