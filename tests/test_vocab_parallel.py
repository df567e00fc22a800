"""Tests for the vocab-parallel LM head and cross-entropy."""

import numpy as np
import pytest

from repro.comm import World
from repro.parallel.vocab_parallel import (
    shard_lm_head,
    vocab_parallel_cross_entropy,
    vocab_parallel_loss,
)
from repro.tensor import Tensor, ops


class TestShardLMHead:
    def test_shapes(self, rng):
        shards = shard_lm_head(rng.standard_normal((8, 32)), 4)
        assert len(shards) == 4
        assert all(s.shape == (8, 8) for s in shards)

    def test_divisibility(self, rng):
        with pytest.raises(ValueError, match="not divisible"):
            shard_lm_head(rng.standard_normal((8, 30)), 4)

    def test_columns_cover_weight(self, rng):
        w = rng.standard_normal((8, 16))
        shards = shard_lm_head(w, 4)
        np.testing.assert_array_equal(
            np.concatenate([s.data for s in shards], axis=1), w)


class TestVocabParallelCrossEntropy:
    def reference(self, logits, targets):
        lt = Tensor(logits, requires_grad=True)
        loss = ops.cross_entropy(lt, targets)
        loss.backward()
        return loss.item(), lt.grad.copy()

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_matches_dense_cross_entropy(self, rng, n):
        t, vocab = 12, 32
        logits = rng.standard_normal((t, vocab))
        targets = rng.integers(0, vocab, t)
        ref_loss, ref_grad = self.reference(logits, targets)

        world = World(n, n)
        width = vocab // n
        shards = [Tensor(logits[:, r * width:(r + 1) * width].copy(),
                         requires_grad=True) for r in range(n)]
        loss = vocab_parallel_cross_entropy(world.full_group(), shards,
                                            targets)
        assert loss.item() == pytest.approx(ref_loss, abs=1e-10)
        loss.backward()
        grad = np.concatenate([s.grad for s in shards], axis=1)
        np.testing.assert_allclose(grad, ref_grad, atol=1e-10)

    def test_stable_with_large_logits(self, rng):
        """The detached global max keeps exp() in range even when one
        shard holds huge values."""
        t, vocab, n = 6, 16, 4
        logits = rng.standard_normal((t, vocab))
        logits[:, 5] += 1e4  # shard 1 owns the max
        targets = rng.integers(0, vocab, t)
        world = World(n, n)
        shards = [Tensor(logits[:, r * 4:(r + 1) * 4].copy())
                  for r in range(n)]
        loss = vocab_parallel_cross_entropy(world.full_group(), shards,
                                            targets)
        assert np.isfinite(loss.item())

    def test_target_ownership_any_rank(self, rng):
        """Targets living on each different rank are all recovered."""
        t, vocab, n = 8, 16, 4
        logits = rng.standard_normal((t, vocab))
        # One target per shard region, cycled.
        targets = np.array([1, 5, 9, 13, 2, 6, 10, 14])
        ref_loss, _ = self.reference(logits, targets)
        world = World(n, n)
        shards = [Tensor(logits[:, r * 4:(r + 1) * 4].copy())
                  for r in range(n)]
        loss = vocab_parallel_cross_entropy(world.full_group(), shards,
                                            targets)
        assert loss.item() == pytest.approx(ref_loss, abs=1e-10)

    def test_validation(self, rng):
        world = World(2, 2)
        shards = [Tensor(rng.standard_normal((4, 8))) for _ in range(2)]
        with pytest.raises(ValueError, match="targets cover"):
            vocab_parallel_cross_entropy(world.full_group(), shards,
                                         np.zeros(3, dtype=int))
        with pytest.raises(ValueError, match="outside"):
            vocab_parallel_cross_entropy(world.full_group(), shards,
                                         np.full(4, 99))

    def test_never_materializes_full_logits(self, rng):
        """Each shard stays [T, V/n]; the reduction tensors are [T, 1]."""
        t, vocab, n = 10, 64, 4
        logits = rng.standard_normal((t, vocab))
        targets = rng.integers(0, vocab, t)
        world = World(n, n)
        shards = [Tensor(logits[:, r * 16:(r + 1) * 16].copy(),
                         requires_grad=True) for r in range(n)]
        loss = vocab_parallel_cross_entropy(world.full_group(), shards,
                                            targets)
        from repro.tensor.checkpoint import tape_saved_arrays
        widths = {a.shape[-1] for a in tape_saved_arrays(loss)
                  if a.ndim >= 2}
        assert vocab not in widths  # no [T, V] array on the tape


class TestVocabParallelLoss:
    def test_end_to_end_matches_reference(self, rng):
        b, s, h, vocab, n = 2, 8, 16, 32, 4
        hidden = rng.standard_normal((b, s, h))
        head = rng.standard_normal((h, vocab)) * 0.1
        targets = rng.integers(0, vocab, b * s)

        ht = Tensor(hidden, requires_grad=True)
        wt = Tensor(head, requires_grad=True)
        logits = ht.reshape(b * s, h) @ wt
        ref = ops.cross_entropy(logits, targets)
        ref.backward()
        ref_grad_w = wt.grad.copy()

        world = World(n, n)
        hidden_shards = [Tensor(hidden[:, r * 2:(r + 1) * 2].copy(),
                                requires_grad=True) for r in range(n)]
        head_shards = shard_lm_head(head, n)
        # Targets follow the gathered (rank-major) token order.
        gathered_targets = targets.reshape(b, s)
        reordered = np.concatenate(
            [gathered_targets[:, r * 2:(r + 1) * 2].reshape(-1)
             for r in range(n)])
        loss = vocab_parallel_loss(world.full_group(), hidden_shards,
                                   head_shards, reordered)
        assert loss.item() == pytest.approx(ref.item(), abs=1e-10)
        loss.backward()
        grad_w = np.concatenate([s.grad for s in head_shards], axis=1)
        np.testing.assert_allclose(grad_w, ref_grad_w, atol=1e-10)


class TestTrainerIntegration:
    def test_trainer_bitwise_identical_with_vocab_parallel(self):
        from repro.comm import World
        from repro.core.config import ModelConfig, ParallelConfig, \
            TrainConfig
        from repro.core.trainer import MegaScaleTrainer
        from repro.data import MarkovCorpus, batch_iterator
        from repro.model import MoETransformer

        cfg = ModelConfig("vp", 2, 32, 8, 2, 48, 8, 2, vocab_size=64,
                          seq_len=16)
        corpus = MarkovCorpus(vocab_size=64, seed=0)
        batches = list(batch_iterator(corpus, 4, 16, seed=1, limit=3))
        tr = TrainConfig(global_batch_size=4, micro_batch_size=4,
                         seq_len=16, learning_rate=1e-2,
                         weight_decay=0.0, aux_loss_coeff=0.01)
        losses = {}
        states = {}
        for vp in (False, True):
            model = MoETransformer(cfg, seed=0, dtype=np.float64)
            trainer = MegaScaleTrainer(
                model, World(4, 4), ParallelConfig.megascale(4), tr,
                vocab_parallel=vp)
            losses[vp] = [trainer.train_step(b).loss for b in batches]
            states[vp] = model.state_dict()
        np.testing.assert_allclose(losses[True], losses[False],
                                   atol=1e-12)
        for name in states[False]:
            np.testing.assert_allclose(states[True][name],
                                       states[False][name], atol=1e-12,
                                       err_msg=name)

    def test_ledger_records_the_payloads_nbytes(self):
        """The trainer's vocab-parallel loss moves float32 hidden rows,
        row sums and target logits; the ledger prices each at its
        itemsize (it used to assume 2 bytes per element)."""
        from repro.comm import World
        from repro.core.config import ModelConfig, ParallelConfig, \
            TrainConfig
        from repro.core.trainer import MegaScaleTrainer
        from repro.model import MoETransformer

        n, b, s, h = 4, 2, 16, 32
        cfg = ModelConfig("vp", 1, h, 8, 2, 48, 8, 2, vocab_size=64,
                          seq_len=s)
        model = MoETransformer(cfg, seed=0, dtype=np.float32)
        trainer = MegaScaleTrainer(
            model, World(n, n), ParallelConfig.megascale(n),
            TrainConfig(global_batch_size=b, micro_batch_size=b,
                        seq_len=s), vocab_parallel=True)
        rng = np.random.default_rng(0)
        trainer.train_step(rng.integers(0, 64, (b, s + 1)))
        by_tag = trainer.world.ledger.bytes_by_tag()
        tokens, itemsize = b * s, 4
        # Ring AG of [T/n, h] shards; ring all-reduces of [T] vectors;
        # all ranks' bytes.
        assert by_tag["vocab_ce:ag"] == tokens * h * itemsize * (n - 1)
        for tag in ("vocab_ce:sumexp", "vocab_ce:target"):
            assert by_tag[tag] == 2 * tokens * itemsize * (n - 1)
