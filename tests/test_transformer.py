"""Tests for the full MoE transformer and its training behaviour."""

import numpy as np
import pytest

from repro.data import MarkovCorpus, batch_iterator
from repro.model import MoETransformer
from repro.tensor import no_grad


class TestForward:
    def test_logits_shape(self, rng, tiny_config):
        model = MoETransformer(tiny_config, seed=0)
        ids = rng.integers(0, 64, (2, 8))
        fwd = model(ids)
        assert fwd.logits.shape == (2, 8, 64)
        assert len(fwd.moe_outputs) == 2

    def test_rejects_non_2d(self, tiny_config):
        model = MoETransformer(tiny_config, seed=0)
        with pytest.raises(ValueError, match="batch, seq"):
            model(np.zeros(5, dtype=int))

    def test_aux_loss_accumulates_layers(self, rng, tiny_config):
        model = MoETransformer(tiny_config, seed=0, dtype=np.float64)
        ids = rng.integers(0, 64, (1, 8))
        fwd = model(ids)
        total = sum(m.aux_loss.item() for m in fwd.moe_outputs)
        assert fwd.aux_loss.item() == pytest.approx(total)

    def test_param_count_close_to_config(self, tiny_config):
        model = MoETransformer(tiny_config, seed=0)
        # Config excludes the final-norm weight only.
        assert sum(p.size for p in model.parameters()) == \
            tiny_config.total_params + tiny_config.hidden_size

    def test_deterministic_by_seed(self, rng, tiny_config):
        a = MoETransformer(tiny_config, seed=7)
        b = MoETransformer(tiny_config, seed=7)
        ids = rng.integers(0, 64, (2, 8))
        np.testing.assert_array_equal(a(ids).logits.data,
                                      b(ids).logits.data)

    def test_different_seeds_differ(self, rng, tiny_config):
        a = MoETransformer(tiny_config, seed=1)
        b = MoETransformer(tiny_config, seed=2)
        ids = rng.integers(0, 64, (1, 4))
        assert np.abs(a(ids).logits.data - b(ids).logits.data).max() > 1e-3


class TestTraining:
    def test_loss_decreases(self, tiny_config):
        model = MoETransformer(tiny_config, seed=0, dtype=np.float64)
        corpus = MarkovCorpus(vocab_size=64, seed=3)
        batches = list(batch_iterator(corpus, 4, 16, limit=12))
        first = model.language_model_loss(batches[0]).item()
        for batch in batches:
            model.zero_grad()
            loss = model.language_model_loss(batch, aux_coeff=0.01)
            loss.backward()
            for p in model.parameters():
                if p.grad is not None:
                    p.data = p.data - 0.3 * p.grad
        last = model.language_model_loss(batches[0]).item()
        assert last < first * 0.8

    def test_initial_loss_near_uniform(self, tiny_config):
        model = MoETransformer(tiny_config, seed=0)
        corpus = MarkovCorpus(vocab_size=64, seed=3)
        batch = next(batch_iterator(corpus, 4, 16))
        loss = model.language_model_loss(batch).item()
        assert loss == pytest.approx(np.log(64), rel=0.2)

    def test_all_params_receive_grads(self, rng, tiny_config):
        model = MoETransformer(tiny_config, seed=0, dtype=np.float64)
        # Large batch so every expert gets traffic.
        ids = rng.integers(0, 64, (8, 17))
        model.language_model_loss(ids, aux_coeff=0.01).backward()
        missing = [name for name, p in model.named_parameters()
                   if p.grad is None]
        assert not missing, f"params without grads: {missing[:5]}"

    def test_checkpoint_roundtrip(self, rng, tiny_config):
        a = MoETransformer(tiny_config, seed=0)
        b = MoETransformer(tiny_config, seed=42)
        b.load_state_dict(a.state_dict())
        ids = rng.integers(0, 64, (2, 9))
        with no_grad():
            np.testing.assert_array_equal(a(ids).logits.data,
                                          b(ids).logits.data)


def conditional_entropy(corpus):
    """Entropy (nats) of the next token given the current one under the
    corpus's stationary distribution: the loss floor of a perfect model."""
    p = corpus.transition
    vals, vecs = np.linalg.eig(p.T)
    pi = np.abs(np.real(vecs[:, np.argmin(np.abs(vals - 1.0))]))
    pi /= pi.sum()
    return float((pi * -(p * np.log(p + 1e-30)).sum(axis=1)).sum())


class TestCorpus:
    def test_deterministic(self):
        a = MarkovCorpus(vocab_size=32, seed=5)
        b = MarkovCorpus(vocab_size=32, seed=5)
        np.testing.assert_array_equal(a.transition, b.transition)

    def test_transition_is_stochastic(self):
        c = MarkovCorpus(vocab_size=16, seed=1)
        np.testing.assert_allclose(c.transition.sum(axis=1), 1.0,
                                   rtol=1e-10)

    def test_entropy_below_uniform(self):
        c = MarkovCorpus(vocab_size=64, branching=4, temperature=0.1)
        assert conditional_entropy(c) < np.log(64) * 0.6

    def test_lower_branching_lower_entropy(self):
        easy = MarkovCorpus(vocab_size=64, branching=2, seed=0)
        hard = MarkovCorpus(vocab_size=64, branching=32, seed=0)
        assert conditional_entropy(easy) < conditional_entropy(hard)

    def test_sample_range(self, rng):
        c = MarkovCorpus(vocab_size=16, seed=2)
        tokens = c.sample(rng, 4, 100)
        assert tokens.min() >= 0 and tokens.max() < 16

    def test_batch_iterator_shapes(self):
        c = MarkovCorpus(vocab_size=16, seed=2)
        batches = list(batch_iterator(c, 3, 10, limit=4))
        assert len(batches) == 4
        assert all(b.shape == (3, 11) for b in batches)

    def test_branching_validation(self):
        with pytest.raises(ValueError, match="branching"):
            MarkovCorpus(vocab_size=4, branching=8)

    def test_samples_follow_transition(self, rng):
        """Empirical next-token frequencies approximate the matrix."""
        c = MarkovCorpus(vocab_size=8, branching=2, temperature=0.05,
                         seed=0)
        tokens = c.sample(rng, 1, 20000)[0]
        # For the most common state, check its empirical successors.
        state = np.bincount(tokens).argmax()
        mask = tokens[:-1] == state
        successors = tokens[1:][mask]
        emp = np.bincount(successors, minlength=8) / mask.sum()
        np.testing.assert_allclose(emp, c.transition[state], atol=0.05)
