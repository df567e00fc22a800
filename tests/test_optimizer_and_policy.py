"""Tests for optimizers, gradient clipping, and precision policies."""

import numpy as np
import pytest

from repro.model import MoETransformer
from repro.model.layers import Linear
from repro.precision.formats import round_bf16
from repro.precision.optimizer import AdamW, clip_grad_norm
from repro.precision.policy import (
    bf16_policy,
    current_policy,
    fp8_naive_policy,
    fp8_policy,
)
from repro.tensor import Tensor


class TestClipGradNorm:
    def test_no_clip_below_threshold(self, rng):
        p = Tensor(np.zeros(4), requires_grad=True)
        p.grad = np.array([0.3, 0.0, 0.0, 0.0])
        norm = clip_grad_norm([p], 1.0)
        assert norm == pytest.approx(0.3)
        np.testing.assert_allclose(p.grad, [0.3, 0, 0, 0])

    def test_clips_to_max(self, rng):
        p = Tensor(np.zeros(2), requires_grad=True)
        p.grad = np.array([3.0, 4.0])
        norm = clip_grad_norm([p], 1.0)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0, rel=1e-6)

    def test_global_norm_across_params(self):
        ps = []
        for _ in range(2):
            p = Tensor(np.zeros(1), requires_grad=True)
            p.grad = np.array([3.0])
            ps.append(p)
        norm = clip_grad_norm(ps, 10.0)
        assert norm == pytest.approx(np.sqrt(18.0))

    def test_disabled_with_zero_max(self):
        p = Tensor(np.zeros(1), requires_grad=True)
        p.grad = np.array([100.0])
        clip_grad_norm([p], 0.0)
        assert p.grad[0] == 100.0

    def test_none_grads_skipped(self):
        p = Tensor(np.zeros(1), requires_grad=True)
        assert clip_grad_norm([p], 1.0) == 0.0


class TestAdamW:
    def test_first_step_matches_closed_form(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([0.5])
        opt = AdamW([p], lr=0.1, betas=(0.9, 0.999), eps=1e-8)
        opt.step()
        # After bias correction the first update is -lr * sign-ish.
        expected = 1.0 - 0.1 * 0.5 / (0.5 + 1e-8)
        assert p.data[0] == pytest.approx(expected, rel=1e-6)

    def test_weight_decay_decoupled(self):
        p = Tensor(np.array([2.0]), requires_grad=True)
        p.grad = np.array([0.0])
        opt = AdamW([p], lr=0.1, weight_decay=0.5)
        opt.step()
        assert p.data[0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)

    def test_none_grad_leaves_param(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        AdamW([p], lr=0.1).step()
        assert p.data[0] == 1.0

    def test_moments_accumulate(self, rng):
        p = Tensor(rng.standard_normal(4), requires_grad=True)
        opt = AdamW([p], lr=0.01)
        for _ in range(3):
            p.grad = np.ones(4)
            opt.step()
        assert opt.step_count == 3
        assert (opt.m[0] > 0).all() and (opt.v[0] > 0).all()

    def test_explicit_grads_argument(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = AdamW([p], lr=0.1)
        opt.step(grads=[np.array([1.0])])
        assert p.data[0] < 1.0

    def test_state_nbytes(self, rng):
        p = Tensor(rng.standard_normal(10), requires_grad=True)
        opt = AdamW([p])
        assert opt.state_nbytes() == 2 * 10 * 8

    def test_zero_grad(self, rng):
        p = Tensor(rng.standard_normal(3), requires_grad=True)
        p.grad = np.ones(3)
        opt = AdamW([p])
        opt.zero_grad()
        assert p.grad is None


class TestPrecisionPolicy:
    def test_no_policy_by_default(self):
        assert current_policy() is None

    def test_context_nesting(self):
        with bf16_policy() as outer:
            assert current_policy() is outer
            with fp8_policy() as inner:
                assert current_policy() is inner
            assert current_policy() is outer
        assert current_policy() is None

    def test_linear_applies_policy(self, rng):
        lin = Linear(rng, 8, 8, dtype=np.float64)
        x = Tensor(rng.standard_normal((4, 8)))
        exact = lin(x).data
        with bf16_policy():
            rounded = lin(x).data
        expected = round_bf16(x.data) @ round_bf16(lin.weight.data)
        np.testing.assert_allclose(rounded, expected, rtol=1e-6)
        assert np.abs(rounded - exact).max() > 0

    def test_fp8_policy_close_to_exact(self, rng, tiny_config):
        model = MoETransformer(tiny_config, seed=0, dtype=np.float64)
        ids = rng.integers(0, 64, (2, 9))
        exact = model.language_model_loss(ids).item()
        with fp8_policy():
            fp8 = model.language_model_loss(ids).item()
        assert fp8 == pytest.approx(exact, rel=0.05)

    def test_per_token_beats_per_tensor_with_outliers(self, rng):
        """The §7 SwiGLU observation: per-token activation quantization
        tracks the full-precision result better than per-tensor when
        token magnitudes vary wildly."""
        lin = Linear(rng, 16, 16, dtype=np.float64)
        x = rng.standard_normal((32, 16))
        x[0] *= 300.0  # one outlier token
        exact = lin(Tensor(x)).data
        with fp8_policy():
            per_token = lin(Tensor(x)).data
        with fp8_naive_policy():
            per_tensor = lin(Tensor(x)).data
        err_token = np.abs(per_token[1:] - exact[1:]).mean()
        err_tensor = np.abs(per_tensor[1:] - exact[1:]).mean()
        assert err_token < err_tensor

    def test_gradients_flow_through_policy(self, rng):
        lin = Linear(rng, 4, 4, dtype=np.float64)
        x = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
        with bf16_policy():
            lin(x).sum().backward()
        assert x.grad is not None
        assert lin.weight.grad is not None
