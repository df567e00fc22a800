"""Tests for Module plumbing, Linear, RMSNorm, SelfAttention."""

import numpy as np
import pytest

from repro.model.layers import Linear, Module, RMSNorm, SelfAttention
from repro.tensor import Tensor


class TestModule:
    def test_named_parameters_recursive(self, rng):
        class Outer(Module):
            def __init__(self):
                self.inner = Linear(rng, 4, 4)
                self.weight = Tensor(np.zeros(3), requires_grad=True)
                self.frozen = Tensor(np.zeros(3))  # no grad -> excluded
                self.blocks = [Linear(rng, 2, 2), Linear(rng, 2, 2)]

        outer = Outer()
        names = dict(outer.named_parameters())
        assert "inner.weight" in names
        assert "weight" in names
        assert "frozen" not in names
        assert "blocks.0.weight" in names and "blocks.1.weight" in names

    def test_n_params(self, rng):
        lin = Linear(rng, 4, 6, bias=True)
        assert sum(p.size for p in lin.parameters()) == 4 * 6 + 6

    def test_zero_grad(self, rng):
        lin = Linear(rng, 3, 3)
        (Tensor(np.ones((2, 3))) @ lin.weight).sum().backward()
        assert lin.weight.grad is not None
        lin.zero_grad()
        assert lin.weight.grad is None

    def test_state_dict_roundtrip(self, rng):
        a = Linear(rng, 4, 5, bias=True)
        b = Linear(np.random.default_rng(99), 4, 5, bias=True)
        b.load_state_dict(a.state_dict())
        np.testing.assert_array_equal(a.weight.data, b.weight.data)
        np.testing.assert_array_equal(a.bias.data, b.bias.data)

    def test_state_dict_missing_key(self, rng):
        a = Linear(rng, 4, 5)
        state = a.state_dict()
        del state["weight"]
        with pytest.raises(KeyError):
            a.load_state_dict(state)

    def test_state_dict_shape_mismatch(self, rng):
        a = Linear(rng, 4, 5)
        state = {"weight": np.zeros((5, 4))}
        with pytest.raises(ValueError, match="shape mismatch"):
            a.load_state_dict(state)


class TestLinear:
    def test_matmul(self, rng):
        lin = Linear(rng, 4, 3, dtype=np.float64)
        x = rng.standard_normal((2, 4))
        np.testing.assert_allclose(lin(Tensor(x)).data,
                                   x @ lin.weight.data)

    def test_bias(self, rng):
        lin = Linear(rng, 4, 3, bias=True, dtype=np.float64)
        lin.bias.data[:] = 5.0
        out = lin(Tensor(np.zeros((2, 4))))
        np.testing.assert_allclose(out.data, 5.0)

    def test_init_scale(self, rng):
        lin = Linear(rng, 10000, 4)
        assert lin.weight.data.std() == pytest.approx(0.01, rel=0.1)


class TestRMSNorm:
    def test_eps_prevents_nan(self):
        norm = RMSNorm(4)
        out = norm(Tensor(np.zeros((2, 4))))
        assert np.isfinite(out.data).all()

    def test_parameters(self):
        norm = RMSNorm(8)
        assert [p.size for p in norm.parameters()] == [8]


class TestSelfAttention:
    def test_output_shape(self, rng):
        attn = SelfAttention(rng, 16, 8, 2)
        out = attn(Tensor(rng.standard_normal((2, 6, 16))
                          .astype(np.float32)))
        assert out.shape == (2, 6, 16)

    def test_head_accounting(self, rng):
        attn = SelfAttention(rng, 24, 8, 4)
        assert attn.head_dim == 3
        assert attn.n_kv_heads == 2
        assert attn.qkv_proj.weight.shape == (24, 24 + 2 * 2 * 3)

    def test_validation(self, rng):
        with pytest.raises(ValueError, match="gqa_ratio"):
            SelfAttention(rng, 16, 6, 4)
        with pytest.raises(ValueError, match="hidden_size"):
            SelfAttention(rng, 15, 4, 1)

    def test_causality_end_to_end(self, rng):
        """Perturbing the last token leaves earlier outputs unchanged."""
        attn = SelfAttention(rng, 16, 4, 2, dtype=np.float64)
        x = rng.standard_normal((1, 5, 16))
        base = attn(Tensor(x)).data
        x2 = x.copy()
        x2[0, 4] += 3.0
        pert = attn(Tensor(x2)).data
        np.testing.assert_allclose(pert[0, :4], base[0, :4], atol=1e-10)

    def test_position_sensitivity(self, rng):
        """RoPE makes attention position-dependent: permuting earlier
        tokens changes later outputs."""
        attn = SelfAttention(rng, 16, 4, 2, dtype=np.float64)
        x = rng.standard_normal((1, 4, 16))
        base = attn(Tensor(x)).data
        x2 = x[:, [1, 0, 2, 3]]
        pert = attn(Tensor(x2)).data
        assert np.abs(pert[0, 3] - base[0, 3]).max() > 1e-6

    def test_split_qkv_shapes(self, rng):
        attn = SelfAttention(rng, 16, 8, 4)
        qkv = attn.qkv_proj(Tensor(rng.standard_normal((2, 3, 16))
                                   .astype(np.float32)))
        q, k, v = attn.split_qkv(qkv, 2, 3)
        assert q.shape == (2, 3, 8, 2)
        assert k.shape == (2, 3, 2, 2)
        assert v.shape == (2, 3, 2, 2)

    def test_attend_with_positions(self, rng):
        """attend() with explicit positions equals the matching slice of
        a full-sequence pass when K/V cover the same positions."""
        attn = SelfAttention(rng, 8, 2, 1, dtype=np.float64)
        x = rng.standard_normal((1, 6, 8))
        full = attn(Tensor(x)).data
        # Reproduce manually with attend on full positions.
        qkv = attn.qkv_proj(Tensor(x))
        q, k, v = attn.split_qkv(qkv, 1, 6)
        manual = attn.attend(q, k, v, positions=np.arange(6))
        manual = attn.out_proj(manual.reshape(1, 6, 8)).data
        np.testing.assert_allclose(manual, full, atol=1e-12)
