"""Tests for gradient checkpointing and the tape's byte accounting."""

import numpy as np
import pytest

from repro.model.layers import SelfAttention
from repro.tensor import Tensor
from repro.tensor.checkpoint import (
    checkpoint_segment,
    tape_live_bytes,
    tape_saved_arrays,
)


class TestCheckpointSegment:
    def test_forward_value_identical(self, rng):
        x = Tensor(rng.standard_normal((4, 8)), requires_grad=True)
        w = Tensor(rng.standard_normal((8, 8)), requires_grad=True)
        direct = (x @ w).silu()
        ckpt = checkpoint_segment(lambda a: (a @ w).silu(), x)
        np.testing.assert_array_equal(ckpt.data, direct.data)

    def test_gradients_exact(self, rng):
        x_a = Tensor(rng.standard_normal((4, 8)), requires_grad=True)
        x_b = Tensor(x_a.data.copy(), requires_grad=True)
        w = Tensor(rng.standard_normal((8, 8)), requires_grad=True)

        (x_a @ w).silu().sum().backward()
        ref_dx, ref_dw = x_a.grad.copy(), w.grad.copy()
        w.zero_grad()

        checkpoint_segment(lambda a: (a @ w).silu(), x_b).sum().backward()
        np.testing.assert_allclose(x_b.grad, ref_dx, atol=1e-12)
        np.testing.assert_allclose(w.grad, ref_dw, atol=1e-12)

    def test_multi_input_segment(self, rng):
        a = Tensor(rng.standard_normal((4, 8)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 8)), requires_grad=True)
        out = checkpoint_segment(lambda x, y: x.silu() * y, a, b)
        out.sum().backward()
        assert a.grad is not None and b.grad is not None

    def test_non_tensor_return_rejected(self, rng):
        x = Tensor(rng.standard_normal(4), requires_grad=True)
        with pytest.raises(TypeError, match="return a Tensor"):
            checkpoint_segment(lambda a: a.data, x)

    def test_tape_drops_intermediates(self, rng):
        x = Tensor(rng.standard_normal((64, 64)), requires_grad=True)

        def deep(a):
            for _ in range(6):
                a = a.silu() * 1.0001
            return a

        plain_bytes = tape_live_bytes(deep(x))
        ckpt_bytes = tape_live_bytes(checkpoint_segment(deep, x))
        assert ckpt_bytes < 0.4 * plain_bytes

    def test_nested_checkpoints(self, rng):
        x = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        def inner(a):
            return a.silu()

        def outer(a):
            return checkpoint_segment(inner, a) * 2.0


        out = checkpoint_segment(outer, x)
        out.sum().backward()
        sig = 1 / (1 + np.exp(-x.data))
        expected = 2.0 * sig * (1 + x.data * (1 - sig))
        np.testing.assert_allclose(x.grad, expected, rtol=1e-10)


class TestMemoryEfficientAttention:
    def test_gradients_match_naive(self, rng):
        x = rng.standard_normal((2, 8, 16))
        grads = {}
        for eff in (False, True):
            attn = SelfAttention(np.random.default_rng(0), 16, 4, 2,
                                 dtype=np.float64, memory_efficient=eff)
            xt = Tensor(x, requires_grad=True)
            attn(xt).sum().backward()
            grads[eff] = (xt.grad.copy(),
                          attn.qkv_proj.weight.grad.copy())
        np.testing.assert_allclose(grads[True][0], grads[False][0],
                                   atol=1e-12)
        np.testing.assert_allclose(grads[True][1], grads[False][1],
                                   atol=1e-12)

    def test_scores_not_retained(self, rng):
        """The s×s probability matrix must not live on the tape.

        The fused SDPA node retains exactly one s×s buffer (the
        composed chain it replaced kept four), so the sequence must be
        long enough for that one buffer to dominate the linear terms.
        """
        s = 64
        x = rng.standard_normal((1, s, 16))
        sizes = {}
        for eff in (False, True):
            attn = SelfAttention(np.random.default_rng(0), 16, 4, 2,
                                 dtype=np.float64, memory_efficient=eff)
            xt = Tensor(x, requires_grad=True)
            out = attn(xt)
            params = [p.data for p in attn.parameters()]
            sizes[eff] = tape_live_bytes(out, exclude=params)
        assert sizes[True] < 0.5 * sizes[False]


class TestTapeAccounting:
    def test_exclude_removes_parameters(self, rng):
        w = Tensor(rng.standard_normal((32, 32)), requires_grad=True)
        x = Tensor(rng.standard_normal((4, 32)), requires_grad=True)
        out = x @ w
        with_params = tape_live_bytes(out)
        without = tape_live_bytes(out, exclude=[w.data])
        assert with_params - without == pytest.approx(w.data.nbytes)

    def test_saved_arrays_deduplicated(self, rng):
        x = Tensor(rng.standard_normal((8, 8)), requires_grad=True)
        # mul saves both factors: two distinct views of x's array
        out = x.reshape(64) * x.reshape(64)
        arrays = tape_saved_arrays(out)
        ids = [id(a) for a in arrays]
        assert len(ids) == len(set(ids))
        assert tape_live_bytes(out) == x.data.nbytes
