"""Tests for the tape-based autograd engine."""

import numpy as np
import pytest

from repro.tensor import Tensor, no_grad, is_grad_enabled

from conftest import gradcheck


class TestConstruction:
    def test_dtype_coercion(self):
        t = Tensor([1, 2, 3])
        assert t.dtype == np.float32

    def test_float64_preserved(self):
        t = Tensor(np.zeros(3, dtype=np.float64))
        assert t.dtype == np.float64

    def test_from_tensor(self):
        a = Tensor([1.0, 2.0])
        b = Tensor(a)
        np.testing.assert_array_equal(a.data, b.data)

    def test_detach_and_item(self):
        assert Tensor(3.0).item() == 3.0


class TestBackwardMechanics:
    def test_scalar_backward_default_grad(self):
        t = Tensor([2.0, 3.0], requires_grad=True)
        (t * t).sum().backward()
        np.testing.assert_allclose(t.grad, [4.0, 6.0])

    def test_nonscalar_needs_grad(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError, match="scalar"):
            (t * 2).backward()

    def test_backward_on_leaf_raises(self):
        t = Tensor([1.0])
        with pytest.raises(RuntimeError, match="non-grad"):
            t.backward()

    def test_grad_accumulates_over_reuse(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        (t + t).sum().backward()
        np.testing.assert_allclose(t.grad, [2.0, 2.0])

    def test_diamond_graph(self):
        t = Tensor([3.0], requires_grad=True)
        a = t * 2
        b = t * 5
        (a + b).sum().backward()
        np.testing.assert_allclose(t.grad, [7.0])

    def test_deep_chain_no_recursion_error(self):
        t = Tensor([1.0], requires_grad=True)
        x = t
        for _ in range(3000):
            x = x + 1.0
        x.sum().backward()
        np.testing.assert_allclose(t.grad, [1.0])

    def test_no_grad_context(self):
        t = Tensor([1.0], requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            out = t * 2
        assert is_grad_enabled()
        assert out.node is None and not out.requires_grad

    def test_zero_grad(self):
        t = Tensor([1.0], requires_grad=True)
        (t * 2).sum().backward()
        t.zero_grad()
        assert t.grad is None


class TestBroadcasting:
    def test_add_broadcast_grad(self, rng):
        gradcheck(lambda a, b: (a + b).sum(),
                  [rng.standard_normal((3, 4)), rng.standard_normal(4)],
                  rng)

    def test_mul_scalar_broadcast(self, rng):
        gradcheck(lambda a, b: a * b,
                  [rng.standard_normal((2, 3)),
                   rng.standard_normal((1, 3))], rng)

    def test_div_broadcast(self, rng):
        gradcheck(lambda a, b: a / b,
                  [rng.standard_normal((3, 2)),
                   rng.standard_normal((3, 1)) + 3.0], rng)


class TestArithmeticGradients:
    def test_matmul_2d(self, rng):
        gradcheck(lambda a, b: a @ b,
                  [rng.standard_normal((3, 4)),
                   rng.standard_normal((4, 2))], rng)

    def test_matmul_batched(self, rng):
        gradcheck(lambda a, b: a @ b,
                  [rng.standard_normal((2, 3, 4)),
                   rng.standard_normal((2, 4, 5))], rng)

    def test_matmul_vector(self, rng):
        gradcheck(lambda a, b: a @ b,
                  [rng.standard_normal((3, 4)),
                   rng.standard_normal((4,))], rng)


class TestReductionsAndShaping:
    def test_sum_axis_keepdims(self, rng):
        gradcheck(lambda a: a.sum(axis=1, keepdims=True),
                  [rng.standard_normal((3, 4))], rng)

    def test_sum_multi_axis(self, rng):
        gradcheck(lambda a: a.sum(axis=(0, 2)),
                  [rng.standard_normal((2, 3, 4))], rng)

    def test_mean(self, rng):
        gradcheck(lambda a: a.mean(axis=0),
                  [rng.standard_normal((5, 2))], rng)

    def test_reshape(self, rng):
        gradcheck(lambda a: a.reshape(6, 2) @ Tensor(np.eye(2)),
                  [rng.standard_normal((3, 4))], rng)

    def test_transpose(self, rng):
        gradcheck(lambda a: a.transpose(1, 0, 2).sum(axis=0),
                  [rng.standard_normal((2, 3, 4))], rng)

    def test_getitem_slice(self, rng):
        gradcheck(lambda a: a[1:3], [rng.standard_normal((5, 2))], rng)

    def test_getitem_fancy_repeated(self, rng):
        idx = np.array([0, 2, 2, 1])
        gradcheck(lambda a: a[idx], [rng.standard_normal((4, 3))], rng)


class TestNonlinearities:
    def test_silu(self, rng):
        gradcheck(lambda a: a.silu(), [rng.standard_normal((6,))], rng)

    def test_silu_matches_x_sigmoid(self, rng):
        x = Tensor(rng.standard_normal((10,)))
        sigmoid = 1.0 / (1.0 + np.exp(-x.data))
        np.testing.assert_allclose(x.silu().data, x.data * sigmoid,
                                   rtol=1e-6)
