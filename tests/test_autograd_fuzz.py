"""Property-based fuzzing of the autograd engine: random expression
trees must pass central-difference gradient checks."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor import Tensor, ops

from conftest import gradcheck

UNARY = ["silu", "silu_shrunk", "softmax", "sum_keep", "mean0",
         "transpose", "reshape", "scale"]
BINARY = ["add", "mul", "div_safe", "matmul_square"]


def apply_unary(name, t):
    if name == "silu":
        return t.silu()
    if name == "silu_shrunk":
        return (t * 0.3).silu()
    if name == "softmax":
        return ops.softmax(t, axis=-1)
    if name == "sum_keep":
        return t.sum(axis=-1, keepdims=True) + t * 0.0
    if name == "mean0":
        return t.mean(axis=0, keepdims=True) + t * 0.0
    if name == "transpose":
        return t.transpose(1, 0).transpose(1, 0)
    if name == "reshape":
        return t.reshape(t.size).reshape(*t.shape)
    if name == "scale":
        return t * -1.5
    raise AssertionError(name)


def apply_binary(name, a, b):
    if name == "add":
        return a + b
    if name == "mul":
        return a * b
    if name == "div_safe":
        return a / (b * b + 1.0)
    if name == "matmul_square":
        return a @ b.transpose(1, 0) @ b
    raise AssertionError(name)


@st.composite
def expression(draw):
    """A random expression over two [r, c] inputs, depth <= 4."""
    unary_ops = draw(st.lists(st.sampled_from(UNARY), min_size=0,
                              max_size=3))
    binary = draw(st.sampled_from(BINARY))
    more_unary = draw(st.lists(st.sampled_from(UNARY), min_size=0,
                               max_size=2))
    rows = draw(st.integers(2, 4))
    cols = draw(st.integers(2, 4))
    seed = draw(st.integers(0, 10 ** 6))
    return unary_ops, binary, more_unary, rows, cols, seed


class TestAutogradFuzz:
    @given(expression())
    @settings(max_examples=40, deadline=None)
    def test_random_expressions_gradcheck(self, expr):
        unary_ops, binary, more_unary, rows, cols, seed = expr
        rng = np.random.default_rng(seed)

        def fn(a, b):
            x = a
            for name in unary_ops:
                x = apply_unary(name, x)
            y = apply_binary(binary, x, b)
            for name in more_unary:
                y = apply_unary(name, y)
            return y

        a = rng.standard_normal((rows, cols)) * 0.5
        b = rng.standard_normal((rows, cols)) * 0.5
        gradcheck(fn, [a, b], rng, eps=1e-6, tol=5e-4)

    @given(st.integers(0, 10 ** 6), st.integers(2, 5))
    @settings(max_examples=20, deadline=None)
    def test_second_use_accumulates(self, seed, n):
        """Using a tensor n times scales its gradient n-fold."""
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        total = None
        for _ in range(n):
            term = (x * 2.0).sum()
            total = term if total is None else total + term
        total.backward()
        np.testing.assert_allclose(x.grad, 2.0 * n, rtol=1e-12)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_checkpoint_matches_plain_on_random_exprs(self, seed):
        from repro.tensor.checkpoint import checkpoint_segment
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((3, 4))

        def fn(t):
            return ops.softmax(t.silu() * 1.5, axis=-1).sum(axis=0)

        plain = Tensor(a, requires_grad=True)
        fn(plain).sum().backward()

        ckpt = Tensor(a, requires_grad=True)
        checkpoint_segment(fn, ckpt).sum().backward()
        np.testing.assert_allclose(ckpt.grad, plain.grad, atol=1e-12)
