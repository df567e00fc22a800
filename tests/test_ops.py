"""Tests for the NN operators (softmax, rmsnorm, attention, scatter...)."""

import numpy as np
import pytest

from repro.tensor import Tensor, ops

from conftest import gradcheck


class TestConcatSplitStack:
    def test_concat_grad(self, rng):
        gradcheck(lambda a, b: ops.concat([a, b], axis=1),
                  [rng.standard_normal((2, 3)),
                   rng.standard_normal((2, 2))], rng)

    def test_split_roundtrip(self, rng):
        """The n shards of a tensor concatenate back to it."""
        x = Tensor(rng.standard_normal((6, 2)), requires_grad=True)
        parts = [ops.shard(x, 3, r) for r in range(3)]
        recon = ops.concat(parts)
        np.testing.assert_array_equal(recon.data, x.data)

    def test_split_grad(self, rng):
        gradcheck(lambda a: ops.shard(a, 2, 1, axis=0),
                  [rng.standard_normal((4, 3))], rng)
        gradcheck(lambda a: ops.shard(a, 3, 2, axis=1),
                  [rng.standard_normal((2, 6))], rng)

    def test_split_pieces_are_contiguous(self, rng):
        """A TP rank's weight shard is a dense GEMM operand, copied
        once: the parameter's own array is never aliased."""
        x = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
        for axis in (0, 1):
            piece = ops.shard(x, 2, 1, axis=axis)
            assert piece.data.flags.c_contiguous
            assert not np.shares_memory(piece.data, x.data)

    def test_split_indivisible(self):
        with pytest.raises(ValueError, match="not divisible"):
            ops.shard(Tensor(np.zeros((5, 2))), 2, 0)


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        out = ops.softmax(Tensor(rng.standard_normal((4, 7))))
        np.testing.assert_allclose(out.data.sum(-1), 1.0, rtol=1e-6)

    def test_shift_invariance(self, rng):
        x = rng.standard_normal((3, 5))
        a = ops.softmax(Tensor(x)).data
        b = ops.softmax(Tensor(x + 100.0)).data
        np.testing.assert_allclose(a, b, atol=1e-7)

    def test_stable_with_large_values(self):
        out = ops.softmax(Tensor(np.array([[1e4, 0.0]])))
        assert np.isfinite(out.data).all()

    def test_grad(self, rng):
        gradcheck(lambda a: ops.softmax(a, axis=-1),
                  [rng.standard_normal((3, 4))], rng)


class TestRMSNorm:
    def test_unit_rms(self, rng):
        x = Tensor(rng.standard_normal((4, 16)) * 7.0)
        w = Tensor(np.ones(16))
        out = ops.rmsnorm(x, w).data
        rms = np.sqrt((out ** 2).mean(-1))
        np.testing.assert_allclose(rms, 1.0, rtol=1e-3)

    def test_grad(self, rng):
        gradcheck(lambda a, w: ops.rmsnorm(a, w),
                  [rng.standard_normal((3, 8)),
                   rng.standard_normal(8)], rng)

    def test_scale_applied(self, rng):
        x = Tensor(rng.standard_normal((2, 4)))
        w2 = Tensor(np.full(4, 2.0))
        w1 = Tensor(np.ones(4))
        np.testing.assert_allclose(ops.rmsnorm(x, w2).data,
                                   2 * ops.rmsnorm(x, w1).data, rtol=1e-6)


class TestEmbeddingAndLoss:
    def test_embedding_lookup(self, rng):
        w = Tensor(rng.standard_normal((10, 4)), requires_grad=True)
        ids = np.array([[1, 3], [3, 0]])
        out = ops.embedding(w, ids)
        np.testing.assert_array_equal(out.data[0, 1], w.data[3])

    def test_embedding_sparse_grad(self, rng):
        w = Tensor(rng.standard_normal((10, 4)), requires_grad=True)
        ids = np.array([2, 2, 5])
        ops.embedding(w, ids).sum().backward()
        assert w.grad[2].sum() == pytest.approx(8.0)  # two hits × 4 dims
        assert w.grad[0].sum() == 0.0

    def test_cross_entropy_uniform(self):
        logits = Tensor(np.zeros((4, 8)))
        loss = ops.cross_entropy(logits, np.zeros(4, dtype=int))
        assert loss.item() == pytest.approx(np.log(8))

    def test_cross_entropy_grad(self, rng):
        tgt = rng.integers(0, 5, 6)
        gradcheck(lambda a: ops.cross_entropy(a, tgt),
                  [rng.standard_normal((6, 5))], rng, tol=1e-5)

    def test_cross_entropy_shape_mismatch(self, rng):
        with pytest.raises(ValueError, match="does not match"):
            ops.cross_entropy(Tensor(rng.standard_normal((4, 5))),
                              np.zeros(3, dtype=int))

    def test_perfect_prediction_low_loss(self):
        logits = np.full((3, 4), -50.0)
        tgt = np.array([1, 2, 0])
        logits[np.arange(3), tgt] = 50.0
        assert ops.cross_entropy(Tensor(logits), tgt).item() < 1e-6


class TestRowOps:
    def test_take_rows_values(self, rng):
        x = Tensor(rng.standard_normal((5, 3)))
        idx = np.array([4, 0, 4])
        out = ops.take_rows(x, idx)
        np.testing.assert_array_equal(out.data, x.data[idx])

    def test_take_rows_grad_duplicates(self, rng):
        gradcheck(lambda a: ops.take_rows(a, np.array([1, 1, 0])),
                  [rng.standard_normal((3, 2))], rng)

    def test_put_rows_accumulates(self, rng):
        x = Tensor(np.ones((3, 2)))
        out = ops.put_rows(x, np.array([1, 1, 0]), 4)
        np.testing.assert_array_equal(out.data,
                                      [[1, 1], [2, 2], [0, 0], [0, 0]])

    def test_put_rows_grad(self, rng):
        gradcheck(lambda a: ops.put_rows(a, np.array([2, 0, 2]), 4),
                  [rng.standard_normal((3, 2))], rng)

    def test_scatter_gather_inverse(self, rng):
        """take_rows(put_rows(x, perm), perm) == x for permutations."""
        x = Tensor(rng.standard_normal((6, 3)))
        perm = np.random.default_rng(1).permutation(6)
        out = ops.take_rows(ops.put_rows(x, perm, 6), perm)
        np.testing.assert_allclose(out.data, x.data)


class TestRoPE:
    def test_norm_preserved(self, rng):
        """Rotation preserves the norm of each (x_i, x_{i+half}) pair."""
        x = Tensor(rng.standard_normal((1, 6, 2, 8)))
        out = ops.rope_rotate(x)
        np.testing.assert_allclose(
            np.linalg.norm(out.data, axis=-1),
            np.linalg.norm(x.data, axis=-1), rtol=1e-6)

    def test_position_zero_identity(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 2, 8)))
        out = ops.rope_rotate(x, positions=np.array([0.0]))
        np.testing.assert_allclose(out.data, x.data, atol=1e-12)

    def test_sharded_positions_match_full(self, rng):
        """RoPE on a sequence shard with explicit positions equals the
        corresponding slice of full-sequence RoPE — what SP relies on."""
        x = rng.standard_normal((1, 8, 2, 4))
        full = ops.rope_rotate(Tensor(x)).data
        part = ops.rope_rotate(Tensor(x[:, 4:]),
                               positions=np.arange(4, 8)).data
        np.testing.assert_allclose(part, full[:, 4:], atol=1e-12)

    def test_grad(self, rng):
        gradcheck(lambda a: ops.rope_rotate(a),
                  [rng.standard_normal((1, 3, 2, 4))], rng)

    def test_odd_head_dim_rejected(self):
        with pytest.raises(ValueError, match="even"):
            ops.rope_rotate(Tensor(np.zeros((1, 2, 2, 5))))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("positions", [None, np.arange(4, 10)])
    def test_preserves_operand_dtype(self, rng, dtype, positions):
        """The tables are cast to the operand's dtype, so neither the
        output nor the gradient leaves it (docs/INTERNALS.md §17)."""
        x = Tensor(rng.standard_normal((2, 6, 2, 8)).astype(dtype),
                   requires_grad=True)
        out = ops.rope_rotate(x, positions=positions)
        out.backward(np.ones_like(out.data))
        assert out.dtype == dtype and x.grad.dtype == dtype
        if positions is None:
            positions = np.arange(6)
        cos, sin = ops.rope_tables(positions, 8, 10000.0, dtype)
        assert cos.dtype == sin.dtype == dtype
        cos64, sin64 = ops.rope_tables(positions, 8, 10000.0, np.float64)
        np.testing.assert_allclose(cos, cos64, rtol=0, atol=1e-6)
        np.testing.assert_allclose(sin, sin64, rtol=0, atol=1e-6)

    def test_explicit_position_tables_memoised(self, rng):
        """SP-sharded positions hit the memo table: the second call
        derives nothing and hands back the same read-only arrays."""
        positions = np.arange(32, 48)
        x = Tensor(rng.standard_normal((1, 16, 2, 8)).astype(np.float32))
        ops.rope_rotate(x, positions=positions)
        first = ops.rope_tables(positions, 8, 10000.0, np.float32)
        misses = ops._rope_tables.cache_info().misses
        ops.rope_rotate(x, positions=np.arange(32, 48))
        again = ops.rope_tables(np.arange(32, 48), 8, 10000.0,
                                np.float32)
        assert ops._rope_tables.cache_info().misses == misses
        for a, b in zip(first, again):
            assert a is b
            assert not a.flags.writeable


class TestAttention:
    def test_causal_ignores_future(self, rng):
        """Changing a future token must not affect earlier outputs."""
        q = rng.standard_normal((1, 2, 6, 4))
        k = rng.standard_normal((1, 2, 6, 4))
        v = rng.standard_normal((1, 2, 6, 4))
        base = ops.scaled_dot_product_attention(
            Tensor(q), Tensor(k), Tensor(v)).data
        k2, v2 = k.copy(), v.copy()
        k2[:, :, 5] += 10.0
        v2[:, :, 5] += 10.0
        pert = ops.scaled_dot_product_attention(
            Tensor(q), Tensor(k2), Tensor(v2)).data
        np.testing.assert_allclose(pert[:, :, :5], base[:, :, :5],
                                   atol=1e-10)

    def test_non_causal_full_mixing(self, rng):
        q = rng.standard_normal((1, 1, 3, 2))
        k = rng.standard_normal((1, 1, 3, 2))
        v = rng.standard_normal((1, 1, 3, 2))
        out = ops.scaled_dot_product_attention(
            Tensor(q), Tensor(k), Tensor(v), causal=False)
        assert out.shape == (1, 1, 3, 2)

    def test_gqa_equals_explicit_repeat(self, rng):
        """GQA must equal manually repeating KV heads."""
        q = rng.standard_normal((1, 4, 5, 3))
        k = rng.standard_normal((1, 2, 5, 3))
        v = rng.standard_normal((1, 2, 5, 3))
        gqa = ops.scaled_dot_product_attention(
            Tensor(q), Tensor(k), Tensor(v)).data
        krep = np.repeat(k, 2, axis=1)
        vrep = np.repeat(v, 2, axis=1)
        full = ops.scaled_dot_product_attention(
            Tensor(q), Tensor(krep), Tensor(vrep)).data
        np.testing.assert_allclose(gqa, full, atol=1e-12)

    def test_gqa_indivisible_rejected(self, rng):
        q = Tensor(rng.standard_normal((1, 3, 4, 2)))
        kv = Tensor(rng.standard_normal((1, 2, 4, 2)))
        with pytest.raises(ValueError, match="multiple"):
            ops.scaled_dot_product_attention(q, kv, kv)

    def test_grad_gqa(self, rng):
        gradcheck(
            lambda q, k, v: ops.scaled_dot_product_attention(q, k, v),
            [rng.standard_normal((1, 4, 4, 3)),
             rng.standard_normal((1, 2, 4, 3)),
             rng.standard_normal((1, 2, 4, 3))], rng)


class TestPrecisionCast:
    def test_forward_rounds(self, rng):
        from repro.precision.formats import round_bf16
        x = Tensor(rng.standard_normal((8,)).astype(np.float64),
                   requires_grad=True)
        out = ops.precision_cast(x, round_bf16)
        np.testing.assert_array_equal(out.data, round_bf16(x.data))

    def test_backward_straight_through(self, rng):
        from repro.precision.formats import round_bf16
        x = Tensor(rng.standard_normal((8,)), requires_grad=True)
        ops.precision_cast(x, round_bf16).sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones(8))

