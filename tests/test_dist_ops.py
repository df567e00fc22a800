"""Tests for the differentiable collectives over per-rank Tensors."""

import numpy as np
import pytest

from repro.parallel.dist_ops import (
    dist_all_gather,
    dist_all_to_all,
    dist_all_to_all_uneven,
    dist_reduce_scatter,
)
from repro.parallel.dist_ops_fp8 import (
    dist_all_gather_fp8,
    dist_reduce_scatter_fp8,
)
from repro.tensor import Tensor


def leaf_shards(rng, n, shape):
    return [Tensor(rng.standard_normal(shape), requires_grad=True)
            for _ in range(n)]


class TestDistAllGather:
    def test_forward(self, rng, world4):
        g = world4.full_group()
        shards = leaf_shards(rng, 4, (2, 3))
        outs = dist_all_gather(g, shards, axis=0)
        full = np.concatenate([s.data for s in shards], axis=0)
        for out in outs:
            np.testing.assert_array_equal(out.data, full)

    def test_backward_is_reduce_scatter(self, rng, world4):
        """Each input's grad is the sum over outputs of its slice."""
        g = world4.full_group()
        shards = leaf_shards(rng, 4, (2, 3))
        outs = dist_all_gather(g, shards, axis=0)
        grads = [rng.standard_normal((8, 3)) for _ in range(4)]
        for out, go in zip(outs, grads):
            out.backward(go)
        total = np.sum(grads, axis=0)
        for i, shard in enumerate(shards):
            np.testing.assert_allclose(shard.grad,
                                       total[i * 2:(i + 1) * 2],
                                       rtol=1e-12)

    def test_backward_bytes_recorded(self, rng, world4):
        g = world4.full_group()
        shards = leaf_shards(rng, 4, (2, 3))
        outs = dist_all_gather(g, shards, axis=0, tag="x")
        for out in outs:
            out.backward(np.ones((8, 3)))
        led = world4.ledger
        fwd = led.total_bytes(tag="x")
        bwd = led.total_bytes(tag="x:bwd")
        # Forward AG and backward RS move the same total bytes.
        assert fwd == pytest.approx(bwd)


class TestDistReduceScatter:
    def test_forward(self, rng, world4):
        g = world4.full_group()
        tensors = leaf_shards(rng, 4, (8, 2))
        outs = dist_reduce_scatter(g, tensors, axis=0)
        total = np.sum([t.data for t in tensors], axis=0)
        for j, out in enumerate(outs):
            np.testing.assert_allclose(out.data,
                                       total[j * 2:(j + 1) * 2],
                                       rtol=1e-10)

    def test_backward_is_all_gather(self, rng, world4):
        g = world4.full_group()
        tensors = leaf_shards(rng, 4, (8, 2))
        outs = dist_reduce_scatter(g, tensors, axis=0)
        grads = [rng.standard_normal((2, 2)) for _ in range(4)]
        for out, go in zip(outs, grads):
            out.backward(go)
        # d out_j / d in_i = selector of slice j, so every input sees the
        # concatenation of all output grads.
        full = np.concatenate(grads, axis=0)
        for t in tensors:
            np.testing.assert_allclose(t.grad, full, rtol=1e-12)

    def test_shape_validation(self, rng, world4):
        g = world4.full_group()
        with pytest.raises(ValueError, match="not divisible"):
            dist_reduce_scatter(g, leaf_shards(rng, 4, (7, 2)), axis=0)


class TestDistAllToAll:
    def test_forward_repartition(self, rng, world4):
        """Split heads / gather sequence: the Ulysses primitive."""
        g = world4.full_group()
        shards = leaf_shards(rng, 4, (1, 2, 8, 3))  # [b, s/n, heads, d]
        outs = dist_all_to_all(g, shards, split_axis=2, concat_axis=1)
        assert outs[0].shape == (1, 8, 2, 3)
        # Rank j's output position (i*2..) holds rank i's head chunk j.
        for j in range(4):
            for i in range(4):
                np.testing.assert_array_equal(
                    outs[j].data[:, i * 2:(i + 1) * 2],
                    shards[i].data[:, :, j * 2:(j + 1) * 2])

    def test_roundtrip_identity(self, rng, world4):
        g = world4.full_group()
        shards = leaf_shards(rng, 4, (1, 2, 8, 3))
        fwd = dist_all_to_all(g, shards, split_axis=2, concat_axis=1)
        back = dist_all_to_all(g, fwd, split_axis=1, concat_axis=2)
        for orig, rec in zip(shards, back):
            np.testing.assert_allclose(rec.data, orig.data, rtol=1e-12)

    def test_backward_reverses(self, rng, world4):
        g = world4.full_group()
        shards = leaf_shards(rng, 4, (1, 2, 4, 3))
        outs = dist_all_to_all(g, shards, split_axis=2, concat_axis=1)
        grads = [rng.standard_normal(o.shape) for o in outs]
        for out, go in zip(outs, grads):
            out.backward(go)
        # Reconstruct expected grads by running the reverse A2A on numpy.
        for i in range(4):
            expected = np.concatenate([
                grads[j][:, i * 2:(i + 1) * 2] for j in range(4)
            ], axis=2)
            np.testing.assert_allclose(shards[i].grad, expected,
                                       rtol=1e-12)

    def test_indivisible_split_axis(self, rng, world4):
        g = world4.full_group()
        with pytest.raises(ValueError, match="not divisible"):
            dist_all_to_all(g, leaf_shards(rng, 4, (1, 2, 6, 3)),
                            split_axis=2, concat_axis=1)


class TestDistAllToAllUneven:
    def test_forward_routing(self, rng, world4):
        g = world4.full_group()
        splits = [[2, 0, 1, 0], [0, 1, 0, 1], [1, 1, 1, 1], [0, 0, 2, 0]]
        tensors = [Tensor(rng.standard_normal((sum(s), 3)),
                          requires_grad=True) for s in splits]
        outs = dist_all_to_all_uneven(g, tensors, splits)
        for j in range(4):
            assert outs[j].shape[0] == sum(splits[i][j] for i in range(4))

    def test_gradient_returns_to_source(self, rng, world4):
        g = world4.full_group()
        splits = [[1, 1, 0, 0], [0, 2, 0, 0], [1, 0, 1, 0], [0, 0, 0, 1]]
        tensors = [Tensor(rng.standard_normal((sum(s), 2)),
                          requires_grad=True) for s in splits]
        outs = dist_all_to_all_uneven(g, tensors, splits)
        for j, out in enumerate(outs):
            if out.shape[0]:
                out.backward(np.full(out.shape, float(j + 1)))
        # Rank 0 sent row 0 to rank 0 and row 1 to rank 1.
        np.testing.assert_allclose(tensors[0].grad[0], [1.0, 1.0])
        np.testing.assert_allclose(tensors[0].grad[1], [2.0, 2.0])

    def test_roundtrip_with_transposed_splits(self, rng, world4):
        g = world4.full_group()
        splits = [[1, 2, 1, 0], [2, 0, 1, 1], [0, 1, 1, 2], [1, 1, 0, 1]]
        tensors = [Tensor(rng.standard_normal((sum(s), 2)),
                          requires_grad=True) for s in splits]
        outs = dist_all_to_all_uneven(g, tensors, splits)
        back_splits = [[splits[i][j] for i in range(4)] for j in range(4)]
        back = dist_all_to_all_uneven(g, outs, back_splits)
        for orig, rec in zip(tensors, back):
            np.testing.assert_allclose(
                np.sort(rec.data, axis=0), np.sort(orig.data, axis=0),
                rtol=1e-12)


def _fp8_grouped_bytes(shape, group=128):
    """Wire bytes of a gradient packed in grouped per-channel FP8: one
    code per element, one float32 scale per (token group, channel)."""
    rows, cols = int(np.prod(shape[:-1])), shape[-1]
    return rows * cols + 4 * -(-rows // group) * cols


N = 4
SPLITS = [[1, 2, 1, 0], [2, 0, 1, 1], [0, 1, 1, 2], [1, 1, 0, 1]]


def _uneven_rows(j):
    """Rows rank ``j`` received from other ranks (3 float64 columns)."""
    return sum(SPLITS[i][j] for i in range(N) if i != j) * 3 * 8


# (name, forward over n leaf tensors and a tiled flag, input shape,
# expected per-rank bytes of the whole dual collective given the
# output gradients, whether the forward has a tiled mode).
DUALS = [
    ("all_gather", lambda g, x, t: dist_all_gather(g, x, tiled=t, tag="op"),
     (2, 3), lambda gs: [gr.nbytes * (N - 1) // N for gr in gs], True),
    ("reduce_scatter",
     lambda g, x, t: dist_reduce_scatter(g, x, tiled=t, tag="op"),
     (8, 2), lambda gs: [gr.nbytes * (N - 1) for gr in gs], True),
    ("all_to_all",
     lambda g, x, t: dist_all_to_all(g, x, split_axis=2, concat_axis=1,
                                     tiles=2 if t else 1, tag="op"),
     (1, 2, 8, 3), lambda gs: [gr.nbytes * (N - 1) // N for gr in gs],
     True),
    ("all_to_all_uneven",
     lambda g, x, t: dist_all_to_all_uneven(g, x, SPLITS, tiled=t,
                                            tag="op"),
     None, lambda gs: [_uneven_rows(j) for j in range(N)], True),
    ("reduce_scatter_fp8",
     lambda g, x, t: dist_reduce_scatter_fp8(g, x, tag="op", tiled=t),
     (8, 2), lambda gs: [_fp8_grouped_bytes(gr.shape) * (N - 1)
                         for gr in gs], True),
    ("all_gather_fp8",
     lambda g, x, t: dist_all_gather_fp8(g, x, tag="op", tiled=t),
     (2, 3), lambda gs: [_fp8_grouped_bytes((2, 3)) * (N - 1)
                         for _ in gs], True),
]
DUAL_CASES = [pytest.param(*dual[1:4], tiled, id=f"{dual[0]}-{tiled}")
              for dual in DUALS
              for tiled in ((False, True) if dual[4] else (False,))]


class TestDualBytes:
    """Every dual's ``n`` backward legs sum exactly to the whole dual
    collective's formula, one leg per output rank."""

    @pytest.mark.parametrize("forward,shape,expected,tiled", DUAL_CASES)
    def test_bwd_legs_sum_to_the_dual(self, rng, world4, forward, shape,
                                      expected, tiled):
        g = world4.full_group()
        if shape is None:
            xs = [Tensor(rng.standard_normal((sum(s), 3)),
                         requires_grad=True) for s in SPLITS]
        else:
            xs = leaf_shards(rng, N, shape)
        outs = forward(g, xs, tiled)
        grads = [rng.standard_normal(o.shape) for o in outs]
        total = (outs[0] * Tensor(grads[0])).sum()
        for out, gr in zip(outs[1:], grads[1:]):
            total = total + (out * Tensor(gr)).sum()
        total.backward()
        legs = [r for r in world4.ledger.records if r.tag == "op:bwd"]
        assert len(legs) == N
        for rec in legs:  # each leg is one rank's share, one-hot
            assert sum(b != 0.0 for b in rec.send_bytes_per_rank) <= 1
        per_rank = np.sum([rec.send_bytes_per_rank for rec in legs],
                          axis=0)
        assert [float(b) for b in per_rank] == \
            [float(b) for b in expected(grads)]
