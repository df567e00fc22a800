"""Tests for the simulated collectives and their byte ledger."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import (
    World,
    all_gather,
    all_to_all,
    all_to_all_uneven,
    rank_ordered_sum,
    reduce_scatter,
)
from repro.parallel.dist_ops import dist_reduce_scatter
from repro.precision.formats import BF16, encode, round_bf16
from repro.tensor import Tensor
from conftest import clear_ledger


def make_shards(rng, n, shape):
    return [rng.standard_normal(shape) for _ in range(n)]


class TestAllGather:
    def test_semantics(self, rng, world4):
        g = world4.full_group()
        shards = make_shards(rng, 4, (2, 3))
        outs = all_gather(g, shards)
        expected = np.concatenate(shards, axis=0)
        for out in outs:
            np.testing.assert_array_equal(out, expected)

    def test_axis(self, rng, world4):
        g = world4.full_group()
        shards = make_shards(rng, 4, (2, 3))
        outs = all_gather(g, shards, axis=1)
        assert outs[0].shape == (2, 12)

    def test_outputs_shared_zero_copy(self, rng, world4):
        # With no fault plan, delivery is zero-copy: every rank gets the
        # same (read-only by contract) gathered array.
        g = world4.full_group()
        outs = all_gather(g, make_shards(rng, 4, (2,)))
        assert all(out is outs[0] for out in outs[1:])

    def test_outputs_independent_under_fault_plan(self, rng, world4):
        # A fault plan may corrupt one rank's delivery in place, so each
        # rank must own a private buffer.
        class _PassivePlan:
            def before(self, op, tag):
                return None

            def corrupt(self, op, tag, arrays):
                return False

            def slow_factor(self, rank):
                return 1.0

        world4.attach_fault_plan(_PassivePlan())
        g = world4.full_group()
        outs = all_gather(g, make_shards(rng, 4, (2,)))
        outs[0][0] = 999.0
        assert outs[1][0] != 999.0

    def test_ledger_ring_bytes(self, rng, world4):
        g = world4.full_group()
        clear_ledger(world4.ledger)
        all_gather(g, make_shards(rng, 4, (2, 3)), tag="t")
        rec = world4.ledger.records[-1]
        # Each rank sends its 6-element float64 shard (n-1) times.
        assert rec.send_bytes_per_rank == [6 * 8 * 3] * 4

    def test_bytes_are_the_payload_nbytes(self, rng, world4):
        """A narrower wire is a narrower array: BF16 words move at
        2 bytes each."""
        g = world4.full_group()
        clear_ledger(world4.ledger)
        words = [encode(round_bf16(s), BF16)
                 for s in make_shards(rng, 4, (2, 3))]
        all_gather(g, words)
        assert world4.ledger.records[-1].send_bytes_per_rank == [36] * 4

    def test_wrong_shard_count(self, rng, world4):
        with pytest.raises(ValueError, match="expected 4 shards"):
            all_gather(world4.full_group(), make_shards(rng, 3, (2,)))


class TestReduceScatter:
    def test_semantics(self, rng, world4):
        g = world4.full_group()
        tensors = make_shards(rng, 4, (8, 3))
        outs = reduce_scatter(g, tensors)
        total = np.sum(tensors, axis=0)
        for j, out in enumerate(outs):
            np.testing.assert_allclose(out, total[j * 2:(j + 1) * 2],
                                       rtol=1e-12)

    def test_indivisible_raises(self, rng, world4):
        with pytest.raises(ValueError, match="not divisible"):
            reduce_scatter(world4.full_group(), make_shards(rng, 4, (7, 3)))

    def test_unequal_shapes_raise(self, rng, world4):
        tensors = make_shards(rng, 3, (8, 3)) + [rng.standard_normal((8, 4))]
        with pytest.raises(ValueError, match="equal shapes"):
            reduce_scatter(world4.full_group(), tensors)

    def test_ledger(self, rng, world4):
        g = world4.full_group()
        clear_ledger(world4.ledger)
        reduce_scatter(g, make_shards(rng, 4, (8, 3)))
        rec = world4.ledger.records[-1]
        assert rec.send_bytes_per_rank == [6 * 8 * 3] * 4


def stacked_sum(tensors):
    """What every cross-rank reduction was spelled as before the
    shared accumulator: stack float64 copies, ``np.sum`` the rank
    axis."""
    return np.sum(np.stack(tensors).astype(np.float64), axis=0)


class TestRankOrderedSum:
    """The one cross-rank accumulator is the stacked float64 sum."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 8), rows=st.integers(1, 5),
           cols=st.integers(2, 6), seed=st.integers(0, 2**16),
           dtype=st.sampled_from([np.float32, np.float64]),
           tiled=st.booleans())
    def test_bitwise_equal_to_stacked_sum(self, n, rows, cols, seed,
                                          dtype, tiled):
        rng = np.random.default_rng(seed)
        # magnitudes spread over 12 decades so the fold order matters
        tensors = [(rng.standard_normal((n * rows, cols))
                    * 10.0 ** rng.integers(-6, 6, (n * rows, cols))
                    ).astype(dtype) for _ in range(n)]
        want = stacked_sum(tensors)
        got = rank_ordered_sum(tensors)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(
            rank_ordered_sum(np.stack(tensors)), want)

        def group():
            return World(n, ranks_per_node=n).full_group()

        pieces = np.split(want.astype(dtype), n)
        outs = [
            reduce_scatter(group(), tensors, tiled=tiled),
            [o.data for o in dist_reduce_scatter(
                group(), [Tensor(t) for t in tensors], tiled=tiled)],
        ]
        for out in outs:
            for j in range(n):
                assert out[j].dtype == dtype
                np.testing.assert_array_equal(out[j], pieces[j])

    def test_result_is_a_fresh_array_and_inputs_are_untouched(self, rng):
        tensors = make_shards(rng, 3, (4, 2))
        before = [t.copy() for t in tensors]
        got = rank_ordered_sum(tensors)
        assert not any(np.shares_memory(got, t) for t in tensors)
        for t, b in zip(tensors, before):
            np.testing.assert_array_equal(t, b)
        assert rank_ordered_sum(iter(tensors[:1])) is not tensors[0]

    def test_single_element_payloads_fold_left_to_right(self):
        """``np.sum`` switches to pairwise summation when the reduced
        axis is the only one with extent (8+ ranks reducing a scalar),
        so there the stacked sum was *not* rank-ordered; the
        accumulator is, everywhere."""
        values = [1e16, 1.0, -1e16, 1.0, 1.0, 1.0, 1.0, 1.0, 3.0]
        want = 0.0
        for value in values:
            want += value
        got = rank_ordered_sum([np.array([x]) for x in values])
        assert got[0] == want


class TestAllToAll:
    def test_transpose_semantics(self, rng, world4):
        g = world4.full_group()
        chunks = [[rng.standard_normal((2,)) for _ in range(4)]
                  for _ in range(4)]
        received = all_to_all(g, chunks)
        for i in range(4):
            for j in range(4):
                np.testing.assert_array_equal(received[j][i], chunks[i][j])

    def test_involution(self, rng, world4):
        """A2A twice returns every chunk to its origin."""
        g = world4.full_group()
        chunks = [[rng.standard_normal((3,)) for _ in range(4)]
                  for _ in range(4)]
        once = all_to_all(g, chunks)
        twice = all_to_all(g, once)
        for i in range(4):
            for j in range(4):
                np.testing.assert_array_equal(twice[i][j], chunks[i][j])

    def test_self_chunk_free(self, rng, world4):
        g = world4.full_group()
        clear_ledger(world4.ledger)
        chunks = [[rng.standard_normal((5,)) for _ in range(4)]
                  for _ in range(4)]
        all_to_all(g, chunks)
        rec = world4.ledger.records[-1]
        assert rec.send_bytes_per_rank == [5 * 8 * 3] * 4

    def test_tiled_per_destination(self, rng, world4):
        """``tiles == n`` without a concat axis: tile j delivers every
        source's chunk j, one record per tile; values and per-rank
        bytes match the whole exchange."""
        g = world4.full_group()
        chunks = [[rng.standard_normal((i + j + 1,)) for j in range(4)]
                  for i in range(4)]
        clear_ledger(world4.ledger)
        whole = all_to_all(g, chunks, tag="w")
        tiled = all_to_all(g, chunks, tag="t", tiles=4)
        for j in range(4):
            for i in range(4):
                np.testing.assert_array_equal(tiled[j][i], whole[j][i])
        (rec,) = [r for r in world4.ledger.records if r.tag == "w"]
        tiles = [r for r in world4.ledger.records if r.tag == "t"]
        assert [r.tile for r in tiles] == [(j, 4) for j in range(4)]
        for j, r in enumerate(tiles):
            assert r.send_bytes_per_rank == [
                0.0 if i == j else float(chunks[i][j].nbytes)
                for i in range(4)]
        assert list(np.sum([r.send_bytes_per_rank for r in tiles],
                           axis=0)) == rec.send_bytes_per_rank
        with pytest.raises(ValueError, match="per destination"):
            all_to_all(g, chunks, tiles=2)

    def test_uneven_rows(self, rng, world4):
        g = world4.full_group()
        splits = [[1, 2, 0, 1], [0, 1, 1, 2], [2, 0, 1, 0], [1, 1, 1, 1]]
        tensors = [rng.standard_normal((sum(s), 3)) for s in splits]
        outs = all_to_all_uneven(g, tensors, splits)
        for j in range(4):
            assert outs[j].shape[0] == sum(splits[i][j] for i in range(4))
        # Rank 0's first row goes to rank 0 (split [1, ...]).
        np.testing.assert_array_equal(outs[0][0], tensors[0][0])

    def test_uneven_split_mismatch(self, rng, world4):
        g = world4.full_group()
        tensors = [rng.standard_normal((3, 2)) for _ in range(4)]
        bad = [[1, 1, 1, 1]] * 4  # sums to 4, rows are 3
        with pytest.raises(ValueError, match="do not cover"):
            all_to_all_uneven(g, tensors, bad)

    @given(st.integers(2, 6))
    @settings(max_examples=10, deadline=None)
    def test_uneven_conservation(self, n):
        """Total rows are conserved through dispatch."""
        rng = np.random.default_rng(n)
        world = World(n, ranks_per_node=n)
        g = world.full_group()
        splits = [list(rng.integers(0, 4, n)) for _ in range(n)]
        tensors = [rng.standard_normal((sum(s), 2)) for s in splits]
        outs = all_to_all_uneven(g, tensors, splits)
        assert sum(o.shape[0] for o in outs) == \
            sum(t.shape[0] for t in tensors)


class TestWorldAndGroups:
    def test_world_validation(self):
        with pytest.raises(ValueError):
            World(0)
        with pytest.raises(ValueError):
            World(4, ranks_per_node=0)

    def test_node_of(self, world8):
        assert world8.node_of(0) == 0
        assert world8.node_of(5) == 1

    def test_intra_node_groups(self, world8):
        groups = world8.intra_node_groups()
        assert [g.ranks for g in groups] == [[0, 1, 2, 3], [4, 5, 6, 7]]
        assert all(g.is_intra_node for g in groups)

    def test_cross_node_groups(self, world8):
        groups = world8.cross_node_groups()
        assert [g.ranks for g in groups] == [[0, 4], [1, 5], [2, 6], [3, 7]]
        assert not any(g.is_intra_node for g in groups)

    def test_group_duplicate_ranks(self, world4):
        with pytest.raises(ValueError, match="duplicate"):
            world4.group([0, 0, 1])

    def test_group_out_of_range(self, world4):
        with pytest.raises(ValueError, match="out of range"):
            world4.group([0, 7])

    def test_ledger_filters(self, rng, world4):
        g = world4.full_group()
        all_gather(g, make_shards(rng, 4, (2,)), tag="x")
        reduce_scatter(g, make_shards(rng, 4, (4,)), tag="y")
        led = world4.ledger
        assert led.total_bytes(op="all_gather") > 0
        assert led.total_bytes(tag="y") > 0
        assert led.total_bytes(op="all_gather", tag="y") == 0
        assert led.counts() == {"all_gather": 1, "reduce_scatter": 1}

    def test_ledger_disable(self, rng, world4, monkeypatch):
        """A collective writes the ledger only through
        ``CommLedger.record``, so patching it out disables the ledger
        (the skipped-leg mutant in test_verify relies on this)."""
        monkeypatch.setattr(world4.ledger, "record", lambda record: None)
        all_gather(world4.full_group(), make_shards(rng, 4, (2,)))
        assert not world4.ledger.records
        assert not world4.ledger.cumulative
