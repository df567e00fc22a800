"""Tests for hierarchical parameter synchronization (Appendix A.1)."""

import numpy as np
import pytest

from repro.comm import (
    World,
    rank_ordered_sum,
    flat_sync,
    hierarchical_inter_node_volume,
    hierarchical_intra_node_volume,
    hierarchical_sync,
    tp_inter_node_volume,
)


class TestHierarchicalSync:
    def test_all_ranks_get_full_sum(self, rng):
        world = World(8, ranks_per_node=4)  # n=4 replicas, d=2 nodes
        grads = [rng.standard_normal((4, 8)) for _ in range(8)]
        outs = hierarchical_sync(world, grads)
        expected = np.sum(grads, axis=0)
        for out in outs:
            np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_single_node(self, rng):
        world = World(4, ranks_per_node=4)
        grads = [rng.standard_normal((6,)) for _ in range(4)]
        outs = hierarchical_sync(world, grads)
        for out in outs:
            np.testing.assert_allclose(out, np.sum(grads, axis=0))

    def test_indivisible_numel_padded(self, rng):
        world = World(6, ranks_per_node=3)
        grads = [rng.standard_normal((7,)) for _ in range(6)]
        outs = hierarchical_sync(world, grads)
        for out in outs:
            assert out.shape == (7,)
            np.testing.assert_allclose(out, np.sum(grads, axis=0))

    def test_shape_preserved(self, rng):
        world = World(4, ranks_per_node=2)
        grads = [rng.standard_normal((3, 5, 2)) for _ in range(4)]
        outs = hierarchical_sync(world, grads)
        assert outs[0].shape == (3, 5, 2)

    def test_bad_world_shape(self, rng):
        world = World(6, ranks_per_node=4)
        with pytest.raises(ValueError, match="not divisible"):
            hierarchical_sync(world, [rng.standard_normal(4)] * 6)


class TestDtypeAndSummation:
    """Gradients come back in their own dtype, every cross-rank sum is
    the rank-ordered one, and an uncompressed wire is priced at the
    gradients' itemsize.  The earlier sync cast every gradient to
    float64, summed the indivisible fallback with ``np.sum`` and priced
    every leg at 4 bytes, so a float32 check of it agreed with itself
    on the wrong answer."""

    @pytest.mark.parametrize("sync,numel", [
        (hierarchical_sync, 24),   # shard 6 over d=2: RS + AG
        (hierarchical_sync, 9),    # shard 3 over d=2: fallback
        (flat_sync, 7),            # 7 over d=2: fallback
    ])
    def test_float32_in_float32_out(self, rng, sync, numel):
        n, d = 3, 2
        world = World(n * d, ranks_per_node=n)
        grads = [rng.standard_normal(numel).astype(np.float32)
                 for _ in range(n * d)]
        outs = sync(world, grads)
        assert {o.dtype for o in outs} == {np.dtype(np.float32)}
        if sync is flat_sync:
            for local in range(n):
                want = rank_ordered_sum(
                    [grads[local], grads[local + n]]).astype(np.float32)
                np.testing.assert_array_equal(outs[local], want)
                np.testing.assert_array_equal(outs[local + n], want)
        else:
            want = np.sum(np.asarray(grads, np.float64), axis=0)
            np.testing.assert_allclose(outs[0], want, rtol=1e-5)
            assert all(np.array_equal(o, outs[0]) for o in outs)
        per_rank = world.ledger.total_bytes() / (n * d)
        padded = -(-numel // n) * n
        want_bytes = (
            hierarchical_intra_node_volume(padded * 4.0, n)
            + hierarchical_inter_node_volume(padded * 4.0, n, d)
            if sync is hierarchical_sync
            else hierarchical_inter_node_volume(numel * 4.0, 1, d))
        assert per_rank == pytest.approx(want_bytes)

    def test_compressed_inter_leg_is_bf16(self, rng):
        n, d = 2, 2
        world = World(n * d, ranks_per_node=n)
        grads = [rng.standard_normal(16).astype(np.float32)
                 for _ in range(n * d)]
        outs = hierarchical_sync(world, grads, tag="g", compress=True)
        assert outs[0].dtype == np.float32
        by_tag = world.ledger.bytes_by_tag()
        inter = sum(b for t, b in by_tag.items() if t.startswith("g:inter_"))
        intra = sum(b for t, b in by_tag.items() if t.startswith("g:intra_"))
        assert inter == pytest.approx(
            n * d * hierarchical_inter_node_volume(16 * 2.0, n, d))
        assert intra == pytest.approx(
            n * d * hierarchical_intra_node_volume(16 * 4.0, n))


class TestFlatSync:
    def test_tp_style_sum_across_nodes(self, rng):
        world = World(8, ranks_per_node=4)
        # TP shards: rank r on each node holds shard r; sync is across
        # same-local-rank peers only.
        grads = [rng.standard_normal((8,)) for _ in range(8)]
        outs = flat_sync(world, grads)
        for local in range(4):
            expected = grads[local] + grads[local + 4]
            np.testing.assert_allclose(outs[local], expected)
            np.testing.assert_allclose(outs[local + 4], expected)


class TestVolumes:
    def test_inter_node_volume_equal_sp_tp(self):
        """Appendix A.1's central claim: SP and TP attention have the
        same inter-node communication volume."""
        p, n, d = 1024.0, 8, 4
        assert hierarchical_inter_node_volume(p, n, d) == \
            pytest.approx(tp_inter_node_volume(p, n, d))

    def test_inter_volume_formula(self):
        assert hierarchical_inter_node_volume(800.0, 8, 4) == \
            pytest.approx(2 * 100.0 * 3 / 4)

    def test_intra_volume_formula(self):
        assert hierarchical_intra_node_volume(800.0, 8) == \
            pytest.approx(2 * 800.0 * 7 / 8)

    def test_single_replica_no_comm(self):
        assert hierarchical_intra_node_volume(100.0, 1) == 0.0
        assert hierarchical_inter_node_volume(100.0, 4, 1) == 0.0

    def test_measured_inter_node_volume_matches(self, rng):
        """The simulated sync moves exactly the analytic inter-node
        bytes per rank."""
        n, d = 4, 2
        world = World(n * d, ranks_per_node=n)
        numel = 16 * n * d
        grads = [rng.standard_normal(numel).astype(np.float32)
                 for _ in range(n * d)]
        world.ledger.clear()
        hierarchical_sync(world, grads)
        inter = sum(
            r.total_bytes for r in world.ledger.records
            if ":inter_" in r.tag
        ) / (n * d)  # per rank
        expected = hierarchical_inter_node_volume(numel * 4.0, n, d)
        assert inter == pytest.approx(expected)

    def test_measured_intra_node_volume_matches(self, rng):
        n, d = 4, 2
        world = World(n * d, ranks_per_node=n)
        numel = 16 * n * d
        grads = [rng.standard_normal(numel).astype(np.float32)
                 for _ in range(n * d)]
        world.ledger.clear()
        hierarchical_sync(world, grads)
        intra = sum(
            r.total_bytes for r in world.ledger.records
            if ":intra_" in r.tag
        ) / (n * d)
        expected = hierarchical_intra_node_volume(numel * 4.0, n)
        assert intra == pytest.approx(expected)

    def test_hierarchical_equals_flat_on_inter_bytes(self, rng):
        """SP's hierarchical sync and TP's flat sync move the same
        inter-node bytes — the Fig. 14 equivalence."""
        n, d = 4, 2
        world_sp = World(n * d, ranks_per_node=n)
        world_tp = World(n * d, ranks_per_node=n)
        numel = 32 * n * d
        grads = [rng.standard_normal(numel).astype(np.float32)
                 for _ in range(n * d)]
        hierarchical_sync(world_sp, grads)
        sp_inter = sum(r.total_bytes for r in world_sp.ledger.records
                       if ":inter_" in r.tag)
        # TP holds 1/n shards, replicated across d nodes.
        shards = [rng.standard_normal(numel // n).astype(np.float32)
                  for _ in range(n * d)]
        flat_sync(world_tp, shards)
        tp_inter = sum(r.total_bytes for r in world_tp.ledger.records
                       if ":inter_" in r.tag)
        assert sp_inter == pytest.approx(tp_inter)
