"""Tests for the α–β collective cost models."""

import pytest

from repro.comm.cost import (
    LinkSpec,
    all_to_all_time,
    flat_sync_time,
    hierarchical_sync_time,
    ring_all_gather_time,
    ring_reduce_scatter_time,
)

LINK = LinkSpec(bandwidth=100e9, latency=1e-6, a2a_efficiency=0.6)
SLOW = LinkSpec(bandwidth=10e9, latency=5e-6, a2a_efficiency=0.6)


class TestLinkSpec:
    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            LinkSpec(bandwidth=0)

    def test_rejects_bad_efficiency(self):
        with pytest.raises(ValueError):
            LinkSpec(bandwidth=1e9, a2a_efficiency=1.5)


class TestRingCollectives:
    def test_single_rank_free(self):
        assert ring_all_gather_time(1e9, 1, LINK) == 0.0

    def test_ag_formula(self):
        # (n-1) steps of one shard each.
        t = ring_all_gather_time(8e9, 8, LINK)
        assert t == pytest.approx(7 * (1e-6 + 1e9 / 100e9))

    def test_rs_equals_ag(self):
        assert ring_reduce_scatter_time(5e9, 4, LINK) == \
            ring_all_gather_time(5e9, 4, LINK)

    def test_volume_shrinks_with_n(self):
        """Ring time approaches total/bw as n grows — the reason SP/EP
        comm scales while TP's does not (§7)."""
        times = [ring_all_gather_time(8e9, n, LINK) for n in (2, 4, 8, 64)]
        # (n-1)/n increases toward 1, so time rises but saturates.
        assert times[0] < times[-1] < 8e9 / 100e9 * 1.05 + 64 * 1e-6

    def test_bandwidth_monotonic(self):
        assert ring_all_gather_time(1e9, 4, SLOW) > \
            ring_all_gather_time(1e9, 4, LINK)


class TestAllToAll:
    def test_single_rank_free(self):
        assert all_to_all_time(1e9, 1, LINK) == 0.0

    def test_slower_than_ring_for_same_bytes(self):
        """Fig. 7's premise: the all-pairs pattern is less efficient
        than a ring at equal per-rank bytes."""
        per_rank = 7e9 / 8
        a2a = all_to_all_time(per_rank, 8, LINK)
        ring = ring_all_gather_time(7e9 / 7 * 8 / 8 * 8, 8, LINK)
        # Compare pure bandwidth terms: a2a pays 1/efficiency.
        assert a2a > per_rank / LINK.bandwidth

    def test_efficiency_applied(self):
        t_eff = all_to_all_time(1e9, 4, LINK)
        perfect = LinkSpec(bandwidth=100e9, latency=1e-6,
                           a2a_efficiency=1.0)
        assert t_eff > all_to_all_time(1e9, 4, perfect)


class TestHierarchicalSync:
    INTRA = LinkSpec(bandwidth=200e9, latency=1e-6)
    INTER = LinkSpec(bandwidth=25e9, latency=2e-6)

    def test_pipelined_faster_than_sequential(self):
        pipelined = hierarchical_sync_time(1e9, 8, 4, self.INTRA,
                                           self.INTER, pipelined=True)
        sequential = hierarchical_sync_time(1e9, 8, 4, self.INTRA,
                                            self.INTER, pipelined=False)
        assert pipelined < sequential

    def test_pipelined_at_least_bottleneck(self):
        pipelined = hierarchical_sync_time(1e9, 8, 4, self.INTRA,
                                           self.INTER)
        inter_rs = ring_reduce_scatter_time(1e9 / 8, 4, self.INTER)
        intra_rs = ring_reduce_scatter_time(1e9, 8, self.INTRA)
        assert pipelined >= max(inter_rs, intra_rs)

    def test_sp_close_to_tp_under_bandwidth_asymmetry(self):
        """The Fig. 14 claim: with NVLink ≫ NIC, hierarchical SP sync is
        within a few percent of TP's flat sync."""
        p = 1024e6  # 1 GB attention parameters
        sp = hierarchical_sync_time(p, 8, 4, self.INTRA, self.INTER)
        tp = flat_sync_time(p, 8, 4, self.INTER)
        # Comparable within a few tens of percent (the paper measures
        # 0.3–3.1%); pipelining can even put SP slightly ahead because
        # TP's two inter-node phases run back to back.
        assert 0.9 < sp / tp < 1.35

    def test_sp_overhead_grows_when_links_symmetric(self):
        """Without the bandwidth asymmetry, SP's extra intra-node volume
        is no longer hidden — the counterfactual of Appendix A.1."""
        p = 1024e6
        symmetric = LinkSpec(bandwidth=25e9, latency=2e-6)
        sp = hierarchical_sync_time(p, 8, 4, symmetric, symmetric)
        tp = flat_sync_time(p, 8, 4, symmetric)
        assert sp / tp > 2.0
