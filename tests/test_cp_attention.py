"""Tests for context-parallel attention (§3.1 'Balanced vs imbalanced')."""

import numpy as np
import pytest

from repro.parallel.cp_attention import (
    cp_attention_comm_volume,
    cp_imbalance,
    cp_layout_positions,
    cp_workload_shares,
)


class TestLayouts:
    def test_contiguous_partition(self):
        pos = cp_layout_positions(16, 4)
        assert [p.tolist() for p in pos] == [
            [0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11], [12, 13, 14, 15]]

    def test_layouts_cover_sequence(self):
        pos = cp_layout_positions(32, 4)
        combined = np.sort(np.concatenate(pos))
        np.testing.assert_array_equal(combined, np.arange(32))

    def test_divisibility_validation(self):
        with pytest.raises(ValueError, match="divisible"):
            cp_layout_positions(10, 4)


class TestWorkloadAnalysis:
    def test_contiguous_tail_heaviest(self):
        shares = cp_workload_shares(64, 4)
        assert (np.diff(shares) > 0).all()
        assert shares[-1] > 3 * shares[0]

    def test_contiguous_imbalance_approaches_two(self):
        """The last rank does ~2x the mean work as n grows — the §3.1
        complaint about CP under causal masking."""
        # Last rank's share → (2n-1)/n of the mean: 1.5 at n=2,
        # 1.875 at n=8, approaching 2.
        assert cp_imbalance(1024, 2) == pytest.approx(1.5, rel=0.01)
        assert cp_imbalance(8192, 8) == pytest.approx(1.875, rel=0.01)

    def test_comm_volume_gqa_reduction(self):
        """CP circulates only K/V, so GQA divides the volume by m."""
        assert cp_attention_comm_volume(1, 64, 128, 8, 4) == \
            pytest.approx(cp_attention_comm_volume(1, 64, 128, 8, 1) / 4)

    def test_comm_volume_single_rank(self):
        assert cp_attention_comm_volume(1, 64, 128, 1, 4) == 0.0
