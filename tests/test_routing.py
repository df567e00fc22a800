"""Tests for routing results and precomputed dispatch mappings (§3.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.routing import (
    RoutingResult,
    build_dispatch_plan,
)


def random_routing(rng, tokens, top_k, n_experts, drop_rate=0.0):
    idx = np.stack([
        rng.choice(n_experts, top_k, replace=False) for _ in range(tokens)
    ])
    w = rng.dirichlet(np.ones(top_k), tokens)
    kept = rng.random((tokens, top_k)) >= drop_rate
    return RoutingResult(idx, w, kept)


class TestRoutingResult:
    def test_shape_validation(self, rng):
        with pytest.raises(ValueError):
            RoutingResult(np.zeros((3, 2), dtype=int), np.zeros((3, 3)),
                          np.ones((3, 2), dtype=bool))

    def test_tokens_per_expert(self, rng):
        r = RoutingResult(np.array([[0, 1], [1, 2]]),
                          np.full((2, 2), 0.5),
                          np.array([[True, True], [True, False]]))
        np.testing.assert_array_equal(r.tokens_per_expert(4), [1, 2, 0, 0])

    def test_properties(self, rng):
        r = random_routing(rng, 5, 2, 4)
        assert r.n_tokens == 5 and r.top_k == 2


class TestDispatchPlan:
    def test_rows_sorted_by_expert(self, rng):
        r = random_routing(rng, 20, 2, 4)
        plan = build_dispatch_plan(r, 4)
        experts_of_rows = r.expert_index[plan.token_of_row,
                                         plan.slot_of_row]
        assert (np.diff(experts_of_rows) >= 0).all()

    def test_counts_match_routing(self, rng):
        r = random_routing(rng, 30, 3, 8)
        plan = build_dispatch_plan(r, 8)
        np.testing.assert_array_equal(plan.expert_counts,
                                      r.tokens_per_expert(8))

    def test_row_of_pair_inverse(self, rng):
        """Every (token, slot) pair has exactly one row, so the rows
        invert: the map the A2A receiver builds to un-sort."""
        r = random_routing(rng, 15, 2, 4)
        plan = build_dispatch_plan(r, 4)
        row_of_pair = np.full((15, 2), -1)
        row_of_pair[plan.token_of_row, plan.slot_of_row] = \
            np.arange(plan.n_rows)
        for t in range(15):
            for s in range(2):
                row = row_of_pair[t, s]
                assert plan.token_of_row[row] == t
                assert plan.slot_of_row[row] == s

    def test_dropped_pairs_excluded(self, rng):
        r = random_routing(rng, 25, 2, 4, drop_rate=0.4)
        plan = build_dispatch_plan(r, 4)
        assert plan.n_rows == int(r.kept.sum())
        assert r.kept[plan.token_of_row, plan.slot_of_row].all()

    def test_expert_slices_cover_rows(self, rng):
        r = random_routing(rng, 40, 2, 8)
        plan = build_dispatch_plan(r, 8)
        covered = sum(end - start
                      for _, start, end in plan.expert_slices())
        assert covered == plan.n_rows

    def test_source_rank_secondary_sort(self, rng):
        """With a source-rank map, rows within one expert are ordered by
        source rank (the §4.2 tile ordering)."""
        r = random_routing(rng, 32, 2, 4)
        source = np.repeat(np.arange(4), 8)  # 4 ranks × 8 tokens
        plan = build_dispatch_plan(r, 4, source_rank_of_token=source)
        experts_of_rows = r.expert_index[plan.token_of_row,
                                         plan.slot_of_row]
        ranks_of_rows = source[plan.token_of_row]
        key = experts_of_rows * 10 + ranks_of_rows
        assert (np.diff(key) >= 0).all()

    def test_out_of_range_expert_rejected(self, rng):
        r = random_routing(rng, 5, 2, 8)
        with pytest.raises(ValueError, match="out of range"):
            build_dispatch_plan(r, 4)

    def test_deterministic(self, rng):
        r = random_routing(rng, 20, 2, 4)
        a = build_dispatch_plan(r, 4)
        b = build_dispatch_plan(r, 4)
        np.testing.assert_array_equal(a.token_of_row, b.token_of_row)

    @given(st.integers(1, 40), st.integers(1, 4), st.integers(4, 8),
           st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_plan_is_complete_permutation(self, tokens, top_k, n_experts,
                                          seed):
        """Property: every kept (token, slot) pair appears exactly once."""
        rng = np.random.default_rng(seed)
        top_k = min(top_k, n_experts)
        r = random_routing(rng, tokens, top_k, n_experts, drop_rate=0.2)
        plan = build_dispatch_plan(r, n_experts)
        pairs = set(zip(plan.token_of_row.tolist(),
                        plan.slot_of_row.tolist()))
        assert len(pairs) == plan.n_rows == int(r.kept.sum())
        assert int(plan.expert_counts.sum()) == plan.n_rows
