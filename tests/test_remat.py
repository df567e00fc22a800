"""Tests for selective activation rematerialization (Appendix A.2)."""

import pytest

from repro.core.config import MODEL_ZOO, ParallelConfig
from repro.core.remat import (
    PAPER_RETAINED,
    RematPlan,
    activation_table,
    default_remat_plan,
    no_remat_plan,
)


def full_elements(b, s, h, n, m, k, f):
    """Appendix A.2: ``(2n + 2k + 3kf + 12 + 5/m) · bsh/n``."""
    return (2 * n + 2 * k + 3 * k * f + 12 + 5.0 / m) * b * s * h / n


def remat_elements(b, s, h, n, m, k, f):
    """Appendix A.2: ``(2kf + 4 + 2/m) · bsh/n``."""
    return (2 * k * f + 4 + 2.0 / m) * b * s * h / n


def recreated(plan, kind=None):
    """Names of the table rows ``plan`` does not retain (of one kind)."""
    return [s.name for s in activation_table()
            if s.name not in plan.retained
            and (kind is None or s.recreate == kind)]


class TestActivationTable:
    def test_twenty_rows(self):
        assert len(activation_table()) == 20

    def test_fig20_names_present(self):
        names = {s.name for s in activation_table()}
        for expected in ("hidden", "qkv_a2a", "ffn_in", "fc2_out_rs",
                         "ln2_out_ag", "hidden_next"):
            assert expected in names

    def test_shares_at_reference_point(self):
        """Spot-check individual Fig. 20 shapes in bsh/n units."""
        shares = {s.name: s.share(8, 4, 3, 3.5)
                  for s in activation_table()}
        assert shares["hidden"] == 1.0
        assert shares["qkv"] == pytest.approx(1.5)       # 1 + 2/m
        assert shares["k_rope"] == pytest.approx(0.25)   # 1/m
        assert shares["ln2_out_ag"] == 8.0               # n
        assert shares["ffn_in"] == 3.0                   # k
        assert shares["fc1_out"] == pytest.approx(10.5)  # k·f

    def test_total_matches_full_formula(self):
        """Sum of all table rows == the (2n+2k+3kf+12+5/m) identity."""
        n, m, k, f = 8, 4, 3, 3.5
        total = sum(s.share(n, m, k, f) for s in activation_table())
        assert total == pytest.approx(2 * n + 2 * k + 3 * k * f
                                      + 12 + 5 / m)

    def test_recreate_classes(self):
        kinds = {s.name: s.recreate for s in activation_table()}
        assert kinds["ln1_out"] == "recompute"
        assert kinds["qkv_a2a"] == "recommunicate"
        assert kinds["fc1_out"] == "expensive"


class TestRematPlan:
    def test_paper_retained_matches_reduced_formula(self):
        """The retained set sums to (2kf + 4 + 2/m) — Appendix A.2."""
        n, m, k, f = 8, 4, 3, 3.5
        retained = sum(s.share(n, m, k, f) for s in activation_table()
                       if s.name in PAPER_RETAINED)
        assert retained == pytest.approx(2 * k * f + 4 + 2 / m)

    def test_default_plan_elements_equal_analysis(self):
        model = MODEL_ZOO["mixtral-8x7b"]
        pc = ParallelConfig.megascale(8)
        plan = default_remat_plan()
        f = model.ffn_hidden_size / model.hidden_size
        expected = remat_elements(
            2, model.seq_len, model.hidden_size, 8, model.gqa_ratio,
            model.top_k, f)
        assert plan.retained_elements(model, pc, 2) == \
            pytest.approx(expected)

    def test_no_remat_plan_elements_equal_analysis(self):
        model = MODEL_ZOO["mixtral-8x7b"]
        pc = ParallelConfig.megascale(8)
        f = model.ffn_hidden_size / model.hidden_size
        expected = full_elements(
            1, model.seq_len, model.hidden_size, 8, model.gqa_ratio,
            model.top_k, f)
        assert no_remat_plan().retained_elements(model, pc, 1) == \
            pytest.approx(expected)

    def test_savings_band(self):
        """~50% activation savings (§4.1) on the evaluated models."""
        for name in ("mixtral-8x7b", "mixtral-8x2b"):
            model = MODEL_ZOO[name]
            plan = default_remat_plan()
            pc = ParallelConfig.megascale(8)
            savings = 1.0 - (plan.retained_elements(model, pc, 1)
                             / no_remat_plan().retained_elements(model, pc,
                                                                 1))
            assert 0.35 < savings < 0.75, (name, savings)

    def test_only_cheap_activations_recreated(self):
        """The default plan never recomputes an 'expensive' activation
        other than those reconstructable as layer inputs."""
        plan = default_remat_plan()
        expensive = recreated(plan, "expensive")
        # qkv, attn, attn_out, fc2_out, hidden_next are recreated only as
        # by-products of the backward pass itself, never re-run forward.
        assert set(expensive) <= {"qkv", "attn", "attn_out", "fc2_out",
                                  "hidden_next"}

    def test_recompute_and_recommunicate_lists(self):
        plan = default_remat_plan()
        assert "ln2_out" in recreated(plan, "recompute")
        assert "fc2_in" in recreated(plan, "recompute")
        assert "ln2_out_ag" in recreated(plan, "recommunicate")

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError, match="unknown activations"):
            RematPlan(frozenset({"hidden", "banana"}))

    def test_custom_plan_monotonic(self):
        """Retaining strictly more activations never saves more memory."""
        model = MODEL_ZOO["mixtral-8x7b"]
        pc = ParallelConfig.megascale(8)
        small = default_remat_plan()
        bigger = RematPlan(small.retained | {"fc2_in"})
        assert bigger.retained_elements(model, pc, 1) > \
            small.retained_elements(model, pc, 1)
