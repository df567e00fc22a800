"""Tests for pipeline-parallel schedules and their safety properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.pipeline import (
    PipelineTask,
    bubble_fraction,
    gpipe_schedule,
    interleaved_1f1b_schedule,
    one_f_one_b_schedule,
    validate_schedule,
)


class TestGPipe:
    def test_valid(self):
        validate_schedule(gpipe_schedule(4, 8), 8)

    def test_all_forwards_first(self):
        sched = gpipe_schedule(3, 4)
        for tasks in sched:
            phases = [t.phase for t in tasks]
            assert phases == ["F"] * 4 + ["B"] * 4

    def test_backwards_reversed(self):
        tasks = gpipe_schedule(2, 3)[0]
        bwd = [t.micro_batch for t in tasks if t.phase == "B"]
        assert bwd == [2, 1, 0]


class Test1F1B:
    def test_valid_many_shapes(self):
        for p, m in [(1, 1), (2, 2), (4, 8), (8, 4), (3, 7), (5, 5)]:
            validate_schedule(one_f_one_b_schedule(p, m), m)

    def test_warmup_depth(self):
        sched = one_f_one_b_schedule(4, 8)
        # Stage 0 warms up with p-1 = 3 forwards before its first B.
        phases = [t.phase for t in sched[0]]
        assert phases[:3] == ["F", "F", "F"]
        assert "B" in phases[3:5]

    def test_last_stage_strict_alternation(self):
        sched = one_f_one_b_schedule(4, 6)
        phases = [t.phase for t in sched[-1]]
        assert phases == ["F", "B"] * 6

    def test_in_flight_bounded(self):
        """At most ``p`` micro-batches have outstanding activations on
        stage 0 — the 1F1B memory guarantee GPipe lacks."""
        p, m = 4, 16
        sched = one_f_one_b_schedule(p, m)
        outstanding = max_outstanding(sched[0])
        assert outstanding <= p
        gpipe_outstanding = max_outstanding(gpipe_schedule(p, m)[0])
        assert gpipe_outstanding == m

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            one_f_one_b_schedule(0, 4)
        with pytest.raises(ValueError):
            one_f_one_b_schedule(4, 0)


def max_outstanding(tasks):
    live = 0
    worst = 0
    for t in tasks:
        live += 1 if t.phase == "F" else -1
        worst = max(worst, live)
    return worst


class TestInterleaved:
    def test_valid(self):
        for p, m, v in [(2, 4, 2), (4, 8, 2), (4, 4, 3), (2, 2, 4)]:
            validate_schedule(interleaved_1f1b_schedule(p, m, v), m, v)

    def test_v1_falls_back(self):
        a = interleaved_1f1b_schedule(4, 8, 1)
        b = one_f_one_b_schedule(4, 8)
        assert a == b

    def test_micro_multiple_required(self):
        with pytest.raises(ValueError, match="divisible"):
            interleaved_1f1b_schedule(4, 6, 2)

    def test_task_count(self):
        sched = interleaved_1f1b_schedule(2, 4, 3)
        for tasks in sched:
            assert len(tasks) == 2 * 4 * 3  # F and B for every (m, v)


class TestValidateSchedule:
    def test_detects_incomplete(self):
        sched = gpipe_schedule(2, 3)
        sched[0] = sched[0][:-1]
        with pytest.raises(ValueError, match="incomplete"):
            validate_schedule(sched, 3)

    def test_detects_deadlock(self):
        # Stage 1 runs B before its own F arrives from stage 0's F.
        sched = [
            [PipelineTask("B", 0), PipelineTask("F", 0)],
            [PipelineTask("F", 0), PipelineTask("B", 0)],
        ]
        with pytest.raises(ValueError, match="deadlock"):
            validate_schedule(sched, 1)


class TestBubbleFraction:
    def test_single_stage_zero(self):
        assert bubble_fraction(1, 10) == 0.0

    def test_formula(self):
        assert bubble_fraction(4, 12) == pytest.approx(3 / 15)

    def test_interleaving_divides_bubble(self):
        plain = bubble_fraction(8, 16)
        inter = bubble_fraction(8, 16, n_virtual=4)
        assert inter < plain
        # (p-1)/(vm + p - 1)
        assert inter == pytest.approx(7 / (64 + 7))

    def test_fewer_micro_batches_more_bubble(self):
        """Table 3's MFU decline: fixed global batch + more pipeline
        stages per GPU count means fewer micro-batches per pipeline."""
        assert bubble_fraction(15, 48) > bubble_fraction(15, 360)

    @given(st.integers(1, 16), st.integers(1, 64), st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_bounds(self, p, m, v):
        frac = bubble_fraction(p, m, v)
        assert 0.0 <= frac < 1.0
