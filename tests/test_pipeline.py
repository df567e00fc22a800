"""Tests for pipeline-parallel schedules and their safety properties."""

import pytest

from repro.parallel.pipeline import (
    PipelineTask,
    one_f_one_b_schedule,
    validate_schedule,
)


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
        stage 0 — the 1F1B memory guarantee, against the ``m`` of
        running every forward first."""
        p, m = 4, 16
        sched = one_f_one_b_schedule(p, m)
        outstanding = max_outstanding(sched[0])
        assert outstanding <= p < m

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


class TestValidateSchedule:
    def test_detects_incomplete(self):
        sched = one_f_one_b_schedule(2, 3)
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
