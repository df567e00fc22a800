"""Tests for health monitoring (repro.ft.health)."""

import math

import numpy as np
import pytest

from repro.comm import World, all_reduce
from repro.ft import (
    FaultPlan,
    HealthMonitor,
    LossSpike,
    LossSpikeGuard,
    NumericFault,
    NumericGuard,
    StragglerDetector,
)


class TestStragglerDetector:
    def test_flags_2x_slow_rank_within_one_window(self):
        det = StragglerDetector(window=8, z_threshold=1.5)
        for i in range(8):
            durations = [1.0, 1.0, 2.0, 1.0]  # rank 2 is 2x slow
            det.observe([0, 1, 2, 3], durations)
            if i < 7:
                assert det.flagged() == []  # window not yet full
        assert det.flagged() == [2]

    def test_uniform_ranks_never_flagged(self):
        det = StragglerDetector(window=4)
        for _ in range(10):
            det.observe([0, 1, 2, 3], [1.0, 1.0, 1.0, 1.0])
        assert det.flagged() == []

    def test_mild_variation_below_rel_threshold(self):
        det = StragglerDetector(window=4, rel_threshold=1.25)
        for _ in range(10):
            det.observe([0, 1, 2, 3], [1.0, 1.0, 1.1, 1.0])
        assert det.flagged() == []

    def test_mixed_op_magnitudes_normalize(self):
        """Relative durations make microsecond all-gathers comparable
        with millisecond all-to-alls."""
        det = StragglerDetector(window=6, z_threshold=1.5)
        for i in range(6):
            scale = 10.0 ** (i % 3)  # wildly varying op sizes
            det.observe([0, 1, 2, 3],
                        [scale, scale, 2.0 * scale, scale])
        assert det.flagged() == [2]

    def test_validation(self):
        with pytest.raises(ValueError, match="window"):
            StragglerDetector(window=1)
        det = StragglerDetector()
        with pytest.raises(ValueError, match="durations"):
            det.observe([0, 1], [1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_non_finite_observation_dropped(self, bad):
        """One NaN/inf/negative sample must not blind the detector:
        the poisoned observation is dropped and detection continues."""
        det = StragglerDetector(window=8, z_threshold=1.5)
        det.observe([0, 1, 2, 3], [1.0, 1.0, bad, 1.0])
        for _ in range(8):
            det.observe([0, 1, 2, 3], [1.0, 1.0, 2.0, 1.0])
        assert det.flagged() == [2]

    def test_zero_mean_observation_dropped(self):
        det = StragglerDetector(window=4)
        det.observe([0, 1, 2, 3], [0.0, 0.0, 0.0, 0.0])
        for _ in range(4):
            det.observe([0, 1, 2, 3], [1.0, 1.0, 1.0, 1.0])
        assert det.flagged() == []

    def test_zero_variance_window_never_divides_by_zero(self):
        det = StragglerDetector(window=2)
        for _ in range(2):
            det.observe([0, 1], [1.0, 1.0])
        assert det.flagged() == []  # identical means, std == 0


class TestNumericGuard:
    def test_finite_passes(self):
        NumericGuard().check(1.25)

    def test_nan_and_inf_raise(self):
        guard = NumericGuard()
        with pytest.raises(NumericFault):
            guard.check(float("nan"))
        with pytest.raises(NumericFault):
            guard.check(float("inf"))

    def test_checks_grad_norm_attribute(self):
        class Result:
            loss = 1.0
            grad_norm = math.inf

        with pytest.raises(NumericFault, match="grad norm"):
            NumericGuard().check(Result())


class TestLossSpikeGuard:
    def test_spike_detected_against_rolling_median(self):
        guard = LossSpikeGuard(window=4, factor=2.0, min_history=3)
        for step, loss in enumerate([5.0, 4.8, 4.6]):
            guard.observe(step, loss)
        with pytest.raises(LossSpike):
            guard.observe(3, 12.0)

    def test_spiking_loss_not_added_to_history(self):
        guard = LossSpikeGuard(window=4, factor=2.0, min_history=2)
        guard.observe(0, 1.0)
        guard.observe(1, 1.0)
        with pytest.raises(LossSpike):
            guard.observe(2, 10.0)
        assert guard.rolling_median() == 1.0  # 10.0 was rejected

    def test_gradual_decrease_never_spikes(self):
        guard = LossSpikeGuard(window=8, factor=2.0)
        for step in range(50):
            guard.observe(step, 5.0 * 0.97 ** step)

    def test_nan_loss_is_numeric_fault(self):
        guard = LossSpikeGuard()
        with pytest.raises(NumericFault):
            guard.observe(0, float("nan"))

    def test_validation(self):
        with pytest.raises(ValueError, match="factor"):
            LossSpikeGuard(factor=1.0)
        with pytest.raises(ValueError, match="window"):
            LossSpikeGuard(window=0)


class TestHealthMonitorWiring:
    def test_collectives_feed_straggler_detector(self):
        """A world with a slow-link fault plan and a health monitor
        flags the slow rank purely from collective timings."""
        world = World(4, 4)
        world.attach_fault_plan(FaultPlan(slow_ranks={1: 2.0}))
        monitor = HealthMonitor(
            straggler=StragglerDetector(window=8, z_threshold=1.5))
        world.attach_health_monitor(monitor)
        group = world.full_group()
        tensors = [np.ones(16) for _ in range(4)]
        for _ in range(8):
            all_reduce(group, tensors)
        assert monitor.collectives_seen == 8
        assert monitor.flagged_stragglers() == [1]

    def test_trainer_attaches_monitor_and_checks_steps(self):
        from repro.core.config import (ModelConfig, ParallelConfig,
                                       TrainConfig)
        from repro.core.trainer import MegaScaleTrainer
        from repro.data import MarkovCorpus, batch_iterator
        from repro.model import MoETransformer

        cfg = ModelConfig("health", 1, 16, 4, 2, 24, 4, 2,
                          vocab_size=32, seq_len=8)
        model = MoETransformer(cfg, seed=0, dtype=np.float64)
        train = TrainConfig(global_batch_size=2, micro_batch_size=2,
                            seq_len=8, learning_rate=5e-3,
                            weight_decay=0.0, aux_loss_coeff=0.01)
        world = World(2, 2)
        monitor = HealthMonitor()
        trainer = MegaScaleTrainer(
            model, world, ParallelConfig.megascale(2), train,
            health=monitor)
        assert world.health is monitor
        corpus = MarkovCorpus(vocab_size=32, seed=0)
        batch = next(iter(batch_iterator(corpus, 2, 8, seed=1,
                                         limit=1)))
        trainer.train_step(batch)
        assert monitor.collectives_seen > 0
        assert monitor.numeric.checked == 1
