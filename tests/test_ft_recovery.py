"""Tests for recovery policies: retry/backoff, checkpoint chains, and
the end-to-end fault-storm run (repro.ft.recovery + ProductionRunner)."""

import os

import numpy as np
import pytest

from repro.comm import World
from repro.core.config import ModelConfig, ParallelConfig, TrainConfig
from repro.core.runner import FaultInjector, ProductionRunner
from repro.core.trainer import MegaScaleTrainer
from repro.data import MarkovCorpus, batch_iterator
from repro.ft import (
    BackoffPolicy,
    CommTimeout,
    FaultPlan,
    FaultSpec,
    LossSpikeGuard,
    RetryExhausted,
    RetryStats,
    retry_with_backoff,
    validate_checkpoint,
    write_checkpoint_meta,
)
from repro.elastic import ParallelLayout
from repro.model import MoETransformer

CONFIG = ModelConfig("ftrec", n_layers=1, hidden_size=16, n_heads=4,
                     gqa_ratio=2, ffn_hidden_size=24, n_experts=4,
                     top_k=2, vocab_size=32, seq_len=8)
LAYOUT = ParallelLayout.from_parallel_config(ParallelConfig.megascale(2))


def make_factory(plan=None):
    def factory(layout=None):
        model = MoETransformer(CONFIG, seed=0, dtype=np.float64)
        train = TrainConfig(global_batch_size=2, micro_batch_size=2,
                            seq_len=8, learning_rate=5e-3,
                            weight_decay=0.0, aux_loss_coeff=0.01)
        world = World(2, 2)
        if plan is not None:
            world.attach_fault_plan(plan)
        return MegaScaleTrainer(
            model, world, ParallelConfig.megascale(2), train)
    return factory


def make_batches(n):
    corpus = MarkovCorpus(vocab_size=32, seed=0)
    return list(batch_iterator(corpus, 2, 8, seed=1, limit=n))


def calls_per_step():
    """Collective calls (forward + backward) per train step."""
    plan = FaultPlan()
    trainer = make_factory(plan)()
    batches = make_batches(2)
    trainer.train_step(batches[0])
    first = plan.calls
    trainer.train_step(batches[1])
    assert plan.calls == 2 * first  # uniform per step
    return first


def flip_byte(path, offset=None):
    with open(path, "r+b") as handle:
        data = bytearray(handle.read())
        pos = len(data) // 2 if offset is None else offset
        data[pos] ^= 0xFF
        handle.seek(0)
        handle.write(data)


class TestRetryWithBackoff:
    def test_backoff_policy_delays(self):
        policy = BackoffPolicy(max_retries=5, base_delay=0.5,
                               multiplier=2.0, max_delay=3.0)
        assert [policy.delay(a) for a in range(4)] == \
            [0.5, 1.0, 2.0, 3.0]

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            BackoffPolicy(max_retries=-1)
        with pytest.raises(ValueError, match="multiplier"):
            BackoffPolicy(multiplier=0.5)

    def test_succeeds_after_transient_faults(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise CommTimeout("injected")
            return "ok"

        stats = RetryStats()
        slept = []
        out = retry_with_backoff(flaky, BackoffPolicy(max_retries=3),
                                 sleep=slept.append, stats=stats)
        assert out == "ok"
        assert stats.retries == 2
        assert slept == [0.5, 1.0]
        assert stats.total_backoff == pytest.approx(1.5)

    def test_exhaustion_escalates(self):
        def always_fails():
            raise CommTimeout("injected")

        stats = RetryStats()
        with pytest.raises(RetryExhausted):
            retry_with_backoff(always_fails,
                               BackoffPolicy(max_retries=2),
                               stats=stats)
        assert stats.attempts == 3
        assert stats.exhausted == 1

    def test_non_retryable_passes_through(self):
        def crashes():
            raise ValueError("not a comm fault")

        with pytest.raises(ValueError):
            retry_with_backoff(crashes, BackoffPolicy(max_retries=5))


class TestCheckpointIntegrity:
    def write_checkpoint(self, tmp_path, arrays):
        path = str(tmp_path / "step_00000004.npz")
        with open(path, "wb") as handle:
            np.savez(handle, **arrays)
        write_checkpoint_meta(path, 4)
        return path

    def test_valid_checkpoint_passes(self, tmp_path):
        path = self.write_checkpoint(tmp_path, {"w": np.ones(8)})
        assert validate_checkpoint(path)

    def test_bit_flip_detected(self, tmp_path):
        path = self.write_checkpoint(tmp_path, {"w": np.ones(64)})
        flip_byte(path)
        assert not validate_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        path = self.write_checkpoint(tmp_path, {"w": np.ones(64)})
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size // 2)
        assert not validate_checkpoint(path)

    def test_missing_file_invalid(self, tmp_path):
        assert not validate_checkpoint(str(tmp_path / "nope.npz"))

    def test_checkpoint_without_sidecar_still_validates(self, tmp_path):
        """Pre-FT checkpoints (no meta) validate via readback."""
        path = str(tmp_path / "step_00000004.npz")
        with open(path, "wb") as handle:
            np.savez(handle, w=np.ones(8))
        assert validate_checkpoint(path)
        flip_byte(path)  # zip per-member CRC catches it on readback
        assert not validate_checkpoint(path)


class TestCheckpointChain:
    def test_corrupt_latest_falls_back(self, tmp_path):
        runner = ProductionRunner(make_factory(), LAYOUT, str(tmp_path),
                                  checkpoint_interval=4)
        runner.run(make_batches(8))
        assert runner.latest_checkpoint() == 8
        flip_byte(runner._path(8))
        fresh = ProductionRunner(make_factory(), LAYOUT, str(tmp_path),
                                 checkpoint_interval=4)
        assert fresh.latest_checkpoint() == 4
        assert fresh.discarded == [8]

    def test_truncated_latest_falls_back(self, tmp_path):
        runner = ProductionRunner(make_factory(), LAYOUT, str(tmp_path),
                                  checkpoint_interval=4)
        runner.run(make_batches(8))
        with open(runner._path(8), "r+b") as handle:
            handle.truncate(10)
        fresh = ProductionRunner(make_factory(), LAYOUT, str(tmp_path),
                                 checkpoint_interval=4)
        assert fresh.latest_checkpoint() == 4

    def test_all_corrupt_restarts_from_scratch(self, tmp_path):
        runner = ProductionRunner(make_factory(), LAYOUT, str(tmp_path),
                                  checkpoint_interval=4)
        runner.run(make_batches(8))
        flip_byte(runner._path(4))
        flip_byte(runner._path(8))
        fresh = ProductionRunner(make_factory(), LAYOUT, str(tmp_path),
                                 checkpoint_interval=4)
        assert fresh.latest_checkpoint() is None
        # A full run from scratch still completes.
        metrics = fresh.run(make_batches(8))
        assert set(metrics.steps) == set(range(8))

    def test_resume_after_corruption_matches_clean(self, tmp_path):
        """Walking back the chain replays more steps but lands on the
        identical final state."""
        batches = make_batches(10)
        clean = ProductionRunner(make_factory(), LAYOUT,
                                 str(tmp_path / "clean"),
                                 checkpoint_interval=3)
        clean.run(batches)

        faulty = ProductionRunner(make_factory(), LAYOUT,
                                  str(tmp_path / "faulty"),
                                  checkpoint_interval=3)
        faulty.run(batches[:8])  # checkpoints at 3, 6 and final 8
        flip_byte(faulty._path(6))
        flip_byte(faulty._path(8))
        resumed = ProductionRunner(make_factory(), LAYOUT,
                                   str(tmp_path / "faulty"),
                                   checkpoint_interval=3)
        metrics = resumed.run(batches)
        assert resumed.discarded == [8, 6]
        assert metrics.steps[0] == 3  # resumed from 3, not 6 or 8
        with np.load(clean._path(10)) as a, \
                np.load(resumed._path(10)) as b:
            assert sorted(a.files) == sorted(b.files)
            for key in a.files:
                assert a[key].tobytes() == b[key].tobytes(), key


class TestRunnerRetryIntegration:
    def test_transient_comm_fault_retried_in_place(self, tmp_path):
        cps = calls_per_step()
        plan = FaultPlan([FaultSpec("timeout", at_call=2 * cps + 1)])
        runner = ProductionRunner(
            make_factory(plan), LAYOUT, str(tmp_path), checkpoint_interval=4,
            retry_policy=BackoffPolicy(max_retries=2))
        metrics = runner.run(make_batches(6))
        assert len(metrics.restarts) == 0  # absorbed by retry
        assert metrics.retries == 1
        assert metrics.backoff_seconds > 0
        assert metrics.steps == list(range(6))

    def test_exhausted_retries_escalate_to_restart(self, tmp_path):
        cps = calls_per_step()
        # Attempt 1 faults at its first collective of step 2, and the
        # single allowed retry faults at *its* first collective too.
        plan = FaultPlan([FaultSpec("timeout", at_call=2 * cps),
                          FaultSpec("timeout", at_call=2 * cps + 1)])
        runner = ProductionRunner(
            make_factory(plan), LAYOUT, str(tmp_path), checkpoint_interval=4,
            retry_policy=BackoffPolicy(max_retries=1))
        metrics = runner.run(make_batches(6))
        assert len(metrics.restarts) == 1
        assert set(metrics.steps) == set(range(6))

    def test_comm_fault_without_retry_policy_restarts(self, tmp_path):
        cps = calls_per_step()
        plan = FaultPlan([FaultSpec("timeout", at_call=2 * cps + 1)])
        runner = ProductionRunner(make_factory(plan), LAYOUT, str(tmp_path),
                                  checkpoint_interval=4)
        metrics = runner.run(make_batches(6))
        assert len(metrics.restarts) == 1

    def test_faulted_run_reproduces_clean_loss_trajectory(self,
                                                          tmp_path):
        """Determinism: transient faults spread over the run + retries
        leave the per-step final losses exactly equal to a clean run."""
        batches = make_batches(10)
        clean = ProductionRunner(make_factory(), LAYOUT,
                                 str(tmp_path / "clean"),
                                 checkpoint_interval=3)
        clean_metrics = clean.run(batches)

        per_step = calls_per_step()
        plan = FaultPlan([FaultSpec(kind, at_call=i * per_step + 3)
                          for i, kind in enumerate(("timeout", "corrupt")
                                                   * 3)], seed=11)
        faulty = ProductionRunner(
            make_factory(plan), LAYOUT, str(tmp_path / "faulty"),
            checkpoint_interval=3,
            retry_policy=BackoffPolicy(max_retries=4))
        faulty_metrics = faulty.run(batches)
        assert plan.fired  # the run actually experienced faults

        final = {}
        for step, loss in zip(faulty_metrics.steps,
                              faulty_metrics.losses):
            final[step] = loss
        for step, loss in zip(clean_metrics.steps,
                              clean_metrics.losses):
            assert final[step] == loss, step


class TestLossSpikeRecovery:
    def test_rollback_then_identical_replay(self, tmp_path):
        batches = make_batches(8)
        clean = ProductionRunner(make_factory(), LAYOUT,
                                 str(tmp_path / "clean"),
                                 checkpoint_interval=4)
        clean.run(batches)

        runner = ProductionRunner(
            make_factory(), LAYOUT, str(tmp_path / "spiky"),
            checkpoint_interval=4,
            loss_guard=LossSpikeGuard(window=8, factor=2.0,
                                      min_history=3))
        injector = FaultInjector(spike_steps=[6], spike_factor=100.0)
        metrics = runner.run(batches, injector)
        assert metrics.rollbacks == [6]
        assert injector.spiked == [6]
        assert metrics.steps.count(6) == 1  # spiked attempt discarded
        with np.load(clean._path(8)) as a, np.load(runner._path(8)) as b:
            for key in a.files:
                assert a[key].tobytes() == b[key].tobytes(), key

    def test_rollback_budget_enforced(self, tmp_path):
        runner = ProductionRunner(
            make_factory(), LAYOUT, str(tmp_path), checkpoint_interval=4,
            loss_guard=LossSpikeGuard(window=8, factor=2.0,
                                      min_history=2),
            max_rollbacks=1)
        # Three scheduled spikes exceed the budget of one rollback.
        injector = FaultInjector(spike_steps=[3, 4, 5],
                                 spike_factor=100.0)
        from repro.ft import LossSpike
        with pytest.raises(LossSpike):
            runner.run(make_batches(8), injector)


class TestEndToEndFaultStorm:
    def test_storm_run_matches_clean_run_bytewise(self, tmp_path):
        """Acceptance: one run through a mid-run comm fault, a
        corrupted latest checkpoint (with rank crash), and a loss
        spike finishes with final weights byte-identical to a
        fault-free run over the same batches."""
        batches = make_batches(12)
        clean = ProductionRunner(make_factory(), LAYOUT,
                                 str(tmp_path / "clean"),
                                 checkpoint_interval=4)
        clean_metrics = clean.run(batches)

        cps = calls_per_step()
        # Transient comm timeout somewhere inside step 5.
        plan = FaultPlan([FaultSpec("timeout", at_call=5 * cps + 3)])
        storm_dir = str(tmp_path / "storm")
        runner = ProductionRunner(
            make_factory(plan), LAYOUT, storm_dir, checkpoint_interval=4,
            retry_policy=BackoffPolicy(max_retries=2),
            loss_guard=LossSpikeGuard(window=8, factor=2.0,
                                      min_history=3))

        class CorruptingInjector(FaultInjector):
            """Corrupts the newest checkpoint, then crashes."""

            def check(self, step):
                if step in self.pending:
                    flip_byte(runner._path(8))
                super().check(step)

        injector = CorruptingInjector(fault_steps=[9],
                                      spike_steps=[10],
                                      spike_factor=100.0)
        metrics = runner.run(batches, injector)

        # Every recovery mechanism actually exercised.
        assert metrics.retries == 1            # comm timeout retried
        assert len(metrics.restarts) == 1      # crash at step 9
        assert runner.discarded == [8]         # corrupt ckpt walked past
        assert metrics.steps.count(4) == 2     # resumed from 4, not 8
        assert metrics.rollbacks == [10]       # loss spike rolled back
        assert set(metrics.steps) == set(range(12))

        # Final weights byte-identical to the fault-free run.
        with np.load(clean._path(12)) as a, \
                np.load(runner._path(12)) as b:
            assert sorted(a.files) == sorted(b.files)
            for key in a.files:
                assert a[key].tobytes() == b[key].tobytes(), key

        # And the loss trajectory is reproduced exactly.
        final = {}
        for step, loss in zip(metrics.steps, metrics.losses):
            final[step] = loss
        for step, loss in zip(clean_metrics.steps,
                              clean_metrics.losses):
            assert final[step] == loss, step
