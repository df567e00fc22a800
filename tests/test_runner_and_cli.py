"""Tests for the production runner (faults/recovery) and the CLI,
including the ``train`` feature compositions."""

import ast
import glob
import os
import tempfile

import numpy as np
import pytest

from repro.__main__ import main as cli_main
from repro.comm import World
from repro.core.config import ModelConfig, ParallelConfig, TrainConfig
from repro.core.runner import (
    FaultInjector,
    ProductionRunner,
    SimulatedFault,
)
from repro.core.trainer import MegaScaleTrainer
from repro.data import MarkovCorpus, batch_iterator
from repro.elastic import ParallelLayout
from repro.model import MoETransformer

CONFIG = ModelConfig("runner", n_layers=1, hidden_size=16, n_heads=4,
                     gqa_ratio=2, ffn_hidden_size=24, n_experts=4,
                     top_k=2, vocab_size=32, seq_len=8)
LAYOUT = ParallelLayout.from_parallel_config(ParallelConfig.megascale(2))


def trainer_factory(layout=None):
    model = MoETransformer(CONFIG, seed=0, dtype=np.float64)
    train = TrainConfig(global_batch_size=2, micro_batch_size=2,
                        seq_len=8, learning_rate=5e-3, weight_decay=0.0,
                        aux_loss_coeff=0.01)
    return MegaScaleTrainer(
        model, World(2, 2), ParallelConfig.megascale(2), train)


def make_batches(n):
    corpus = MarkovCorpus(vocab_size=32, seed=0)
    return list(batch_iterator(corpus, 2, 8, seed=1, limit=n))


class TestFaultInjector:
    def test_fires_once_per_step(self):
        inj = FaultInjector([3])
        inj.check(2)
        with pytest.raises(SimulatedFault):
            inj.check(3)
        inj.check(3)  # second pass over the same step: no fault
        assert inj.fired == [3]


class TestProductionRunner:
    def test_clean_run(self, tmp_path):
        runner = ProductionRunner(trainer_factory, LAYOUT, str(tmp_path),
                                  checkpoint_interval=4)
        metrics = runner.run(make_batches(10))
        assert metrics.steps == list(range(10))
        assert len(metrics.restarts) == 0
        assert runner.latest_checkpoint() == 10

    def test_checkpoint_cadence(self, tmp_path):
        """The final save is skipped when the last step already
        checkpointed — no duplicate file or metrics entry."""
        runner = ProductionRunner(trainer_factory, LAYOUT, str(tmp_path),
                                  checkpoint_interval=3)
        metrics = runner.run(make_batches(9))
        assert metrics.checkpoints == [3, 6, 9]
        assert runner.checkpoint_steps() == [3, 6, 9]

    def test_recovers_from_faults(self, tmp_path):
        runner = ProductionRunner(trainer_factory, LAYOUT, str(tmp_path),
                                  checkpoint_interval=3)
        injector = FaultInjector([4, 8])
        metrics = runner.run(make_batches(10), injector)
        assert len(metrics.restarts) == 2
        assert injector.fired == [4, 8]
        # Every batch eventually trained.
        assert set(metrics.steps) == set(range(10))

    def test_recovered_run_matches_clean_run(self, tmp_path):
        """Determinism across restarts: the final loss for each step is
        identical with and without mid-run faults."""
        clean = ProductionRunner(trainer_factory, LAYOUT,
                                 str(tmp_path / "clean"),
                                 checkpoint_interval=3)
        clean_metrics = clean.run(make_batches(9))

        faulty = ProductionRunner(trainer_factory, LAYOUT,
                                  str(tmp_path / "faulty"),
                                  checkpoint_interval=3)
        faulty_metrics = faulty.run(make_batches(9),
                                    FaultInjector([4, 7]))
        final = {}
        for step, loss in zip(faulty_metrics.steps,
                              faulty_metrics.losses):
            final[step] = loss  # replayed steps overwrite
        for step, loss in zip(clean_metrics.steps, clean_metrics.losses):
            assert final[step] == pytest.approx(loss, abs=1e-12), step

    def test_resume_from_existing_checkpoints(self, tmp_path):
        batches = make_batches(8)
        first = ProductionRunner(trainer_factory, LAYOUT, str(tmp_path),
                                 checkpoint_interval=4)
        first.run(batches[:4])
        assert first.latest_checkpoint() == 4
        second = ProductionRunner(trainer_factory, LAYOUT, str(tmp_path),
                                  checkpoint_interval=4)
        metrics = second.run(batches)
        # Only the untrained tail is executed.
        assert metrics.steps == [4, 5, 6, 7]

    def test_max_restarts_enforced(self, tmp_path):
        runner = ProductionRunner(trainer_factory, LAYOUT, str(tmp_path),
                                  checkpoint_interval=100,
                                  max_restarts=1)
        # Fault at step 0 fires on the first attempt and, because no
        # checkpoint exists, the retry starts at 0 again — but the
        # injector only fires once per scheduled step, so schedule two.
        with pytest.raises(SimulatedFault):
            runner.run(make_batches(3), FaultInjector([0, 1]))

    def test_interval_validation(self, tmp_path):
        with pytest.raises(ValueError, match="checkpoint_interval"):
            ProductionRunner(trainer_factory, LAYOUT, str(tmp_path),
                             checkpoint_interval=0)

    def test_leftover_tmp_file_ignored_and_swept(self, tmp_path):
        """A .npz.tmp left by a crash mid-write is never treated as a
        checkpoint and is cleaned up by the next successful save."""
        batches = make_batches(8)
        first = ProductionRunner(trainer_factory, LAYOUT, str(tmp_path),
                                 checkpoint_interval=4)
        first.run(batches[:4])
        stale = os.path.join(str(tmp_path), "step_00000006.npz.tmp")
        with open(stale, "wb") as handle:
            handle.write(b"partial write from a crashed process")
        second = ProductionRunner(trainer_factory, LAYOUT, str(tmp_path),
                                  checkpoint_interval=4)
        assert second.latest_checkpoint() == 4
        assert second.checkpoint_steps() == [4]
        second.run(batches)
        assert not os.path.exists(stale)
        assert second.checkpoint_steps() == [4, 8]

    def test_corrupt_latest_checkpoint_skipped_on_resume(self,
                                                         tmp_path):
        """Resume falls back past an unreadable newest checkpoint."""
        batches = make_batches(8)
        first = ProductionRunner(trainer_factory, LAYOUT, str(tmp_path),
                                 checkpoint_interval=4)
        first.run(batches)
        with open(first._path(8), "r+b") as handle:
            handle.truncate(12)
        second = ProductionRunner(trainer_factory, LAYOUT, str(tmp_path),
                                  checkpoint_interval=4)
        metrics = second.run(batches)
        assert second.discarded == [8]
        assert metrics.steps == [4, 5, 6, 7]
        assert metrics.invalid_checkpoints == [8]


class TestCLI:
    def test_help_lists_four_commands(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["--help"])
        assert "{plan,train,serve,verify}" in capsys.readouterr().out

    def test_models(self, capsys):
        """``plan`` opens with the chosen model's Table 2 row (printed
        even when nothing fits)."""
        assert cli_main(["plan", "mixtral-8x7b", "32", "--batch",
                         "32"]) == 0
        assert cli_main(["plan", "internal-352b", "64"]) == 1
        out = capsys.readouterr().out
        assert "internal-352b" in out and "mixtral-8x7b" in out
        assert "h=4096, h_ffn=14336, E=32, k=3, m=4" in out

    def test_gpus(self, capsys):
        """...and the bottleneck GPU's Table 4 row."""
        assert cli_main(["plan", "mixtral-8x7b", "32", "h800",
                         "--batch", "32"]) == 0
        out = capsys.readouterr().out
        assert "h800" in out
        assert "gpu h800: 989 TFLOPS" in out

    def test_plan(self, capsys):
        """N_GPUS builds 8-GPU nodes and runs the plan-space search; at
        batch 32 it picks TP attention over SP by 0.3 %."""
        assert cli_main(["plan", "mixtral-8x7b", "32", "h800",
                         "--batch", "32", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "4x8xh800: 4 nodes x 8 GPUs" in out
        assert "strategy = TP+EP (PP=1, DP=4)" in out
        assert "scale-up ratio R = 9.94" in out
        # --top 3 ranks the three fastest plans exactly; their bounds
        # leave the other 156 feasible plans unsimulated.
        assert "166 feasible, 10 simulated" in out
        runners_up = out.split("runners-up:\n")[1].split("\n\n")[0]
        assert runners_up.splitlines() == [
            "     1913.1 ms  TP+EP n=8 pp=1 dp=4 a2a fp8 remat=selective",
            "     1918.2 ms  SP+EP n=8 pp=1 dp=4 a2a fp8 remat=none"]
        assert "x over Megatron-LM" in out

    def test_plan_out_of_memory_cluster_exits_1(self, capsys):
        """The 352B model does not fit 64 H800s at any PP; the planner
        must say so rather than print a plan (exit 0 before)."""
        assert cli_main(["plan", "internal-352b", "64"]) == 1
        captured = capsys.readouterr()
        assert "NoFeasiblePlan" in captured.err
        assert "strategy =" not in captured.out

    def test_plan_bad_gpu_count_exits_2(self, capsys):
        for n_gpus in ("12", "0"):
            assert cli_main(["plan", "mixtral-8x7b", n_gpus]) == 2
            assert "bad cluster spec" in capsys.readouterr().err

    def test_plan_cluster_file(self, capsys, tmp_path):
        spec = os.path.join(os.path.dirname(__file__), "..", "examples",
                            "clusters", "h800x2.json")
        assert cli_main(["plan", "mixtral-8x7b", "--cluster", spec,
                         "--batch", "256"]) == 0
        assert "strategy = SP+EP (PP=2, DP=1)" in capsys.readouterr().out
        missing = str(tmp_path / "missing.json")
        assert cli_main(["plan", "mixtral-8x7b", "--cluster",
                         missing]) == 2
        assert "bad cluster spec" in capsys.readouterr().err

    def test_plan_needs_gpus_or_cluster(self, capsys):
        assert cli_main(["plan", "mixtral-8x7b"]) == 2
        assert "--cluster" in capsys.readouterr().err

    def test_train_demo(self, capsys, tmp_path):
        assert cli_main(["train", "3", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") >= 4

    def test_ft_demo(self, capsys, tmp_path):
        assert cli_main(["train", "16", "--faults",
                         "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "comm faults injected" in out
        assert "timeout" in out and "corrupt" in out
        assert "stragglers flagged   : [1]" in out
        assert "rollbacks" in out

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            cli_main(["frobnicate"])


class TestTrainComposition:
    """Faults, resizes and tracing are features of one ``train`` run."""

    def test_faults_and_resize_compose(self, capsys, tmp_path):
        assert cli_main(["train", "9", "--faults", "--resize",
                         "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        summary = {name.strip(): ast.literal_eval(value)
                   for name, value in (line.split(": ", 1)
                                       for line in out.splitlines()
                                       if line.startswith(("restarts",
                                                           "retries",
                                                           "resizes")))}
        assert len(summary["restarts"]) >= 1
        assert summary["retries"] >= 1
        assert summary["resizes"] == [3, 6]
        step, loss = out.split("\n\n")[0].splitlines()[-1].split()
        assert step == "8" and np.isfinite(float(loss))

    def test_trace_excludes_faults(self, capsys, tmp_path):
        out = str(tmp_path / "t.json")
        with pytest.raises(SystemExit) as exc:
            cli_main(["train", "2", "--trace", out, "--faults"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--trace" in err and "--faults" in err
        with pytest.raises(SystemExit) as exc:
            cli_main(["train", "3", "--trace", out, "--resize"])
        assert exc.value.code == 2
        assert "--resize" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_train_without_dir_leaves_no_checkpoints(self, capsys):
        """Without --dir the checkpoints live in a directory that is
        removed when the run ends."""
        def count():
            return len(glob.glob(os.path.join(tempfile.gettempdir(),
                                              "repro-train-*")))

        before = count()
        assert cli_main(["train", "2"]) == 0
        assert count() == before
        assert "checkpoint dir" not in capsys.readouterr().out

    def test_zero_steps_exits_2(self, capsys):
        assert cli_main(["train", "0"]) == 2
        assert "steps must be >= 1" in capsys.readouterr().err
