"""Tests for pipeline-parallel training, ZeRO-1 sharding, checkpoints, and
the automatic scheduler."""

import os

import numpy as np
import pytest

from repro.comm import World, rank_ordered_sum
from repro.core import MODEL_ZOO, ModelConfig, ParallelConfig
from repro.core.config import TrainConfig
from repro.core.trainer import MegaScaleTrainer
from repro.core.analysis import param_memory_per_gpu
from repro.core.autoschedule import AutoScheduler
from repro.core.config import GPU_SPECS
from repro.core.operators import build_backward_graph, build_forward_graph
from repro.core.runner import ProductionRunner
from repro.elastic import ParallelLayout
from repro.ft import ConfigMismatch
from repro.model import MoETransformer
from repro.parallel.pipeline import stage_partition
from repro.perf import KernelModel
from repro.precision.optimizer import AdamW, clip_grad_norm, zero1_shard_size
from repro.tensor import Tensor
from conftest import eval_loss, optimizer_state_nbytes

CONFIG = ModelConfig("pp-tiny", n_layers=4, hidden_size=16, n_heads=4,
                     gqa_ratio=2, ffn_hidden_size=24, n_experts=4,
                     top_k=2, vocab_size=32, seq_len=8)


class TestStagePartition:
    def test_balanced(self):
        assert [len(r) for r in stage_partition(8, 4)] == [2, 2, 2, 2]

    def test_uneven_front_loaded(self):
        assert [len(r) for r in stage_partition(7, 3)] == [3, 2, 2]

    def test_covers_all_layers(self):
        ranges = stage_partition(10, 4)
        covered = [layer for r in ranges for layer in r]
        assert covered == list(range(10))

    def test_validation(self):
        with pytest.raises(ValueError):
            stage_partition(2, 4)
        with pytest.raises(ValueError):
            stage_partition(4, 0)


class TestPipelineParallelTrainer:
    """Pipeline parallelism through the one trainer: one rank per
    stage (n=1), micro-batches in 1F1B order."""

    @staticmethod
    def make(n_stages, micro):
        model = MoETransformer(CONFIG, seed=0, dtype=np.float64)
        train = TrainConfig(global_batch_size=4, micro_batch_size=micro,
                            learning_rate=1e-2, weight_decay=0.0,
                            aux_loss_coeff=0.01)
        return MegaScaleTrainer(model, World(n_stages, 1),
                                ParallelConfig(1, pipeline_size=n_stages),
                                train)

    def reference_step(self, batch, n_micro, lr=1e-2):
        model = MoETransformer(CONFIG, seed=0, dtype=np.float64)
        opt = AdamW(model.parameters(), lr=lr)
        model.zero_grad()
        total = None
        for micro in np.split(batch, n_micro):
            loss = model.language_model_loss(micro, aux_coeff=0.01)
            total = loss if total is None else total + loss
        total = total * (1.0 / n_micro)
        total.backward()
        clip_grad_norm(model.parameters(), 1.0)
        opt.step()
        return model, total.item()

    @pytest.mark.parametrize("n_stages,n_micro", [(2, 2), (4, 4), (2, 4)])
    def test_matches_grad_accumulation(self, rng, n_stages, n_micro):
        batch = rng.integers(0, 32, (n_micro * 2, 9))
        ref_model, ref_loss = self.reference_step(batch, n_micro)

        trainer = self.make(n_stages, micro=2)
        result = trainer.train_step(batch)
        assert result.loss == pytest.approx(ref_loss, abs=1e-10)
        for (name, p_ref), (_, p_pp) in zip(
                ref_model.named_parameters(),
                trainer.model.named_parameters()):
            np.testing.assert_allclose(p_pp.data, p_ref.data,
                                       atol=1e-10, err_msg=name)

    def test_p2p_bytes_scale_with_boundaries(self, rng):
        batch = rng.integers(0, 32, (4, 9))
        p2p = {}
        for n_stages in (2, 4):
            trainer = self.make(n_stages, micro=2)
            trainer.train_step(batch)
            p2p[n_stages] = trainer.world.ledger.total_bytes(op="p2p")
        # p stages => p-1 boundaries, fwd + bwd each.
        assert p2p[2] > 0
        assert p2p[4] == pytest.approx(3 * p2p[2])

    def test_batch_divisibility(self, rng):
        trainer = self.make(2, micro=3)
        with pytest.raises(ValueError, match="divisible"):
            trainer.train_step(np.zeros((4, 9), dtype=int))


class TestZero1AdamW:
    def test_bit_identical_to_adamw(self, rng):
        shapes = [(6, 4), (10,), (3, 3, 2)]
        full_params = [Tensor(rng.standard_normal(s),
                              requires_grad=True) for s in shapes]
        zero_params = [Tensor(p.data.copy(), requires_grad=True)
                       for p in full_params]
        full = AdamW(full_params, lr=1e-2, weight_decay=0.1)
        world = World(4, 4)
        zero = AdamW(zero_params, lr=1e-2, weight_decay=0.1,
                     group=world.full_group())
        for _ in range(4):
            per_rank = [[rng.standard_normal(s) for s in shapes]
                        for _ in range(4)]
            avg = [np.mean([per_rank[r][i] for r in range(4)], axis=0)
                   for i in range(len(shapes))]
            full.step(grads=avg)
            # ZeRO-1 reads the DP-synced gradient.
            for p, g in zip(zero_params, avg):
                p.grad = g
            zero.step()
        for a, b in zip(full_params, zero_params):
            np.testing.assert_array_equal(b.data, a.data)

    def test_presynced_grad_path(self, rng):
        p_full = Tensor(rng.standard_normal(8), requires_grad=True)
        p_zero = Tensor(p_full.data.copy(), requires_grad=True)
        grad = rng.standard_normal(8)
        full = AdamW([p_full], lr=1e-2)
        full.step(grads=[grad])
        world = World(2, 2)
        zero = AdamW([p_zero], lr=1e-2, group=world.full_group())
        p_zero.grad = grad
        zero.step()
        np.testing.assert_allclose(p_zero.data, p_full.data, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("presynced", [False, True])
    def test_idle_experts_sit_the_step_out_like_adamw(self, rng, dtype,
                                                      presynced):
        """Skewed routing leaves experts without a gradient (36 of 61
        tensors at the sixth step of the Zipf workload).  AdamW skips them;
        ZeRO-1 used to feed them zeros, which decays their moments and
        moves them.  Sharded and full updates are bit-identical, with
        parameters straddling shard boundaries and the padded tail."""
        n = 4
        shapes = [(6, 4), (5,), (3, 3, 2), (7,), (3, 5)]
        full_params = [Tensor(rng.standard_normal(s).astype(dtype),
                              requires_grad=True) for s in shapes]
        zero_params = [Tensor(p.data.copy(), requires_grad=True)
                       for p in full_params]
        full = AdamW(full_params, lr=1e-2, weight_decay=0.1)
        zero = AdamW(zero_params, lr=1e-2, weight_decay=0.1,
                     group=World(n, n).full_group())
        numel = sum(p.size for p in zero_params)
        assert zero1_shard_size(numel, n) * n > numel  # a padded tail
        # step -> parameters no rank has a gradient for
        idle = {1: {1, 3}, 2: {0}, 3: set(), 4: {2, 3, 4}}
        for step in range(1, 5):
            def grad(i, rank):
                if i in idle[step]:
                    return None
                if i == 4 and rank == 1 and not presynced:
                    return None  # one rank's backward skipped it
                return rng.standard_normal(shapes[i]).astype(dtype)

            if presynced:
                per_rank = [[grad(i, 0) for i in range(len(shapes))]] * n
            else:
                per_rank = [[grad(i, r) for i in range(len(shapes))]
                            for r in range(n)]
            # The DP sync averages what the ranks have; a parameter no
            # rank has a gradient for keeps none.
            synced = [
                None if i in idle[step] else
                rank_ordered_sum(
                    [np.zeros(s, dtype) if g[i] is None else g[i]
                     for g in per_rank]).astype(dtype) * (1.0 / n)
                for i, s in enumerate(shapes)]
            for p, g in zip(zero_params, synced):
                p.grad = g
            zero.step()
            before = [p.data.copy() for p in full_params]
            full.step(grads=synced)
            for i in idle[step]:
                np.testing.assert_array_equal(full_params[i].data,
                                              before[i])
            for a, b in zip(full_params, zero_params):
                assert b.data.dtype == dtype
                np.testing.assert_array_equal(b.data, a.data)
            for got, want in zip(zero.m + zero.v, full.m + full.v):
                assert got.dtype == dtype
                np.testing.assert_array_equal(got, want)
            # One checkpoint format: the sharded state saves as AdamW's.
            zero_state, full_state = zero.state_dict(), full.state_dict()
            assert list(zero_state) == list(full_state)
            for key, want in full_state.items():
                got = zero_state[key]
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert got.tobytes() == want.tobytes(), key

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_state_bytes_sharded(self, rng, dtype):
        params = [Tensor(rng.standard_normal(62).astype(dtype),
                         requires_grad=True)]
        zero = AdamW(params, group=World(4, 4).full_group())
        # Each rank holds m and v for 1/4 of the (padded) params, in
        # the parameters' dtype: real bytes, not a priced constant.
        itemsize = np.dtype(dtype).itemsize
        assert zero1_shard_size(62, 4) == 16
        assert optimizer_state_nbytes(zero) == 2 * 16 * itemsize
        assert optimizer_state_nbytes(AdamW(params)) == 2 * 62 * itemsize
        if dtype == np.float32:
            # ... which with the rank's shard of the main copy is the
            # 12 B/param (FP32 main + two FP32 moments) the planner
            # charges.
            memory = param_memory_per_gpu(CONFIG, ParallelConfig(1),
                                          bytes_per_param=1.0)
            rate = memory["optimizer"] / memory["params"]
            assert rate == 12.0
            assert optimizer_state_nbytes(zero) + 16 * itemsize == rate * 16

    def test_float64_era_shard_state_is_cast_once(self, rng):
        """A float64-era state saved at dp=4 loads into a float32
        optimizer at dp=2 as float32, cast once."""
        params = [Tensor(rng.standard_normal(10).astype(np.float32),
                         requires_grad=True)]
        zero = AdamW(params, group=World(4, 4).full_group())
        params[0].grad = rng.standard_normal(10).astype(np.float32)
        zero.step()
        state = zero.state_dict()
        wide = {k: v.astype(np.float64) for k, v in state.items()}
        moved = AdamW(params, group=World(2, 2).full_group())
        moved.load_state_dict(wide)
        assert all(s.dtype == np.float32 for s in moved.m + moved.v)
        back = moved.state_dict()
        for key in state:
            assert back[key].dtype == state[key].dtype
            np.testing.assert_array_equal(back[key], state[key])
        moved.step()  # the kernel would reject float64 moments
        assert params[0].data.dtype == np.float32

    def test_comm_pattern_recorded(self, rng):
        params = [Tensor(rng.standard_normal(16), requires_grad=True)]
        world = World(4, 4)
        zero = AdamW(params, group=world.full_group())
        params[0].grad = rng.standard_normal(16)
        zero.step()
        # The gradient arrives synced: only the parameter all-gather,
        # one 4-element float64 shard sent to 3 peers by each rank.
        assert world.ledger.counts() == {"all_gather": 1}
        assert world.ledger.bytes_by_tag() == {"zero1:ag": 4 * 3 * 4 * 8.0}

    def test_corrupt_gather_reaches_the_parameters(self):
        """The all-gathered shards are what the parameters become: a
        bit flipped in the buffer rank 0 receives on ``zero1:ag`` (the
        one parameter copy stands for every replica) changes them."""
        from repro.ft import FaultPlan, FaultSpec

        class FlipRankZero(FaultPlan):
            def corrupt(self, op, tag, arrays):
                return super().corrupt(op, tag, arrays[:1])

        def run(plan):
            world = World(4, 4)
            if plan is not None:
                world.attach_fault_plan(plan)
            # 12 elements: no padding, so any flipped bit is a
            # parameter's.
            params = [Tensor(np.linspace(-1, 1, 12), requires_grad=True)]
            params[0].grad = np.linspace(1, 2, 12)
            AdamW(params, lr=1e-2, group=world.full_group()).step()
            return params[0].data

        plan = FlipRankZero([FaultSpec("corrupt", 0, "all_gather")],
                            verify_checksums=False)
        clean, flipped = run(None), run(plan)
        assert [(e.kind, e.tag) for e in plan.fired] == \
            [("corrupt", "zero1:ag")]
        assert clean.tobytes() != flipped.tobytes()


LAYOUT = ParallelLayout.from_parallel_config(ParallelConfig.megascale(2))


def make_trainer(config=CONFIG):
    model = MoETransformer(config, seed=0, dtype=np.float64)
    train = TrainConfig(global_batch_size=2, micro_batch_size=2,
                        learning_rate=1e-2, weight_decay=0.0)
    return MegaScaleTrainer(model, World(2, 2),
                            ParallelConfig.megascale(2), train)


def saved_runner(tmp_path):
    """A runner that checkpointed one trained step, and the trainer
    that took it."""
    trainer = make_trainer()
    trainer.train_step(np.random.default_rng(0).integers(0, 32, (2, 9)))
    runner = ProductionRunner(lambda layout: make_trainer(), LAYOUT,
                              str(tmp_path))
    runner._save(trainer, 1)
    return runner, trainer


class TestCheckpoint:
    """The one checkpoint format: a trainer's ``state_dict()`` written
    by the runner, with a sidecar naming its layout and model."""

    def test_model_state_restored(self, tmp_path):
        runner, trainer = saved_runner(tmp_path)
        fresh = make_trainer()
        assert runner._restore(fresh) == 1
        ids = np.random.default_rng(1).integers(0, 32, (2, 9))
        assert eval_loss(fresh, ids) == eval_loss(trainer, ids)

    def test_optimizer_state_restored(self, tmp_path):
        runner, trainer = saved_runner(tmp_path)
        fresh = make_trainer()
        runner._restore(fresh)
        assert fresh.optimizer.step_count == trainer.optimizer.step_count
        for a, b in zip(trainer.optimizer.m, fresh.optimizer.m):
            np.testing.assert_array_equal(a, b)

    def test_config_mismatch_rejected(self, tmp_path):
        """Another model's checkpoints are refused before any array is
        read, not walked past as corrupt and overwritten."""
        saved_runner(tmp_path)
        other = ModelConfig("other", 4, 16, 4, 2, 24, 8, 2,
                            vocab_size=32, seq_len=8)
        reader = ProductionRunner(lambda layout: make_trainer(other),
                                  LAYOUT, str(tmp_path))
        with pytest.raises(ConfigMismatch) as exc:
            reader.run([np.zeros((2, 9), dtype=int)] * 2)
        assert "n_experts=4" in str(exc.value)
        assert "n_experts=8" in str(exc.value)
        assert exc.value.saved["n_experts"] == 4
        assert exc.value.current["n_experts"] == 8
        assert reader.discarded == []
        assert reader.checkpoint_steps() == [1]

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        saved_runner(tmp_path)
        assert sorted(os.listdir(tmp_path)) == [
            "step_00000001.npz", "step_00000001.npz.meta.json"]


class TestAtomicWrite:
    """Checkpoint writes go tmp -> fsync -> rename: an interrupted
    write must never leave a partial file at the final path."""

    def test_success_leaves_no_tmp(self, tmp_path):
        from repro.core.checkpoint import atomic_write
        path = os.path.join(tmp_path, "out.bin")
        atomic_write(path, lambda handle: handle.write(b"payload"))
        assert os.listdir(tmp_path) == ["out.bin"]
        with open(path, "rb") as handle:
            assert handle.read() == b"payload"

    def test_crash_mid_write_preserves_previous_file(self, tmp_path):
        from repro.core.checkpoint import atomic_write
        path = os.path.join(tmp_path, "out.bin")
        atomic_write(path, lambda handle: handle.write(b"good"))

        def interrupted(handle):
            handle.write(b"partial garbage")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            atomic_write(path, interrupted)
        with open(path, "rb") as handle:
            assert handle.read() == b"good"

    def test_text_mode(self, tmp_path):
        from repro.core.checkpoint import atomic_write
        path = os.path.join(tmp_path, "meta.json")
        atomic_write(path, lambda handle: handle.write('{"a": 1}'),
                     text=True)
        with open(path) as handle:
            assert handle.read() == '{"a": 1}'

    def test_save_checkpoint_is_atomic(self, tmp_path, monkeypatch):
        """A save that dies mid-serialization leaves the previous
        checkpoint loadable, not a truncated npz."""
        runner, trainer = saved_runner(tmp_path)
        real_savez = np.savez

        def dying_savez(handle, **payload):
            real_savez(handle, **payload)  # bytes hit the tmp file
            raise OSError("killed mid-write")

        monkeypatch.setattr(np, "savez", dying_savez)
        with pytest.raises(OSError, match="killed mid-write"):
            runner._save(trainer, 2)
        monkeypatch.undo()

        assert runner._restore(make_trainer()) == 1


class TestAutoScheduler:
    def graph_and_durations(self):
        graph = build_backward_graph(build_forward_graph(
            MODEL_ZOO["mixtral-8x7b"], ParallelConfig.megascale(8), 1))
        km = KernelModel(GPU_SPECS["h800"])
        return graph, km.durations(graph)

    def test_never_worse_than_holistic(self):
        graph, durations = self.graph_and_durations()
        result = AutoScheduler(budget=30, seed=0).optimize(graph,
                                                           durations)
        assert result.makespan <= result.baseline_makespan + 1e-12
        assert result.evaluations >= 1

    def test_deterministic_by_seed(self):
        graph, durations = self.graph_and_durations()
        a = AutoScheduler(budget=20, seed=5).optimize(graph, durations)
        b = AutoScheduler(budget=20, seed=5).optimize(graph, durations)
        assert a.makespan == b.makespan

    def test_result_schedule_is_valid(self):
        from repro.sim.engine import simulate
        graph, durations = self.graph_and_durations()
        result = AutoScheduler(budget=10, seed=1).optimize(graph,
                                                           durations)
        assert simulate(result.tasks).makespan == \
            pytest.approx(result.makespan)

    def test_budget_validated(self):
        with pytest.raises(ValueError, match="budget"):
            AutoScheduler(budget=0)

    def test_improves_deliberately_bad_baseline(self):
        """Against a baseline with shuffled compute order, search finds
        strictly better schedules — the automation payoff."""
        from repro.sim.engine import SimTask, simulate
        # Chain a->b with long c independent: bad order runs c first on
        # the same stream as the chain.
        tasks = [
            SimTask("c", 5.0, "compute"),
            SimTask("a", 1.0, "compute"),
            SimTask("comm", 4.0, "comm", deps=("a",), is_comm=True),
            SimTask("b", 1.0, "compute", deps=("comm",)),
        ]
        base = simulate(tasks).makespan
        # The search operates on our scheduler output normally; here we
        # directly exercise the reorder helper through a tiny search.
        from repro.core.autoschedule import _reorder_by_priority
        best = base
        rng = np.random.default_rng(0)
        for _ in range(50):
            pri = {t.name: rng.random() for t in tasks}
            cand = _reorder_by_priority(tasks, pri)
            best = min(best, simulate(cand).makespan)
        assert best < base
