"""Tests for the elastic resharding subsystem (repro.elastic) and the
robustness satellites that ride along with it: layout-stamped
checkpoint meta, seeded backoff jitter, tmp sweeping on construction,
and corrupted-sidecar handling."""

import dataclasses
import json
import os

import numpy as np
import pytest

from repro.comm import World
from repro.core.config import ModelConfig, ParallelConfig, TrainConfig
from repro.core.runner import FaultInjector, ProductionRunner
from repro.core.trainer import MegaScaleTrainer
from repro.elastic import (
    ParallelLayout,
    expert_moves,
    expert_placement,
    form_dp_rings,
    reshard_state,
    zero1_moved_elements,
)
from repro.ft import BackoffPolicy, ConfigMismatch, ResizeEvent
from repro.ft.recovery import (
    META_FORMAT_VERSION,
    meta_path,
    read_checkpoint_meta,
    validate_checkpoint,
    write_checkpoint_meta,
)
from repro.model import MoETransformer
from repro.precision.optimizer import AdamW, zero1_shard_size
from repro.tensor import Tensor

CONFIG = ModelConfig("elastic-test", n_layers=2, hidden_size=32,
                     n_heads=8, gqa_ratio=2, ffn_hidden_size=48,
                     n_experts=8, top_k=2, vocab_size=64, seq_len=16)


def layout_at(n):
    return ParallelLayout.from_parallel_config(
        ParallelConfig.megascale(n))


def make_factory(lr=1e-2):
    def factory(layout=None):
        n = 4 if layout is None else layout.world_size
        model = MoETransformer(CONFIG, seed=0, dtype=np.float64)
        train = TrainConfig(global_batch_size=2, micro_batch_size=2,
                            seq_len=16, learning_rate=lr,
                            weight_decay=0.0, aux_loss_coeff=0.01)
        return MegaScaleTrainer(
            model, World(n, n), ParallelConfig.megascale(n), train)
    return factory


def dp_layout(dp):
    """n=2 nodes, ``dp`` replicas (ZeRO-1 at dp > 1)."""
    return ParallelLayout.from_parallel_config(
        ParallelConfig.megascale(2, data_parallel_size=dp))


def dp_factory(layout=None):
    dp = 2 if layout is None else layout.dp
    model = MoETransformer(CONFIG, seed=0, dtype=np.float64)
    train = TrainConfig(global_batch_size=2, micro_batch_size=1,
                        seq_len=16, learning_rate=1e-2,
                        weight_decay=0.0, aux_loss_coeff=0.01)
    return MegaScaleTrainer(
        model, World(2 * dp, 2),
        ParallelConfig.megascale(2, data_parallel_size=dp), train)


def make_batches(n):
    rng = np.random.default_rng(0)
    return [rng.integers(0, 64, size=(2, 17)) for _ in range(n)]


class TestParallelLayout:
    def test_defaults_and_describe(self):
        layout = ParallelLayout(world_size=4, ep=4, sp=4)
        assert (layout.dp, layout.tp, layout.pp) == (1, 1, 1)
        assert layout.describe() == "world=4 dp1 ep4 tp1 sp4 pp1"

    def test_validation(self):
        with pytest.raises(ValueError, match="ep"):
            ParallelLayout(world_size=4, ep=0)
        with pytest.raises(ValueError, match="world_size"):
            ParallelLayout(world_size=1.5)

    def test_dict_round_trip(self):
        layout = ParallelLayout(world_size=8, dp=2, ep=4, sp=4)
        assert ParallelLayout.from_dict(layout.to_dict()) == layout

    def test_from_parallel_config_megascale(self):
        layout = layout_at(4)
        assert layout == ParallelLayout(world_size=4, ep=4, sp=4)

    def test_from_parallel_config_tp(self):
        parallel = ParallelConfig(4, attention="tp", ffn="tp")
        layout = ParallelLayout.from_parallel_config(parallel)
        assert layout.tp == 4 and layout.ep == 1 and layout.sp == 1

    def test_from_trainer_duck_typed(self):
        trainer = make_factory()(layout_at(2))
        assert ParallelLayout.from_trainer(trainer) == layout_at(2)

        class Toy:
            pass

        assert ParallelLayout.from_trainer(Toy()) is None


class TestZero1Reshard:
    def test_shard_unshard_round_trip_with_padding(self):
        """The per-parameter state of a padded dp=4 optimizer loads at
        every degree and saves back bit for bit."""
        rng = np.random.default_rng(3)
        shapes = [(5,), (2, 4)]  # 13 elements: padded at dp 2..5
        params = [Tensor(rng.normal(size=s)) for s in shapes]
        opt = AdamW(params, lr=1e-2, group=World(4, 4).full_group())
        for p in params:
            p.grad = rng.normal(size=p.shape)
        opt.step()
        state = opt.state_dict()
        for dp in (1, 2, 3, 4, 5):
            other = AdamW([Tensor(p.data.copy()) for p in params],
                          group=World(dp, dp).full_group())
            other.load_state_dict(state)
            back = other.state_dict()
            assert sorted(back) == sorted(state)
            for key in state:
                assert back[key].tobytes() == state[key].tobytes(), key

    def test_moved_elements_known_values(self):
        # numel=8: dp2 shards are [0..4), [4..8); dp4 shards are
        # [0..2), [2..4), [4..6), [6..8).  Owners differ on [2..4)
        # (0 -> 1), [4..6) (1 -> 2), and [6..8) (1 -> 3): 6 move.
        assert zero1_moved_elements(8, 2, 4) == 6
        assert zero1_moved_elements(8, 2, 2) == 0
        assert zero1_moved_elements(0, 2, 4) == 0

    def test_moved_elements_symmetric(self):
        for numel in (7, 64, 1000, 84640):
            for a, b in ((1, 4), (2, 4), (3, 5), (4, 6)):
                assert zero1_moved_elements(numel, a, b) == \
                    zero1_moved_elements(numel, b, a)

    def test_moved_elements_matches_brute_force(self):
        def owners(numel, dp):
            """Each element's rank in the optimizer's shard grid: the
            rank whose all-gather shard carries it."""
            world = World(dp, dp)
            params = [Tensor(np.zeros(numel))]
            params[0].grad = np.zeros(numel)
            AdamW(params, group=world.full_group()).step()
            (record,) = world.ledger.records
            size = zero1_shard_size(numel, dp)
            assert record.send_bytes_per_rank == [8.0 * size * (dp - 1)] * dp
            return {i: i // size for i in range(numel)}

        for numel in (5, 8, 13):
            for a, b in ((1, 2), (2, 4), (2, 3), (4, 2)):
                old, new = owners(numel, a), owners(numel, b)
                assert zero1_moved_elements(numel, a, b) == \
                    sum(old[i] != new[i] for i in range(numel))

    def test_resharded_state_continues_trajectory(self):
        """An optimizer saved at dp=4 and loaded at dp=2 steps
        bit-identically to one that ran at 2 the whole time."""
        rng = np.random.default_rng(7)
        shapes = [(6, 4), (10,)]
        grads = [[rng.normal(size=s) for s in shapes]
                 for _ in range(3)]

        def fresh(dp):
            r = np.random.default_rng(1)
            params = [Tensor(r.normal(size=s)) for s in shapes]
            return params, AdamW(params, lr=1e-2,
                                 group=World(dp, dp).full_group())

        ref_params, ref_opt = fresh(2)
        for g in grads:
            for p, gr in zip(ref_params, g):
                p.grad = gr
            ref_opt.step()

        params, opt = fresh(4)
        for g in grads[:2]:
            for p, gr in zip(params, g):
                p.grad = gr
            opt.step()
        # A trainer restores the model before the optimizer.
        moved_params, moved_opt = fresh(2)
        for p, saved in zip(moved_params, params):
            p.data = saved.data.copy()
        moved_opt.load_state_dict(opt.state_dict())
        for p, gr in zip(moved_params, grads[2]):
            p.grad = gr
        moved_opt.step()

        for a, b in zip(ref_params, moved_params):
            assert a.data.tobytes() == b.data.tobytes()


class TestExpertPlacement:
    def test_contiguous_blocks(self):
        assert expert_placement(8, 4) == [0, 0, 1, 1, 2, 2, 3, 3]
        assert expert_placement(8, 1) == [0] * 8

    def test_matches_ep_engine_slicing(self):
        """Placement agrees with EPFFNEngine's contiguous slices of
        E/n experts per rank."""
        for n_experts, ep in ((8, 2), (8, 4), (4, 4)):
            local = n_experts // ep
            expected = [e // local for e in range(n_experts)]
            assert expert_placement(n_experts, ep) == expected

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError, match="divisible"):
            expert_placement(8, 3)

    def test_expert_moves(self):
        # 8 experts, 4 -> 2 ranks: blocks of 2 become blocks of 4;
        # only experts 0,1 keep their rank (0): the rest move.
        assert expert_moves(8, 4, 2) == [2, 3, 4, 5, 6, 7]
        assert expert_moves(8, 2, 2) == []

    def test_form_dp_rings(self):
        assert form_dp_rings(8, 2) == [[0, 4], [1, 5], [2, 6], [3, 7]]
        assert form_dp_rings(4, 1) == [[0], [1], [2], [3]]
        with pytest.raises(ValueError, match="divisible"):
            form_dp_rings(8, 3)


class TestReshardState:
    def trained_state(self):
        trainer = make_factory()(layout_at(4))
        trainer.train_step(make_batches(1)[0])
        return trainer.state_dict()

    def test_values_bitwise_preserved(self):
        state = self.trained_state()
        new_state, _ = reshard_state(state, layout_at(4), layout_at(2))
        assert sorted(new_state) == sorted(state)
        for key in state:
            assert np.asarray(new_state[key]).tobytes() == \
                np.asarray(state[key]).tobytes(), key

    def test_report_accounting(self):
        state = self.trained_state()
        _, report = reshard_state(state, layout_at(4), layout_at(2))
        numel = sum(np.asarray(v).size for k, v in state.items()
                    if k.startswith("opt/m/"))
        assert report.numel == numel
        # An SP x EP resize at dp = 1 moves no optimizer state.
        assert report.zero_elements_moved == 0
        assert report.zero_bytes == 0.0
        # One tuple of moved experts per MoE layer.
        assert len(report.experts_moved) == CONFIG.n_layers
        for layer in report.experts_moved:
            assert layer == tuple(expert_moves(CONFIG.n_experts, 4, 2))
        assert report.expert_bytes > 0
        assert report.total_bytes == \
            report.zero_bytes + report.expert_bytes
        assert report.seconds() == pytest.approx(
            report.total_bytes / 50e9)
        assert report.dp_rings == tuple(
            (r,) for r in range(2))  # world=2, dp=1: singleton rings

    def test_zero_priced_over_dp_degree(self):
        """The optimizer shards over the DP ranks, so a resize prices
        the moves between the old and new DP degree's grids; a dp=2
        trainer saves the keys and shapes a dp=1 trainer does."""
        zero, adam = dp_factory(dp_layout(2)), dp_factory(dp_layout(1))
        assert zero.optimizer.group.size == 2
        assert adam.optimizer.group is None
        for trainer in (zero, adam):
            trainer.train_step(make_batches(1)[0])
        zero_state = zero.state_dict()
        assert {k: v.shape for k, v in zero_state.items()} == \
            {k: v.shape for k, v in adam.state_dict().items()}
        _, report = reshard_state(zero_state, dp_layout(2), dp_layout(1))
        assert report.numel == 84640
        assert report.zero_elements_moved == \
            zero1_moved_elements(84640, 2, 1) == 84640 // 2
        # Main copy + both moments, in the saved float64.
        assert report.zero_bytes == 3.0 * 8.0 * 84640 // 2
        _, grow = reshard_state(zero_state, dp_layout(1), dp_layout(2))
        assert grow.zero_bytes == report.zero_bytes

    @pytest.mark.parametrize("old,new", [(4, 2), (2, 4)])
    def test_total_bytes_exact(self, old, new):
        """Reshard bytes are interval arithmetic on the shard grids plus
        the expert blocks: exact, and the same for shrink and grow.  At
        dp = 1 only the experts move: 2 layers x 6 experts x 4,608
        float64 weights."""
        state = self.trained_state()
        _, report = reshard_state(state, layout_at(old), layout_at(new))
        assert report.total_bytes == 442368.0 == 2 * 6 * 4608 * 8
        assert report.seconds() == pytest.approx(442368.0 / 50e9)

    def test_same_layout_moves_nothing(self):
        state = self.trained_state()
        _, report = reshard_state(state, layout_at(4), layout_at(4))
        assert report.zero_elements_moved == 0
        assert not any(report.experts_moved)
        assert report.total_bytes == 0.0


class TestFaultInjectorResize:
    def test_fires_once_per_step(self):
        injector = FaultInjector(resize_steps={2: layout_at(2)})
        injector.check(0)
        injector.check(1)
        with pytest.raises(ResizeEvent) as exc:
            injector.check(2)
        assert exc.value.step == 2
        assert exc.value.layout == layout_at(2)
        injector.check(2)  # replay proceeds
        assert injector.resized == [2]


class TestElasticRunner:
    """The production runner across resizes (checkpoint-reshard-resume)."""

    def test_shrink_then_grow_matches_fixed_size(self, tmp_path):
        """The acceptance scenario: shrink at N, grow at M, and the
        loss trajectory matches the fixed-size run to fp64 noise."""
        batches = make_batches(8)
        fixed = ProductionRunner(make_factory(), layout_at(4),
                                 str(tmp_path / "fixed"),
                                 checkpoint_interval=4)
        fixed_metrics = fixed.run(batches)

        elastic = ProductionRunner(make_factory(), layout_at(4),
                                   str(tmp_path / "elastic"),
                                   checkpoint_interval=4)
        metrics = elastic.run(
            batches, FaultInjector(resize_steps={3: layout_at(2),
                                                 6: layout_at(4)}))

        assert metrics.resizes == [3, 6]
        assert len(metrics.steps) == len(set(metrics.steps))  # no replay
        assert set(metrics.steps) == set(range(8))
        assert len(elastic.reshard_reports) == 2
        assert metrics.reshard_bytes == pytest.approx(sum(
            r.total_bytes for r in elastic.reshard_reports))
        assert metrics.reshard_seconds > 0

        fixed_final = dict(zip(fixed_metrics.steps,
                               fixed_metrics.losses))
        for step, loss in zip(metrics.steps, metrics.losses):
            assert loss == pytest.approx(fixed_final[step],
                                         rel=1e-12), step

    def test_data_parallel_resize_matches_fixed_size(self, tmp_path):
        """dp 2 -> 1 -> 2 on n=2 nodes: the trainer checkpoints its
        ZeRO-1 moments per parameter, the unsharded dp=1 trainer loads
        them as they are and the dp=2 one shards them again;
        the micro-batches are the same at every size, so the
        trajectory is the fixed dp=2 run's."""
        factory = dp_factory
        assert factory().optimizer.group.size == 2
        batches = make_batches(6)
        fixed = ProductionRunner(factory, dp_layout(2),
                                 str(tmp_path / "fixed"),
                                 checkpoint_interval=2).run(batches)
        elastic = ProductionRunner(factory, dp_layout(2),
                                   str(tmp_path / "elastic"),
                                   checkpoint_interval=2)
        metrics = elastic.run(
            batches, FaultInjector(resize_steps={2: dp_layout(1),
                                                 4: dp_layout(2)}))
        assert metrics.resizes == [2, 4]
        assert len(elastic.reshard_reports) == 2
        assert set(metrics.steps) == set(range(6))
        want = dict(zip(fixed.steps, fixed.losses))
        for step, loss in zip(metrics.steps, metrics.losses):
            assert loss == pytest.approx(want[step], rel=1e-12), step

    def test_resize_to_same_size_reshards_nothing(self, tmp_path):
        batches = make_batches(4)
        elastic = ProductionRunner(make_factory(), layout_at(4),
                                   str(tmp_path), checkpoint_interval=2)
        metrics = elastic.run(
            batches, FaultInjector(resize_steps={2: layout_at(4)}))
        assert metrics.resizes == [2]
        # Same layout on both sides: the load path sees no mismatch.
        assert elastic.reshard_reports == []
        assert set(metrics.steps) == set(range(4))


class TestLayoutMismatchRefusal:
    """The layout and model checks a checkpoint load makes."""

    def test_legacy_checkpoint_without_layout_loads(self, tmp_path):
        """v1 sidecars (no layout) opt out of the check."""
        factory = make_factory()
        writer = ProductionRunner(factory, layout_at(4),
                                  str(tmp_path), checkpoint_interval=2)
        writer.run(make_batches(4))
        # Strip the layout and config from the newest sidecar
        # (simulate v1).
        path = writer._path(4)
        meta = read_checkpoint_meta(path)
        del meta["layout"], meta["config"]
        with open(meta_path(path), "w") as handle:
            json.dump(meta, handle)

        reader = ProductionRunner(factory, layout_at(4),
                                  str(tmp_path), checkpoint_interval=2)
        metrics = reader.run(make_batches(6))
        assert metrics.steps[0] == 4  # resumed, no refusal


    def test_elastic_runner_refuses_another_model(self, tmp_path):
        """A layout change reshards, a model change does not: the
        config check runs first, before any array is read."""
        writer = ProductionRunner(make_factory(), layout_at(4),
                                  str(tmp_path), checkpoint_interval=2)
        writer.run(make_batches(4))

        def factory(layout):
            config = dataclasses.replace(CONFIG, n_experts=16)
            return MegaScaleTrainer(
                MoETransformer(config, seed=0, dtype=np.float64),
                World(layout.world_size, layout.world_size),
                ParallelConfig.megascale(layout.world_size),
                TrainConfig(global_batch_size=2, micro_batch_size=2,
                            seq_len=16))

        reader = ProductionRunner(factory, layout_at(2), str(tmp_path),
                                  checkpoint_interval=2)
        with pytest.raises(ConfigMismatch, match="n_experts=16"):
            reader.run(make_batches(6))
        assert reader.reshard_reports == []
        assert reader.discarded == []
        assert reader.checkpoint_steps() == [2, 4]


class TestCheckpointMetaLayout:
    def test_meta_records_layout_and_format(self, tmp_path):
        path = str(tmp_path / "step_00000002.npz")
        with open(path, "wb") as handle:
            np.savez(handle, w=np.ones(4))
        meta = write_checkpoint_meta(path, 2, layout=layout_at(4))
        assert meta["format"] == META_FORMAT_VERSION == 2
        assert meta["layout"] == layout_at(4).to_dict()
        assert read_checkpoint_meta(path)["layout"] == \
            layout_at(4).to_dict()

    def test_meta_accepts_plain_dict_layout(self, tmp_path):
        path = str(tmp_path / "step_00000002.npz")
        with open(path, "wb") as handle:
            np.savez(handle, w=np.ones(4))
        meta = write_checkpoint_meta(path, 2,
                                     layout={"world_size": 2})
        assert meta["layout"] == {"world_size": 2}


class TestCorruptedSidecars:
    """Satellite (d): corrupted/truncated meta sidecars."""

    def write_checkpoint(self, tmp_path, step=4):
        path = str(tmp_path / f"step_{step:08d}.npz")
        with open(path, "wb") as handle:
            np.savez(handle, w=np.ones(8))
        write_checkpoint_meta(path, step, layout=layout_at(4))
        return path

    def test_partial_json_reads_as_none(self, tmp_path):
        path = self.write_checkpoint(tmp_path)
        blob = open(meta_path(path)).read()
        with open(meta_path(path), "w") as handle:
            handle.write(blob[:len(blob) // 2])  # truncated write
        assert read_checkpoint_meta(path) is None

    def test_unparseable_sidecar_fails_validation(self, tmp_path):
        """Present-but-broken meta means provenance can't be trusted."""
        path = self.write_checkpoint(tmp_path)
        assert validate_checkpoint(path)
        with open(meta_path(path), "w") as handle:
            handle.write('{"format": 2, "step":')
        assert not validate_checkpoint(path)

    def test_non_dict_sidecar_fails_validation(self, tmp_path):
        path = self.write_checkpoint(tmp_path)
        with open(meta_path(path), "w") as handle:
            json.dump([1, 2, 3], handle)
        assert not validate_checkpoint(path)

    def test_sidecar_pointing_at_missing_archive(self, tmp_path):
        path = self.write_checkpoint(tmp_path)
        os.remove(path)
        assert os.path.exists(meta_path(path))
        assert not validate_checkpoint(path)

    def test_latest_walks_past_broken_meta(self, tmp_path):
        """An intact .npz whose sidecar is garbage is discarded and
        the chain walks back to the previous checkpoint."""
        runner = ProductionRunner(make_factory(), layout_at(4),
                                  str(tmp_path), checkpoint_interval=2)
        runner.run(make_batches(4))  # checkpoints at 2 and 4
        with open(meta_path(runner._path(4)), "w") as handle:
            handle.write("not json at all")

        fresh = ProductionRunner(make_factory(), layout_at(4),
                                 str(tmp_path), checkpoint_interval=2)
        assert fresh.latest_checkpoint() == 2
        assert fresh.discarded == [4]
        metrics = fresh.run(make_batches(6))
        assert metrics.steps[0] == 2


class TestSweepOnConstruction:
    def test_leftover_tmp_removed_at_startup(self, tmp_path):
        """Satellite (c): construction sweeps crashed-write leftovers
        without waiting for the next save."""
        leftovers = [tmp_path / "step_00000004.npz.tmp",
                     tmp_path / "step_00000004.npz.meta.json.tmp"]
        for p in leftovers:
            p.write_bytes(b"partial")
        ProductionRunner(make_factory(), layout_at(4), str(tmp_path))
        for p in leftovers:
            assert not p.exists()

    def test_restore_sweeps_too(self, tmp_path):
        runner = ProductionRunner(make_factory(), layout_at(4),
                                  str(tmp_path), checkpoint_interval=2)
        runner.run(make_batches(2))
        leftover = tmp_path / "step_00000009.npz.tmp"
        leftover.write_bytes(b"partial")
        runner._restore(make_factory()())
        assert not leftover.exists()


class TestBackoffJitter:
    """Satellite (b): deterministic seedable jitter."""

    def test_zero_jitter_is_bitwise_legacy(self):
        legacy = BackoffPolicy(max_retries=5, base_delay=0.5,
                               multiplier=2.0, max_delay=3.0)
        assert [legacy.delay(a) for a in range(4)] == \
            [0.5, 1.0, 2.0, 3.0]

    def test_jitter_is_deterministic_and_bounded(self):
        policy = BackoffPolicy(jitter=0.5, jitter_seed=42)
        for attempt in range(4):
            base = BackoffPolicy().delay(attempt)
            d1 = policy.delay(attempt)
            d2 = policy.delay(attempt)
            assert d1 == d2  # seeded draw, fully reproducible
            assert base * 0.5 <= d1 <= base

    def test_salt_decorrelates_ranks(self):
        policy = BackoffPolicy(jitter=0.5, jitter_seed=1)
        delays = {policy.delay(0, salt=rank) for rank in range(8)}
        assert len(delays) == 8  # no retry stampede in lockstep

    def test_seed_changes_schedule(self):
        a = BackoffPolicy(jitter=0.5, jitter_seed=1)
        b = BackoffPolicy(jitter=0.5, jitter_seed=2)
        assert a.delay(0) != b.delay(0)

    def test_jitter_validation(self):
        with pytest.raises(ValueError, match="jitter"):
            BackoffPolicy(jitter=1.5)
        with pytest.raises(ValueError, match="jitter"):
            BackoffPolicy(jitter=-0.1)


class TestVerifyCaseResize:
    def test_resize_field_validates(self):
        from repro.verify import VerifyCase

        case = VerifyCase(steps=3, resize=((1, 2), (2, 4)))
        assert case.resize == ((1, 2), (2, 4))
        assert "rz1x2" in case.case_id and "rz2x4" in case.case_id

    def test_resize_rejects_bad_schedules(self):
        from repro.verify import VerifyCase

        with pytest.raises(ValueError, match="outside"):
            VerifyCase(steps=2, resize=((2, 2),))
        with pytest.raises(ValueError, match="strictly increasing"):
            VerifyCase(steps=4, resize=((2, 2), (2, 4)))
        with pytest.raises(ValueError, match="invalid"):
            # 8 heads not divisible by 3 ranks.
            VerifyCase(steps=3, resize=((1, 3),))

    def test_elastic_matrix_covers_grid(self):
        from repro.verify.cases import elastic_matrix

        *sp_ep, dp_case = elastic_matrix()
        assert len(sp_ep) == 4
        assert all(c.resize == ((1, 2), (2, 4)) for c in sp_ep)
        assert {c.ep_dispatch for c in sp_ep} == {"a2a", "ag_rs"}
        assert {c.precision for c in sp_ep} == {"fp32", "fp8"}
        assert len({c.case_id for c in sp_ep}) == 4
        # The DP leg: 2 ranks per node, dp 2 -> 1 -> 2.
        assert (dp_case.ranks, dp_case.dp) == (2, 2)
        assert dp_case.resize_schedule() == [(1, 2, 1), (2, 2, 2)]
        assert dp_case.case_id.endswith("-dp2-rz1x2d1-rz2x2d2")

    def test_fuzzer_samples_resize_cases(self):
        from repro.verify.fuzz import sample_case

        rng = np.random.default_rng(0)
        cases = [sample_case(rng) for _ in range(60)]
        resized = [c for c in cases if c.resize]
        assert resized  # the space is actually explored
        for case in resized:
            step, target = case.resize[0]
            assert 1 <= step < case.steps
            assert target != case.ranks

    def test_shrinker_drops_resize_first(self):
        from repro.verify import VerifyCase
        from repro.verify.fuzz import _shrink_candidates

        case = VerifyCase(steps=3, resize=((1, 2),))
        first = next(_shrink_candidates(case))
        assert first.resize == ()

    def test_elastic_resume_invariant_passes(self):
        from repro.verify import VerifyCase, run_case

        case = VerifyCase(layers=1, steps=2, resize=((1, 2),))
        result = run_case(case)
        outcome = result.outcome("elastic_resume")
        assert outcome.status == "pass", outcome.detail

    def test_dp_resize_resumes_the_zero1_state(self):
        """dp 2 -> 1 -> 2: the ZeRO-1 moments leave through the
        checkpoint and come back; a resize that drops them is caught."""
        from repro.verify import VerifyCase, run_case

        case = VerifyCase(ranks=2, dp=2, layers=1, steps=3,
                          resize=((1, 2, 1), (2, 2, 2)))
        assert run_case(case).outcome("elastic_resume").status == "pass"

        load = AdamW.load_state_dict

        def drop_moments(self, state):
            load(self, state)
            self.m = [np.zeros_like(m) for m in self.m]
            self.v = [np.zeros_like(v) for v in self.v]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(AdamW, "load_state_dict", drop_moments)
            outcome = run_case(case).outcome("elastic_resume")
        assert outcome.status == "fail"

    def test_elastic_resume_skipped_without_resize(self):
        from repro.verify import VerifyCase, run_case

        result = run_case(VerifyCase(layers=1, steps=1))
        assert result.outcome("elastic_resume").status == "skip"


class TestElasticCli:
    def test_elastic_demo_exit_zero(self, capsys, tmp_path):
        from repro.__main__ import main as cli_main

        assert cli_main(["train", "4", "--resize",
                         "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "trajectory" in out
        assert "resize" in out

    def test_elastic_demo_rejects_bad_schedule(self, capsys,
                                               tmp_path):
        """Fewer than 3 steps leave no room for shrink < grow < end."""
        from repro.__main__ import main as cli_main

        assert cli_main(["train", "2", "--resize",
                         "--dir", str(tmp_path)]) == 2

    def test_rerun_on_finished_dir_has_nothing_to_do(self, capsys,
                                                     tmp_path):
        """A resized run rerun on its own checkpoint dir resumes at the
        end: it exits 0 and says so (it used to index an empty loss
        table and crash)."""
        from repro.__main__ import main as cli_main

        argv = ["train", "6", "--resize", "--dir", str(tmp_path)]
        assert cli_main(argv) == 0
        assert "resizes" in capsys.readouterr().out
        assert cli_main(argv) == 0
        assert "nothing to do" in capsys.readouterr().out
