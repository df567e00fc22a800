"""Tests for FP8-compressed collectives and their engine integration
(§5, 'Communication compression for FP8 training')."""

import numpy as np
import pytest

from conftest import clear_ledger, ffn_half, forward_bytes
from repro.comm import World
from repro.core import MegaScaleTrainer, ModelConfig, ParallelConfig, \
    TrainConfig
from repro.data import MarkovCorpus, batch_iterator
from repro.ft import FaultPlan, FaultSpec, RankCrash
from repro.model import MoETransformer
from repro.model.moe import MoELayer
from repro.parallel.dist_ops_fp8 import (
    dist_all_gather_fp8,
    dist_reduce_scatter_fp8,
)
from repro.parallel.ep_ffn import EPFFNEngine
from repro.parallel.tp_ffn import TPFFNEngine
from repro.tensor import Tensor


def leaf_shards(rng, n, shape):
    return [Tensor(rng.standard_normal(shape), requires_grad=True)
            for _ in range(n)]


class TestDistReduceScatterFP8:
    def test_close_to_exact_sum(self, rng, world4):
        g = world4.full_group()
        tensors = leaf_shards(rng, 4, (8, 16))
        outs = dist_reduce_scatter_fp8(g, tensors)
        exact = np.sum([t.data for t in tensors], axis=0)
        for j, out in enumerate(outs):
            ref = exact[j * 2:(j + 1) * 2]
            rel = np.abs(out.data - ref) / (np.abs(ref) + 1e-6)
            assert np.median(rel) < 0.1

    def test_reduction_in_high_precision(self, rng, world4):
        """Summing n near-max values must not saturate: the reduction
        happens after dequantization (§5)."""
        g = world4.full_group()
        tensors = [Tensor(np.full((4, 4), 300.0)) for _ in range(4)]
        outs = dist_reduce_scatter_fp8(g, tensors)
        assert outs[0].data.max() == pytest.approx(1200.0, rel=0.1)

    def test_wire_bytes_fp8(self, rng, world4):
        g = world4.full_group()
        tensors = leaf_shards(rng, 4, (8, 16))
        clear_ledger(world4.ledger)
        dist_reduce_scatter_fp8(g, tensors, tag="x")
        fwd = world4.ledger.total_bytes(tag="x")
        # 3 off-diagonal chunks of 2x16 at 1B + 2 rows x 4B scales each.
        expected_per_rank = 3 * (2 * 16 * 1.0 + 2 * 4.0)
        assert fwd == pytest.approx(4 * expected_per_rank)

    def test_backward_flows_with_quantization(self, rng, world4):
        g = world4.full_group()
        tensors = leaf_shards(rng, 4, (8, 4))
        outs = dist_reduce_scatter_fp8(g, tensors)
        total = outs[0].sum()
        for out in outs[1:]:
            total = total + out.sum()
        total.backward()
        for t in tensors:
            assert t.grad is not None
            # Gradient of a sum is ~ones; FP8 represents 1.0 exactly.
            np.testing.assert_allclose(t.grad, 1.0, rtol=1e-6)

    def test_validation(self, rng, world4):
        g = world4.full_group()
        with pytest.raises(ValueError, match="not divisible"):
            dist_reduce_scatter_fp8(g, leaf_shards(rng, 4, (7, 4)))


class TestDistAllGatherFP8:
    def test_forward_close(self, rng, world4):
        g = world4.full_group()
        shards = leaf_shards(rng, 4, (4, 8))
        outs = dist_all_gather_fp8(g, shards)
        full = np.concatenate([s.data for s in shards], axis=0)
        rel = np.abs(outs[0].data - full) / (np.abs(full) + 1e-6)
        assert np.median(rel) < 0.1

    def test_backward_reduces_to_sources(self, rng, world4):
        g = world4.full_group()
        shards = leaf_shards(rng, 4, (4, 8))
        outs = dist_all_gather_fp8(g, shards)
        total = None
        for out in outs:
            piece = out.sum()
            total = piece if total is None else total + piece
        total.backward()
        for s in shards:
            # Each shard's grad accumulates n copies of ~1.0.
            np.testing.assert_allclose(s.grad, 4.0, rtol=0.1)

    def test_ledger_counts_scales(self, rng, world4):
        g = world4.full_group()
        shards = leaf_shards(rng, 4, (4, 8))
        clear_ledger(world4.ledger)
        dist_all_gather_fp8(g, shards, tag="y")
        per_rank = (4 * 8 * 1.0 + 4 * 4.0) * 3  # payload + scales, n-1
        assert world4.ledger.total_bytes(tag="y") == \
            pytest.approx(4 * per_rank)


class TestEngineIntegration:
    def setup_engine(self, Engine, fp8, rng, **kwargs):
        moe = MoELayer(rng, 16, 24, 8, 2, dtype=np.float64)
        world = World(4, 4)
        engine = Engine(world.full_group(), moe, fp8_comm=fp8, **kwargs)
        return moe, world, engine

    @pytest.mark.parametrize("Engine,kwargs", [
        (EPFFNEngine, {"mode": "ag_rs"}),
        (TPFFNEngine, {}),
    ])
    def test_compressed_output_close(self, Engine, kwargs):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 8, 16))
        moe_ref = MoELayer(np.random.default_rng(1), 16, 24, 8, 2,
                           dtype=np.float64)
        ref = moe_ref(Tensor(x)).hidden.data

        moe, world, engine = self.setup_engine(
            Engine, True, np.random.default_rng(1), **kwargs)
        shards = [Tensor(x[:, r * 2:(r + 1) * 2].copy())
                  for r in range(4)]
        outs, _ = ffn_half(engine, shards)
        full = np.concatenate([o.data for o in outs], axis=1)
        rel = np.abs(full - ref) / (np.abs(ref) + 1e-3)
        assert np.median(rel) < 0.15

    def test_fp8_halves_forward_bytes_vs_bf16(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 8, 16))
        totals = {}
        for fp8 in (False, True):
            moe, world, engine = self.setup_engine(
                TPFFNEngine, fp8, np.random.default_rng(3))
            shards = [Tensor(x[:, r * 2:(r + 1) * 2].copy())
                      for r in range(4)]
            ffn_half(engine, shards)
            totals[fp8] = forward_bytes(world)
        # FP8 payload is half of BF16 plus per-token FP32 scales; the
        # uncompressed wire moves the float64 activations.
        bf16 = totals[False] * 2 / x.itemsize
        assert totals[True] < 0.75 * bf16


class _WirePlan(FaultPlan):
    """A fault plan that also logs every collective's tag and the
    dtypes of the buffers a corruption hits."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.tags = []
        self.hit_dtypes = set()

    def before(self, op, tag):
        self.tags.append(tag)
        super().before(op, tag)

    def corrupt(self, op, tag, arrays):
        hit = super().corrupt(op, tag, arrays)
        if hit:
            self.hit_dtypes.update(a.dtype for a in arrays)
        return hit


class TestFP8FaultInjection:
    """FP8 collectives go through the fault hooks like every other."""

    TAG = "ep_ffn:dispatch_ag"

    def run(self, plan=None):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 8, 16))
        moe, world, engine = TestEngineIntegration().setup_engine(
            EPFFNEngine, True, np.random.default_rng(1), mode="ag_rs")
        if plan is not None:
            world.attach_fault_plan(plan)
        shards = [Tensor(x[:, r * 2:(r + 1) * 2].copy())
                  for r in range(4)]
        return ffn_half(engine, shards)[0]

    def call_index(self):
        probe = _WirePlan()
        self.run(probe)
        return probe.tags.index(self.TAG)

    def test_crash_fires_at_the_fp8_dispatch(self):
        plan = FaultPlan([FaultSpec("crash", self.call_index())])
        with pytest.raises(RankCrash):
            self.run(plan)
        assert [e.tag for e in plan.fired] == [self.TAG]

    def test_corruption_flips_a_bit_of_the_uint8_payload(self):
        plan = _WirePlan([FaultSpec("corrupt", self.call_index())],
                         verify_checksums=False)
        corrupted = self.run(plan)
        assert plan.hit_dtypes == {np.dtype(np.uint8)}
        clean = self.run()
        assert not all(np.array_equal(a.data, b.data)
                       for a, b in zip(corrupted, clean))


class TestFP8TrainerEndToEnd:
    def test_training_converges_with_compression(self):
        config = ModelConfig("fp8comm", 2, 32, 8, 2, 48, 8, 6,
                             vocab_size=64, seq_len=16)  # top-6: AG/RS
        model = MoETransformer(config, seed=0, dtype=np.float64)
        train = TrainConfig(global_batch_size=4, micro_batch_size=4,
                            seq_len=16, learning_rate=3e-3,
                            weight_decay=0.0, aux_loss_coeff=0.01,
                            precision="fp8")
        trainer = MegaScaleTrainer(
            model, World(4, 4), ParallelConfig.megascale(4), train)
        assert trainer.engines[0].ffn_engine.fp8_comm
        corpus = MarkovCorpus(vocab_size=64, seed=0)
        losses = [trainer.train_step(b).lm_loss
                  for b in batch_iterator(corpus, 4, 16, seed=1,
                                          limit=10)]
        assert losses[-1] < losses[0]
        assert np.isfinite(losses).all()

    def test_compressed_curve_tracks_uncompressed(self):
        config = ModelConfig("fp8comm2", 2, 32, 8, 2, 48, 8, 6,
                             vocab_size=64, seq_len=16)
        curves = {}
        for precision in ("bf16", "fp8"):
            model = MoETransformer(config, seed=0, dtype=np.float64)
            train = TrainConfig(global_batch_size=4, micro_batch_size=4,
                                seq_len=16, learning_rate=3e-3,
                                weight_decay=0.0, aux_loss_coeff=0.01,
                                precision=precision)
            trainer = MegaScaleTrainer(
                model, World(4, 4), ParallelConfig.megascale(4), train)
            corpus = MarkovCorpus(vocab_size=64, seed=0)
            curves[precision] = np.array([
                trainer.train_step(b).lm_loss
                for b in batch_iterator(corpus, 4, 16, seed=1, limit=8)])
        rel = np.abs(curves["bf16"] - curves["fp8"]) / curves["bf16"]
        assert rel.mean() < 0.05
