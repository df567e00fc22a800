"""Tests for DP gradient sync, compression (§5), and ZeRO accounting."""

import numpy as np
import pytest

from repro.comm import World
from repro.core.config import ParallelConfig, TrainConfig
from repro.core.trainer import MegaScaleTrainer
from repro.data import MarkovCorpus, batch_iterator
from repro.model import MoETransformer
from repro.parallel.zero import zero_memory_model
from repro.precision.compression import (
    GRAD_SYNC_METHODS,
    InPlaceCastBuffer,
    fp8_compressed_all_gather,
    fp8_compressed_reduce_scatter,
    sync_gradients,
)
from repro.precision.formats import round_bf16
from repro.precision.optimizer import AdamW, clip_grad_norm


class TestSyncGradients:
    def test_fp32_exact(self, rng, world4):
        g = world4.full_group()
        grads = [rng.standard_normal((5, 3)) for _ in range(4)]
        outs = sync_gradients(g, grads, method="fp32_rs")
        expected = np.mean(grads, axis=0)
        for out in outs:
            np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_bf16_a2a_single_rounding(self, rng, world4):
        """The compressed result equals mean(round_bf16(g_r)) computed in
        FP64 — exactly one rounding per rank, no repeated-accumulation
        error (the Fig. 10 design)."""
        g = world4.full_group()
        grads = [rng.standard_normal((8,)) for _ in range(4)]
        outs = sync_gradients(g, grads, method="bf16_a2a")
        exact_sum = np.mean([round_bf16(x) for x in grads], axis=0)
        # One more BF16 rounding happens on the reduced shard before the
        # final all-gather.
        expected = round_bf16(exact_sum * 4) / 4
        for out in outs:
            np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_bf16_a2a_close_to_fp32(self, rng, world4):
        g = world4.full_group()
        grads = [rng.standard_normal((64,)) for _ in range(4)]
        exact = sync_gradients(g, grads, method="fp32_rs")[0]
        compressed = sync_gradients(g, grads, method="bf16_a2a")[0]
        rel = np.abs(compressed - exact) / (np.abs(exact) + 1e-12)
        assert np.median(rel) < 2 ** -7

    def test_ring_bf16_worse_than_a2a(self, world4):
        """Repeated BF16 accumulation (ring) loses more precision than
        the single-rounding A2A design — the paper's §5 rationale."""
        rng = np.random.default_rng(0)
        errors = {"bf16_a2a": [], "bf16_ring_rs": []}
        for trial in range(30):
            grads = [rng.standard_normal((64,)) for _ in range(4)]
            exact = sync_gradients(world4.full_group(), grads,
                                   method="fp32_rs")[0]
            for method in errors:
                approx = sync_gradients(world4.full_group(), grads,
                                        method=method)[0]
                errors[method].append(np.abs(approx - exact).mean())
        assert np.mean(errors["bf16_a2a"]) <= \
            np.mean(errors["bf16_ring_rs"])

    def test_wire_bytes_halved(self, rng, world4):
        g = world4.full_group()
        grads = [rng.standard_normal((64,)) for _ in range(4)]
        world4.ledger.clear()
        sync_gradients(g, grads, method="fp32_rs")
        fp32_bytes = world4.ledger.total_bytes()
        world4.ledger.clear()
        sync_gradients(g, grads, method="bf16_a2a")
        bf16_bytes = world4.ledger.total_bytes()
        assert bf16_bytes == pytest.approx(fp32_bytes / 2.0)

    def test_padding_for_odd_sizes(self, rng, world4):
        g = world4.full_group()
        grads = [rng.standard_normal((7, 3)) for _ in range(4)]
        outs = sync_gradients(g, grads, method="fp32_rs")
        assert outs[0].shape == (7, 3)
        np.testing.assert_allclose(outs[0], np.mean(grads, axis=0))

    def test_sum_mode(self, rng, world4):
        g = world4.full_group()
        grads = [rng.standard_normal((4,)) for _ in range(4)]
        outs = sync_gradients(g, grads, method="fp32_rs", average=False)
        np.testing.assert_allclose(outs[0], np.sum(grads, axis=0))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("method", GRAD_SYNC_METHODS)
    def test_gradients_come_back_in_their_dtype(self, rng, world4,
                                                 method, dtype):
        """Only the cross-rank accumulator widens: a float32 model
        receives float32 gradients, at unchanged wire bytes."""
        g = world4.full_group()
        grads = [rng.standard_normal((7, 3)).astype(dtype)
                 for _ in range(4)]
        world4.ledger.clear()
        outs = sync_gradients(g, grads, method=method)
        narrow = world4.ledger.total_bytes()
        assert all(o.dtype == dtype and o.shape == (7, 3) for o in outs)
        world4.ledger.clear()
        wide = sync_gradients(g, [x.astype(np.float64) for x in grads],
                              method=method)
        assert world4.ledger.total_bytes() == narrow
        # the same reduction, rounded once to the gradient dtype
        np.testing.assert_allclose(outs[0], wide[0], rtol=1e-6, atol=1e-7)
        if method == "bf16_a2a":
            np.testing.assert_array_equal(outs[0], wide[0].astype(dtype))

    def test_unknown_method(self, rng, world4):
        with pytest.raises(ValueError, match="unknown method"):
            sync_gradients(world4.full_group(),
                           [np.zeros(4)] * 4, method="zfp")


class TestFP8Communication:
    def test_rs_close_to_exact(self, rng, world4):
        g = world4.full_group()
        tensors = [rng.standard_normal((8, 16)) for _ in range(4)]
        outs = fp8_compressed_reduce_scatter(g, tensors)
        exact = np.sum(tensors, axis=0)
        for j, out in enumerate(outs):
            ref = exact[j * 2:(j + 1) * 2]
            rel = np.abs(out - ref) / (np.abs(ref) + 1e-6)
            assert np.median(rel) < 0.1

    def test_rs_wire_bytes_are_fp8(self, rng, world4):
        g = world4.full_group()
        tensors = [rng.standard_normal((8, 16)) for _ in range(4)]
        world4.ledger.clear()
        fp8_compressed_reduce_scatter(g, tensors, tag="f8")
        rec = world4.ledger.records[-1]
        # Each rank sends 3 chunks of 2x16 elements at 1 byte each.
        assert rec.send_bytes_per_rank == [3 * 2 * 16 * 1.0] * 4

    def test_rs_reduction_in_fp32(self, rng, world4):
        """Summation happens after dequantization — adding n well-spread
        values must not saturate at the FP8 max."""
        g = world4.full_group()
        tensors = [np.full((4, 4), 300.0) for _ in range(4)]
        outs = fp8_compressed_reduce_scatter(g, tensors)
        assert outs[0].max() == pytest.approx(1200.0, rel=0.1)

    def test_rs_shape_validation(self, rng, world4):
        with pytest.raises(ValueError, match="not divisible"):
            fp8_compressed_reduce_scatter(
                world4.full_group(),
                [rng.standard_normal((6, 4))] * 4)

    def test_ag_roundtrip(self, rng, world4):
        g = world4.full_group()
        shards = [rng.standard_normal((32, 8)) for _ in range(4)]
        outs = fp8_compressed_all_gather(g, shards, group_size=16)
        full = np.concatenate(shards, axis=0)
        rel = np.abs(outs[0] - full) / (np.abs(full) + 1e-6)
        assert np.median(rel) < 0.1
        for out in outs[1:]:
            np.testing.assert_array_equal(out, outs[0])

    def test_ag_grouping_helps_drifting_gradients(self, rng, world4):
        g = world4.full_group()
        scale = (1.0 + np.arange(256) / 8.0)[:, None]
        shards = [rng.standard_normal((256, 4)) * scale for _ in range(4)]
        grouped = fp8_compressed_all_gather(g, shards, group_size=32)[0]
        ungrouped = fp8_compressed_all_gather(g, shards, group_size=0)[0]
        full = np.concatenate(shards, axis=0)
        assert np.abs(grouped - full)[:32].mean() < \
            np.abs(ungrouped - full)[:32].mean()


class TestInPlaceBuffer:
    def test_peak_halved(self):
        buf = InPlaceCastBuffer(fp32_bytes=1e9)
        assert buf.inplace_peak_bytes == 1e9
        assert buf.naive_peak_bytes == 2e9
        assert buf.savings_fraction == 0.5


class TestDataParallelTrainer:
    """Plain DP through the one trainer: single-rank replicas (n=1)."""

    def make(self, config, compress=False, aux=0.01, dtype=np.float64):
        model = MoETransformer(config, seed=0, dtype=dtype)
        train = TrainConfig(global_batch_size=2, micro_batch_size=1,
                            learning_rate=1e-2, weight_decay=0.0,
                            aux_loss_coeff=aux,
                            dp_comm_compression=compress)
        return MegaScaleTrainer(model, World(2, 1),
                                ParallelConfig(1, data_parallel_size=2),
                                train)

    def test_fp32_matches_large_batch(self, tiny_config):
        """DP with exact sync equals training on the concatenated batch
        (the gradients average identically)."""
        corpus = MarkovCorpus(vocab_size=64, seed=2)
        # aux=0: the balance loss is not linear in the batch split, so
        # only the LM loss admits the concatenated-batch identity.
        trainer = self.make(tiny_config, aux=0.0)
        big = np.concatenate(list(batch_iterator(corpus, 2, 16, limit=2)))

        ref_model = MoETransformer(tiny_config, seed=0, dtype=np.float64)
        ref_opt = AdamW(ref_model.parameters(), lr=1e-2)
        ref_model.zero_grad()
        # Average of per-batch losses == loss over concatenated batch
        # when batch sizes are equal.
        loss = ref_model.language_model_loss(big, aux_coeff=0.0)
        loss.backward()
        clip_grad_norm(ref_model.parameters(), 1.0)
        ref_opt.step()

        result = trainer.train_step(big)
        assert result.loss == pytest.approx(loss.item(), abs=1e-9)
        for (_, p_ref), (_, p_dp) in zip(ref_model.named_parameters(),
                                         trainer.model.named_parameters()):
            np.testing.assert_allclose(p_dp.data, p_ref.data, atol=1e-9)

    def test_compressed_close_to_exact(self, tiny_config):
        corpus = MarkovCorpus(vocab_size=64, seed=2)
        batches = list(batch_iterator(corpus, 2, 16, limit=6))
        losses = {}
        for compress in (False, True):
            trainer = self.make(tiny_config, compress=compress)
            losses[compress] = [
                trainer.train_step(np.concatenate(batches[i:i + 2])).loss
                for i in range(0, 6, 2)]
        # Fig. 17: the two loss curves are nearly identical.
        diff = np.abs(np.array(losses[False]) - np.array(losses[True]))
        assert diff.max() < 5e-3

    @pytest.mark.parametrize("compress", [False, True])
    def test_float32_model_stays_float32_through_the_update(
            self, tiny_config, rng, compress):
        """The DP sync used to cast every gradient to float64."""
        trainer = self.make(tiny_config, compress=compress,
                            dtype=np.float32)
        batch = rng.integers(0, 64, (2, 17))
        assert np.isfinite(trainer.train_step(batch).loss)
        opt = trainer.optimizer
        for p in trainer.params:
            assert p.data.dtype == np.float32
            assert p.grad is None or p.grad.dtype == np.float32
        for shard in opt.master_shards + opt.m_shards + opt.v_shards:
            assert shard.dtype == np.float32

    def test_batch_count_validation(self, tiny_config):
        trainer = self.make(tiny_config)
        with pytest.raises(ValueError, match="data_parallel_size"):
            trainer.train_step(np.zeros((3, 17), dtype=int))

    def test_sync_bytes_reported(self, tiny_config, rng):
        trainer = self.make(tiny_config)
        trainer.train_step(rng.integers(0, 64, (2, 17)))
        assert trainer.world.ledger.total_bytes(tag="dp_grad:inter_rs") > 0

    def test_compression_halves_inter_node_bytes(self, tiny_config, rng):
        """§5: the BF16 all-to-all moves 2-byte elements where the
        uncompressed float64 sync moves 8."""
        batch = rng.integers(0, 64, (2, 17))
        inter = {}
        for compress in (False, True):
            trainer = self.make(tiny_config, compress=compress)
            trainer.train_step(batch)
            inter[compress] = sum(
                b for tag, b in trainer.world.ledger.bytes_by_tag().items()
                if tag.startswith("dp_grad:inter_"))
        assert inter[True] == pytest.approx(inter[False] / 4)


class TestZeRO1Memory:
    def test_sharding_reduces_optimizer_only(self):
        base = zero_memory_model(1e9, dp_size=1, stage=1)
        sharded = zero_memory_model(1e9, dp_size=8, stage=1)
        assert sharded["params"] == base["params"]
        assert sharded["grads"] == base["grads"]
        assert sharded["optimizer"] == pytest.approx(
            base["optimizer"] / 8)

    def test_total_consistent(self):
        m = zero_memory_model(1e6, dp_size=4, stage=1)
        assert m["total"] == pytest.approx(
            m["params"] + m["grads"] + m["optimizer"])

    def test_validation(self):
        with pytest.raises(ValueError):
            zero_memory_model(1e6, dp_size=0, stage=1)
