"""Tests for DP gradient sync, compression (§5), and ZeRO accounting."""

import numpy as np
import pytest

from repro.comm import World
from repro.comm.collectives import rank_ordered_sum
from repro.comm.hierarchical import flat_sync
from repro.core import MODEL_ZOO
from repro.core.analysis import param_memory_per_gpu
from repro.core.config import ParallelConfig, TrainConfig
from repro.core.trainer import MegaScaleTrainer
from repro.data import MarkovCorpus, batch_iterator
from repro.model import MoETransformer
from repro.parallel.dist_ops_fp8 import (
    dist_all_gather_fp8,
    dist_reduce_scatter_fp8,
)
from repro.precision.formats import round_bf16
from repro.precision.optimizer import AdamW, clip_grad_norm
from repro.precision.quantize import (
    dequantize,
    quantize_grouped,
    quantize_per_channel,
)
from repro.tensor import Tensor


def dp_sync(grads, compress, world=None):
    """Sum one gradient per rank across a DP group of ``len(grads)``
    single-rank nodes; ``compress`` runs §5's BF16 all-to-all."""
    world = world or World(len(grads), 1)
    return flat_sync(world, grads, tag="dp", compress=compress)


def ring_bf16_sum(grads):
    """The rejected design: a ring reduce that rounds the partial sum
    to BF16 at every hop."""
    acc = round_bf16(grads[0]).astype(np.float64)
    for g in grads[1:]:
        acc = round_bf16(acc + round_bf16(g)).astype(np.float64)
    return acc


class TestSyncGradients:
    def test_fp32_exact(self, rng):
        grads = [rng.standard_normal((5, 3)) for _ in range(4)]
        for out in dp_sync(grads, compress=False):
            np.testing.assert_array_equal(out, rank_ordered_sum(grads))

    def test_bf16_a2a_single_rounding(self, rng):
        """The compressed result is the FP64 sum of round_bf16(g_r) —
        exactly one rounding per rank, no repeated-accumulation error
        (the Fig. 10 design) — rounded once more to BF16 for the final
        all-gather."""
        grads = [rng.standard_normal((8,)) for _ in range(4)]
        expected = round_bf16(rank_ordered_sum(round_bf16(x)
                                               for x in grads))
        for out in dp_sync(grads, compress=True):
            np.testing.assert_array_equal(out, expected)

    def test_bf16_a2a_close_to_fp32(self, rng):
        grads = [rng.standard_normal((64,)) for _ in range(4)]
        exact = rank_ordered_sum(grads)
        compressed = dp_sync(grads, compress=True)[0]
        rel = np.abs(compressed - exact) / (np.abs(exact) + 1e-12)
        assert np.median(rel) < 2 ** -7

    def test_ring_bf16_worse_than_a2a(self):
        """Repeated BF16 accumulation (ring) loses more precision than
        the single-rounding A2A design — the paper's §5 rationale."""
        rng = np.random.default_rng(0)
        errors = {"a2a": [], "ring": []}
        for trial in range(30):
            grads = [rng.standard_normal((64,)) for _ in range(4)]
            exact = rank_ordered_sum(grads)
            errors["a2a"].append(
                np.abs(dp_sync(grads, compress=True)[0] - exact).mean())
            errors["ring"].append(np.abs(ring_bf16_sum(grads)
                                         - exact).mean())
        assert np.mean(errors["a2a"]) <= np.mean(errors["ring"])

    def test_wire_bytes_halved(self, rng):
        grads = [rng.standard_normal((64,)).astype(np.float32)
                 for _ in range(4)]
        totals = {}
        for compress in (False, True):
            world = World(4, 1)
            dp_sync(grads, compress, world)
            totals[compress] = world.ledger.total_bytes()
        assert totals[True] == totals[False] / 2.0

    def test_padding_for_odd_sizes(self, rng):
        grads = [rng.standard_normal((7, 3)) for _ in range(4)]
        for compress in (False, True):
            outs = dp_sync(grads, compress)
            assert outs[0].shape == (7, 3)
            np.testing.assert_allclose(outs[0], rank_ordered_sum(grads),
                                       rtol=2 ** -7, atol=1e-2)

    def test_sum_mode(self, rng):
        """The sync sums; averaging is the trainer's one multiply."""
        grads = [rng.standard_normal((4,)) for _ in range(4)]
        np.testing.assert_allclose(dp_sync(grads, compress=False)[0],
                                   np.sum(grads, axis=0))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("method", ["fp32_rs", "bf16_a2a"])
    def test_gradients_come_back_in_their_dtype(self, rng, method, dtype):
        """Only the cross-rank accumulator widens: a float32 model
        receives float32 gradients.  The BF16 wire is two bytes per
        element whatever the gradient dtype."""
        compress = method == "bf16_a2a"
        grads = [rng.standard_normal((7, 3)).astype(dtype)
                 for _ in range(4)]
        narrow_world, wide_world = World(4, 1), World(4, 1)
        outs = dp_sync(grads, compress, narrow_world)
        assert all(o.dtype == dtype and o.shape == (7, 3) for o in outs)
        wide = dp_sync([x.astype(np.float64) for x in grads], compress,
                       wide_world)
        # the same reduction, rounded once to the gradient dtype
        np.testing.assert_allclose(outs[0], wide[0], rtol=1e-6, atol=1e-7)
        if compress:
            assert (narrow_world.ledger.total_bytes()
                    == wide_world.ledger.total_bytes())
            np.testing.assert_array_equal(outs[0], wide[0].astype(dtype))


class TestFP8Communication:
    def test_rs_close_to_exact(self, rng, world4):
        tensors = [Tensor(rng.standard_normal((8, 16))) for _ in range(4)]
        outs = dist_reduce_scatter_fp8(world4.full_group(), tensors)
        exact = np.sum([t.data for t in tensors], axis=0)
        for j, out in enumerate(outs):
            ref = exact[j * 2:(j + 1) * 2]
            rel = np.abs(out.data - ref) / (np.abs(ref) + 1e-6)
            assert np.median(rel) < 0.1

    def test_rs_wire_bytes_are_fp8(self, rng, world4):
        tensors = [Tensor(rng.standard_normal((8, 16))) for _ in range(4)]
        dist_reduce_scatter_fp8(world4.full_group(), tensors, tag="f8")
        rec = world4.ledger.records[-1]
        # Each rank sends 3 chunks of 2x16 one-byte codes, plus the two
        # rows' FP32 scales.
        assert rec.send_bytes_per_rank == [3 * (2 * 16 + 2 * 4)] * 4

    def test_rs_reduction_in_fp32(self, world4):
        """Summation happens after decoding — adding n well-spread
        values must not saturate at the FP8 max."""
        tensors = [Tensor(np.full((4, 4), 300.0)) for _ in range(4)]
        outs = dist_reduce_scatter_fp8(world4.full_group(), tensors)
        assert outs[0].data.max() == pytest.approx(1200.0, rel=0.1)

    def test_rs_shape_validation(self, rng, world4):
        with pytest.raises(ValueError, match="not divisible"):
            dist_reduce_scatter_fp8(
                world4.full_group(),
                [Tensor(rng.standard_normal((6, 4)))] * 4)

    def test_ag_roundtrip(self, rng, world4):
        shards = [Tensor(rng.standard_normal((32, 8))) for _ in range(4)]
        outs = dist_all_gather_fp8(world4.full_group(), shards)
        full = np.concatenate([s.data for s in shards], axis=0)
        rel = np.abs(outs[0].data - full) / (np.abs(full) + 1e-6)
        assert np.median(rel) < 0.1
        for out in outs[1:]:
            np.testing.assert_array_equal(out.data, outs[0].data)

    def test_ag_grouping_helps_drifting_gradients(self, rng):
        """The backward quantization groups channels along tokens."""
        scale = (1.0 + np.arange(256) / 8.0)[:, None]
        grad = rng.standard_normal((256, 4)) * scale
        grouped = dequantize(quantize_grouped(grad, 32))
        ungrouped = dequantize(quantize_per_channel(grad))
        assert np.abs(grouped - grad)[:32].mean() < \
            np.abs(ungrouped - grad)[:32].mean()


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
        for state in opt.m + opt.v:
            assert state.dtype == np.float32

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


    def test_zero1_reads_the_synced_gradient(self, tiny_config, rng):
        """ZeRO-1 slices its shard of the gradient the DP sync already
        averaged: no second reduce-scatter on the wire."""
        model = MoETransformer(tiny_config, seed=0, dtype=np.float32)
        trainer = MegaScaleTrainer(
            model, World(2, 1),
            ParallelConfig(1, data_parallel_size=2),
            TrainConfig(global_batch_size=2, micro_batch_size=1))
        assert trainer.optimizer.group.size == 2
        trainer.train_step(rng.integers(0, 64, (2, 17)))
        by_tag = trainer.world.ledger.bytes_by_tag()
        assert "zero1:rs" not in by_tag
        assert by_tag["zero1:ag"] > 0


class TestZeRO1Memory:
    """ZeRO-1 in the planner's memory model (§2.2)."""

    @staticmethod
    def memory(dp):
        return param_memory_per_gpu(
            MODEL_ZOO["mixtral-8x7b"],
            ParallelConfig.megascale(8, data_parallel_size=dp))

    def test_sharding_reduces_optimizer_only(self):
        base, sharded = self.memory(1), self.memory(8)
        assert sharded["params"] == base["params"]
        assert sharded["grads"] == base["grads"]
        assert sharded["optimizer"] == pytest.approx(
            base["optimizer"] / 8)

    def test_total_consistent(self):
        m = self.memory(4)
        assert m["total"] == pytest.approx(
            m["params"] + m["grads"] + m["optimizer"])

    def test_validation(self):
        with pytest.raises(ValueError, match="data_parallel_size"):
            self.memory(0)
