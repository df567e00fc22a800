"""Tests for the hybrid 2D layout (model × data parallel, Fig. 4/5) of
the one trainer: ``n`` model-parallel ranks per node, ``dp`` replicas,
replicated parameters synced hierarchically (App. A.1)."""

import numpy as np
import pytest

from repro.comm import World
from repro.core.config import ModelConfig, ParallelConfig, TrainConfig
from repro.core.trainer import MegaScaleTrainer, is_replicated
from repro.data import MarkovCorpus, batch_iterator
from repro.model import MoETransformer
from conftest import eval_loss

CONFIG = ModelConfig("h2d", n_layers=2, hidden_size=32, n_heads=8,
                     gqa_ratio=2, ffn_hidden_size=48, n_experts=8,
                     top_k=2, vocab_size=64, seq_len=16)
TRAIN = TrainConfig(global_batch_size=4, micro_batch_size=2, seq_len=16,
                    learning_rate=1e-2, weight_decay=0.0,
                    aux_loss_coeff=0.01)


def make_batches(steps):
    """``steps`` batches of 4 rows: 2 per replica."""
    corpus = MarkovCorpus(vocab_size=64, seed=0)
    rows = list(batch_iterator(corpus, 2, 16, seed=1, limit=2 * steps))
    return [np.concatenate(rows[i:i + 2]) for i in range(0, 2 * steps, 2)]


def make_trainer(n=4, dp=2, world=None):
    model = MoETransformer(CONFIG, seed=0, dtype=np.float64)
    world = World(n * dp, ranks_per_node=n) if world is None else world
    return MegaScaleTrainer(
        model, world, ParallelConfig.megascale(n, data_parallel_size=dp),
        TRAIN)


def sync_bytes(world, leg):
    """Ledger bytes of the replicated-parameter sync's ``leg``."""
    return sum(b for tag, b in world.ledger.bytes_by_tag().items()
               if tag.startswith(f"dp_grad:{leg}_"))


class TestReplicationClassifier:
    def test_attention_and_norms_replicated(self):
        for name in ("blocks.0.attn.qkv_proj.weight", "blocks.1.ln1.weight",
                     "embedding", "lm_head.weight", "final_norm.weight"):
            assert is_replicated(name), name

    def test_experts_and_router_sharded(self):
        for name in ("blocks.0.moe.experts.3.fc1",
                     "blocks.1.moe.router.gate.weight"):
            assert not is_replicated(name), name


class TestHybrid2DTrainer:
    def test_matches_plain_dp_exactly(self):
        """n=4 model parallelism inside each replica changes nothing
        numerically against single-rank replicas."""
        batches = make_batches(3)
        hybrid = make_trainer()
        plain = make_trainer(n=1)
        h_losses = [hybrid.train_step(b).loss for b in batches]
        d_losses = [plain.train_step(b).loss for b in batches]
        np.testing.assert_allclose(h_losses, d_losses, atol=1e-12)

    def test_replicas_stay_identical(self, monkeypatch):
        """Every DP rank receives the same ZeRO-1 all-gather, and it is
        the one parameter copy that stands for all replicas."""
        from repro.comm import all_gather
        from repro.precision import optimizer

        gathered = []

        def capture(group, shards, tag):
            gathered.append(all_gather(group, shards, tag=tag))
            return gathered[-1]

        monkeypatch.setattr(optimizer, "all_gather", capture)
        trainer = make_trainer()
        for batch in make_batches(2):
            trainer.train_step(batch)
        assert [len(out) for out in gathered] == [2, 2]
        delivered = gathered[-1]
        numel = sum(p.size for p in trainer.params)
        for flat in delivered:
            np.testing.assert_array_equal(
                flat[:numel], np.concatenate(
                    [p.data.reshape(-1) for p in trainer.params]))

    def test_traffic_split_recorded(self):
        trainer = make_trainer()
        trainer.train_step(make_batches(1)[0])
        # Hierarchical sync produces both intra- and inter-node traffic.
        assert sync_bytes(trainer.world, "intra") > 0
        assert sync_bytes(trainer.world, "inter") > 0

    def test_intra_traffic_is_replicated_params_only(self):
        """Expert parameters never touch the intra-node sync path."""
        trainer = make_trainer()
        trainer.train_step(make_batches(1)[0])
        tags = trainer.world.ledger.bytes_by_tag()
        expert_tags = [t for t in tags if t.startswith("dp_grad:expert")]
        assert expert_tags
        assert all(":intra_" not in t for t in expert_tags)

    def test_world_shape_validation(self):
        with pytest.raises(ValueError, match="ranks_per_node"):
            make_trainer(world=World(8, ranks_per_node=2))

    def test_batch_count_validation(self):
        trainer = make_trainer()
        with pytest.raises(ValueError, match="data_parallel_size"):
            trainer.train_step(make_batches(1)[0][:3])

    def test_single_replica_degenerates_to_mp_only(self):
        trainer = make_trainer(dp=1)
        trainer.train_step(make_batches(1)[0])
        assert not any(t.startswith("dp_grad")
                       for t in trainer.world.ledger.bytes_by_tag())

    def test_eval_loss_runs(self):
        loss = eval_loss(make_trainer(), make_batches(1)[0])
        assert np.isfinite(loss)
