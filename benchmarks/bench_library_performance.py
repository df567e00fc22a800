"""Microbenchmarks of the library itself (wall-clock, pytest-benchmark).

Unlike the table/figure benches (which regenerate *modelled* results),
these time the actual Python substrate: autograd step, MoE layer
forward/backward, simulated collectives, the event simulator, and a
full distributed trainer step.  They guard against performance
regressions in the reproduction itself.
"""

import numpy as np
import pytest

from repro.comm import World, all_gather, all_to_all_uneven
from repro.core.config import GPU_SPECS, MODEL_ZOO, ModelConfig, \
    ParallelConfig, TrainConfig
from repro.core.operators import build_backward_graph
from repro.core.schedule import HolisticScheduler, OverlapConfig
from repro.core.trainer import MegaScaleTrainer
from repro.data import MarkovCorpus, batch_iterator
from repro.model import MoETransformer
from repro.model.moe import MoELayer
from repro.perf.estimator import KernelModel
from repro.sim.engine import simulate
from repro.tensor import Tensor

CONFIG = ModelConfig("perf", n_layers=2, hidden_size=64, n_heads=8,
                     gqa_ratio=2, ffn_hidden_size=96, n_experts=8,
                     top_k=2, vocab_size=128, seq_len=32)


@pytest.mark.benchmark(group="library")
def test_perf_moe_layer_forward_backward(benchmark):
    rng = np.random.default_rng(0)
    moe = MoELayer(rng, 64, 96, 8, 2, dtype=np.float64)
    x = rng.standard_normal((4, 32, 64))

    def step():
        moe.zero_grad()
        xt = Tensor(x, requires_grad=True)
        out = moe(xt)
        (out.hidden.sum() + out.aux_loss).backward()
        return out.hidden.data

    result = benchmark(step)
    assert np.isfinite(result).all()


@pytest.mark.benchmark(group="library")
def test_perf_trainer_step(benchmark):
    model = MoETransformer(CONFIG, seed=0, dtype=np.float64)
    train = TrainConfig(global_batch_size=2, micro_batch_size=2,
                        seq_len=32, learning_rate=1e-3, weight_decay=0.0,
                        aux_loss_coeff=0.01)
    trainer = MegaScaleTrainer(
        model, World(4, 4), ParallelConfig.megascale(4), train)
    corpus = MarkovCorpus(vocab_size=128, seed=0)
    batch = next(batch_iterator(corpus, 2, 32))

    result = benchmark(lambda: trainer.train_step(batch).loss)
    assert np.isfinite(result)


@pytest.mark.benchmark(group="library")
def test_perf_collectives(benchmark):
    rng = np.random.default_rng(0)
    world = World(8, 8)
    g = world.full_group()
    shards = [rng.standard_normal((256, 64)) for _ in range(8)]
    splits = [[32] * 8 for _ in range(8)]

    def step():
        all_gather(g, shards)
        all_to_all_uneven(g, shards, splits)
        return world.ledger.total_bytes()

    assert benchmark(step) > 0


@pytest.mark.benchmark(group="library")
def test_perf_schedule_and_simulate(benchmark):
    graph = build_backward_graph(MODEL_ZOO["mixtral-8x7b"],
                                 ParallelConfig.megascale(8), 1)
    km = KernelModel(GPU_SPECS["h800"])
    durations = km.durations(graph)
    scheduler = HolisticScheduler(OverlapConfig.full())

    def step():
        return simulate(scheduler.schedule(graph, durations)).makespan

    assert benchmark(step) > 0
