"""Elastic resize cost: steps-to-recover and reshard bytes vs cold restart.

The paper's production runs (§6.4, Fig. 19) restart every time the
fleet changes; `repro.elastic` instead absorbs a resize via
checkpoint–reshard–resume.  This bench quantifies the trade two ways:

1. Steps-to-recover: the same batch schedule loses a node mid-run —
   once handled as a cold restart (fixed-size runner restores the last
   periodic checkpoint and replays), once as an elastic resize (the
   runner checkpoints at the event step, reshards, and resumes with
   zero replay).  Reported per scenario: replayed step executions,
   state bytes moved, and the modelled reshard time.
2. Reshard cost by layout pair: exact bytes whose rank ownership
   changes (ZeRO-1 shards across the old and new DP degree + expert
   re-placement) for SP×EP and DP shrink/grow/deep-shrink pairs on the
   demo model, plus the analytic ZeRO movement for the 352B production
   model at Table-3 DP degrees.
"""

import numpy as np
import pytest

from conftest import report
from repro.comm import World
from repro.core.config import (MODEL_ZOO, ModelConfig, ParallelConfig,
                               TrainConfig)
from repro.core.runner import FaultInjector, ProductionRunner
from repro.core.trainer import MegaScaleTrainer
from repro.elastic import (
    ElasticRunner,
    ParallelLayout,
    reshard_state,
    zero1_moved_elements,
)
from repro.model import MoETransformer

CONFIG = ModelConfig("elastic-bench", n_layers=2, hidden_size=32,
                     n_heads=8, gqa_ratio=2, ffn_hidden_size=48,
                     n_experts=8, top_k=2, vocab_size=64, seq_len=16)
STEPS = 12
CHECKPOINT_INTERVAL = 4
EVENT_STEP = 6  # between checkpoints: a cold restart must replay


def layout_at(n, dp=1):
    return ParallelLayout.from_parallel_config(
        ParallelConfig.megascale(n, data_parallel_size=dp))


def make_factory():
    train = TrainConfig(global_batch_size=2, micro_batch_size=2,
                        seq_len=16, learning_rate=1e-2, weight_decay=0.0,
                        aux_loss_coeff=0.01)

    def factory(layout=layout_at(4)):
        n = layout.world_size
        model = MoETransformer(CONFIG, seed=0, dtype=np.float64)
        return MegaScaleTrainer(
            model, World(n, n), ParallelConfig.megascale(n), train)

    return factory


def make_batches(n):
    rng = np.random.default_rng(0)
    return [rng.integers(0, 64, size=(2, 17)) for _ in range(n)]


@pytest.mark.benchmark(group="elastic-resize")
def test_resize_vs_cold_restart(benchmark, tmp_path):
    batches = make_batches(STEPS)
    factory = make_factory()

    def run_both():
        cold = ProductionRunner(
            factory, str(tmp_path / "cold"),
            checkpoint_interval=CHECKPOINT_INTERVAL)
        cold_metrics = cold.run(batches,
                                FaultInjector(fault_steps=[EVENT_STEP]))

        elastic = ElasticRunner(
            factory, layout_at(4), str(tmp_path / "elastic"),
            checkpoint_interval=CHECKPOINT_INTERVAL)
        elastic_metrics = elastic.run(
            batches,
            FaultInjector(resize_steps={EVENT_STEP: layout_at(2)}))
        return cold_metrics, elastic_metrics, elastic

    cold_metrics, elastic_metrics, elastic = benchmark.pedantic(
        run_both, rounds=1, iterations=1)

    report(
        "Mid-run node loss: cold restart vs elastic resize "
        f"(event at step {EVENT_STEP}, interval "
        f"{CHECKPOINT_INTERVAL})",
        ["scenario", "step execs", "replayed", "restarts/resizes",
         "bytes moved (KiB)", "modelled reshard (us)"],
        [["cold restart (fixed 4 ranks)", len(cold_metrics.steps),
          cold_metrics.replayed_steps, cold_metrics.restart_count,
          0.0, 0.0],
         ["elastic resize (4 -> 2 ranks)", len(elastic_metrics.steps),
          elastic_metrics.replayed_steps, len(elastic_metrics.resizes),
          elastic_metrics.reshard_bytes / 1024,
          elastic_metrics.reshard_seconds * 1e6]],
        notes="cold restart replays every step since the last periodic "
              "checkpoint; the elastic runner checkpoints at the event "
              "step and replays nothing",
    )

    # Both strategies finish all batches.
    assert set(cold_metrics.steps) == set(range(STEPS))
    assert set(elastic_metrics.steps) == set(range(STEPS))
    # The cold restart replays EVENT_STEP - last_checkpoint steps; the
    # elastic path replays nothing but pays reshard bytes.
    assert cold_metrics.replayed_steps == \
        EVENT_STEP - (EVENT_STEP // CHECKPOINT_INTERVAL
                      * CHECKPOINT_INTERVAL)
    assert elastic_metrics.replayed_steps == 0
    assert elastic_metrics.reshard_bytes > 0
    assert len(elastic.reshard_reports) == 1


@pytest.mark.benchmark(group="elastic-resize")
def test_reshard_cost_by_layout_pair(benchmark):
    factory = make_factory()
    # (ranks per node, dp) pairs.  The saved state does not depend on
    # the DP degree, so one dp=1 checkpoint prices every pair.
    pairs = [((4, 1), (2, 1)), ((2, 1), (4, 1)), ((4, 2), (4, 1)),
             ((4, 1), (4, 2)), ((4, 4), (4, 1))]

    def measure():
        trainer = factory(layout_at(4))
        trainer.train_step(make_batches(1)[0])
        state = trainer.state_dict()
        rows = []
        for old, new in pairs:
            _, rep = reshard_state(state, layout_at(*old),
                                   layout_at(*new))
            rows.append([f"n{old[0]} dp{old[1]} -> n{new[0]} dp{new[1]}",
                         rep.zero_elements_moved,
                         rep.n_experts_moved,
                         rep.total_bytes / 1024,
                         rep.seconds() * 1e6])
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    report(
        "Reshard cost by layout pair (demo model, exact accounting)",
        ["old -> new layout", "zero1 elems moved", "experts moved",
         "bytes moved (KiB)", "modelled (us)"],
        rows,
        notes="ZeRO-1 movement is interval arithmetic on the old and "
              "new DP degree's shard grids; expert movement follows the "
              "contiguous-block EP placement",
    )
    # An SP x EP resize keeps dp: no optimizer state changes owner.
    assert rows[0][1] == rows[1][1] == 0
    # Shrink and grow between the same DP pair move the same elements.
    assert rows[2][1] == rows[3][1] > 0
    # A deeper shrink moves at least as much as the shallow one.
    assert rows[4][1] >= rows[2][1]

    # Analytic scale-up: the 352B model's optimizer space across the
    # Table-3 DP degrees (elements whose ZeRO-1 owner changes).
    big = MODEL_ZOO["internal-352b"].total_params
    scale_rows = [
        [f"dp{a} -> dp{b}",
         zero1_moved_elements(int(big), a, b),
         zero1_moved_elements(int(big), a, b) * 12.0 / 1024 ** 3]
        for a, b in ((6, 4), (4, 6), (12, 6))
    ]
    report(
        "Analytic ZeRO-1 movement, internal-352b optimizer space",
        ["dp change", "elements moved", "GiB moved (master+m+v)"],
        scale_rows,
        notes="Table-3 DP degrees; FP32 master copy and two moments, "
              "12 B per element",
    )
    for _, moved, _ in scale_rows:
        assert moved > 0
