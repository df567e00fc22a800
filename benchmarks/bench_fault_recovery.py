"""Fault-recovery overhead and detection latency.

The paper's production story (§6.4, Fig. 19) is months-long runs that
survive hardware failures through checkpoint restarts.  This bench
quantifies the miniature fault-tolerance subsystem three ways:

1. Recovery overhead vs per-collective fault rate: the same batch
   schedule is trained under increasing probabilistic comm-fault rates
   (retry-with-backoff absorbing transients, checkpoint restarts
   catching the rest); reported per rate are extra step executions
   replayed, retries, restarts, simulated backoff, and the wall-clock
   delta over the fault-free run.
2. Straggler detection latency: a 4-rank world with one 2x-slow link
   must be flagged by the z-score detector within one rolling window
   of collectives.
3. Simulated timeline impact: makespan/exposed-comm of a small
   overlap schedule under a slow comm stream and a downtime window
   (repro.sim slowdowns + StreamFailure).
"""

import time

import numpy as np
import pytest

from conftest import report
from repro.comm import World, all_reduce
from repro.core.config import ModelConfig, ParallelConfig, TrainConfig
from repro.core.runner import ProductionRunner
from repro.core.trainer import MegaScaleTrainer
from repro.data import MarkovCorpus, batch_iterator
from repro.ft import (
    BackoffPolicy,
    FaultPlan,
    HealthMonitor,
    StragglerDetector,
)
from repro.model import MoETransformer
from repro.sim import SimTask, StreamFailure, simulate

CONFIG = ModelConfig("ft-bench", n_layers=1, hidden_size=16, n_heads=4,
                     gqa_ratio=2, ffn_hidden_size=24, n_experts=4,
                     top_k=2, vocab_size=32, seq_len=8)
STEPS = 24
FAULT_RATES = (0.0, 0.002, 0.01, 0.03)


def make_factory(plan):
    def factory():
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


def run_at_rate(rate, batches, tmp_dir):
    plan = FaultPlan(rate=rate, seed=5,
                     kinds=("timeout", "corrupt", "crash")) \
        if rate > 0 else None
    runner = ProductionRunner(
        make_factory(plan), tmp_dir, checkpoint_interval=6,
        max_restarts=200,
        retry_policy=BackoffPolicy(max_retries=3, base_delay=0.5))
    start = time.perf_counter()
    metrics = runner.run(batches)
    wall = time.perf_counter() - start
    assert set(metrics.steps) == set(range(len(batches)))
    return {
        "rate": rate,
        "steps": len(metrics.steps),
        "replayed": metrics.replayed_steps,
        "retries": metrics.retries,
        "restarts": metrics.restart_count,
        "backoff_s": metrics.backoff_seconds,
        "wall_s": wall,
    }


@pytest.mark.benchmark(group="fault-recovery")
def test_recovery_overhead_vs_fault_rate(benchmark, tmp_path):
    batches = make_batches(STEPS)

    def run_all():
        return [run_at_rate(r, batches, str(tmp_path / f"rate-{i}"))
                for i, r in enumerate(FAULT_RATES)]

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    baseline = results[0]
    rows = [
        [r["rate"], r["steps"], r["replayed"], r["retries"],
         r["restarts"], r["backoff_s"],
         r["wall_s"] - baseline["wall_s"]]
        for r in results
    ]
    report(
        "Fault recovery overhead vs per-collective fault rate",
        ["fault rate", "step execs", "replayed", "retries", "restarts",
         "backoff (s, sim)", "wall delta (s)"],
        rows,
        notes=f"{STEPS} batches, checkpoint interval 6, retry budget 3; "
              "timeouts/corruption absorbed by retry, rank crashes "
              "restart from the last checkpoint",
    )

    # Fault-free run replays nothing and never retries.
    assert baseline["replayed"] == 0
    assert baseline["retries"] == 0 and baseline["restarts"] == 0
    # Every faulted run completed all batches (asserted in run_at_rate)
    # and overhead is monotone-ish: the highest rate did the most
    # recovery work.
    worst = results[-1]
    assert worst["retries"] + worst["restarts"] > 0
    assert worst["steps"] >= baseline["steps"]


@pytest.mark.benchmark(group="fault-recovery")
def test_straggler_detection_latency(benchmark):
    def detect():
        world = World(4, 4)
        world.attach_fault_plan(FaultPlan(slow_ranks={2: 2.0}))
        monitor = HealthMonitor(
            straggler=StragglerDetector(window=8, z_threshold=1.5))
        world.attach_health_monitor(monitor)
        group = world.full_group()
        tensors = [np.ones(64) for _ in range(4)]
        latency = None
        for call in range(1, 17):
            all_reduce(group, tensors)
            if latency is None and monitor.flagged_stragglers():
                latency = call
        return latency, monitor.flagged_stragglers()

    latency, flagged = benchmark.pedantic(detect, rounds=1,
                                          iterations=1)
    report(
        "Straggler detection latency (4 ranks, one 2x-slow link)",
        ["window", "flagged rank", "collectives to flag"],
        [[8, flagged, latency]],
        notes="z-score over per-rank windowed mean relative durations",
    )
    assert flagged == [2]
    assert latency is not None and latency <= 8  # within one window


@pytest.mark.benchmark(group="fault-recovery")
def test_sim_timeline_under_faults(benchmark):
    def tasks():
        out = []
        prev = None
        for i in range(4):
            compute = SimTask(f"mlp{i}", 2.0, "compute",
                              deps=(prev,) if prev else ())
            a2a = SimTask(f"a2a{i}", 1.5, "comm", deps=(compute.name,),
                          is_comm=True)
            out += [compute, a2a]
            prev = compute.name
        return out

    def run_all():
        clean = simulate(tasks())
        slow = simulate(tasks(), slowdowns={"comm": 2.0})
        failed = simulate(
            tasks(),
            failures=[StreamFailure("comm", at=3.0, downtime=4.0)])
        return clean, slow, failed

    clean, slow, failed = benchmark.pedantic(run_all, rounds=1,
                                             iterations=1)
    report(
        "Simulated timeline under comm faults",
        ["scenario", "makespan (s)", "exposed comm (s)"],
        [["clean", clean.makespan, clean.exposed_comm],
         ["comm stream 2x slow", slow.makespan, slow.exposed_comm],
         ["comm down 4s at t=3", failed.makespan,
          failed.exposed_comm]],
        notes="4 pipelined mlp+all-to-all pairs on compute/comm streams",
    )
    assert slow.makespan > clean.makespan
    assert failed.makespan > clean.makespan
    assert slow.exposed_comm > clean.exposed_comm
