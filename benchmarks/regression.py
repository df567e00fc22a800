#!/usr/bin/env python
"""Benchmark-regression harness: normalized metrics vs a committed baseline.

Collects a curated set of *deterministic* performance numbers — the
analytic perf model, the discrete-event overlap simulator, and the
fixed-seed byte ledger of a real traced training run — normalizes them
into ``BENCH_PR<N>.json``, and compares against the newest baseline
committed under ``benchmarks/baselines/``.  Every metric is
machine-independent (closed forms, simulated clocks, exact byte
accounting — never wall time), so a >tolerance delta is a real change
in modelled behaviour, not runner noise, and CI can fail on it.

Usage::

    PYTHONPATH=src python benchmarks/regression.py --smoke
    PYTHONPATH=src python benchmarks/regression.py --update --pr 3

``--smoke`` shrinks the traced-run portion for PR CI; the analytic and
simulated metrics are identical in both modes.  ``--update`` writes the
collected numbers as the new committed baseline (do this once per PR,
and commit the file).  Exit codes: 0 ok, 1 regression (or failed comm
audit), 2 usage error.
"""

import argparse
import glob
import json
import os
import re
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.join(_ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(_ROOT, "src"))

BASELINE_DIR = os.path.join(_ROOT, "benchmarks", "baselines")

#: Metrics where a larger value is an improvement; everything else
#: regresses when it grows.
HIGHER_IS_BETTER = {"perf.mfu", "serve.throughput_tokens_per_s",
                    "plan.schedule_layer_gain"}

#: Per-metric relative tolerance overrides (default: --tolerance).
TOLERANCES = {
    # Exact byte accounting: any drift is a real comm-volume change.
    "comm.fwd_bytes_per_layer_pass": 0.001,
    "comm.total_bytes": 0.001,
    # Enumeration counts are exact integers: any drift means the plan
    # space itself changed shape.
    "plan.n_enumerated": 0.001,
    "plan.n_feasible": 0.001,
    # Reshard accounting is exact interval arithmetic.
    "elastic.reshard_bytes": 0.001,
    "elastic.reshard_seconds_modelled": 0.001,
    # Serving runs on a virtual clock over a seeded trace: latency
    # percentiles and bridge bytes are exact numbers, not wall time.
    "serve.p50_latency_s": 0.001,
    "serve.p99_latency_s": 0.001,
    "serve.iterations": 0.001,
    "serve.bridge_bytes": 0.001,
}


def perf_model_metrics():
    """Analytic Table-3 point: internal-352b on 720 H800s."""
    from repro.core.config import (GPU_SPECS, MODEL_ZOO, ParallelConfig,
                                   TrainConfig)
    from repro.perf.systems import MegaScalePerfModel

    model = MODEL_ZOO["internal-352b"]
    gpu = GPU_SPECS["h800"]
    train = TrainConfig(global_batch_size=720)
    it = MegaScalePerfModel().iteration(
        model, ParallelConfig.megascale(8, 15, 6), train, gpu)
    return {
        "perf.iteration_time_s": it.iteration_time,
        "perf.exposed_comm_fraction": it.fraction("exposed_comm_time"),
        "perf.mfu": it.mfu(model, gpu),
        "perf.tokens_per_second": it.tokens_per_second,
    }


def sim_metrics():
    """Simulated one-layer forward under holistic overlap scheduling."""
    from repro.core.config import GPU_SPECS, MODEL_ZOO, ParallelConfig
    from repro.core.operators import build_forward_graph
    from repro.core.schedule import HolisticScheduler
    from repro.perf.estimator import KernelModel
    from repro.sim import simulate

    model = MODEL_ZOO["internal-352b"]
    gpu = GPU_SPECS["h800"]
    graph = build_forward_graph(
        model, ParallelConfig.megascale(8, ep_dispatch="ag_rs"), 1)
    timeline = simulate(HolisticScheduler().schedule(
        graph, KernelModel(gpu).durations(graph)))
    return {
        "sim.layer_fwd_makespan_s": timeline.makespan,
        "sim.layer_fwd_exposed_comm_s": timeline.exposed_comm,
    }


def tile_metrics():
    """Tile-granular (§4.2) one-layer forward: tiled vs untiled sim.

    Deterministic by construction: tile counts come from the graph
    transform, durations from the roofline model, and the makespans
    from the event simulator — no wall clock anywhere.
    """
    from repro.core.config import MODEL_ZOO, ParallelConfig
    from repro.core.executor_bindings import layer_program
    from repro.core.operators import tiled_members
    from repro.sim import simulate

    model = MODEL_ZOO["internal-352b"]
    pc = ParallelConfig.megascale(8, ep_dispatch="ag_rs")
    seq, tile_tokens = 4096, 128  # local shard 512 -> 4 token chunks
    untiled = layer_program(model, pc, 1, seq)
    tiled = layer_program(model, pc, 1, seq, tile_tokens=tile_tokens)
    t_untiled = simulate(untiled.tasks)
    t_tiled = simulate(tiled.tile_tasks)
    return {
        "tile.layer_fwd_makespan_s": t_tiled.makespan,
        "tile.layer_fwd_exposed_comm_s": t_tiled.exposed_comm,
        "tile.makespan_vs_untiled": t_tiled.makespan
            / t_untiled.makespan,
        "tile.sub_ops": float(sum(
            len(ts) for ts in tiled_members(tiled.tile_graph).values())),
    }


def traced_run_metrics(smoke, out_dir=None):
    """Fixed-seed traced training run: audited byte volumes per layer.

    Returns the metrics dict; raises ``RuntimeError`` if the Eq. 1–4
    audit or the tracer/ledger cross-check fails (a broken ledger must
    never silently become the new baseline).
    """
    import numpy as np

    from repro.comm import World
    from repro.core.config import ModelConfig, ParallelConfig, TrainConfig
    from repro.core.trainer import MegaScaleTrainer
    from repro.data import MarkovCorpus, batch_iterator
    from repro.model import MoETransformer
    from repro.obs import (Observability, audit_comm_volumes,
                           crosscheck_tracer_ledger, write_chrome_trace)

    steps = 1 if smoke else 3
    n = 4
    config = ModelConfig("bench-regression", 2, 32, 8, 2, 48, 8, 2,
                         vocab_size=64, seq_len=16)
    train = TrainConfig(global_batch_size=4, micro_batch_size=4,
                        seq_len=16, learning_rate=3e-3, weight_decay=0.0,
                        aux_loss_coeff=0.01)
    model = MoETransformer(config, seed=0, dtype=np.float64)
    obs = Observability.create()
    world = World(n, n)
    trainer = MegaScaleTrainer(
        model, world, ParallelConfig.megascale(n, ep_dispatch="ag_rs"),
        train, obs=obs)
    for batch in batch_iterator(MarkovCorpus(vocab_size=64, seed=0),
                                4, 16, seed=1, limit=steps):
        trainer.train_step(batch)

    passes = config.n_layers * steps
    report = audit_comm_volumes(
        world.ledger, b=4, s=16, h=32, n=n, m=config.gqa_ratio,
        k=config.top_k, itemsize=model.embedding.data.itemsize,
        passes=passes)
    if not report.ok:
        raise RuntimeError(
            "comm-volume audit failed:\n" + report.render())
    matched, traced, ledger_bytes = crosscheck_tracer_ledger(
        obs.tracer, world.ledger)
    if not matched:
        raise RuntimeError(
            f"traced bytes {traced} != ledger bytes {ledger_bytes}")

    if out_dir is not None:
        write_chrome_trace(
            os.path.join(out_dir, "trace_regression.json"), obs.tracer,
            extra_metadata={"harness": "benchmarks/regression.py",
                            "steps": steps})

    fwd_bytes = sum(r.total_bytes for r in world.ledger.records
                    if not r.tag.endswith(":bwd"))
    snap = obs.metrics.snapshot()
    return {
        "comm.fwd_bytes_per_layer_pass": fwd_bytes / passes,
        "comm.total_bytes": snap["comm.bytes.total"] / steps,
        "comm.calls_per_step": snap["comm.calls.total"] / steps,
    }


def elastic_metrics():
    """Elastic resize vs cold restart on a fixed-seed run.

    Replay counts and reshard bytes are exact (interval arithmetic on
    the ZeRO-1 shard grids + contiguous-block expert placement), so
    any drift is a real change in the elastic subsystem's behaviour.
    """
    import shutil
    import tempfile

    import numpy as np

    from repro.comm import World
    from repro.core.config import ModelConfig, ParallelConfig, TrainConfig
    from repro.core.runner import FaultInjector, ProductionRunner
    from repro.core.trainer import MegaScaleTrainer
    from repro.elastic import ElasticRunner, ParallelLayout
    from repro.model import MoETransformer

    config = ModelConfig("bench-elastic", 2, 32, 8, 2, 48, 8, 2,
                         vocab_size=64, seq_len=16)
    train = TrainConfig(global_batch_size=2, micro_batch_size=2,
                        seq_len=16, learning_rate=1e-2, weight_decay=0.0,
                        aux_loss_coeff=0.01)

    def layout_at(n):
        return ParallelLayout.from_parallel_config(
            ParallelConfig.megascale(n))

    def factory(layout=layout_at(4)):
        n = layout.world_size
        model = MoETransformer(config, seed=0, dtype=np.float64)
        return MegaScaleTrainer(
            model, World(n, n), ParallelConfig.megascale(n), train)

    rng = np.random.default_rng(0)
    batches = [rng.integers(0, 64, size=(2, 17)) for _ in range(8)]

    tmpdir = tempfile.mkdtemp(prefix="repro-bench-elastic-")
    try:
        cold = ProductionRunner(factory, os.path.join(tmpdir, "cold"),
                                checkpoint_interval=4)
        cold_metrics = cold.run(batches, FaultInjector(fault_steps=[6]))

        elastic = ElasticRunner(factory, layout_at(4),
                                os.path.join(tmpdir, "elastic"),
                                checkpoint_interval=4)
        elastic_metrics_log = elastic.run(
            batches, FaultInjector(resize_steps={6: layout_at(2)}))
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    return {
        "elastic.cold_restart_replayed_steps":
            float(cold_metrics.replayed_steps),
        "elastic.resize_replayed_steps":
            float(elastic_metrics_log.replayed_steps),
        "elastic.reshard_bytes": elastic_metrics_log.reshard_bytes,
        "elastic.reshard_seconds_modelled":
            elastic_metrics_log.reshard_seconds,
    }


def serve_metrics():
    """Continuous-batching serving run on the virtual clock.

    The trace is seeded, iteration costs are modelled, and the
    attention/expert bridge bytes come from the exact comm ledger, so
    every number here is machine-independent; the run also asserts the
    batched outputs match the unbatched sequential golden bitwise.
    """
    import numpy as np

    from repro.comm import World
    from repro.core.config import ModelConfig, ServeConfig
    from repro.model import MoETransformer
    from repro.obs import Tracer
    from repro.serve import (ServeEngine, VirtualClock, golden_decode,
                             poisson_trace)

    config = ModelConfig("bench-serve", 2, 32, 8, 2, 48, 8, 2,
                         vocab_size=64, seq_len=64)
    model = MoETransformer(config, seed=0, dtype=np.float64)
    serve_config = ServeConfig(attention_ranks=2, expert_ranks=2,
                               kv_block_size=4, kv_blocks=64,
                               max_batch_size=4)
    requests = poisson_trace(8, rate=0.8, vocab=64, seed=0)
    world = World(serve_config.world_size)
    clock = VirtualClock()
    engine = ServeEngine(model, serve_config, world=world,
                         tracer=Tracer(clock=clock), clock=clock)
    try:
        result = engine.run(requests)
    finally:
        engine.shutdown()
    golden = golden_decode(model, serve_config, requests)
    for rid, want in golden.results.items():
        got = result.results[rid]
        if got.generated != want.generated or not all(
                np.array_equal(a, b)
                for a, b in zip(got.logits, want.logits)):
            raise RuntimeError(
                f"serve request {rid} diverged from the unbatched "
                "golden — a broken scheduler must never become the "
                "baseline")
    tags = world.ledger.bytes_by_tag()
    if tags["serve:dispatch_a2a"] != tags["serve:combine_a2a"]:
        raise RuntimeError("serve dispatch/combine bytes unbalanced")
    return {
        "serve.p50_latency_s": result.latency["p50"],
        "serve.p99_latency_s": result.latency["p99"],
        "serve.mean_latency_s": result.latency["mean"],
        "serve.throughput_tokens_per_s":
            result.latency["throughput_tokens"],
        "serve.iterations": float(result.n_iterations),
        "serve.bridge_bytes": tags["serve:dispatch_a2a"]
            + tags["serve:combine_a2a"],
    }


def plan_metrics():
    """Plan-space search on a fixed two-node cluster (PR 10).

    Enumeration counts are exact integers; the best simulated iteration
    time comes from the same closed-form + event-simulator stack as
    ``perf.*``/``sim.*``, and the schedule search is seeded — so every
    number is machine-independent.
    """
    from repro.core.autoschedule import optimize_plan
    from repro.core.cluster import ClusterSpec
    from repro.core.config import MODEL_ZOO, TrainConfig
    from repro.core.planner import plan_cluster

    model = MODEL_ZOO["mixtral-8x2b"]
    cluster = ClusterSpec.homogeneous("h800", n_nodes=2)
    train = TrainConfig(global_batch_size=64, micro_batch_size=2)
    result = plan_cluster(model, cluster, train)
    sched = optimize_plan(model, cluster, train, budget=60, seed=0)
    return {
        "plan.n_enumerated": float(result.n_enumerated),
        "plan.n_feasible": float(result.n_feasible),
        "plan.best_iteration_time_s": result.best.iteration_time,
        "plan.best_cross_node_a2a_gb":
            result.best.cross_node_a2a_bytes / 1e9,
        "plan.schedule_layer_gain": sched.layer_gain,
    }


def collect(smoke, out_dir=None):
    """All regression metrics as one flat name→value dict."""
    metrics = {}
    metrics.update(perf_model_metrics())
    metrics.update(sim_metrics())
    metrics.update(tile_metrics())
    metrics.update(plan_metrics())
    metrics.update(traced_run_metrics(smoke, out_dir))
    metrics.update(elastic_metrics())
    metrics.update(serve_metrics())
    return metrics


def latest_baseline():
    """(pr_number, payload) of the newest committed baseline, or None."""
    newest = None
    for path in glob.glob(os.path.join(BASELINE_DIR, "BENCH_PR*.json")):
        match = re.search(r"BENCH_PR(\d+)\.json$", path)
        if not match:
            continue
        number = int(match.group(1))
        if newest is None or number > newest[0]:
            newest = (number, path)
    if newest is None:
        return None
    with open(newest[1]) as handle:
        return newest[0], json.load(handle)


def compare(baseline, current, tolerance):
    """Signed worsening per metric; returns (rows, regressions).

    A positive ``worse`` fraction means the metric moved in its bad
    direction (slower, more exposed comm, lower MFU, more bytes).
    """
    rows = []
    regressions = []
    for name, base in sorted(baseline.items()):
        if name not in current:
            regressions.append((name, "metric disappeared"))
            continue
        cur = current[name]
        if base == 0.0:
            worse = 0.0 if cur == 0.0 else float("inf")
        else:
            change = (cur - base) / abs(base)
            worse = -change if name in HIGHER_IS_BETTER else change
        allowed = TOLERANCES.get(name, tolerance)
        ok = worse <= allowed
        rows.append((name, base, cur, worse, allowed, ok))
        if not ok:
            regressions.append(
                (name, f"worse by {worse:.1%} (allowed {allowed:.1%})"))
    return rows, regressions


def render_rows(rows):
    """Baseline-vs-current comparison table."""
    lines = [f"{'metric':32s} {'baseline':>14s} {'current':>14s} "
             f"{'worse by':>9s} {'ok':>4s}"]
    for name, base, cur, worse, _allowed, ok in rows:
        lines.append(f"{name:32s} {base:14.6g} {cur:14.6g} "
                     f"{worse:8.2%} {'yes' if ok else 'NO':>4s}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="deterministic benchmark-regression harness")
    parser.add_argument("--smoke", action="store_true",
                        help="shrink the traced run for PR CI")
    parser.add_argument("--update", action="store_true",
                        help="write the result as the committed baseline")
    parser.add_argument("--pr", type=int, default=None,
                        help="PR number for the output file name "
                             "(default: newest baseline's)")
    parser.add_argument("--out-dir", default="bench_artifacts",
                        help="artifact directory (JSON + trace)")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="default relative regression tolerance")
    args = parser.parse_args(argv)

    os.makedirs(args.out_dir, exist_ok=True)
    previous = latest_baseline()
    pr = args.pr
    if pr is None:
        pr = previous[0] if previous else 0

    try:
        metrics = collect(args.smoke, args.out_dir)
    except RuntimeError as exc:
        print(f"metric collection failed: {exc}", file=sys.stderr)
        return 1
    payload = {
        "pr": pr,
        "smoke": bool(args.smoke),
        "tolerance": args.tolerance,
        "tolerances": TOLERANCES,
        "higher_is_better": sorted(HIGHER_IS_BETTER),
        "metrics": metrics,
    }
    out_path = os.path.join(args.out_dir, f"BENCH_PR{pr}.json")
    with open(out_path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out_path}")

    if args.update:
        os.makedirs(BASELINE_DIR, exist_ok=True)
        base_path = os.path.join(BASELINE_DIR, f"BENCH_PR{pr}.json")
        with open(base_path, "w") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"updated baseline {base_path}")

    if previous is None:
        print("no committed baseline; nothing to compare against")
        return 0
    base_pr, base_payload = previous
    rows, regressions = compare(base_payload["metrics"], metrics,
                                args.tolerance)
    print(f"\n=== vs baseline BENCH_PR{base_pr}.json ===")
    print(render_rows(rows))
    if regressions:
        for name, why in regressions:
            print(f"REGRESSION: {name}: {why}", file=sys.stderr)
        return 1
    print("no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
