"""The modelled side: timed pass and per-layer pass.

One operation is one *sweep*: Table 3 from the analytic model, the plan
search and the seeded schedule search on two clusters, and the tiled
and untiled layer programs of the 352B model through the event
simulator.  Host time and modelled outputs are reported separately: a
simulator speed-up must move the host time and leave every modelled
number identical; a model fix must move the error metrics.
"""

from __future__ import annotations

import gc
import time
from typing import Any, Dict

from harness import (LOW, NO_SPANS, SETUP_REPEATS, Report, Spans,
                     import_seconds, low, peak_rss_mb, percentile, sample, sym)
from workloads import PlanSpec

from repro.core.analysis import attention_comm_volume, ffn_comm_volume
from repro.core.autoschedule import optimize_plan
from repro.core.cluster import ClusterSpec
from repro.core.config import (GPU_SPECS, MODEL_ZOO, ParallelConfig,
                               TrainConfig)
from repro.core.executor_bindings import layer_program
from repro.core.planner import plan_cluster
from repro.perf.systems import MegaScalePerfModel, MegatronPerfModel
from repro.sim import simulate

IMPORTS = ("repro.core.autoschedule", "repro.core.planner",
           "repro.core.executor_bindings", "repro.perf.systems", "repro.sim")

#: Table 3 of the paper: GPUs -> (Megatron iteration s, Megatron
#: tokens/s, MegaScale iteration s, MegaScale tokens/s).  Copied from
#: ``benchmarks/bench_table3_strong_scaling.PAPER``.
PAPER_TABLE3 = {
    240: (39.94, 151.1e3, 21.61, 272.9e3),
    480: (19.56, 301.1e3, 11.83, 498.6e3),
    720: (13.70, 430.5e3, 7.97, 740.1e3),
    960: (10.82, 550.2e3, 6.12, 963.8e3),
    1440: (7.90, 746.6e3, 4.19, 1407.7e3),
}
MODEL_352B = MODEL_ZOO["internal-352b"]
H800 = GPU_SPECS["h800"]
#: (model, H800 nodes) pairs the plan + schedule search runs on.
PLAN_CASES = (("mixtral-8x2b", 2), ("mixtral-8x7b", 4))
LAYER_SEQ, LAYER_TILE_TOKENS = 4096, 128


def sweep(spec: PlanSpec, seed: int, spans: Spans = NO_SPANS,
          op_id: int = 0) -> Dict[str, float]:
    """One sweep; returns every modelled output, flat, by name."""
    out: Dict[str, float] = {}
    with spans.span("sweep", op_id):
        with spans.span("table3", op_id):
            train = TrainConfig(global_batch_size=720)
            tput_err, speedup_err = [], []
            for gpus, paper in PAPER_TABLE3.items():
                dp = gpus // 120
                ours = MegaScalePerfModel().iteration(
                    MODEL_352B, ParallelConfig.megascale(8, 15, dp), train,
                    H800)
                megatron = MegatronPerfModel().iteration(
                    MODEL_352B, ParallelConfig.megatron(8, 15, dp), train,
                    H800)
                speedup = megatron.iteration_time / ours.iteration_time
                paper_speedup = paper[0] / paper[2]
                tput_err.append(abs(ours.tokens_per_second - paper[3])
                                / paper[3])
                speedup_err.append(abs(speedup - paper_speedup)
                                   / paper_speedup)
                out[f"table3.tokens_per_s_{gpus}"] = ours.tokens_per_second
                out[f"table3.speedup_{gpus}"] = speedup
                if gpus == 720:
                    out["perf.mfu_720"] = ours.mfu(MODEL_352B, H800)
                    out["perf.exposed_comm_frac_720"] = ours.fraction(
                        "exposed_comm_time")
            out["model.relerr_table3_tput"] = sum(tput_err) / len(tput_err)
            out["model.relerr_table3_speedup"] = (sum(speedup_err)
                                                  / len(speedup_err))
        for model_name, nodes in PLAN_CASES:
            model = MODEL_ZOO[model_name]
            cluster = ClusterSpec.homogeneous("h800", n_nodes=nodes)
            train = TrainConfig(global_batch_size=64, micro_batch_size=2)
            with spans.span("plan_cluster", op_id):
                plan = plan_cluster(model, cluster, train)
            with spans.span("optimize_plan", op_id):
                tuned = optimize_plan(model, cluster, train,
                                      budget=spec.schedule_budget, seed=seed)
            out[f"plan.{model_name}.n_enumerated"] = plan.n_enumerated
            out[f"plan.{model_name}.n_feasible"] = plan.n_feasible
            out[f"plan.{model_name}.best_iteration_s"] = (
                plan.best.iteration_time)
            out[f"plan.{model_name}.layer_gain"] = tuned.layer_gain
        parallel = ParallelConfig.megascale(8, ep_dispatch="ag_rs")
        with spans.span("layer_program", op_id):
            untiled = layer_program(MODEL_352B, parallel, 1, LAYER_SEQ)
            tiled = layer_program(MODEL_352B, parallel, 1, LAYER_SEQ,
                                  tile_tokens=LAYER_TILE_TOKENS)
        with spans.span("simulate", op_id):
            t_untiled = simulate(untiled.tasks)
            t_tiled = simulate(tiled.tile_tasks)
        out["sim.layer_fwd_makespan_s"] = t_untiled.makespan
        out["sim.layer_fwd_exposed_comm_s"] = t_untiled.exposed_comm
        out["sim.tiled_vs_untiled_makespan_x"] = (t_tiled.makespan
                                                  / t_untiled.makespan)
        out["sim.n_tasks"] = len(untiled.tasks) + len(tiled.tile_tasks)
    return out


def checked_sweep(spec: PlanSpec, seed: int, first: Dict[str, float],
                  report: Report, spans: Spans = NO_SPANS,
                  op_id: int = 0) -> Dict[str, float]:
    """A sweep counted as an operation; it fails if any modelled output
    differs from the first sweep's (the model is deterministic)."""
    out = sweep(spec, seed, spans, op_id)
    first = first or out
    differing = sorted(k for k in out if out[k] != first.get(k))
    report.operation(not differing,
                     f"sweep {op_id}: outputs changed: {differing}")
    return out


def modelled_bytes_per_token() -> float:
    """Eq. 2 + Eq. 3: bf16 bytes one 352B layer's forward pass moves
    per token under SP+EP at n=8 (the quantity the paper minimises)."""
    parallel = ParallelConfig.megascale(8)
    elements = (attention_comm_volume(MODEL_352B, parallel, 1)
                + ffn_comm_volume(MODEL_352B, parallel, 1))
    return 2.0 * elements / MODEL_352B.seq_len


def end_to_end(spec: PlanSpec, seed: int, seconds: float,
               report: Report) -> None:
    build_times = []
    first: Dict[str, float] = {}
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        for _ in range(spec.warmup):
            out = checked_sweep(spec, seed, first, report)
            first = first or out
        build_times.append(time.perf_counter() - t0)

    fixed: Dict[str, float] = {}

    def op(i: int) -> None:
        checked_sweep(spec, seed, first, report, op_id=i)
        if i == spec.fixed_ops - 1:
            fixed.update(rss=peak_rss_mb())

    sweeps = sample(op, seconds, min_ops=spec.fixed_ops)

    report.set("throughput_per_s", 1.0 / low(sweeps["wall"]),
               f"sweeps/s; q{LOW} of n={len(sweeps['wall'])} sweeps")
    report.set_timing("op_cpu_ms", sweeps["cpu"], 1e3)
    report.set("comm_bytes_per_token", modelled_bytes_per_token(),
               "modelled: Eq. 2 + Eq. 3, 352B layer forward, bf16, n=8")
    report.set("peak_rss_mb", fixed["rss"],
               f"after the first {spec.fixed_ops} timed sweeps")
    report.set("setup_s",
               import_seconds(IMPORTS) + percentile(build_times, 50),
               f"imports + {spec.warmup} warm-up sweep; "
               f"median of {SETUP_REPEATS}")
    modelled_metrics(first, report)


def modelled_metrics(out: Dict[str, float], report: Report) -> None:
    """The modelled outputs that have a metric name of their own."""
    for name in ("model.relerr_table3_tput", "model.relerr_table3_speedup",
                 "perf.mfu_720", "perf.exposed_comm_frac_720",
                 "sim.layer_fwd_makespan_s", "sim.layer_fwd_exposed_comm_s",
                 "sim.tiled_vs_untiled_makespan_x"):
        report.set(name, out[name], "modelled, exact")
    first_model = PLAN_CASES[0][0]
    report.set("perf.tokens_per_s_1440", out["table3.tokens_per_s_1440"],
               "modelled, exact")
    report.set("core.planner.n_enumerated",
               out[f"plan.{first_model}.n_enumerated"], first_model)
    report.set("core.planner.n_feasible",
               out[f"plan.{first_model}.n_feasible"], first_model)
    report.set("core.autoschedule.layer_gain",
               out[f"plan.{first_model}.layer_gain"], first_model)


def per_layer(spec: PlanSpec, seed: int, seconds: float, report: Report,
              spans: Spans) -> Dict[str, Any]:
    first = checked_sweep(spec, seed, {}, report)

    def op(i: int) -> None:
        checked_sweep(spec, seed, first, report, spans, i)

    sample(op, 0.5 * seconds, min_ops=spec.fixed_ops)
    modelled_metrics(first, report)

    for metric, span, per in (
            ("core.planner.plan_cluster_ms", "plan_cluster", 1e3),
            ("core.autoschedule.optimize_ms", "optimize_plan", 1e3),
            ("perf.iteration_call_ms", "table3",
             1e3 / (2 * len(PAPER_TABLE3))),
            ("sim.simulate_us_per_task", "simulate",
             1e6 / first["sim.n_tasks"])):
        report.set_timing(metric, spans.durations(span), per)

    def schedule() -> None:
        build_graph = sym("repro.core.operators", "build_forward_graph")
        kernel_model = sym("repro.perf.estimator", "KernelModel")
        scheduler = sym("repro.core.schedule", "HolisticScheduler")()
        graph = build_graph(MODEL_352B,
                            ParallelConfig.megascale(8, ep_dispatch="ag_rs"),
                            1)
        durations = kernel_model(H800).durations(graph)
        walls = sample(lambda i: scheduler.schedule(graph, durations),
                       0.02 * seconds, min_ops=5)["wall"]
        report.set_timing("core.schedule.schedule_ms", walls, 1e3)

    def smoke() -> None:
        run_matrix = sym("repro.verify", "run_matrix")
        smoke_matrix = sym("repro.verify", "smoke_matrix")
        t0 = time.perf_counter()
        conformance = run_matrix(smoke_matrix())
        report.set("verify.smoke_matrix_s", time.perf_counter() - t0, "n=1")
        report.operation(conformance.ok, "verify smoke matrix not conformant")

    report.section(["core.schedule.schedule_ms"], schedule)
    report.section(["verify.smoke_matrix_s"], smoke)
    return {}
