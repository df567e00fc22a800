"""Command-line interface: ``python -m repro {plan,train,serve,verify}``.

* ``plan MODEL N_GPUS [GPU]`` / ``plan MODEL --cluster SPEC.json`` —
  §3/§7: the model's Table 2 row, the GPU's Table 4 row, then the
  plan-space search and its modelled speedup over Megatron-LM.
* ``train [STEPS]`` — one production run of a miniature MoE (SP+EP,
  ``a2a``, n=4) under the production runner; ``--faults``, ``--resize``
  and ``--trace`` switch fault recovery, a 4 → 2 → 4 world resize and
  the audited Chrome trace on for that same run.
* ``serve [N_REQUESTS]`` — continuous-batching MoE inference, checked
  bitwise against the unbatched golden decode.
* ``verify [--smoke | --elastic | --serve | --fuzz N]`` — parallel
  plans vs the single-rank golden model (exit 1 on any violation).
"""

from __future__ import annotations

import argparse
import sys

from .core.config import GPU_SPECS, MODEL_ZOO


def cmd_plan(args) -> int:
    """Search the plan space and print the winner, the runners-up and
    the modelled speedup over Megatron-LM on the same cluster."""
    from .core.autoschedule import optimize_plan
    from .core.cluster import ClusterSpec
    from .core.config import ParallelConfig, TrainConfig
    from .core.planner import NoFeasiblePlan, plan_cluster
    from .perf.systems import MegatronPerfModel

    model = MODEL_ZOO[args.model]
    try:
        if args.cluster:
            cluster = ClusterSpec.load(args.cluster)
        elif not args.n_gpus or args.n_gpus % 8:
            raise ValueError(f"N_GPUS must be a multiple of 8 (8-GPU "
                             f"nodes), got {args.n_gpus}; describe other "
                             f"clusters with --cluster SPEC.json")
        else:
            cluster = ClusterSpec.homogeneous(args.gpu,
                                              n_nodes=args.n_gpus // 8)
    except (OSError, ValueError) as exc:
        print(f"bad cluster spec: {exc}", file=sys.stderr)
        return 2
    gpu = cluster.bottleneck_gpu()
    print(f"model {model.name}: {model.total_params / 1e9:.1f}B params "
          f"({model.activated_params / 1e9:.1f}B activated), "
          f"{model.n_layers} layers, h={model.hidden_size}, "
          f"h_ffn={model.ffn_hidden_size}, E={model.n_experts}, "
          f"k={model.top_k}, m={model.gqa_ratio}")
    print(f"gpu {gpu.name}: {gpu.peak_flops / 1e12:.0f} TFLOPS, "
          f"{gpu.memory_bytes / 1024 ** 3:.0f} GB HBM at "
          f"{gpu.memory_bandwidth / 1e12:.1f} TB/s, NVLink "
          f"{gpu.nvlink_bandwidth / 1e9:.0f} GB/s, NIC "
          f"{gpu.nic_bandwidth / 1e9:.0f} GB/s\n")
    train = TrainConfig(global_batch_size=args.batch,
                        micro_batch_size=args.micro_batch)
    top = max(args.top, 1)
    try:
        if args.schedule_budget > 0:
            composed = optimize_plan(model, cluster, train,
                                     budget=args.schedule_budget,
                                     seed=args.seed, top=top)
            result = composed.plan
        else:
            result = plan_cluster(model, cluster, train, top=top)
    except NoFeasiblePlan as exc:
        print(f"NoFeasiblePlan: {exc}", file=sys.stderr)
        return 1
    print(result.explain())
    best = result.best.candidate

    runners_up = result.ranked[1:top]
    if runners_up:
        print("\nrunners-up:")
        for scored in runners_up:
            print(f"  {scored.iteration_time * 1e3:9.1f} ms  "
                  f"{scored.candidate.describe()}")

    ms, par = result.best.iteration, best.parallel
    mg = MegatronPerfModel(cluster=cluster).iteration(
        model, ParallelConfig.megatron(par.model_parallel_size,
                                       par.pipeline_size,
                                       par.data_parallel_size),
        train, gpu)
    print(f"\npredicted: MegaScale {ms.iteration_time:.2f}s/iter "
          f"({ms.tokens_per_second / 1e3:.0f}k tok/s, "
          f"MFU {ms.mfu(model, gpu) * 100:.1f}%) — "
          f"{mg.iteration_time / ms.iteration_time:.2f}x over "
          f"Megatron-LM")

    if args.schedule_budget > 0:
        print(f"\nschedule search (budget {args.schedule_budget}, seed "
              f"{args.seed}): layer gain {composed.layer_gain * 100:.2f}% "
              f"over the holistic baseline ({composed.fwd.evaluations} "
              f"fwd + {composed.bwd.evaluations} bwd evaluations)")

    if not args.verify:
        return 0
    from .verify import plan_conformance_cases, run_matrix
    cases = plan_conformance_cases(
        attention=par.attention, ffn=par.ffn, ep_dispatch=par.ep_dispatch,
        precision="fp8" if best.precision == "fp8" else "bf16",
        pp=par.pipeline_size, dp=par.data_parallel_size, seed=args.seed)
    print(f"\nverifying the winner on the conformance matrix "
          f"({len(cases)} cases)")
    report = run_matrix(cases)
    print(report.render())
    return 0 if report.ok else 1


def cmd_train(args) -> int:
    """Train through :class:`ProductionRunner`: faults and resizes are
    entries of one injector, and a rerun on ``--dir`` resumes."""
    import contextlib
    import tempfile
    from dataclasses import fields

    import numpy as np

    from .comm import World
    from .core.config import ModelConfig, ParallelConfig, TrainConfig
    from .core.runner import FaultInjector, ProductionRunner
    from .core.trainer import MegaScaleTrainer
    from .data import MarkovCorpus, batch_iterator
    from .elastic import ParallelLayout
    from .ft import (BackoffPolicy, FaultPlan, FaultSpec, HealthMonitor,
                     LossSpikeGuard, NumericGuard, StragglerDetector)
    from .model import MoETransformer
    from .obs import Observability

    steps, least = args.steps, 3 if args.resize else 1
    if steps < least:
        print(f"steps must be >= {least}, got {steps}", file=sys.stderr)
        return 2
    # The paper's main path: SP attention (Eq. 2, an exact ring
    # identity) and EP A2A dispatch, whose bytes the audit recounts
    # from every layer pass's captured routing.
    n, b, s, dtype = 4, 4, 16, np.float64
    config = ModelConfig("cli-train", 2, 32, 8, 2, 48, 8, 2,
                         vocab_size=64, seq_len=s)
    train = TrainConfig(global_batch_size=b, micro_batch_size=b,
                        seq_len=s, learning_rate=3e-3, weight_decay=0.0,
                        aux_loss_coeff=0.01, tile_tokens=args.tile_tokens)
    batches = list(batch_iterator(MarkovCorpus(vocab_size=64, seed=0),
                                  b, s, seed=1, limit=steps))

    def plan_at(size: int) -> ParallelConfig:
        return ParallelConfig.megascale(size, ep_dispatch="a2a")

    def layout_at(size: int) -> ParallelLayout:
        return ParallelLayout.from_parallel_config(plan_at(size))

    obs = Observability.create() if args.trace else None
    fault_plan = monitor = None
    guards: dict = {}
    schedule: dict = {}
    if args.faults:
        # A timeout and a corrupted transfer (transient: retried), a
        # 2x-slow link on rank 1 for the straggler detector, then a
        # rank crash (restart) and a loss spike (rollback).
        fault_plan = FaultPlan([FaultSpec("timeout", at_call=40),
                                FaultSpec("corrupt", at_call=90)],
                               slow_ranks={1: 2.0}, seed=0)
        monitor = HealthMonitor(StragglerDetector(window=8,
                                                  z_threshold=0.9))
        guards = dict(retry_policy=BackoffPolicy(max_retries=3,
                                                 base_delay=0.5),
                      loss_guard=LossSpikeGuard(window=8, factor=3.0),
                      numeric_guard=NumericGuard())
        schedule = dict(fault_steps=[steps // 2 + 1],
                        spike_steps=[3 * steps // 4 + 1],
                        spike_factor=50.0)
    if args.resize:
        schedule["resize_steps"] = {steps // 3: layout_at(n // 2),
                                    2 * steps // 3: layout_at(n)}
    worlds = []
    a2a_passes: list = []

    def factory(layout: ParallelLayout) -> MegaScaleTrainer:
        worlds.append(World(layout.world_size, layout.world_size))
        if fault_plan is not None:
            worlds[-1].attach_fault_plan(fault_plan)
        model = MoETransformer(config, seed=0, dtype=dtype)
        trainer = MegaScaleTrainer(model, worlds[-1],
                                   plan_at(layout.world_size), train,
                                   health=monitor, obs=obs)
        if obs is not None:  # the audit recounts this world's A2A
            a2a_passes.clear()
            for engine in trainer.engines:
                engine.ffn_engine.telemetry_log = a2a_passes
        return trainer

    with contextlib.ExitStack() as stack:
        # Without --dir the checkpoints live only as long as the run.
        ckpt_dir = args.dir or stack.enter_context(
            tempfile.TemporaryDirectory(prefix="repro-train-"))
        runner = ProductionRunner(factory, layout_at(n), ckpt_dir,
                                  checkpoint_interval=4, obs=obs, **guards)
        metrics = runner.run(batches, FaultInjector(**schedule))
        if not metrics.steps:
            print(f"nothing to do: {ckpt_dir} already holds step "
                  f"{runner.latest_checkpoint()} of {steps}")
            return 0

    print(f"loss trajectory ({steps} batches, SP+EP a2a at n={n})\n"
          "step  loss")
    for step, loss in zip(metrics.steps, metrics.losses):
        print(f"{step:4d}  {loss:.6f}")
    summary = {f.name: getattr(metrics, f.name) for f in fields(metrics)
               if f.name not in ("steps", "losses")}
    if fault_plan is not None:
        summary["comm faults injected"] = [e.kind for e in fault_plan.fired]
        summary["stragglers flagged"] = monitor.flagged_stragglers()
    summary["checkpoint dir"] = args.dir
    print()
    for name, value in summary.items():
        if value:
            shown = f"{value:g}" if isinstance(value, float) else value
            print(f"{name:21s}: {shown}")
    if obs is None:
        return 0

    # The simulated overlap timeline of the trained plan's own layer
    # program lands on the ``sim`` lane (simulated clock, not wall).
    from .core.executor_bindings import layer_program
    from .obs import (audit_comm_volumes, crosscheck_tracer_ledger,
                      text_summary, write_chrome_trace)
    from .sim import simulate

    done = len(metrics.steps)
    simulate(layer_program(config, plan_at(n), b, s).tasks,
             tracer=obs.tracer, trace_pid="sim")
    report = audit_comm_volumes(
        worlds[-1].ledger, b=b, s=s, h=config.hidden_size, n=n,
        m=config.gqa_ratio, k=config.top_k,
        itemsize=np.dtype(dtype).itemsize, passes=config.n_layers * done,
        a2a_telemetry=a2a_passes)
    matched, traced, ledger_bytes = crosscheck_tracer_ledger(
        obs.tracer, worlds[-1].ledger)
    trace = write_chrome_trace(args.trace, obs.tracer, extra_metadata={
        "model": config.name, "steps": done,
        "strategy": "SP+EP (a2a)", "model_parallel_size": n})
    for block in (text_summary(obs.tracer, title=f"trace of {done} steps"),
                  obs.metrics.render("metrics"), report.render()):
        print(f"\n{block}")
    print(f"\ntracer/ledger bytes  : {traced:.0f} vs {ledger_bytes:.0f} "
          f"({'match' if matched else 'MISMATCH'})")
    print(f"chrome trace         : {args.trace} "
          f"({len(trace['traceEvents'])} events; open in Perfetto or "
          f"chrome://tracing)")
    if report.ok and matched:
        return 0
    print("AUDIT FAILED: traced comm bytes miss Eqs. 1-4 or the ledger "
          "(see above)", file=sys.stderr)
    return 1


def cmd_serve(args) -> int:
    import numpy as np

    from .comm import World
    from .core.config import ModelConfig, ServeConfig
    from .ft import FaultPlan, FaultSpec
    from .model import MoETransformer
    from .obs import Tracer
    from .serve import (ServeEngine, VirtualClock, bursty_trace,
                        golden_decode, poisson_trace)

    n = args.n_requests
    if n < 1:
        print(f"n_requests must be >= 1, got {n}", file=sys.stderr)
        return 2
    model = MoETransformer(ModelConfig("cli-serve", 2, 32, 8, 2, 48, 8, 2,
                                       vocab_size=64, seq_len=64),
                           seed=0, dtype=np.float64)
    serve = ServeConfig(attention_ranks=2, expert_ranks=2,
                        kv_block_size=4, kv_blocks=args.kv_blocks,
                        max_batch_size=args.batch)
    requests = (poisson_trace(n, rate=0.5, vocab=64, seed=args.seed)
                if args.arrivals == "poisson" else
                bursty_trace(n, burst_size=3, burst_gap=2.0, vocab=64,
                             seed=args.seed))
    world = World(serve.world_size)
    if args.crash_at is not None:
        world.attach_fault_plan(FaultPlan(
            [FaultSpec(kind="crash", at_call=args.crash_at)]))
    clock = VirtualClock()
    engine = ServeEngine(model, serve, world=world,
                         tracer=Tracer(clock=clock), clock=clock)
    try:
        result = engine.run(requests)
    finally:
        engine.shutdown()
    golden = golden_decode(model, serve, requests).results

    print(f"served {len(result.results)} requests in {result.n_iterations}"
          f" iterations (batch <= {serve.max_batch_size}, "
          f"{len(engine.placement.attn_ranks)} attn + "
          f"{len(engine.placement.expert_ranks)} expert ranks)")
    print(f"{'req':>4s} {'arrive':>7s} {'finish':>7s} {'lat':>6s} "
          f"{'rst':>4s}  prompt -> generated")
    diverged = [rid for rid, r in result.results.items()
                if r.generated != golden[rid].generated or not all(
                    np.array_equal(a, b)
                    for a, b in zip(r.logits, golden[rid].logits))]
    for rid, r in sorted(result.results.items()):
        print(f"{rid:4d} {r.arrival_time:7.2f} {r.finish_time:7.2f} "
              f"{r.latency:6.2f} {r.restarts:4d}  {list(r.prompt)} -> "
              f"{r.generated}{'  MISMATCH' if rid in diverged else ''}")
    lat = result.latency
    if lat:
        print(f"latency (virtual s)  : p50 {lat['p50']:.2f}  "
              f"p95 {lat['p95']:.2f}  p99 {lat['p99']:.2f}  "
              f"mean {lat['mean']:.2f}  "
              f"({lat['throughput_tokens']:.2f} tok/s)")
    tags = world.ledger.bytes_by_tag()
    print(f"crashes / evictions  : {result.n_crashes} / "
          f"{result.n_evictions} (swapped KV {result.swapped_kv_bytes} B)"
          f"\nbridge a2a bytes     : dispatch "
          f"{tags.get('serve:dispatch_a2a', 0.0):.0f}, combine "
          f"{tags.get('serve:combine_a2a', 0.0):.0f}")
    if diverged:
        print(f"golden check         : FAILED (requests {diverged} "
              f"diverged)", file=sys.stderr)
        return 1
    print(f"golden check         : all {len(result.results)} requests "
          f"bitwise-identical to the unbatched sequential run")
    return 0


def cmd_verify(args) -> int:
    from .verify import (run_case, run_matrix, run_serve_matrix,
                         serve_matrix, smoke_matrix)
    from .verify.cases import elastic_matrix
    from .verify.fuzz import fuzz, shrink

    def progress(result) -> None:
        mark = "ok" if result.ok else "FAIL"
        print(f"  {result.case.case_id:48s} {mark}", flush=True)

    if args.fuzz > 0 and not args.serve:
        print(f"fuzzing {args.fuzz} random cases (seed {args.seed})")
        report = fuzz(args.fuzz, seed=args.seed, progress=progress)
    else:
        if args.serve:
            label, matrix, run = "serve", serve_matrix, run_serve_matrix
        elif args.elastic:
            label, matrix, run = "elastic", elastic_matrix, run_matrix
        else:
            label, matrix, run = "smoke", smoke_matrix, run_matrix
        cases = matrix(seed=args.seed)
        print(f"running the {label} matrix ({len(cases)} cases, "
              f"seed {args.seed})")
        report = run(cases, progress=progress)
    print(f"\n{report.render()}")
    if not report.ok and args.shrink and not args.serve:
        def fails(case) -> bool:
            return not run_case(case).ok

        for failing in report.failures():
            minimal = shrink(failing.case, fails)
            print(f"shrunk {failing.case.case_id} -> "
                  f"{minimal.case_id}")
    return 0 if report.ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MegaScale-MoE reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="plan a training job (§3/§7)")
    plan.set_defaults(handler=cmd_plan)
    plan.add_argument("model", choices=sorted(MODEL_ZOO))
    plan.add_argument("n_gpus", nargs="?", type=int, default=None)
    plan.add_argument("gpu", nargs="?", default="h800",
                      choices=sorted(GPU_SPECS))
    plan.add_argument("--batch", type=int, default=720)
    plan.add_argument("--cluster", default=None, metavar="SPEC.json",
                      help="cluster file (nodes, GPU models, link "
                           "tiers) in place of N_GPUS/GPU")
    plan.add_argument("--micro-batch", type=int, default=2,
                      help="micro-batch size the plan is priced at")
    plan.add_argument("--top", type=int, default=4,
                      help="plans to rank exactly and print")
    plan.add_argument("--schedule-budget", type=int, default=0,
                      metavar="N", help="also search op priorities for "
                                        "the winner with N evaluations")
    plan.add_argument("--verify", action="store_true",
                      help="run the winner through the conformance "
                           "matrix (exit 1 on violation)")
    plan.add_argument("--seed", type=int, default=0)

    train = sub.add_parser("train", help="train a miniature MoE under "
                                         "the elastic production runner")
    train.set_defaults(handler=cmd_train)
    train.add_argument("steps", nargs="?", type=int, default=10)
    train.add_argument("--tile-tokens", type=int, default=None,
                       help="token-chunk width for tile-granular "
                            "execution (4.2); divides the rank's shard")
    train.add_argument("--faults", action="store_true",
                       help="inject comm faults, a crash, a loss spike "
                            "and a slow link, and recover")
    train.add_argument("--resize", action="store_true",
                       help="shrink the world 4 -> 2 at steps // 3 and "
                            "grow it back at 2 * steps // 3")
    train.add_argument("--trace", default=None, metavar="OUT.json",
                       help="write a Chrome trace; exit 1 unless the "
                            "Eq. 1-4 comm audit passes")
    train.add_argument("--dir", default=None, help="checkpoint "
                       "directory a rerun resumes from (default: temp)")

    serve = sub.add_parser("serve", help="continuous-batching MoE "
                                         "inference (paged KV, EP ranks)")
    serve.set_defaults(handler=cmd_serve)
    serve.add_argument("n_requests", nargs="?", type=int, default=6)
    serve.add_argument("--arrivals", default="poisson",
                       choices=["poisson", "bursty"],
                       help="arrival process for the request trace")
    serve.add_argument("--batch", type=int, default=3,
                       help="max concurrent requests per iteration")
    serve.add_argument("--kv-blocks", type=int, default=64,
                       help="paged KV pool size (small values evict)")
    serve.add_argument("--crash-at", type=int, default=None,
                       metavar="CALL", help="crash a rank at the Nth "
                       "collective call; in-flight requests replay")
    serve.add_argument("--seed", type=int, default=0)

    verify = sub.add_parser("verify", help="differential conformance "
                                           "matrix vs the golden model")
    verify.set_defaults(handler=cmd_verify)
    verify.add_argument("--smoke", action="store_true",
                        help="run the seeded CI smoke matrix (default)")
    verify.add_argument("--elastic", action="store_true",
                        help="run the resize grid (shrink at step 1, "
                             "grow back at step 2) instead")
    verify.add_argument("--serve", action="store_true",
                        help="run the serving matrix (batched vs "
                             "unbatched golden, bitwise) instead")
    verify.add_argument("--fuzz", type=int, default=0, metavar="N",
                        help="run N random fuzzed cases instead")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--shrink", action="store_true",
                        help="shrink failing cases to minimal repros")

    args = parser.parse_args(argv)
    if args.command == "train" and args.trace and (args.faults
                                                   or args.resize):
        # The Eq. 1-4 audit assumes a fault-free run at one world size.
        train.error("argument --trace: not allowed with argument "
                    + ("--faults" if args.faults else "--resize"))
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
