"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``plan MODEL N_GPUS [GPU]`` / ``plan MODEL --cluster SPEC.json`` —
  §3/§7 job planning: plan-space search, scale-up ratio, predicted
  performance vs Megatron-LM on the same cluster.
* ``table3`` — regenerate the headline strong-scaling table.
* ``train-demo [STEPS]`` — train a miniature MoE with SP+EP on a
  simulated node and print the loss curve.
* ``ft-demo [STEPS]`` — same run under the fault-tolerance subsystem:
  injected comm faults, a rank crash, a loss spike, and a slow link,
  with retries, checkpoint rollback, and straggler detection.
* ``trace [STEPS]`` — train the miniature MoE under the observability
  subsystem: per-collective spans, an Eq. 1–4 comm-volume audit, a
  simulated overlap timeline, and a Chrome-trace JSON you can open in
  Perfetto / ``chrome://tracing``.
* ``verify [--smoke | --elastic | --serve | --fuzz N] [--seed S]`` —
  differential conformance: run parallel plans against the single-rank
  golden model and print the cases × invariants matrix (exit 1 on any
  violation).  ``--elastic`` runs the resize conformance grid;
  ``--serve`` runs the continuous-batching serving matrix (batched vs
  unbatched golden, bitwise).
* ``serve-demo [N_REQUESTS]`` — continuous-batching MoE inference on
  the decode DAG: Poisson arrivals, paged KV, disaggregated
  attention/expert ranks, an optional mid-stream rank crash, and
  p50/p95/p99 latency percentiles on the virtual clock.
* ``elastic-demo [STEPS]`` — shrink the world mid-run and grow it
  back via checkpoint–reshard–resume, then diff the loss trajectory
  against the fixed-size run.
* ``models`` / ``gpus`` — list the Table 2 zoo and Table 4 hardware.
"""

from __future__ import annotations

import argparse
import sys

from .core.config import GPU_SPECS, MODEL_ZOO


def cmd_models(_args) -> int:
    print(f"{'name':16s} {'params':>8s} {'act.':>8s} {'layers':>6s} "
          f"{'h':>6s} {'h_ffn':>6s} {'E':>3s} {'k':>2s} {'m':>2s}")
    for name, m in MODEL_ZOO.items():
        print(f"{name:16s} {m.total_params / 1e9:7.1f}B "
              f"{m.activated_params / 1e9:7.1f}B {m.n_layers:6d} "
              f"{m.hidden_size:6d} {m.ffn_hidden_size:6d} "
              f"{m.n_experts:3d} {m.top_k:2d} {m.gqa_ratio:2d}")
    return 0


def cmd_gpus(_args) -> int:
    print(f"{'name':6s} {'TFLOPS':>7s} {'HBM':>6s} {'HBM bw':>8s} "
          f"{'NVLink':>7s} {'NIC':>6s}")
    for name, g in GPU_SPECS.items():
        print(f"{name:6s} {g.peak_flops / 1e12:7.0f} "
              f"{g.memory_bytes / 1024 ** 3:4.0f}GB "
              f"{g.memory_bandwidth / 1e12:5.1f}TB/s "
              f"{g.nvlink_bandwidth / 1e9:4.0f}GB/s "
              f"{g.nic_bandwidth / 1e9:3.0f}GB/s")
    return 0


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
    train = TrainConfig(global_batch_size=args.batch,
                        micro_batch_size=args.micro_batch)
    try:
        if args.schedule_budget > 0:
            composed = optimize_plan(model, cluster, train,
                                     budget=args.schedule_budget,
                                     seed=args.seed)
            result = composed.plan
        else:
            result = plan_cluster(model, cluster, train)
    except NoFeasiblePlan as exc:
        print(f"NoFeasiblePlan: {exc}", file=sys.stderr)
        return 1
    print(result.explain())
    best = result.best.candidate

    runners_up = result.ranked[1:args.top]
    if runners_up:
        print("\nrunners-up:")
        for scored in runners_up:
            print(f"  {scored.iteration_time * 1e3:9.1f} ms  "
                  f"{scored.candidate.describe()}")

    gpu = cluster.bottleneck_gpu()
    ms = result.best.iteration
    par = best.parallel
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
        print(f"\nschedule search (budget {args.schedule_budget}, "
              f"seed {args.seed}): layer gain "
              f"{composed.layer_gain * 100:.2f}% over the holistic "
              f"baseline ({composed.fwd.evaluations} fwd + "
              f"{composed.bwd.evaluations} bwd evaluations)")

    if args.verify:
        from .verify import plan_conformance_cases, run_matrix
        precision = ("fp8" if best.precision == "fp8" else "bf16")
        cases = plan_conformance_cases(
            attention=par.attention, ffn=par.ffn,
            ep_dispatch=par.ep_dispatch, precision=precision,
            pp=par.pipeline_size, dp=par.data_parallel_size,
            seed=args.seed)
        print(f"\nverifying the winner on the conformance matrix "
              f"({len(cases)} cases)")
        report = run_matrix(cases)
        print(report.render())
        if not report.ok:
            return 1
    return 0


def cmd_table3(_args) -> int:
    from .core.config import ParallelConfig, TrainConfig
    from .perf.systems import MegaScalePerfModel, MegatronPerfModel

    model = MODEL_ZOO["internal-352b"]
    gpu = GPU_SPECS["h800"]
    train = TrainConfig(global_batch_size=720)
    print(f"{'GPUs':>5s} {'Megatron s/iter':>16s} "
          f"{'MegaScale s/iter':>17s} {'tok/s':>8s} {'speedup':>8s}")
    for n_gpus in (240, 480, 720, 960, 1440):
        dp = n_gpus // 120
        ms = MegaScalePerfModel().iteration(
            model, ParallelConfig.megascale(8, 15, dp), train, gpu)
        mg = MegatronPerfModel().iteration(
            model, ParallelConfig.megatron(8, 15, dp), train, gpu)
        print(f"{n_gpus:5d} {mg.iteration_time:16.2f} "
              f"{ms.iteration_time:17.2f} "
              f"{ms.tokens_per_second / 1e3:7.0f}k "
              f"{mg.iteration_time / ms.iteration_time:7.2f}x")
    return 0


def cmd_train_demo(args) -> int:
    import numpy as np

    from .comm import World
    from .core.config import ModelConfig, ParallelConfig, TrainConfig
    from .core.trainer import MegaScaleTrainer
    from .data import MarkovCorpus, batch_iterator
    from .model import MoETransformer

    config = ModelConfig("cli-demo", 2, 32, 8, 2, 48, 8, 2,
                         vocab_size=64, seq_len=16)
    model = MoETransformer(config, seed=0, dtype=np.float64)
    train = TrainConfig(global_batch_size=4, micro_batch_size=4,
                        seq_len=16, learning_rate=3e-3, weight_decay=0.0,
                        aux_loss_coeff=0.01,
                        tile_tokens=args.tile_tokens)
    trainer = MegaScaleTrainer(
        model, World(4, 4), ParallelConfig.megascale(4), train)
    corpus = MarkovCorpus(vocab_size=64, seed=0)
    print("step  lm-loss")
    for step, batch in enumerate(
            batch_iterator(corpus, 4, 16, seed=1, limit=args.steps)):
        result = trainer.train_step(batch)
        print(f"{step:4d}  {result.lm_loss:.4f}")
    return 0


def cmd_ft_demo(args) -> int:
    import tempfile

    import numpy as np

    from .comm import World
    from .core.config import ModelConfig, ParallelConfig, TrainConfig
    from .core.runner import FaultInjector, ProductionRunner
    from .core.trainer import MegaScaleTrainer
    from .data import MarkovCorpus, batch_iterator
    from .ft import (BackoffPolicy, FaultPlan, FaultSpec, HealthMonitor,
                     LossSpikeGuard, NumericGuard, StragglerDetector)
    from .model import MoETransformer

    steps = args.steps
    if steps < 1:
        print(f"steps must be >= 1, got {steps}", file=sys.stderr)
        return 2
    config = ModelConfig("ft-demo", 1, 16, 4, 2, 24, 4, 2,
                         vocab_size=32, seq_len=8)
    train = TrainConfig(global_batch_size=2, micro_batch_size=2,
                        seq_len=8, learning_rate=5e-3, weight_decay=0.0,
                        aux_loss_coeff=0.01)
    # One plan shared across restarts: a mid-run timeout and a
    # corrupted transfer (both transient, cleared by retry), plus a
    # persistently 2x-slow link on rank 1 for the straggler detector.
    plan = FaultPlan(
        [FaultSpec("timeout", at_call=40),
         FaultSpec("corrupt", at_call=90)],
        slow_ranks={1: 2.0}, seed=0)
    # With 2 ranks the z-score of a single outlier is capped at 1.0
    # (sqrt(n - 1)), so lower the threshold below that ceiling.
    monitor = HealthMonitor(
        straggler=StragglerDetector(window=8, z_threshold=0.9),
        numeric=NumericGuard())

    def factory():
        model = MoETransformer(config, seed=0, dtype=np.float64)
        world = World(2, 2).attach_fault_plan(plan)
        return MegaScaleTrainer(
            model, world, ParallelConfig.megascale(2), train,
            health=monitor)

    ckpt_dir = args.dir or tempfile.mkdtemp(prefix="repro-ft-demo-")
    runner = ProductionRunner(
        factory, ckpt_dir, checkpoint_interval=4,
        retry_policy=BackoffPolicy(max_retries=3, base_delay=0.5),
        loss_guard=LossSpikeGuard(window=8, factor=3.0),
        numeric_guard=NumericGuard())
    injector = FaultInjector(fault_steps=[steps // 2 + 1],
                             spike_steps=[3 * steps // 4 + 1],
                             spike_factor=50.0)
    corpus = MarkovCorpus(vocab_size=32, seed=0)
    batches = list(batch_iterator(corpus, 2, 8, seed=1, limit=steps))
    metrics = runner.run(batches, injector)

    print(f"trained {steps} batches ({len(metrics.steps)} step "
          f"executions, {metrics.replayed_steps} replayed)")
    print(f"comm faults injected : "
          f"{[e.kind for e in plan.fired] or 'none'}")
    print(f"restarts             : {metrics.restart_count} "
          f"(at steps {metrics.restarts or '-'})")
    print(f"retries / backoff    : {metrics.retries} / "
          f"{metrics.backoff_seconds:.1f}s simulated")
    print(f"loss-spike rollbacks : {len(metrics.rollbacks)} "
          f"(at steps {metrics.rollbacks or '-'})")
    print(f"checkpoints          : {metrics.checkpoints} "
          f"(discarded: {runner.discarded or 'none'})")
    print(f"stragglers flagged   : "
          f"{monitor.flagged_stragglers() or 'none'} "
          f"(rank 1 runs a 2x-slow link)")
    if metrics.losses:
        print(f"final loss           : {metrics.losses[-1]:.4f}")
    else:
        print("final loss           : - (already trained; resume "
              "found nothing to do)")
    print(f"checkpoint dir       : {ckpt_dir}")
    return 0


def cmd_trace(args) -> int:
    import numpy as np

    from .comm import World
    from .core.config import ModelConfig, ParallelConfig, TrainConfig
    from .core.operators import build_forward_graph
    from .core.schedule import HolisticScheduler
    from .core.trainer import MegaScaleTrainer
    from .data import MarkovCorpus, batch_iterator
    from .model import MoETransformer
    from .obs import (Observability, audit_comm_volumes,
                      crosscheck_tracer_ledger, text_summary,
                      write_chrome_trace)
    from .perf.estimator import KernelModel
    from .sim import simulate

    steps = args.steps
    if steps < 1:
        print(f"steps must be >= 1, got {steps}", file=sys.stderr)
        return 2

    # AG/RS dispatch keeps every audited mechanism on an exact ring
    # identity (Eqs. 2 and 4); A2A dispatch volumes fluctuate with the
    # router and only audit against the Eq. 3 expectation.
    n = 4
    config = ModelConfig("trace-demo", 2, 32, 8, 2, 48, 8, 2,
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

    corpus = MarkovCorpus(vocab_size=64, seed=0)
    for batch in batch_iterator(corpus, 4, 16, seed=1, limit=steps):
        trainer.train_step(batch)

    # A simulated overlap timeline for the same strategy lands on its
    # own ``sim`` process lane (simulated clock, not wall clock).
    gpu = GPU_SPECS["h800"]
    graph = build_forward_graph(
        MODEL_ZOO["internal-352b"],
        ParallelConfig.megascale(8, ep_dispatch="ag_rs"), 1)
    tasks = HolisticScheduler().schedule(
        graph, KernelModel(gpu).durations(graph))
    simulate(tasks, tracer=obs.tracer, trace_pid="sim")

    report = audit_comm_volumes(
        world.ledger, b=4, s=16, h=32, n=n, m=config.gqa_ratio,
        k=config.top_k, itemsize=model.embedding.data.itemsize,
        passes=config.n_layers * steps)
    matched, traced, ledger_bytes = crosscheck_tracer_ledger(
        obs.tracer, world.ledger)

    trace = write_chrome_trace(args.out, obs.tracer, extra_metadata={
        "model": config.name, "steps": steps,
        "strategy": "SP+EP (ag_rs)", "model_parallel_size": n})
    print(text_summary(obs.tracer, title=f"trace of {steps} steps"))
    print()
    print(obs.metrics.render("metrics"))
    print()
    print(report.render())
    print()
    print(f"tracer/ledger bytes  : {traced:.0f} vs {ledger_bytes:.0f} "
          f"({'match' if matched else 'MISMATCH'})")
    print(f"chrome trace         : {args.out} "
          f"({len(trace['traceEvents'])} events; open in Perfetto or "
          f"chrome://tracing)")
    if not report.ok:
        for entry in report.failed():
            print(f"AUDIT FAILED: {entry.mechanism} off by "
                  f"{entry.rel_error:.2%} (tolerance "
                  f"{entry.tolerance:.2%})", file=sys.stderr)
        return 1
    if not matched:
        print("AUDIT FAILED: traced bytes do not match the ledger",
              file=sys.stderr)
        return 1
    return 0


def cmd_elastic_demo(args) -> int:
    import tempfile

    import numpy as np

    from .comm import World
    from .core.config import ModelConfig, ParallelConfig, TrainConfig
    from .core.runner import FaultInjector
    from .core.trainer import MegaScaleTrainer
    from .elastic import ElasticRunner, ParallelLayout
    from .model import MoETransformer
    from .verify.invariants import tolerance_for_precision

    steps = args.steps
    shrink_at = args.shrink_at if args.shrink_at is not None \
        else max(1, steps // 3)
    grow_at = args.grow_at if args.grow_at is not None \
        else max(shrink_at + 1, (2 * steps) // 3)
    if not 1 <= shrink_at < grow_at < steps:
        print(f"need 1 <= shrink ({shrink_at}) < grow ({grow_at}) < "
              f"steps ({steps})", file=sys.stderr)
        return 2

    config = ModelConfig("elastic-demo", 2, 32, 8, 2, 48, 8, 2,
                         vocab_size=64, seq_len=16)
    train = TrainConfig(global_batch_size=2, micro_batch_size=2,
                        seq_len=16, learning_rate=1e-2, weight_decay=0.0,
                        aux_loss_coeff=0.01)
    rng = np.random.default_rng(0)
    batches = [rng.integers(0, 64, size=(2, 17)) for _ in range(steps)]

    def layout_at(n: int) -> ParallelLayout:
        return ParallelLayout.from_parallel_config(
            ParallelConfig.megascale(n))

    def factory(layout: ParallelLayout):
        n = layout.world_size
        model = MoETransformer(config, seed=0, dtype=np.float64)
        return MegaScaleTrainer(
            model, World(n, n), ParallelConfig.megascale(n), train)

    # The fixed-size golden: the same batches at world size 4 all the
    # way through.
    fixed = factory(layout_at(4))
    fixed_losses = [float(fixed.train_step(b).loss) for b in batches]

    ckpt_dir = args.dir or tempfile.mkdtemp(prefix="repro-elastic-")
    runner = ElasticRunner(factory, layout_at(4), ckpt_dir,
                           checkpoint_interval=4)
    injector = FaultInjector(resize_steps={shrink_at: layout_at(2),
                                           grow_at: layout_at(4)})
    metrics = runner.run(batches, injector)

    final = {}
    for step, loss in zip(metrics.steps, metrics.losses):
        final[step] = loss
    band = tolerance_for_precision("fp32", "loss")

    print(f"elastic run: world 4 -> 2 at step {shrink_at} -> 4 at "
          f"step {grow_at} ({steps} batches)")
    print(f"{'step':>4s} {'world':>5s} {'elastic':>12s} "
          f"{'fixed-size':>12s} {'rel err':>9s}")
    world = 4
    ok = True
    for step in range(steps):
        if step == shrink_at:
            world = 2
        elif step == grow_at:
            world = 4
        got, want = final[step], fixed_losses[step]
        rel = abs(got - want) / max(abs(want), 1e-300)
        within = band.close(got, want, want)
        ok = ok and within
        mark = "" if within else "  OUT OF BAND"
        print(f"{step:4d} {world:5d} {got:12.8f} {want:12.8f} "
              f"{rel:9.2e}{mark}")
    print(f"resizes absorbed     : {metrics.resizes} "
          f"(restarts: {metrics.restart_count})")
    for report in runner.reshard_reports:
        print(f"reshard              : [{report.old_layout.describe()}]"
              f" -> [{report.new_layout.describe()}]")
        print(f"  zero1 shards       : {report.zero_elements_moved} of "
              f"{report.numel} elements changed ranks "
              f"({report.zero_bytes / 1024:.1f} KiB)")
        print(f"  experts            : {report.n_experts_moved} moved "
              f"({report.expert_bytes / 1024:.1f} KiB)")
        print(f"  dp rings re-formed : {len(report.dp_rings)}")
        print(f"  modelled cost      : {report.seconds() * 1e6:.2f} us "
              f"at reshard link bandwidth")
    print(f"reshard total        : {metrics.reshard_bytes / 1024:.1f} "
          f"KiB moved, {metrics.reshard_seconds * 1e6:.2f} us modelled")
    print(f"checkpoint dir       : {ckpt_dir}")
    if ok:
        print(f"trajectory match     : all {steps} steps within the "
              f"fp32 band (rtol {band.rtol:g})")
        return 0
    print("trajectory match     : FAILED (see OUT OF BAND rows)",
          file=sys.stderr)
    return 1


def cmd_serve_demo(args) -> int:
    import numpy as np

    from .comm import World
    from .core.config import ModelConfig, ServeConfig
    from .ft import FaultPlan, FaultSpec
    from .obs import Tracer
    from .serve import (ServeEngine, VirtualClock, bursty_trace,
                        golden_decode, poisson_trace)

    n = args.n_requests
    if n < 1:
        print(f"n_requests must be >= 1, got {n}", file=sys.stderr)
        return 2
    config = ModelConfig("serve-demo", 2, 32, 8, 2, 48, 8, 2,
                         vocab_size=64, seq_len=64)
    from .model import MoETransformer
    model = MoETransformer(config, seed=0, dtype=np.float64)
    serve = ServeConfig(attention_ranks=2, expert_ranks=2,
                        kv_block_size=4, kv_blocks=args.kv_blocks,
                        max_batch_size=args.batch)
    if args.trace == "poisson":
        requests = poisson_trace(n, rate=0.5, vocab=64, seed=args.seed)
    else:
        requests = bursty_trace(n, burst_size=3, burst_gap=2.0,
                                vocab=64, seed=args.seed)
    world = World(serve.world_size)
    if args.crash_at is not None:
        world.attach_fault_plan(FaultPlan(
            [FaultSpec(kind="crash", at_call=args.crash_at)]))
    clock = VirtualClock()
    tracer = Tracer(clock=clock)
    engine = ServeEngine(model, serve, world=world, tracer=tracer,
                        clock=clock)
    try:
        result = engine.run(requests)
    finally:
        engine.shutdown()
    golden = golden_decode(model, serve, requests)

    print(f"served {len(result.results)} requests in "
          f"{result.n_iterations} iterations "
          f"(batch <= {serve.max_batch_size}, "
          f"{len(engine.placement.attn_ranks)} attn + "
          f"{len(engine.placement.expert_ranks)} expert ranks)")
    print(f"{'req':>4s} {'arrive':>7s} {'finish':>7s} {'lat':>6s} "
          f"{'rst':>4s}  prompt -> generated")
    mismatches = 0
    for rid in sorted(result.results):
        r = result.results[rid]
        g = golden.results[rid]
        match = (r.generated == g.generated and all(
            np.array_equal(a, b) for a, b in zip(r.logits, g.logits)))
        mismatches += 0 if match else 1
        mark = "" if match else "  MISMATCH vs golden"
        print(f"{rid:4d} {r.arrival_time:7.2f} {r.finish_time:7.2f} "
              f"{r.latency:6.2f} {r.restarts:4d}  "
              f"{list(r.prompt)} -> {r.generated}{mark}")
    lat = result.latency
    if lat:
        print(f"latency (virtual s)  : p50 {lat['p50']:.2f}  "
              f"p95 {lat['p95']:.2f}  p99 {lat['p99']:.2f}  "
              f"mean {lat['mean']:.2f}")
        print(f"throughput           : "
              f"{lat['throughput_tokens']:.2f} tok/s over "
              f"{lat['span_seconds']:.2f}s")
    print(f"crashes / evictions  : {result.n_crashes} / "
          f"{result.n_evictions}")
    tags = world.ledger.bytes_by_tag()
    print(f"bridge a2a bytes     : dispatch "
          f"{tags.get('serve:dispatch_a2a', 0.0):.0f}, combine "
          f"{tags.get('serve:combine_a2a', 0.0):.0f}")
    if mismatches:
        print(f"golden check         : FAILED ({mismatches} requests "
              f"diverged)", file=sys.stderr)
        return 1
    print(f"golden check         : all {len(result.results)} requests "
          f"bitwise-identical to the unbatched sequential run")
    return 0


def cmd_verify(args) -> int:
    from .verify import run_matrix, smoke_matrix
    from .verify.cases import elastic_matrix
    from .verify.fuzz import fuzz

    def progress(result) -> None:
        mark = "ok" if result.ok else "FAIL"
        print(f"  {result.case.case_id:48s} {mark}", flush=True)

    if args.serve:
        from .verify import run_serve_matrix, serve_matrix
        cases = serve_matrix(seed=args.seed)
        print(f"running the serve matrix ({len(cases)} cases, "
              f"seed {args.seed})")
        report = run_serve_matrix(cases, progress=progress)
        print()
        print(report.render())
        return 0 if report.ok else 1
    if args.fuzz > 0:
        print(f"fuzzing {args.fuzz} random cases (seed {args.seed})")
        report = fuzz(args.fuzz, seed=args.seed, progress=progress)
    else:
        if args.elastic:
            cases = elastic_matrix(seed=args.seed)
            label = "elastic (resize) matrix"
        else:
            cases = smoke_matrix(seed=args.seed)
            label = "smoke matrix"
        print(f"running the {label} ({len(cases)} cases, "
              f"seed {args.seed})")
        report = run_matrix(cases, progress=progress)
    print()
    print(report.render())
    if not report.ok and args.shrink:
        from .verify.fuzz import shrink

        def fails(case) -> bool:
            from .verify import run_case
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

    sub.add_parser("models", help="list the Table 2 model zoo")
    sub.add_parser("gpus", help="list the Table 4 GPU specs")

    plan = sub.add_parser("plan", help="plan a training job (§3/§7)")
    plan.add_argument("model", choices=sorted(MODEL_ZOO))
    plan.add_argument("n_gpus", nargs="?", type=int, default=None)
    plan.add_argument("gpu", nargs="?", default="h800",
                      choices=sorted(GPU_SPECS))
    plan.add_argument("--batch", type=int, default=720)
    plan.add_argument("--cluster", default=None, metavar="SPEC.json",
                      help="cluster description file (nodes, GPU "
                           "models, link tiers) in place of N_GPUS/GPU; "
                           "describes mixed fleets")
    plan.add_argument("--micro-batch", type=int, default=2,
                      help="micro-batch size the plan is priced at")
    plan.add_argument("--top", type=int, default=4,
                      help="ranked plans to print")
    plan.add_argument("--schedule-budget", type=int, default=0,
                      metavar="N",
                      help="also run the op-priority schedule search "
                           "on the winner with this evaluation budget")
    plan.add_argument("--verify", action="store_true",
                      help="run the winning strategy through the "
                           "conformance matrix (exit 1 on violation)")
    plan.add_argument("--seed", type=int, default=0)

    sub.add_parser("table3", help="regenerate the strong-scaling table")

    demo = sub.add_parser("train-demo",
                          help="train a miniature MoE on one node")
    demo.add_argument("steps", nargs="?", type=int, default=10)
    demo.add_argument("--tile-tokens", type=int, default=None,
                      help="token-chunk width for tile-granular "
                           "fused-kernel execution (4.2); must divide "
                           "the per-rank sequence shard")

    ft = sub.add_parser(
        "ft-demo",
        help="train through injected faults with full recovery")
    ft.add_argument("steps", nargs="?", type=int, default=16)
    ft.add_argument("--dir", default=None,
                    help="checkpoint directory (default: temp dir)")

    trace = sub.add_parser(
        "trace",
        help="traced training demo with comm-volume audit")
    trace.add_argument("steps", nargs="?", type=int, default=2)
    trace.add_argument("--out", default="trace.json",
                       help="Chrome-trace output path")

    elastic = sub.add_parser(
        "elastic-demo",
        help="shrink and grow the world mid-run via "
             "checkpoint-reshard-resume")
    elastic.add_argument("steps", nargs="?", type=int, default=9)
    elastic.add_argument("--shrink-at", type=int, default=None,
                         help="step at which the world shrinks to 2 "
                              "ranks (default: steps // 3)")
    elastic.add_argument("--grow-at", type=int, default=None,
                         help="step at which the world grows back to "
                              "4 ranks (default: 2 * steps // 3)")
    elastic.add_argument("--dir", default=None,
                         help="checkpoint directory (default: temp "
                              "dir)")

    serve = sub.add_parser(
        "serve-demo",
        help="continuous-batching MoE inference with paged KV and "
             "disaggregated expert ranks")
    serve.add_argument("n_requests", nargs="?", type=int, default=6)
    serve.add_argument("--trace", default="poisson",
                       choices=["poisson", "bursty"],
                       help="arrival process for the request trace")
    serve.add_argument("--batch", type=int, default=3,
                       help="max concurrent requests per iteration")
    serve.add_argument("--kv-blocks", type=int, default=64,
                       help="paged KV pool size (small values force "
                            "mid-stream evictions)")
    serve.add_argument("--crash-at", type=int, default=None,
                       metavar="CALL",
                       help="inject a rank crash at the Nth collective "
                            "call; in-flight requests re-queue and "
                            "replay")
    serve.add_argument("--seed", type=int, default=0)

    verify = sub.add_parser(
        "verify",
        help="differential conformance matrix vs the golden model")
    verify.add_argument("--smoke", action="store_true",
                        help="run the seeded CI smoke matrix (default)")
    verify.add_argument("--elastic", action="store_true",
                        help="run the resize conformance grid (shrink "
                             "at step 1, grow back at step 2) instead")
    verify.add_argument("--serve", action="store_true",
                        help="run the continuous-batching serving "
                             "matrix (batched vs unbatched golden, "
                             "bitwise) instead")
    verify.add_argument("--fuzz", type=int, default=0, metavar="N",
                        help="run N random fuzzed cases instead")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--shrink", action="store_true",
                        help="shrink failing cases to minimal "
                             "reproducers")

    args = parser.parse_args(argv)
    handlers = {
        "models": cmd_models,
        "gpus": cmd_gpus,
        "plan": cmd_plan,
        "table3": cmd_table3,
        "train-demo": cmd_train_demo,
        "ft-demo": cmd_ft_demo,
        "trace": cmd_trace,
        "elastic-demo": cmd_elastic_demo,
        "serve-demo": cmd_serve_demo,
        "verify": cmd_verify,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
