"""The two train workloads: timed pass and per-layer pass.

Everything is measured from outside, by timing calls into public
functions.  The timed pass builds the trainer from default-constructed
configs (no ``execution=`` / ``backend=``), so whatever path the
program makes its default is the one that is scored.
"""

from __future__ import annotations

import gc
import math
import time
import traceback
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional

import numpy as np

from harness import (LOW, SETUP_REPEATS, MissingSymbol, Report, Spans,
                     import_seconds, low, peak_rss_mb, percentile, sample, sym)
from workloads import TRAIN_BATCH, TRAIN_RANKS, TrainSpec

from repro.comm import World
from repro.core.config import ParallelConfig, TrainConfig
from repro.core.trainer import MegaScaleTrainer
from repro.model import MoETransformer

IMPORTS = ("numpy", "repro.comm", "repro.core.trainer", "repro.model",
           "repro.data")
LEARNING_RATE = 1e-2

#: The five execution-mode combinations that exist today; the only
#: mode comparison published is between these, in one process, on the
#: same batches, with losses required bitwise-equal.
MODE_NAMES = ("engine-sequential", "dag-sequential", "dag-threaded",
              "dag-vectorized", "dag-vectorized-tiled")


def mode_config(spec: TrainSpec, name: str) -> Dict[str, Any]:
    """``TrainConfig`` keywords of one named mode combination."""
    backend, execution = name.split("-")[:2]
    config: Dict[str, Any] = {"backend": backend, "execution": execution}
    if name.endswith("-tiled"):
        config["tile_tokens"] = spec.seq // TRAIN_RANKS // 2
    return config


#: ``dag.op:`` names rolled up from the program's own tracer (the
#: costliest of the a2a and ag_rs layer graphs).
OBS_OPS = ("attention", "fc1", "router", "rope", "qkv_proj", "out_proj",
           "qkv_a2a", "attn_a2a", "scatter", "weighted_sum", "gather",
           "ffn_rs")


def parallel_config(spec: TrainSpec) -> ParallelConfig:
    return ParallelConfig(model_parallel_size=TRAIN_RANKS, attention="sp",
                          ffn="ep", ep_dispatch=spec.dispatch)


def build(spec: TrainSpec, seed: int, obs: Optional[object] = None,
          **mode: Any) -> MegaScaleTrainer:
    """A fresh model, world and trainer; ``mode`` is empty for every
    end-to-end number."""
    model = MoETransformer(spec.model_config(), seed=seed)
    train = TrainConfig(global_batch_size=TRAIN_BATCH,
                        micro_batch_size=TRAIN_BATCH, seq_len=spec.seq,
                        learning_rate=LEARNING_RATE, **mode)
    return MegaScaleTrainer(model, World(TRAIN_RANKS, TRAIN_RANKS),
                            parallel_config(spec), train, obs=obs)


def step(trainer: MegaScaleTrainer, batch: np.ndarray,
         report: Report) -> float:
    """One ``train_step``, counted as an operation; returns the loss."""
    try:
        loss = trainer.train_step(batch).loss
    except Exception:  # an operation that raises is a failed operation
        report.operation(False, "train_step raised:\n"
                         + traceback.format_exc())
        return math.nan
    report.operation(math.isfinite(loss), f"non-finite loss {loss}")
    return loss


def check_golden(spec: TrainSpec, seed: int, batch: np.ndarray,
                 first_loss: float, report: Report) -> None:
    """The first step's loss against the single-rank golden model on
    the same initial weights (the parallel engines are exact)."""
    golden = MoETransformer(spec.model_config(), seed=seed)
    want = golden.language_model_loss(
        batch, aux_coeff=TrainConfig().aux_loss_coeff).item()
    report.operation(
        math.isclose(first_loss, want, rel_tol=1e-4),
        f"first step loss {first_loss!r} != single-rank golden {want!r} "
        "(rtol 1e-4)")


@dataclass
class Windows:
    """What :func:`timed_windows` measured."""

    wall: List[float]
    cpu: List[float]
    #: Loss after each step of the (identical) windows.
    losses: List[float]
    #: Ledger bytes and collective calls of one window.
    bytes: float
    calls: int
    #: High-water RSS right after the first window.
    rss_mb: float


def timed_windows(trainer: MegaScaleTrainer, spec: TrainSpec,
                  batches: List[np.ndarray], seconds: float,
                  report: Report) -> Windows:
    """Time ``train_step`` over repeats of one fixed window of steps.

    A step gets slower as training goes on (on the wide workload the
    router spreads the Zipf-skewed load over more experts: 306 ms at
    step 10, 390 ms at step 120), so "steps until the clock runs out"
    would time different work on a faster host or a faster commit.
    Instead every window restores the state saved after warm-up and
    replays the same ``fixed_ops`` batches; windows repeat until
    ``seconds`` are used, and only the number of samples grows.
    """
    initial = trainer.state_dict()
    ledger = trainer.world.ledger
    before = (ledger.total_bytes(), sum(ledger.counts().values()))
    out: Optional[Windows] = None
    deadline = time.perf_counter() + seconds
    while True:
        losses: List[float] = []
        window = sample(
            lambda i: losses.append(step(trainer, batches[i], report)),
            seconds=0.0, min_ops=spec.fixed_ops, max_ops=spec.fixed_ops)
        if out is None:
            out = Windows(
                [], [], losses, ledger.total_bytes() - before[0],
                sum(ledger.counts().values()) - before[1], peak_rss_mb())
        else:
            report.operation(
                losses == out.losses,
                f"a replayed window's losses differ: {losses} != "
                f"{out.losses}")
        out.wall += window["wall"]
        out.cpu += window["cpu"]
        if time.perf_counter() >= deadline:
            return out
        trainer.load_state_dict(initial)


def end_to_end(spec: TrainSpec, seed: int, seconds: float,
               report: Report) -> None:
    pool = spec.batches(seed, spec.warmup + spec.fixed_ops)
    warm, timed = pool[:spec.warmup], pool[spec.warmup:]

    trainer = None
    build_times = []
    for _ in range(SETUP_REPEATS):
        trainer = None  # one trainer alive at a time, for peak_rss_mb
        gc.collect()
        t0 = time.perf_counter()
        trainer = build(spec, seed)
        warm_losses = [step(trainer, b, report) for b in warm]
        build_times.append(time.perf_counter() - t0)
    check_golden(spec, seed, warm[0], warm_losses[0], report)

    windows = timed_windows(trainer, spec, timed, seconds, report)

    report.set("throughput_per_s",
               spec.tokens_per_step / low(windows.wall),
               f"trained tokens/s; q{LOW} of n={len(windows.wall)} steps")
    report.set_timing("op_cpu_ms", windows.cpu, 1e3)
    report.set("comm_bytes_per_token",
               windows.bytes / (spec.fixed_ops * spec.tokens_per_step),
               f"ledger bytes of one {spec.fixed_ops}-step window")
    report.set("peak_rss_mb", windows.rss_mb, "after the first window")
    report.set("setup_s",
               import_seconds(IMPORTS) + percentile(build_times, 50),
               f"imports + build + {spec.warmup} warm-up steps; "
               f"median of {SETUP_REPEATS}")
    step_statistics(spec, windows, report)


def step_statistics(spec: TrainSpec, windows: Windows,
                    report: Report) -> None:
    report.set("train.final_loss", windows.losses[-1],
               f"after {spec.warmup}+{spec.fixed_ops} steps")
    report.set_timing("core.trainer.step_ms_p50", windows.wall, 1e3, "p50")
    report.set_timing("core.trainer.step_ms_tail", windows.wall, 1e3, "tail")


# -- per-layer pass --------------------------------------------------------

@dataclass
class Ctx:
    """What the per-layer sections share."""

    spec: TrainSpec
    seed: int
    seconds: float
    report: Report
    spans: Spans
    pool: List[np.ndarray]
    #: Loss of the default path at every step from the initial weights:
    #: the bitwise reference for the phase-split and mode trainers.
    reference: List[float] = field(default_factory=list)
    default_low_ms: float = 0.0
    obs_rollup: Dict[str, Any] = field(default_factory=dict)


def per_layer(spec: TrainSpec, seed: int, seconds: float, report: Report,
              spans: Spans) -> Dict[str, Any]:
    """All per-layer metrics; returns the program-tracer roll-up for
    the trace file."""
    ctx = Ctx(spec, seed, seconds, report, spans,
              spec.batches(seed, spec.warmup + spec.fixed_ops))
    default_path(ctx)
    sections = [
        (phases, ["core.trainer.forward_ms", "runtime.backward_ms",
                  "precision.optimizer_ms", "precision.clip_ms"]),
        (single_rank, ["model.single_rank_step_ms",
                       "model.parallel_overhead_x"]),
        (engine_forwards, ["runtime.block_forward_ms",
                           "parallel.attn_forward_ms",
                           "parallel.ffn_forward_ms"]),
        (collectives, ["comm.a2a_us_per_call", "comm.ag_us_per_call",
                       "comm.rs_us_per_call"]),
        (tensor_ops, ["tensor.tape_overhead_us_per_op",
                      "tensor.matmul_fwd_bwd_us",
                      "tensor.sdpa_fwd_bwd_us"]),
        (golden_model, ["model.router_ms", "model.expert_load_cv"]),
        (compile_and_data, ["core.layer_program_compile_ms",
                            "data.batch_ms"]),
    ]
    for name in MODE_NAMES:
        sections.append((partial(mode, name=name),
                         [f"runtime.step_ms.{name}"]))
    # After the modes: the tracing overhead is relative to untraced
    # dag-sequential.
    sections.append((program_tracer,
                     ["obs.tracing_overhead_frac", "obs.spans_per_step",
                      "obs.forward_python_overhead_ms", "obs.comm_ms"]
                     + [f"obs.op_ms.{op}" for op in OBS_OPS]))
    for fn, names in sections:
        report.section(names, partial(fn, ctx))
    return ctx.obs_rollup


def default_path(ctx: Ctx) -> None:
    """Untraced ``train_step`` on the default configuration: the step
    distribution, the exact counts, and the bitwise reference."""
    spec, report = ctx.spec, ctx.report
    trainer = build(spec, ctx.seed)
    for batch in ctx.pool[:spec.warmup]:
        ctx.reference.append(step(trainer, batch, report))
    check_golden(spec, ctx.seed, ctx.pool[0], ctx.reference[0], report)

    windows = timed_windows(trainer, spec, ctx.pool[spec.warmup:],
                            0.3 * ctx.seconds, report)
    ctx.reference += windows.losses
    ctx.default_low_ms = low(windows.wall) * 1e3
    step_statistics(spec, windows, report)
    report.set("comm.bytes_per_step", windows.bytes / spec.fixed_ops)
    report.set("comm.calls_per_step", windows.calls / spec.fixed_ops)


def matches_reference(ctx: Ctx, i: int, loss: float, who: str) -> None:
    """Count a replayed step; it fails unless bitwise-equal."""
    ctx.report.operation(
        loss == ctx.reference[i],
        f"{who} step {i}: loss {loss!r} != default path "
        f"{ctx.reference[i]!r}")


def phases(ctx: Ctx) -> None:
    """``step > {forward, backward, optimizer > clip}`` spans around
    the same call sequence ``train_step`` makes, on a twin trainer."""
    backward = sym("repro.runtime", "backward")
    clip = sym("repro.precision.optimizer", "clip_grad_norm")
    trainer = build(ctx.spec, ctx.seed)
    spans = ctx.spans

    def op(i: int) -> None:
        with spans.span("step", i):
            trainer.model.zero_grad()
            with spans.span("forward", i):
                total, _, _ = trainer.loss(ctx.pool[i])
            with spans.span("backward", i):
                backward(total, executor=trainer.executor,
                         fault_plan=trainer.world.fault_plan,
                         tracer=trainer.world.tracer)
                for engine in trainer.engines:
                    engine.sync_grads_to_reference()
            with spans.span("optimizer", i):
                with spans.span("clip", i):
                    clip(trainer.model.parameters(),
                         trainer.train_cfg.grad_clip)
                trainer.optimizer.step()
                for engine in trainer.engines:
                    engine.refresh_shards()
            trainer.step_count += 1
        matches_reference(ctx, i, total.item(), "phase-split")

    sample(op, 0.15 * ctx.seconds, min_ops=3, max_ops=len(ctx.reference))
    for metric, span in (("core.trainer.forward_ms", "forward"),
                         ("runtime.backward_ms", "backward"),
                         ("precision.optimizer_ms", "optimizer"),
                         ("precision.clip_ms", "clip")):
        # Step 0 of a fresh trainer pays one-time costs; skip it.
        ctx.report.set_timing(metric, spans.durations(span)[1:], 1e3)


def mode(ctx: Ctx, name: str) -> None:
    """Step time of one explicit execution-mode combination."""
    try:
        trainer = build(ctx.spec, ctx.seed, **mode_config(ctx.spec, name))
    except (TypeError, ValueError) as exc:
        raise MissingSymbol(f"mode {name} is gone ({exc})") from exc

    def op(i: int) -> None:
        loss = step(trainer, ctx.pool[i], ctx.report)
        matches_reference(ctx, i, loss, name)

    steps = sample(op, 0.08 * ctx.seconds, min_ops=3,
                   max_ops=len(ctx.reference))
    ctx.report.set_timing(f"runtime.step_ms.{name}", steps["wall"][1:], 1e3)


def program_tracer(ctx: Ctx) -> None:
    """Attach the program's own ``Observability`` to a dag-sequential
    trainer and roll its ``dag.op:`` / ``comm`` spans up per op."""
    observability = sym("repro.obs", "Observability")
    obs = observability.create()
    trainer = build(ctx.spec, ctx.seed, obs=obs,
                    **mode_config(ctx.spec, "dag-sequential"))
    step(trainer, ctx.pool[0], ctx.report)
    obs.tracer.clear()

    def op(i: int) -> None:
        step(trainer, ctx.pool[1 + i], ctx.report)

    steps = sample(op, 0.08 * ctx.seconds, min_ops=2,
                   max_ops=len(ctx.pool) - 1)
    n = len(steps["wall"])
    closed = obs.tracer.closed_spans()
    per_name: Dict[str, float] = {}
    for s in closed:
        key = "comm" if s.cat == "comm" else s.name
        per_name[key] = per_name.get(key, 0.0) + s.duration * 1e3 / n
    ops_ms = {k[len("dag.op:"):]: v for k, v in per_name.items()
              if k.startswith("dag.op:")}
    report = ctx.report
    report.set("obs.spans_per_step", len(closed) / n)
    report.set("obs.comm_ms", per_name.get("comm", 0.0),
               f"mean per step over n={n}")
    report.set("obs.forward_python_overhead_ms",
               per_name["forward"] - sum(ops_ms.values()),
               "forward span minus the sum of dag.op: spans")
    for name in OBS_OPS:
        # An op of the other EP dispatch pattern never runs here.
        report.set(f"obs.op_ms.{name}", ops_ms.get(name, 0.0),
                   f"mean per step over n={n}")
    untraced = report.values.get("runtime.step_ms.dag-sequential")
    if untraced is None:
        report.skip(["obs.tracing_overhead_frac"],
                    "no untraced dag-sequential step time to compare to")
    else:
        report.set("obs.tracing_overhead_frac",
                   low(steps["wall"]) * 1e3 / untraced - 1.0,
                   f"traced q{LOW} of n={n} over untraced q{LOW}, minus 1")
    ctx.obs_rollup.update(per_step_ms=per_name, steps=n)


def single_rank(ctx: Ctx) -> None:
    """Plain single-worker fwd+bwd+AdamW on the same batches: the
    baseline the parallel step is an overhead factor of."""
    adamw = sym("repro.precision.optimizer", "AdamW")
    clip = sym("repro.precision.optimizer", "clip_grad_norm")
    defaults = TrainConfig()
    model = MoETransformer(ctx.spec.model_config(), seed=ctx.seed)
    optimizer = adamw(model.parameters(), lr=LEARNING_RATE,
                      betas=(defaults.adam_beta1, defaults.adam_beta2),
                      eps=defaults.adam_eps,
                      weight_decay=defaults.weight_decay)

    def op(i: int) -> None:
        model.zero_grad()
        model.language_model_loss(
            ctx.pool[i], aux_coeff=defaults.aux_loss_coeff).backward()
        clip(model.parameters(), defaults.grad_clip)
        optimizer.step()

    steps = sample(op, 0.08 * ctx.seconds, min_ops=3,
                   max_ops=len(ctx.pool))
    ctx.report.set_timing("model.single_rank_step_ms", steps["wall"][1:],
                          1e3)
    ctx.report.set(
        "model.parallel_overhead_x",
        ctx.default_low_ms / ctx.report.values["model.single_rank_step_ms"],
        f"q{LOW} default step / q{LOW} single-rank step")


def _shards(spec: TrainSpec, rng: np.random.Generator) -> List[Any]:
    """Workload-shaped ``[batch, seq/n, hidden]`` activation shards."""
    tensor = sym("repro.tensor", "Tensor")
    return [tensor(rng.standard_normal(
        (TRAIN_BATCH, spec.seq // TRAIN_RANKS, spec.hidden)
    ).astype(np.float32)) for _ in range(TRAIN_RANKS)]


def engine_forwards(ctx: Ctx) -> None:
    """One layer's engine call chains, forward-only, on workload-shaped
    shards (``null`` once the engine call chains are deleted)."""
    no_grad = sym("repro.tensor", "no_grad")
    trainer = build(ctx.spec, ctx.seed)
    block = trainer.engines[0]
    shards = _shards(ctx.spec, np.random.default_rng([ctx.seed, 3]))
    seq = ctx.spec.seq
    calls = (
        ("runtime.block_forward_ms", lambda i: block.forward(shards, seq)),
        ("parallel.attn_forward_ms",
         lambda i: block.attn_engine.forward(shards, seq)),
        ("parallel.ffn_forward_ms",
         lambda i: block.ffn_engine.forward(shards)),
    )
    with no_grad():
        for metric, call in calls:
            walls = sample(call, 0.02 * ctx.seconds, min_ops=4)["wall"]
            ctx.report.set_timing(metric, walls[1:], 1e3)


def collectives(ctx: Ctx) -> None:
    """The public collectives on workload-shaped shards, on a world of
    their own so the trainer's ledger stays exact."""
    comm = {name: sym("repro.comm", name)
            for name in ("all_to_all", "all_gather", "reduce_scatter")}
    n = TRAIN_RANKS
    group = World(n, n).full_group()
    rows = TRAIN_BATCH * ctx.spec.seq // n
    rng = np.random.default_rng([ctx.seed, 4])
    shard = [rng.standard_normal((rows, ctx.spec.hidden)).astype(np.float32)
             for _ in range(n)]
    chunks = [np.split(s, n) for s in shard]
    full = [np.concatenate(shard) for _ in range(n)]
    calls = (
        ("comm.a2a_us_per_call", lambda i: comm["all_to_all"](group, chunks)),
        ("comm.ag_us_per_call", lambda i: comm["all_gather"](group, shard)),
        ("comm.rs_us_per_call",
         lambda i: comm["reduce_scatter"](group, full)),
    )
    for metric, call in calls:
        walls = sample(call, 0.01 * ctx.seconds, min_ops=20)["wall"]
        ctx.report.set_timing(metric, walls, 1e6)


def tensor_ops(ctx: Ctx) -> None:
    """The autograd tape: per-op overhead on tiny tensors, and the two
    dominant kernels (forward + backward) at this workload's shapes."""
    tensor = sym("repro.tensor", "Tensor")
    sdpa = sym("repro.tensor", "scaled_dot_product_attention")
    spec = ctx.spec
    rng = np.random.default_rng([ctx.seed, 5])
    chain_ops = 1000

    def leaf(*shape: int) -> Any:
        return tensor(rng.standard_normal(shape).astype(np.float32),
                      requires_grad=True)

    def chain(i: int) -> None:
        y = leaf(8)
        for _ in range(chain_ops):
            y = y * 1.0001
        y.sum().backward()

    rows = TRAIN_BATCH * spec.seq // TRAIN_RANKS
    a, w = leaf(rows, spec.hidden), leaf(spec.hidden, spec.ffn)
    config = spec.model_config()
    heads = config.n_heads // TRAIN_RANKS
    q = leaf(TRAIN_BATCH, heads, spec.seq, config.head_dim)
    k = leaf(TRAIN_BATCH, max(1, heads // config.gqa_ratio), spec.seq,
             config.head_dim)
    v = leaf(*k.shape)
    calls = (
        ("tensor.tape_overhead_us_per_op", chain, 1e6 / chain_ops),
        ("tensor.matmul_fwd_bwd_us",
         lambda i: (a @ w).sum().backward(), 1e6),
        ("tensor.sdpa_fwd_bwd_us",
         lambda i: sdpa(q, k, v).sum().backward(), 1e6),
    )
    for metric, call, scale in calls:
        walls = sample(call, 0.01 * ctx.seconds, min_ops=5)["wall"]
        ctx.report.set_timing(metric, walls, scale)


def golden_model(ctx: Ctx) -> None:
    """The single-rank reference's router, and how unevenly the first
    batch loads the experts (the skew the workload was chosen for)."""
    tensor = sym("repro.tensor", "Tensor")
    no_grad = sym("repro.tensor", "no_grad")
    spec = ctx.spec
    model = MoETransformer(spec.model_config(), seed=ctx.seed)
    flat = tensor(np.random.default_rng([ctx.seed, 6]).standard_normal(
        (spec.tokens_per_step, spec.hidden)).astype(np.float32))
    router = model.blocks[0].moe.router
    with no_grad():
        walls = sample(lambda i: router(flat), 0.01 * ctx.seconds,
                       min_ops=5)["wall"]
        forward = model(ctx.pool[0][:, :-1])
    ctx.report.set_timing("model.router_ms", walls, 1e3)
    cvs = [float(np.std(out.tokens_per_expert)
                 / np.mean(out.tokens_per_expert))
           for out in forward.moe_outputs]
    ctx.report.set("model.expert_load_cv", float(np.mean(cvs)),
                   "std/mean of tokens per expert, mean over layers, "
                   "first batch, initial weights")


def compile_and_data(ctx: Ctx) -> None:
    layer_program = sym("repro.core.executor_bindings", "layer_program")
    spec = ctx.spec
    walls = sample(
        lambda i: layer_program(spec.model_config(), parallel_config(spec),
                                TRAIN_BATCH, spec.seq),
        0.01 * ctx.seconds, min_ops=3)["wall"]
    ctx.report.set_timing("core.layer_program_compile_ms", walls, 1e3)
    # Batches are generated before the timed steps, so this is off the
    # timed path; it is reported so that a data stall would be visible.
    t0 = time.perf_counter()
    spec.batches(ctx.seed, 8)
    ctx.report.set("data.batch_ms", (time.perf_counter() - t0) * 1e3 / 8,
                   "mean of n=8")
