"""The differential conformance engine: run a case, check every claim.

For one :class:`~repro.verify.cases.VerifyCase` the engine runs up to
three trainings from identical seeds —

1. the **case run**: the parallel plan under its configured comm
   precision and tile width (optionally with an injected fault plan,
   which is how tests prove the invariants catch real perturbations);
2. the **golden run**: the plain single-rank
   :meth:`~repro.model.transformer.MoETransformer.language_model_loss`
   model with the same optimizer schedule;
3. the **untiled twin** (tiled cases only): the identical plan with
   fused groups whole, for the tiling bitwise-identity contract —

plus one untrained **tape probe** forward whose autograd tape the
``dtype_stable`` invariant inspects and whose backward ``tape_released``
watches, and one two-replica **DP leg** whose synchronized gradients
and optimizer state ``dtype_stable`` inspects — then
evaluates every registered invariant and folds the outcomes into a
:class:`CaseResult`.
:func:`run_matrix` maps this over a case list and renders the
conformance matrix `repro verify` prints.
"""

from __future__ import annotations

import dataclasses
import types
import weakref
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..comm.group import World
from ..core.trainer import MegaScaleTrainer
from ..model.transformer import MoETransformer
from ..precision.optimizer import AdamW, clip_grad_norm
from ..tensor import Node, Tensor, graph_order
from .cases import VerifyCase
from .invariants import InvariantResult, registered_invariants

__all__ = [
    "GoldenArtifacts",
    "ElasticArtifacts",
    "RunArtifacts",
    "ServeArtifacts",
    "CaseResult",
    "ConformanceReport",
    "run_case",
    "run_matrix",
    "run_serve_case",
    "run_serve_matrix",
]

#: Learning-rate / clip schedule shared by the case and golden runs.
_LEARNING_RATE = 1e-2
_GRAD_CLIP = 1.0
_AUX_COEFF = 0.01


def _batches(case: VerifyCase) -> List[np.ndarray]:
    """The case's deterministic token batches (seeded, one per step)."""
    rng = np.random.default_rng(case.seed)
    return [
        rng.integers(0, case.vocab, size=(case.batch, case.seq + 1))
        for _ in range(case.steps)
    ]


@dataclass
class GoldenArtifacts:
    """What the single-rank reference run produced."""

    losses: List[float]
    first_step_grads: Dict[str, np.ndarray]
    final_grads: Dict[str, Optional[np.ndarray]]
    params: Dict[str, np.ndarray]


@dataclass
class ElasticArtifacts:
    """What the resize-injected elastic run produced."""

    #: Raw step/loss history (replayed steps appear twice).
    steps: List[int]
    losses: List[float]
    #: Steps at which a ResizeEvent fired and was absorbed.
    resizes: List[int]
    #: One report per actual re-partition (size-changing resumes).
    reshard_reports: List[object]
    reshard_bytes: float
    reshard_seconds: float

    def final_losses(self) -> Dict[int, float]:
        """Last recorded loss per step (replays overwrite)."""
        final: Dict[int, float] = {}
        for step, loss in zip(self.steps, self.losses):
            final[step] = loss
        return final


@dataclass
class RunArtifacts:
    """Everything the invariants inspect about one case run."""

    case: VerifyCase
    losses: List[float]
    lm_losses: List[float]
    aux_losses: List[float]
    grad_norms: List[float]
    first_step_grads: Dict[str, np.ndarray]
    final_grads: Dict[str, Optional[np.ndarray]]
    params: Dict[str, np.ndarray]
    ledger: object
    ledger_total_bytes: float
    ledger_counts: Dict[str, int]
    #: Per-layer EP dispatch telemetry (None for non-EP layers).
    telemetry: List[Optional[dict]] = field(default_factory=list)
    #: Every A2A layer pass's telemetry, in run order — what
    #: ``comm_audit`` recounts the A2A wire from.
    a2a_telemetry: List[dict] = field(default_factory=list)
    #: Loud diagnostics for layers that *should* have produced
    #: telemetry but didn't (EP cases after a forward ran).  The
    #: telemetry-consuming invariants fail on these instead of passing
    #: vacuously on an all-``None`` telemetry list.
    telemetry_missing: List[str] = field(default_factory=list)
    #: Per-layer op execution order — checked against the overlap
    #: schedule by the ``dag_schedule_conformance`` invariant.
    executed_ops: List[List[str]] = field(default_factory=list)
    #: Per-layer tile-granular execution streams (``<op>#t<i>`` names,
    #: §4.2) from tiled runs — checked by ``tile_conformance``.
    #: Empty for untiled runs.
    executed_tiles: List[List[str]] = field(default_factory=list)
    #: ``(op_name, dtype)`` of every tape node of one forward of the
    #: case's plan, inputs before consumers (see :func:`_tape_probe`)
    #: — checked by ``dtype_stable``.
    tape_dtypes: List[Tuple[str, str]] = field(default_factory=list)
    #: How many arrays the tape probe's backward closures saved that
    #: the forward itself allocated (see :func:`_tape_probe`) ...
    tape_saved: int = 0
    #: ... and ``"<op> <shape> <dtype>"`` of each one still alive after
    #: ``backward()`` returned — checked by ``tape_released``.
    tape_survivors: List[str] = field(default_factory=list)
    #: dtype name of every update-phase array: the case run's optimizer
    #: state after the last step (``opt.m/<i>``, ``opt.v/<i>``) and the
    #: DP leg's synchronized gradients and optimizer state
    #: (``dp.grad/<name>``, ``dp.opt.m/<i>``, ...; see
    #: :func:`_dp_leg_dtypes`) — checked by ``dtype_stable``.
    update_dtypes: Dict[str, str] = field(default_factory=dict)
    golden: Optional[GoldenArtifacts] = None
    #: The untiled twin of a tiled case run.
    untiled_twin: Optional["RunArtifacts"] = None
    #: The resize-injected elastic run of a ``case.resize`` case.
    elastic: Optional[ElasticArtifacts] = None


@dataclass
class CaseResult:
    """One case's conformance outcome across all invariants."""

    case: VerifyCase
    outcomes: List[InvariantResult]

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    def failures(self) -> List[InvariantResult]:
        """The invariant outcomes that failed for this case."""
        return [o for o in self.outcomes if o.status == "fail"]

    def outcome(self, name: str) -> InvariantResult:
        """This case's outcome for one invariant name."""
        for o in self.outcomes:
            if o.name == name:
                return o
        raise KeyError(f"no invariant {name!r} in this result")


@dataclass
class ConformanceReport:
    """The conformance matrix over a list of cases."""

    results: List[CaseResult]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def failures(self) -> List[CaseResult]:
        """The cases with at least one failing invariant."""
        return [r for r in self.results if not r.ok]

    def render(self) -> str:
        """Cases × invariants matrix (pass/FAIL/skip) for terminals."""
        if not self.results:
            return "(no cases run)"
        names = [o.name for o in self.results[0].outcomes]
        id_width = max(len("case"),
                       max(len(r.case.case_id) for r in self.results))
        col_widths = [max(len(n), 4) for n in names]
        lines = ["=== conformance matrix ==="]
        header = f"{'case':{id_width}s}"
        for name, width in zip(names, col_widths):
            header += f" {name:>{width}s}"
        lines.append(header)
        marks = {"pass": "pass", "fail": "FAIL", "skip": "-"}
        for result in self.results:
            row = f"{result.case.case_id:{id_width}s}"
            for outcome, width in zip(result.outcomes, col_widths):
                row += f" {marks[outcome.status]:>{width}s}"
            lines.append(row)
        lines.append(
            f"{len(self.results)} cases, "
            f"{sum(1 for r in self.results if r.ok)} conformant, "
            f"{len(self.failures())} failing"
        )
        for result in self.failures():
            for outcome in result.failures():
                lines.append(
                    f"FAIL {result.case.case_id} :: {outcome.name}: "
                    f"{outcome.detail}"
                )
        return "\n".join(lines)


def _snapshot_grads(model) -> Dict[str, Optional[np.ndarray]]:
    return {
        name: (None if p.grad is None else p.grad.copy())
        for name, p in model.named_parameters()
    }


def _snapshot_params(model) -> Dict[str, np.ndarray]:
    return {name: p.data.copy() for name, p in model.named_parameters()}


def _make_trainer(case: VerifyCase, **train) -> MegaScaleTrainer:
    """The case's model (seeded, in the case's dtype) under its plan;
    ``train`` overrides fields of the case's TrainConfig."""
    model = MoETransformer(case.model_config(), seed=case.seed,
                           dtype=np.dtype(case.dtype))
    return MegaScaleTrainer(
        model, World(case.ranks * case.pp * case.dp, case.ranks),
        case.parallel_config(),
        dataclasses.replace(case.train_config(), **train))


def _reachable_arrays(fn) -> List[np.ndarray]:
    """Every ndarray a backward closure can reach through its cells,
    defaults, nested closures, lists, tuples and captured Tensors.

    Deliberately not :func:`~repro.tensor.checkpoint.tape_saved_arrays`
    (which ``tape_released`` checks the contract of): this walk
    follows anything a closure can hold, not the shapes the byte
    walker expects."""
    found: List[np.ndarray] = []
    seen = set()
    stack = [fn]
    while stack:
        value = stack.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        if isinstance(value, np.ndarray):
            found.append(value)
        elif isinstance(value, Tensor):
            stack.append(value.data)
        elif isinstance(value, (list, tuple)):
            stack.extend(value)
        elif isinstance(value, types.FunctionType):
            stack.extend(cell.cell_contents
                         for cell in value.__closure__ or ())
            stack.extend(value.__defaults__ or ())
    return found


def _tape_saved(root: Tensor) -> List[Tuple[str, np.ndarray]]:
    """``(op_name, array)`` for every array the tape under ``root``
    saved for its backward."""
    return [(node.op_name, a) for node in graph_order(root)
            if type(node) is Node
            for a in _reachable_arrays(node.backward_fn)]


def _tape_probe(case: VerifyCase
                ) -> Tuple[List[Tuple[str, str]], int, List[str]]:
    """One forward of the case's plan, inspected, then swept.

    Returns ``(dtypes, saved, survivors)``:

    * ``dtypes`` — ``(op_name, dtype)`` of every tape node, inputs
      before consumers.  Every op output — collective payloads included
      (the ``dist_*`` collectives are tape nodes) — is a tape node of
      the loss, so walking the tape sees the whole activation stream.
      The walk starts at the LM loss; of the router aux-loss chain only
      the nodes with a token axis (``ndim >= 2``) are added, because
      its per-expert statistics and scalars are accumulated in float64
      by design (docs/INTERNALS.md §17).
    * ``saved`` — how many arrays the backward closures saved that the
      forward allocated, each watched through a weakref.  A second
      forward of the same batch runs first and is held unswept: an
      array both tapes saved existed before either (a parameter, a
      memoised RoPE or mask table) and is not an activation.
    * ``survivors`` — the watched arrays still alive once
      ``backward()`` has returned, while the loss is still held,
      parameter gradients aside.  The sweep consumes the tape, so
      this should be empty (docs/INTERNALS.md §16).

    Runs on a trainer of its own, so the case run's ledger and fault
    plan never see the extra forwards.
    """
    trainer = _make_trainer(case)
    batch = _batches(case)[0]
    held, _, _ = trainer.loss(batch)
    total, lm, aux = trainer.loss(batch)
    stream = [v for v in graph_order(lm) if type(v) is Node]
    seen = {id(v) for v in stream}
    stream += [v for v in graph_order(aux)
               if type(v) is Node and id(v) not in seen
               and len(v.shape) >= 2]
    dtypes = [(node.op_name, node.dtype.name) for node in stream]

    shared = {id(a) for _, a in _tape_saved(held)}
    watched = {id(a): (op, weakref.ref(a)) for op, a in _tape_saved(total)
               if id(a) not in shared}
    total.backward()
    grads = {id(p.grad) for p in trainer.model.parameters()
             if p.grad is not None}
    survivors = []
    for op, ref in watched.values():
        a = ref()
        if a is not None and id(a) not in grads:
            survivors.append(f"{op} {a.shape} {a.dtype.name}")
    return dtypes, len(watched), survivors


def _optimizer_dtypes(optimizer: AdamW, prefix: str) -> Dict[str, str]:
    """dtype names of an AdamW's moments."""
    return {f"{prefix}.{kind}/{i}": state.dtype.name
            for kind, states in (("m", optimizer.m), ("v", optimizer.v))
            for i, state in enumerate(states)}


def _dp_leg_dtypes(case: VerifyCase) -> Dict[str, str]:
    """dtype names of what one data-parallel step leaves behind: two
    single-rank replicas train one row each with §5's BF16 all-to-all
    sync, and the gradients they receive, the parameters the ZeRO-1
    all-gather writes and the moments must be in the model's dtype
    (docs/INTERNALS.md §17)."""
    leg = case.replace(ranks=1, pp=1, dp=2, batch=2, tile_tokens=None,
                       resize=())
    trainer = _make_trainer(leg, dp_comm_compression=True)
    batch = _batches(case)[0]
    trainer.train_step(np.concatenate([batch[:1], batch[-1:]]))
    dtypes = {f"dp.grad/{name}": p.grad.dtype.name
              for name, p in trainer.model.named_parameters()
              if p.grad is not None}
    dtypes.update((f"dp.param/{name}", p.data.dtype.name)
                  for name, p in trainer.model.named_parameters())
    dtypes.update(_optimizer_dtypes(trainer.optimizer, "dp.opt"))
    return dtypes


def _run_parallel(case: VerifyCase,
                  world_setup: Optional[Callable[[World], None]] = None
                  ) -> RunArtifacts:
    """Run the case's parallel plan and capture artifacts."""
    trainer = _make_trainer(case)
    model, world = trainer.model, trainer.world
    if world_setup is not None:
        world_setup(world)
    a2a_telemetry: List[dict] = []
    for engine in trainer.engines:
        if engine.ffn == "ep" and engine.ep_mode == "a2a":
            engine.telemetry_log = a2a_telemetry
    losses: List[float] = []
    lm_losses: List[float] = []
    aux_losses: List[float] = []
    grad_norms: List[float] = []
    first_grads: Dict[str, np.ndarray] = {}
    for step, batch in enumerate(_batches(case)):
        result = trainer.train_step(batch)
        losses.append(result.loss)
        lm_losses.append(result.lm_loss)
        aux_losses.append(result.aux_loss)
        grad_norms.append(result.grad_norm)
        if step == 0:
            first_grads = {
                name: grad for name, grad
                in _snapshot_grads(model).items() if grad is not None
            }
    telemetry: List[Optional[dict]] = []
    telemetry_missing: List[str] = []
    for layer, engine in enumerate(trainer.engines):
        tele = engine.last_telemetry
        telemetry.append(tele)
        # EP layers must surface dispatch telemetry once a forward has
        # run; a silent ``None`` here used to make the token/router
        # conservation invariants pass vacuously.
        if case.ffn == "ep" and losses and tele is None:
            telemetry_missing.append(
                f"layer {layer}: {type(engine).__name__} exposed no "
                f"dispatch telemetry after {len(losses)} training steps"
            )
    executed_ops = [list(engine.last_executed_ops)
                    for engine in trainer.engines
                    if engine.last_executed_ops]
    executed_tiles = [list(engine.last_executed_tiles)
                      for engine in trainer.engines
                      if engine.last_executed_tiles]
    return RunArtifacts(
        case=case,
        losses=losses,
        lm_losses=lm_losses,
        aux_losses=aux_losses,
        grad_norms=grad_norms,
        first_step_grads=first_grads,
        final_grads=_snapshot_grads(model),
        params=_snapshot_params(model),
        ledger=world.ledger,
        ledger_total_bytes=world.ledger.total_bytes(),
        ledger_counts=world.ledger.counts(),
        telemetry=telemetry,
        a2a_telemetry=a2a_telemetry,
        telemetry_missing=telemetry_missing,
        executed_ops=executed_ops,
        executed_tiles=executed_tiles,
        update_dtypes=_optimizer_dtypes(trainer.optimizer, "opt"),
    )


def _run_golden(case: VerifyCase) -> GoldenArtifacts:
    """The single-rank reference: same seeds, same optimizer schedule,
    the loss averaged over the case's micro-batches."""
    model = MoETransformer(case.model_config(), seed=case.seed,
                           dtype=np.dtype(case.dtype))
    optimizer = AdamW(model.parameters(), lr=_LEARNING_RATE)
    losses: List[float] = []
    first_grads: Dict[str, np.ndarray] = {}
    for step, batch in enumerate(_batches(case)):
        model.zero_grad()
        micros = np.split(batch, case.batch // case.micro_batch)
        loss = reduce(add, [
            model.language_model_loss(micro, aux_coeff=_AUX_COEFF)
            for micro in micros])
        if len(micros) > 1:
            loss = loss * (1.0 / len(micros))
        loss.backward()
        clip_grad_norm(model.parameters(), _GRAD_CLIP)
        if step == 0:
            first_grads = {
                name: grad for name, grad
                in _snapshot_grads(model).items() if grad is not None
            }
        optimizer.step()
        losses.append(loss.item())
    return GoldenArtifacts(
        losses=losses,
        first_step_grads=first_grads,
        final_grads=_snapshot_grads(model),
        params=_snapshot_params(model),
    )


def _run_elastic(case: VerifyCase) -> ElasticArtifacts:
    """Run the case's resize schedule through the production runner.

    Same model seed, same batches, same optimizer schedule as the
    fixed-size case run — only the world shrinks and grows per
    ``case.resize``, so any trajectory difference beyond summation
    order is a resharding bug.
    """
    import shutil
    import tempfile

    from ..core.runner import FaultInjector, ProductionRunner
    from ..elastic.layout import ParallelLayout

    def layout_at(ranks: int, dp: int) -> ParallelLayout:
        return ParallelLayout.from_parallel_config(
            case.replace(ranks=ranks, dp=dp, resize=()).parallel_config())

    def factory(layout: ParallelLayout):
        # The case's micro-batches at every size: a DP resize moves
        # them between replicas without changing what each one sees.
        return _make_trainer(case.replace(
            ranks=layout.world_size // layout.dp, dp=layout.dp,
            resize=()), micro_batch_size=case.micro_batch)

    tmpdir = tempfile.mkdtemp(prefix="repro-elastic-")
    try:
        runner = ProductionRunner(factory, layout_at(case.ranks, case.dp),
                                  tmpdir, checkpoint_interval=1)
        injector = FaultInjector(resize_steps={
            step: layout_at(ranks, dp)
            for step, ranks, dp in case.resize_schedule()
        })
        metrics = runner.run(_batches(case), injector)
        return ElasticArtifacts(
            steps=list(metrics.steps),
            losses=list(metrics.losses),
            resizes=list(metrics.resizes),
            reshard_reports=list(runner.reshard_reports),
            reshard_bytes=metrics.reshard_bytes,
            reshard_seconds=metrics.reshard_seconds,
        )
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def run_case(case: VerifyCase,
             world_setup: Optional[Callable[[World], None]] = None,
             ) -> CaseResult:
    """Run one case differentially and evaluate every invariant.

    ``world_setup`` (e.g. attaching a
    :class:`~repro.ft.faults.FaultPlan`) applies to the case run only —
    the golden run has no world and the untiled twin stays clean, so
    an injected perturbation must be *caught* by the invariants rather
    than silently reproduced on both sides of the diff.
    """
    artifacts = _run_parallel(case, world_setup)
    (artifacts.tape_dtypes, artifacts.tape_saved,
     artifacts.tape_survivors) = _tape_probe(case)
    artifacts.update_dtypes.update(_dp_leg_dtypes(case))
    artifacts.golden = _run_golden(case)
    if case.tile_tokens is not None:
        artifacts.untiled_twin = _run_parallel(case.untiled_twin())
    if case.resize:
        artifacts.elastic = _run_elastic(case)
    return _evaluate(case, artifacts, registered_invariants())


def _evaluate(case, artifacts, invariants) -> CaseResult:
    """Every invariant's outcome on one case's artifacts."""
    outcomes: List[InvariantResult] = []
    for invariant in invariants:
        if not invariant.applies(case):
            outcomes.append(InvariantResult(invariant.name, "skip"))
            continue
        violations = invariant.check(artifacts)
        if violations:
            outcomes.append(InvariantResult(
                invariant.name, "fail", "; ".join(violations)))
        else:
            outcomes.append(InvariantResult(invariant.name, "pass"))
    return CaseResult(case=case, outcomes=outcomes)


@dataclass
class ServeArtifacts:
    """Everything the serve invariants inspect about one serving run."""

    case: object
    requests: List[object]
    #: The continuous-batched run under the case's placement/faults.
    result: object
    #: The unbatched sequential golden replay of the same trace.
    golden: object
    ledger_by_tag: Dict[str, float]
    ledger_counts: Dict[str, int]
    #: Post-shutdown KV block accounting (in_use / allocated / freed).
    allocator: Dict[str, int]
    #: Per-thread open-span depth at shutdown.
    thread_stacks: Dict[int, int]
    shutdown_error: str = ""
    #: Per completed request id, the model's own logits computed
    #: outside the engine: ``(last row of model(prompt), every row of
    #: model(prompt + generated[:-1]))``.
    reference: Dict[int, Tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict)
    #: Per bridge crossing (one MoE layer of one iteration), its one
    #: dispatch plan over every attention rank's rows, captured as the
    #: engine handed it to the bridge — what ``serve_comm_balance``
    #: prices the ledger by.
    plans: List[object] = field(default_factory=list)
    #: Evicted K/V bytes swapped out to host, swapped back in, and
    #: dropped by a crash.
    swap: Dict[str, int] = field(default_factory=dict)


def run_serve_case(case) -> CaseResult:
    """Run one :class:`~repro.verify.cases.ServeCase` differentially.

    The case's trace runs through the continuous batcher (with the
    case's fault plan, if any), then through the unbatched sequential
    golden decoder; the ``serve_*`` registry checks per-request bitwise
    equality, the bridge's bytes and rows against the captured routing
    plans, the leak contract, and agreement with whole-sequence
    forwards of the reference model.
    """
    from ..obs.tracer import Tracer
    from ..serve.arrivals import VirtualClock
    from ..serve.scheduler import ServeEngine, golden_decode
    from .invariants import registered_serve_invariants

    model = MoETransformer(case.model_config(), seed=case.seed,
                           dtype=np.dtype(case.dtype))
    serve_config = case.serve_config()
    world = World(serve_config.world_size)
    if case.crash_at_call is not None:
        from ..ft import FaultPlan, FaultSpec
        world.attach_fault_plan(FaultPlan([
            FaultSpec(kind="crash", at_call=case.crash_at_call)
        ]))
    clock = VirtualClock()
    tracer = Tracer(clock=clock)
    engine = ServeEngine(model, serve_config, world=world,
                         tracer=tracer, clock=clock)
    plans: List[object] = []
    bridge = engine.placement.moe_forward

    def capture(moe, plan, *rest):
        plans.append(plan)
        return bridge(moe, plan, *rest)

    engine.placement.moe_forward = capture  # type: ignore[method-assign]
    requests = case.requests()
    result = engine.run(requests)
    shutdown_error = ""
    try:
        engine.shutdown()
    except Exception as exc:  # leak contract feeds the invariant
        shutdown_error = f"{type(exc).__name__}: {exc}"
    golden = golden_decode(model, serve_config, requests)
    artifacts = ServeArtifacts(
        case=case,
        requests=list(requests),
        result=result,
        golden=golden,
        ledger_by_tag=dict(world.ledger.bytes_by_tag()),
        ledger_counts=dict(world.ledger.counts()),
        allocator={
            "in_use": engine.pool.allocator.in_use,
            "allocated_total": engine.pool.allocator.allocated_total,
            "freed_total": engine.pool.allocator.freed_total,
        },
        thread_stacks=dict(tracer.thread_stacks()),
        shutdown_error=shutdown_error,
        reference=_serve_reference(model, result),
        plans=plans,
        swap={"out": engine.swapped_out_bytes,
              "in": engine.swapped_in_bytes,
              "dropped": engine.swap_dropped_bytes},
    )
    return _evaluate(case, artifacts, registered_serve_invariants())


def _serve_reference(model, result) -> Dict[int, Tuple[np.ndarray,
                                                      np.ndarray]]:
    """Each completed request's logits from whole-sequence forwards of
    the reference model — the engine-independent side of the
    ``serve_reference`` invariant."""
    from ..tensor import no_grad
    reference = {}
    with no_grad():
        for rid, got in result.results.items():
            prefill = model(np.asarray([got.prompt])).logits.data[0, -1]
            tokens = list(got.prompt) + got.generated[:-1]
            full = model(np.asarray([tokens])).logits.data[0]
            reference[rid] = (prefill, full)
    return reference


def run_serve_matrix(cases: Sequence[object],
                     progress: Optional[Callable[[CaseResult], None]]
                     = None) -> ConformanceReport:
    """Run every serve case; same report shape as :func:`run_matrix`
    so `repro verify --serve` renders identically."""
    return run_matrix(cases, progress, run=run_serve_case)


def run_matrix(cases: Sequence[VerifyCase],
               progress: Optional[Callable[[CaseResult], None]] = None,
               run: Callable[..., CaseResult] = run_case,
               ) -> ConformanceReport:
    """Run every case; ``progress`` receives each result as it lands."""
    results = []
    for case in cases:
        result = run(case)
        if progress is not None:
            progress(result)
        results.append(result)
    return ConformanceReport(results=results)
