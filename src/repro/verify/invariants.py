"""The invariant registry: what "numerically equivalent" means, checked.

Every parallel plan in this repo claims some equivalence to the plain
single-rank model — bitwise where the design promises it (tiled vs
untiled execution), tolerance-banded where comm is compressed (§5
FP8), and always subject to conservation laws (tokens through
dispatch/combine, router probability mass, ledger bytes vs the
Eq. 1–4 closed forms) and finiteness.  This module encodes each claim
as a named :class:`Invariant` with an ``applies`` predicate and a
``check`` that returns violations; the engine evaluates every
registered invariant against a case's :class:`~repro.verify.engine.
RunArtifacts`.

Tolerance policy (per precision format)
---------------------------------------
Bands derive from :mod:`repro.precision.formats`:

* uncompressed comm (``fp32``/``bf16`` cases move the model dtype on
  the wire): collectives are arithmetic identities, so on a float64
  model losses/grads/params must match the golden model to near
  machine precision (``rtol = 1e-9 .. 1e-8``).
* float32 models (``VerifyCase.dtype``, the production default): the
  parallel plan and the golden model round differently at every
  reduction whose order they do not share, so the bands widen to a
  multiple of ``eps32 = 2^-23`` — see ``_FLOAT32_BANDS``; final
  parameters are not compared (Adam turns rounding-level gradient
  noise into ``±lr`` steps).
* ``fp8`` compressed comm: per-token E4M3 quantization carries at most
  ``epsilon/2`` relative error per element (``epsilon = 2^-3``).  The
  per-step loss must stay within ``rtol = epsilon``; the first step's
  gradients (taken before trajectories diverge) within
  ``rtol = 4 * epsilon`` of the per-tensor golden max — the factor 4
  covers error accumulation through layers and the backward dual
  (measured headroom is ~4x on the smoke models).  Beyond the first
  step the *trajectory* legitimately diverges (Adam amplifies
  direction changes), so param/grad closeness is only enforced for
  uncompressed cases.

Adding an invariant: build an :class:`Invariant` and pass it to
:func:`register_invariant`; see docs/INTERNALS.md §9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List

import numpy as np

from ..obs.audit import a2a_rows, audit_comm_volumes
from ..precision.formats import FP8_E4M3

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .cases import VerifyCase
    from .engine import RunArtifacts

__all__ = [
    "ToleranceBand",
    "tolerance_for_precision",
    "Invariant",
    "InvariantResult",
    "register_invariant",
    "registered_invariants",
    "default_registry",
    "register_serve_invariant",
    "registered_serve_invariants",
    "default_serve_registry",
]


@dataclass(frozen=True)
class ToleranceBand:
    """``|a - b| <= atol + rtol * scale`` closeness band."""

    rtol: float
    atol: float

    def close(self, a: float, b: float, scale: float) -> bool:
        """Whether a and b agree within the band at this scale."""
        return abs(a - b) <= self.atol + self.rtol * abs(scale)


#: Per-precision bands for (per-step loss, first-step grads, final
#: params).  fp32/bf16 cases move uncompressed float64 on the wire;
#: fp8 bands scale with the E4M3 format epsilon (see module docstring).
_EPS8 = FP8_E4M3.epsilon
_BANDS: Dict[str, Dict[str, ToleranceBand]] = {
    "fp32": {
        "loss": ToleranceBand(rtol=1e-9, atol=1e-12),
        "grads": ToleranceBand(rtol=1e-8, atol=1e-12),
        "params": ToleranceBand(rtol=1e-8, atol=1e-12),
    },
    "bf16": {
        "loss": ToleranceBand(rtol=1e-9, atol=1e-12),
        "grads": ToleranceBand(rtol=1e-8, atol=1e-12),
        "params": ToleranceBand(rtol=1e-8, atol=1e-12),
    },
    "fp8": {
        "loss": ToleranceBand(rtol=_EPS8, atol=1e-12),
        "grads": ToleranceBand(rtol=4.0 * _EPS8, atol=1e-12),
        "params": ToleranceBand(rtol=4.0 * _EPS8, atol=1e-12),
    },
}


#: Floors for float32-model cases, in units of ``eps32``: roughly ten
#: times the worst deviation measured over six seeds of the smoke
#: shapes (per-step loss 2.7 eps32; first-step gradients 25 eps32 of
#: the tensor maximum).  There is no ``params`` floor: Adam's update
#: ``lr · m / (√v + ε)`` is scale-free, so a gradient entry at
#: rounding-noise level moves its parameter by ``±lr`` whichever way
#: the noise points, and ``golden_params`` skips float32 cases the way
#: it skips fp8 ones.
_EPS32 = float(np.finfo(np.float32).eps)
_FLOAT32_BANDS: Dict[str, ToleranceBand] = {
    "loss": ToleranceBand(rtol=16 * _EPS32, atol=1e-12),
    "grads": ToleranceBand(rtol=256 * _EPS32, atol=1e-12),
}


def tolerance_for_precision(precision: str, kind: str,
                            dtype: str = "float64") -> ToleranceBand:
    """The closeness band for one comm precision, comparison kind and
    model dtype (a float32 model never gets a tighter band than its
    own rounding allows)."""
    try:
        band = _BANDS[precision][kind]
    except KeyError:
        raise KeyError(
            f"no tolerance band for precision={precision!r} "
            f"kind={kind!r}"
        ) from None
    if dtype == "float32" and kind in _FLOAT32_BANDS:
        floor = _FLOAT32_BANDS[kind]
        band = ToleranceBand(rtol=max(band.rtol, floor.rtol),
                             atol=max(band.atol, floor.atol))
    return band


@dataclass(frozen=True)
class Invariant:
    """One named equivalence/conservation claim.

    ``applies(case)`` gates the check (inapplicable invariants report
    ``skip`` in the matrix); ``check(artifacts)`` returns a list of
    human-readable violation strings — empty means the claim held.
    """

    name: str
    description: str
    applies: Callable[["VerifyCase"], bool]
    check: Callable[["RunArtifacts"], List[str]]


@dataclass(frozen=True)
class InvariantResult:
    """One invariant's outcome for one case."""

    name: str
    status: str  # "pass" | "fail" | "skip"
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status != "fail"


_REGISTRY: Dict[str, Invariant] = {}


def register_invariant(invariant: Invariant) -> Invariant:
    """Add (or replace) an invariant in the global registry."""
    _REGISTRY[invariant.name] = invariant
    return invariant


def registered_invariants() -> List[Invariant]:
    """All registered invariants, in registration order."""
    return list(_REGISTRY.values())


# -- built-in checks ---------------------------------------------------------


def _check_finiteness(art: "RunArtifacts") -> List[str]:
    violations = []
    for step, loss in enumerate(art.losses):
        if not math.isfinite(loss):
            violations.append(f"step {step} loss is {loss}")
    for step, norm in enumerate(art.grad_norms):
        if not math.isfinite(norm):
            violations.append(f"step {step} grad norm is {norm}")
    for name, value in art.params.items():
        if not np.isfinite(value).all():
            violations.append(f"param {name} has non-finite entries")
    for name, grad in art.final_grads.items():
        if grad is not None and not np.isfinite(grad).all():
            violations.append(f"grad {name} has non-finite entries")
    return violations


def _check_golden_loss(art: "RunArtifacts") -> List[str]:
    band = tolerance_for_precision(art.case.precision, "loss",
                                   art.case.dtype)
    violations = []
    for step, (got, want) in enumerate(zip(art.losses,
                                           art.golden.losses)):
        if not band.close(got, want, want):
            violations.append(
                f"step {step} loss {got:.10g} vs golden {want:.10g} "
                f"(rel err {abs(got - want) / max(abs(want), 1e-300):.3g}"
                f" > rtol {band.rtol:g})"
            )
    return violations


def _check_golden_grads(art: "RunArtifacts") -> List[str]:
    band = tolerance_for_precision(art.case.precision, "grads",
                                   art.case.dtype)
    # FP8 comm noise is absolute, set by the quantized *activation*
    # scale — a tensor whose own gradients happen to be tiny still
    # receives noise at the global gradient scale, so the band must be
    # anchored to the largest golden gradient, not each tensor's own.
    global_scale = max(
        (float(np.abs(g).max()) for g
         in art.golden.first_step_grads.values() if g.size),
        default=0.0,
    )
    per_tensor_scale = art.case.precision != "fp8"
    violations = []
    for name, want in art.golden.first_step_grads.items():
        got = art.first_step_grads.get(name)
        if got is None:
            violations.append(f"first-step grad {name} missing")
            continue
        if per_tensor_scale:
            scale = float(np.abs(want).max()) if want.size else 0.0
        else:
            scale = global_scale
        err = float(np.abs(got - want).max()) if want.size else 0.0
        if err > band.atol + band.rtol * scale:
            violations.append(
                f"first-step grad {name}: max |Δ| {err:.3g} > "
                f"{band.atol:g} + {band.rtol:g} * max|golden| {scale:.3g}"
            )
    return violations


def _check_golden_params(art: "RunArtifacts") -> List[str]:
    band = tolerance_for_precision(art.case.precision, "params")
    violations = []
    for name, want in art.golden.params.items():
        got = art.params.get(name)
        if got is None:
            violations.append(f"param {name} missing")
            continue
        scale = float(np.abs(want).max()) if want.size else 0.0
        err = float(np.abs(got - want).max()) if want.size else 0.0
        if err > band.atol + band.rtol * scale:
            violations.append(
                f"final param {name}: max |Δ| {err:.3g} > "
                f"{band.atol:g} + {band.rtol:g} * max|golden| {scale:.3g}"
            )
    return violations


def _check_tile_bitwise(art: "RunArtifacts") -> List[str]:
    """Tile-granular execution moves the same bytes in chunks and never
    splits a reduction, so a tiled run must be bitwise-identical to its
    untiled twin (same seeds)."""
    twin = art.untiled_twin
    violations = []
    if art.losses != twin.losses:
        violations.append(
            f"per-step losses differ: {art.losses} vs {twin.losses}"
        )
    for name, want in twin.params.items():
        got = art.params.get(name)
        if got is None or not np.array_equal(got, want):
            violations.append(f"param {name} not bitwise-equal to the "
                              "untiled twin")
    if art.ledger_total_bytes != twin.ledger_total_bytes:
        violations.append(
            f"ledger bytes differ: {art.ledger_total_bytes} vs "
            f"{twin.ledger_total_bytes}"
        )
    if art.ledger_counts != twin.ledger_counts:
        violations.append(
            f"collective counts differ: {art.ledger_counts} vs "
            f"{twin.ledger_counts}"
        )
    return violations


def _check_dag_conformance(art: "RunArtifacts") -> List[str]:
    """The executed op sequence must be a valid topological order of
    both the op graph and the overlap schedule's task list."""
    from ..core.executor_bindings import layer_program
    from ..runtime.dag_executor import schedule_conformance_problems

    case = art.case
    if not art.executed_ops:
        return ["no executed op sequences recorded"]
    program = layer_program(case.model_config(), case.parallel_config(),
                            case.batch, case.seq,
                            tile_tokens=case.tile_tokens)
    violations = []
    for layer, executed in enumerate(art.executed_ops):
        for problem in schedule_conformance_problems(program, executed):
            violations.append(f"layer {layer}: {problem}")
    return violations


def _check_tile_conformance(art: "RunArtifacts") -> List[str]:
    """A tiled run's executed tile stream must be a permutation of the
    tile graph's sub-ops in a valid topological (and, per §4.2, rank-
    swizzled/ascending-chunk) order."""
    from ..core.executor_bindings import layer_program
    from ..runtime.dag_executor import tile_conformance_problems

    case = art.case
    program = layer_program(case.model_config(), case.parallel_config(),
                            case.batch, case.seq,
                            tile_tokens=case.tile_tokens)
    if not program.tiled:
        return [f"tile_tokens={case.tile_tokens} produced no tiled "
                "program (no fused group decomposed)"]
    if not art.executed_tiles:
        return ["no executed tile streams recorded for a tiled run"]
    violations = []
    for layer, stream in enumerate(art.executed_tiles):
        for problem in tile_conformance_problems(program, stream):
            violations.append(f"layer {layer}: {problem}")
    return violations


def _check_token_conservation(art: "RunArtifacts") -> List[str]:
    # Absent telemetry on a layer that should have produced it is a
    # failure, not a free pass: conservation cannot be claimed on
    # evidence that was never recorded.
    violations = [f"telemetry missing: {msg}"
                  for msg in art.telemetry_missing]
    for layer, tele in enumerate(art.telemetry):
        if tele is None:
            continue
        if tele["input_shapes"] != tele["output_shapes"]:
            violations.append(
                f"layer {layer}: combine returned shapes "
                f"{tele['output_shapes']} != dispatched "
                f"{tele['input_shapes']}"
            )
        total_in = sum(tele["tokens_in"])
        total_kept = sum(tele["kept_pairs"])
        if total_kept > total_in * tele["top_k"]:
            violations.append(
                f"layer {layer}: {total_kept} kept (token, slot) pairs "
                f"exceed {total_in} tokens x top_k={tele['top_k']}"
            )
        if tele["mode"] == "a2a":
            # tokens_per_rank is each rank's kept pair count; dispatch
            # must move exactly those rows and combine must return them.
            for rank, (sent, kept) in enumerate(
                    zip(tele["tokens_per_rank"], tele["kept_pairs"])):
                if sent != kept:
                    violations.append(
                        f"layer {layer} rank {rank}: dispatched {sent} "
                        f"rows but routing kept {kept} pairs"
                    )
            splits = tele["send_splits"]
            if splits is not None:
                for rank, row in enumerate(splits):
                    if sum(row) != tele["kept_pairs"][rank]:
                        violations.append(
                            f"layer {layer} rank {rank}: send splits "
                            f"{row} sum to {sum(row)}, expected "
                            f"{tele['kept_pairs'][rank]} kept pairs"
                        )
        else:  # ag_rs: every rank contributes its full token shard
            if tele["tokens_per_rank"] != tele["tokens_in"]:
                violations.append(
                    f"layer {layer}: AG/RS shard sizes "
                    f"{tele['tokens_per_rank']} != input token counts "
                    f"{tele['tokens_in']}"
                )
    return violations


def _check_router_mass(art: "RunArtifacts") -> List[str]:
    violations = [f"telemetry missing: {msg}"
                  for msg in art.telemetry_missing]
    for layer, tele in enumerate(art.telemetry):
        if tele is None:
            continue
        for rank, (mass, full) in enumerate(zip(tele["gate_mass"],
                                                tele["fully_kept"])):
            if mass.size == 0:
                continue
            # k renormalised weights sum to 1 within the rounding of
            # the dtype they were computed in.
            tol = max(1e-9, 4.0 * float(np.finfo(mass.dtype).eps))
            if float(mass.min()) < -1e-12 or float(mass.max()) > 1.0 + tol:
                violations.append(
                    f"layer {layer} routing[{rank}]: combine-weight "
                    f"mass outside [0, 1] "
                    f"(min {mass.min():.3g}, max {mass.max():.3g})"
                )
            kept_mass = mass[full]
            if kept_mass.size and (np.abs(kept_mass - 1.0) > tol).any():
                violations.append(
                    f"layer {layer} routing[{rank}]: fully-kept tokens "
                    f"have combine mass != 1 (worst "
                    f"{kept_mass[np.abs(kept_mass - 1.0).argmax()]:.12g})"
                )
    return violations


#: Mechanisms whose forward collectives carry FP8 under fp8 precision.
_FP8_WIRE = ("ep_ffn_ag_rs", "tp_ffn")


def _check_comm_audit(art: "RunArtifacts") -> List[str]:
    case = art.case
    # Eq. 1-4 count elements; the wire width is the model's own.  A
    # payload some op widened on the way to a collective then shows up
    # as twice the predicted bytes instead of passing because audit and
    # ledger agree on the wrong width.
    itemsize = float(next(iter(art.params.values())).itemsize)
    passes = case.layers * case.steps
    report = audit_comm_volumes(
        art.ledger, b=case.batch, s=case.seq, h=case.hidden,
        n=case.ranks, m=case.gqa_ratio, k=case.top_k,
        itemsize=itemsize, passes=passes,
        a2a_telemetry=art.a2a_telemetry,
    )
    violations = []
    for entry in report.entries:
        if case.precision == "fp8" and entry.mechanism in _FP8_WIRE:
            # The FP8 AG/RS FFN collectives ship each token row as
            # 1-byte E4M3 codes plus its FP32 per-token scale: Eq. 4's
            # elements at 1 B, and one scale per shipped row —
            # 2 (n-1) b s per pass over all ranks — at 4 B.
            n = case.ranks
            rows = 2.0 * (n - 1) * case.batch * case.seq * passes
            expected = (entry.expected_bytes / itemsize
                        * FP8_E4M3.bytes_per_element
                        + rows * np.dtype(np.float32).itemsize)
            if abs(entry.measured_bytes - expected) > 1e-9 * expected:
                violations.append(
                    f"{entry.mechanism}: FP8 wire moved "
                    f"{entry.measured_bytes:.0f} B vs "
                    f"{expected:.0f} B of codes + scales "
                    f"({entry.equation} at 1 B/elem)"
                )
            continue
        tolerance = entry.tolerance
        if entry.rel_error > tolerance:
            violations.append(
                f"{entry.mechanism} ({entry.equation}): measured "
                f"{entry.measured_bytes:.0f} B vs expected "
                f"{entry.expected_bytes:.0f} B "
                f"(rel err {entry.rel_error:.4f} > {tolerance:g})"
            )
    if not report.entries:
        violations.append("no audited mechanisms found in the ledger")
    return violations


def _check_dtype_stable(art: "RunArtifacts") -> List[str]:
    """One compute dtype from embedding to loss and through the
    update (docs/INTERNALS.md §17): every tape node of a forward,
    every gradient, every updated parameter, every optimizer-state
    array and every gradient a DP rank receives is in the model's
    dtype."""
    want = art.case.dtype
    if not art.tape_dtypes:
        return ["no tape recorded for the dtype probe"]
    violations = []
    offenders = [(op, dtype) for op, dtype in art.tape_dtypes
                 if dtype != want]
    if offenders:
        op, dtype = offenders[0]
        violations.append(
            f"op {op!r} is the first of {len(offenders)} tape nodes "
            f"(of {len(art.tape_dtypes)}) to leave the {want} stream: "
            f"its output is {dtype}"
        )
    for kind, arrays in (("param", art.params),
                         ("grad", art.final_grads)):
        wrong = sorted(name for name, value in arrays.items()
                       if value is not None and value.dtype.name != want)
        if wrong:
            violations.append(
                f"{len(wrong)} {kind}s not {want} after the last step "
                f"(first: {wrong[0]} is "
                f"{arrays[wrong[0]].dtype.name})"
            )
    for leg, what in (("opt.", "optimizer state of the case run"),
                      ("dp.", "DP leg")):
        dtypes = {key: dtype for key, dtype in art.update_dtypes.items()
                  if key.startswith(leg)}
        wrong = sorted(key for key, dtype in dtypes.items()
                       if dtype != want)
        if not dtypes:
            violations.append(f"no {what} recorded for the dtype probe")
        elif wrong:
            violations.append(
                f"{len(wrong)} of {len(dtypes)} update-phase arrays "
                f"({what}) not {want} (first: {wrong[0]} is "
                f"{dtypes[wrong[0]]})"
            )
    return violations


def _check_tape_released(art: "RunArtifacts") -> List[str]:
    """``backward()`` frees the tape as it sweeps (docs/INTERNALS.md
    §16): of the arrays the probe forward's backward closures saved,
    none outlives the sweep while the caller still holds the loss."""
    if not art.tape_saved:
        return ["the tape probe watched no saved arrays"]
    if not art.tape_survivors:
        return []
    return [f"{len(art.tape_survivors)} of {art.tape_saved} arrays the "
            f"tape saved outlive backward() (first: "
            f"{art.tape_survivors[0]})"]


def _check_sync_split(art: "RunArtifacts") -> List[str]:
    """The DP gradient sync of the replicated parameters moves App.
    A.1's hierarchical volumes: ``2 P (n-1)/n`` per rank inside a node
    (``:intra_`` tags) and ``2 P/n (d-1)/d`` per rank across nodes
    (``:inter_`` tags), every step."""
    from ..comm.hierarchical import (hierarchical_inter_node_volume,
                                     hierarchical_intra_node_volume)
    from ..core.trainer import is_replicated

    case = art.case
    n, d = case.ranks, case.dp
    replicated = [v for name, v in art.params.items()
                  if is_replicated(name)]
    param_bytes = float(sum(v.nbytes for v in replicated))
    by_tag = art.ledger.bytes_by_tag()
    violations = []
    for leg, volume in (
            ("intra", hierarchical_intra_node_volume(param_bytes, n)),
            ("inter", hierarchical_inter_node_volume(param_bytes, n, d))):
        want = volume * n * d * case.steps
        got = sum(b for tag, b in by_tag.items()
                  if tag.startswith(f"dp_grad:{leg}_"))
        if abs(got - want) > 1e-9 * max(want, 1.0):
            violations.append(
                f"{leg}-node sync moved {got:.0f} B, App. A.1 expects "
                f"{want:.0f} B ({case.steps} steps x {n * d} ranks)"
            )
    return violations


def _check_elastic_resume(art: "RunArtifacts") -> List[str]:
    """The resize-injected elastic run must execute every step and
    land on the fixed-size run's loss trajectory within the
    precision band (resharding is exact; only collective summation
    order may differ across world sizes)."""
    case = art.case
    elastic = art.elastic
    if elastic is None:
        return ["no elastic artifacts recorded for a resize case"]
    violations = []
    schedule = case.resize_schedule()
    scheduled = [step for step, _, _ in schedule]
    if elastic.resizes != scheduled:
        violations.append(
            f"resizes fired at {elastic.resizes}, scheduled "
            f"{scheduled}"
        )
    final = elastic.final_losses()
    missing = [s for s in range(case.steps) if s not in final]
    if missing:
        violations.append(f"steps never executed: {missing}")
    # Each resize whose target world differs from the world it leaves
    # must have gone through exactly one re-partition.
    worlds = [(case.ranks, case.dp)] + [(r, d) for _, r, d in schedule]
    expected_reshards = sum(
        1 for prev, new in zip(worlds, worlds[1:]) if prev != new)
    if len(elastic.reshard_reports) != expected_reshards:
        violations.append(
            f"{len(elastic.reshard_reports)} reshards performed, "
            f"expected {expected_reshards}"
        )
    band = tolerance_for_precision(case.precision, "loss", case.dtype)
    for step, want in enumerate(art.losses):
        got = final.get(step)
        if got is None:
            continue  # already reported as missing
        if not band.close(got, want, want):
            violations.append(
                f"step {step} elastic loss {got:.10g} vs fixed-size "
                f"{want:.10g} (rel err "
                f"{abs(got - want) / max(abs(want), 1e-300):.3g} > "
                f"rtol {band.rtol:g})"
            )
    return violations


# -- serving invariants ------------------------------------------------------
#
# Serving runs produce ServeArtifacts (see repro.verify.engine), not
# RunArtifacts, so they live in their own registry: the training matrix
# never evaluates them and vice versa.

_SERVE_REGISTRY: Dict[str, Invariant] = {}


def register_serve_invariant(invariant: Invariant) -> Invariant:
    """Add (or replace) an invariant in the serving registry."""
    _SERVE_REGISTRY[invariant.name] = invariant
    return invariant


def registered_serve_invariants() -> List[Invariant]:
    """All serving invariants, in registration order."""
    return list(_SERVE_REGISTRY.values())


def _check_serve_golden(art) -> List[str]:
    """Continuous-batched decode must complete every admitted request
    with tokens *and* per-step logits bitwise-equal to the unbatched
    sequential golden decode of the same trace."""
    violations = []
    want_ids = {r.request_id for r in art.requests}
    got_ids = set(art.result.results)
    missing = sorted(want_ids - got_ids)
    if missing:
        violations.append(f"requests never completed: {missing}")
    gold_ids = set(art.golden.results)
    for rid in sorted(want_ids & got_ids & gold_ids):
        got = art.result.results[rid]
        want = art.golden.results[rid]
        if got.generated != want.generated:
            violations.append(
                f"request {rid}: tokens {got.generated} != golden "
                f"{want.generated}"
            )
            continue
        for step, (a, b) in enumerate(zip(got.logits, want.logits)):
            if not np.array_equal(a, b):
                violations.append(
                    f"request {rid} step {step}: logits not "
                    f"bitwise-equal to golden (max |Δ| "
                    f"{float(np.abs(a - b).max()):.3g})"
                )
                break
    return violations


#: ``serve_reference`` decode-step tolerance, in units of the dtype's
#: eps relative to the row's largest |logit|: a decode step attends over
#: cached keys through a one-row GEMM, so it rounds differently from the
#: same position inside a whole-sequence forward (4-10 eps on the serve
#: matrix at seeds 0-2).
SERVE_REFERENCE_EPS = 64


def _check_serve_reference(art) -> List[str]:
    """Each request's logits must match the reference model run
    outside the engine: the prefill row bitwise equal to the last row of
    ``model(prompt)``, and decode step ``s`` within
    :data:`SERVE_REFERENCE_EPS` eps of row ``len(prompt) - 1 + s`` of one
    ``model(prompt + generated[:-1])`` forward.  ``serve_golden``
    compares the engine with itself, so a bug both runs share passes it;
    this check does not share the engine."""
    violations = []
    for rid, (prefill, full) in sorted(art.reference.items()):
        got = art.result.results[rid]
        if not np.array_equal(got.logits[0], prefill):
            violations.append(
                f"request {rid}: prefill logits not bitwise-equal to "
                f"model(prompt) (max |Δ| "
                f"{float(np.abs(got.logits[0] - prefill).max()):.3g})"
            )
            continue
        bound = SERVE_REFERENCE_EPS * np.finfo(prefill.dtype).eps
        for step in range(1, len(got.logits)):
            want = full[len(got.prompt) - 1 + step]
            err = float(np.abs(got.logits[step] - want).max()
                        / np.abs(want).max())
            if err > bound:
                violations.append(
                    f"request {rid} step {step}: logits differ from "
                    f"the whole-sequence forward by {err:.3g} relative "
                    f"(> {bound:.3g})"
                )
                break
    return violations


def _check_serve_comm_balance(art) -> List[str]:
    """The bridge moves exactly the bytes the routing plans demand.

    Per bridge crossing, each token of the crossing's one captured plan
    (over every attention rank's rows) crosses to each of its expert
    ranks as one ``hidden``-wide row, with one gate weight per (token,
    expert) plan row.  It comes back as one row from its first expert
    rank plus one per pair on a later rank — for top_k <= 2, one row
    per (token, expert rank) again.  The count is made from the plans
    (by the training audit's :func:`~repro.obs.audit.a2a_rows`), not
    taken from the bridge: a bridge that sent a row twice on both legs
    would still balance.
    Each crossing is one dispatch and one combine call, and no serve
    traffic may leak into the training (Eq. 1-4 audited) buckets."""
    violations = []
    case = art.case
    per_rank = case.experts // case.expert_ranks
    itemsize = np.dtype(case.dtype).itemsize
    counts = np.zeros(3, dtype=np.int64)
    for plan in art.plans:
        dest = np.full((plan.token_of_row.max(initial=-1) + 1,
                        case.top_k), -1)
        dest[plan.token_of_row, plan.slot_of_row] = np.repeat(
            np.arange(case.experts) // per_rank, plan.expert_counts)
        counts += a2a_rows(dest)
    rows, back, pairs = counts.tolist()
    row_bytes = case.hidden * itemsize
    want_combine = float(back * row_bytes)
    want_dispatch = float(rows * row_bytes + pairs * itemsize)
    by_tag = art.ledger_by_tag
    dispatch = by_tag.get("serve:dispatch_a2a", 0.0)
    combine = by_tag.get("serve:combine_a2a", 0.0)
    if dispatch != want_dispatch:
        violations.append(
            f"dispatch bytes {dispatch:.0f} != {rows} (token, expert "
            f"rank) rows x {row_bytes} B + {pairs} gate weights x "
            f"{itemsize} B = {want_dispatch:.0f}"
        )
    if combine != want_combine:
        violations.append(
            f"combine bytes {combine:.0f} != {back} partial rows x "
            f"{row_bytes} B = {want_combine:.0f}"
        )
    if dispatch == 0.0 and art.result.n_iterations > 0:
        violations.append(
            "no serve:dispatch_a2a traffic recorded despite "
            f"{art.result.n_iterations} iterations"
        )
    stray = [tag for tag in by_tag if not tag.startswith("serve:")]
    if stray:
        violations.append(
            f"serving run recorded traffic under non-serve tags: "
            f"{sorted(stray)!r}"
        )
    n_calls = art.ledger_counts.get("all_to_all", 0)
    if n_calls != 2 * len(art.plans):
        violations.append(
            f"{n_calls} all_to_all calls for {len(art.plans)} bridge "
            "crossings (one dispatch and one combine each)"
        )
    return violations


def _check_serve_rows_once(art) -> List[str]:
    """Each row an attention rank computes crosses the bridge once per
    layer: the captured plans hold ``layers x sum(prompt_len +
    max_new_tokens - 1)`` tokens — every prompt row, then one row per
    decode step (the last generated token is never fed back).  An
    evicted request that re-prefilled or re-decoded would cross again.
    ServeCase models route with no capacity limit, so every row has a
    kept pair in its crossing's plan."""
    want = art.case.layers * sum(r.prompt_len + r.max_new_tokens - 1
                                 for r in art.requests)
    got = sum(np.unique(plan.token_of_row).size for plan in art.plans)
    if got != want:
        return [f"{got} rows crossed the bridge; {art.case.layers} layers "
                f"x (prompt + generated - 1) rows need {want}"]
    return []


def _check_serve_leaks(art) -> List[str]:
    """Scheduler shutdown frees every paged KV block and leaves every
    tracer span stack empty, and every K/V byte an eviction swapped out
    was swapped back in or dropped by a crash."""
    violations = []
    swap = {k: art.swap.get(k, 0) for k in ("out", "in", "dropped")}
    if swap["out"] != swap["in"] + swap["dropped"]:
        violations.append(
            f"swapped out {swap['out']} KV bytes, but swapped in "
            f"{swap['in']} + dropped by a crash {swap['dropped']}"
        )
    alloc = art.allocator
    if alloc["in_use"]:
        violations.append(
            f"{alloc['in_use']} KV blocks still held after shutdown"
        )
    if alloc["allocated_total"] != alloc["freed_total"]:
        violations.append(
            f"KV accounting imbalance: allocated "
            f"{alloc['allocated_total']}, freed {alloc['freed_total']}"
        )
    open_stacks = {tid: d for tid, d in art.thread_stacks.items() if d}
    if open_stacks:
        violations.append(
            f"tracer span stacks still open: {open_stacks}"
        )
    if art.shutdown_error:
        violations.append(f"shutdown raised: {art.shutdown_error}")
    return violations


def default_serve_registry() -> List[Invariant]:
    """(Re)register and return the built-in serving invariants."""
    builtins = [
        Invariant(
            name="serve_golden",
            description="continuous-batched decode completes every "
                        "request with tokens and logits bitwise-equal "
                        "to the unbatched sequential golden",
            applies=lambda case: True,
            check=_check_serve_golden,
        ),
        Invariant(
            name="serve_reference",
            description="prefill logits are bitwise the last row of "
                        "model(prompt); every decode step is within "
                        f"{SERVE_REFERENCE_EPS} eps of one whole-sequence "
                        "forward (ServeCase models route with no "
                        "capacity limit, so the longer sequence routes "
                        "each token the same way)",
            applies=lambda case: True,
            check=_check_serve_reference,
        ),
        Invariant(
            name="serve_comm_balance",
            description="serve:combine_a2a bytes are one row per "
                        "unique (token, expert rank) of the captured "
                        "routing plans, serve:dispatch_a2a that plus one "
                        "gate weight per (token, expert); both stay out "
                        "of the training audit buckets",
            # A crash aborts an iteration between dispatch and combine,
            # legitimately leaving one unpaired dispatch record.
            applies=lambda case: case.crash_at_call is None,
            check=_check_serve_comm_balance,
        ),
        Invariant(
            name="serve_rows_once",
            description="each row crosses the bridge once per layer: "
                        "the captured plans hold layers x (prompt + "
                        "generated - 1) rows per request, so an evicted "
                        "request resumes from its swapped-in KV instead "
                        "of replaying",
            # A crash legitimately replays its in-flight requests.
            applies=lambda case: case.crash_at_call is None,
            check=_check_serve_rows_once,
        ),
        Invariant(
            name="serve_leaks",
            description="every paged KV block allocated is freed, every "
                        "swapped-out K/V byte is swapped back in or "
                        "dropped by a crash, and every tracer span stack "
                        "is empty at shutdown",
            applies=lambda case: True,
            check=_check_serve_leaks,
        ),
    ]
    for invariant in builtins:
        register_serve_invariant(invariant)
    return builtins


def default_registry() -> List[Invariant]:
    """(Re)register and return the built-in invariants."""
    builtins = [
        Invariant(
            name="finiteness",
            description="every loss, grad norm, parameter, and "
                        "gradient is finite",
            applies=lambda case: True,
            check=_check_finiteness,
        ),
        Invariant(
            name="golden_loss",
            description="per-step loss matches the single-rank golden "
                        "model within the precision band",
            applies=lambda case: True,
            check=_check_golden_loss,
        ),
        Invariant(
            name="golden_grads",
            description="first-step gradients match golden within the "
                        "precision band",
            applies=lambda case: True,
            check=_check_golden_grads,
        ),
        Invariant(
            name="golden_params",
            description="final parameters match golden (float64 "
                        "models with uncompressed comm only: FP8 and "
                        "float32 trajectories legitimately diverge)",
            applies=lambda case: (case.precision != "fp8"
                                  and case.dtype == "float64"),
            check=_check_golden_params,
        ),
        Invariant(
            name="tile_bitwise",
            description="a tiled run is bitwise-identical to its "
                        "untiled twin (losses, params, ledger bytes "
                        "and counts)",
            applies=lambda case: case.tile_tokens is not None,
            check=_check_tile_bitwise,
        ),
        Invariant(
            name="dag_schedule_conformance",
            description="every layer's executed op sequence is a "
                        "valid topological order of both the op graph "
                        "and the overlap schedule",
            applies=lambda case: True,
            check=_check_dag_conformance,
        ),
        Invariant(
            name="tile_conformance",
            description="a tiled run's executed tile stream is a valid "
                        "interleaving of the §4.2 tile graph "
                        "(intra-group tile deps and swizzled chunk "
                        "order respected)",
            applies=lambda case: case.tile_tokens is not None,
            check=_check_tile_conformance,
        ),
        Invariant(
            name="token_conservation",
            description="token counts are conserved through EP "
                        "dispatch and combine",
            applies=lambda case: case.ffn == "ep",
            check=_check_token_conservation,
        ),
        Invariant(
            name="router_mass",
            description="router combine-weight mass is in [0, 1] and "
                        "exactly 1 for fully-kept tokens",
            applies=lambda case: case.ffn == "ep",
            check=_check_router_mass,
        ),
        Invariant(
            name="comm_audit",
            description="CommLedger bytes match the Eq. 1-4 closed "
                        "forms, and the EP A2A bytes their recount "
                        "from the captured routing",
            # Eq. 1-4 describe inter-rank traffic: at world size 1
            # every closed form is zero and the ledger is empty.
            applies=lambda case: (case.attention == "sp"
                                  and case.ffn == "ep"
                                  and case.ranks > 1),
            check=_check_comm_audit,
        ),
        Invariant(
            name="dtype_stable",
            description="every tape node of a forward (op outputs and "
                        "collective payloads; the aux-loss statistics "
                        "excepted), every gradient, every parameter, "
                        "every optimizer moment and every DP-synced "
                        "gradient is in the model's dtype",
            applies=lambda case: True,
            check=_check_dtype_stable,
        ),
        Invariant(
            name="tape_released",
            description="every activation a backward closure saved is "
                        "freed by the time backward() returns, while "
                        "the loss is still held",
            applies=lambda case: True,
            check=_check_tape_released,
        ),
        Invariant(
            name="sync_split",
            description="the DP sync of replicated parameters moves "
                        "App. A.1's hierarchical intra- and inter-node "
                        "volumes",
            applies=lambda case: case.dp > 1,
            check=_check_sync_split,
        ),
        Invariant(
            name="elastic_resume",
            description="a resize-injected elastic run executes every "
                        "step and its loss trajectory matches the "
                        "fixed-size run within the precision band",
            applies=lambda case: bool(case.resize),
            check=_check_elastic_resume,
        ),
    ]
    for invariant in builtins:
        register_invariant(invariant)
    return builtins


default_registry()
default_serve_registry()
