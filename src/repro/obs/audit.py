"""Comm-volume auditor: traced bytes vs the Eq. 1–4 closed forms.

MegaScale-MoE's §3 strategy choices all rest on four closed-form
per-pass communication volumes (Table 1 symbols; ``×`` the wire element
size for bytes, ``×`` the rank count for all-ranks totals):

* Eq. 1 — TP attention: ``2 b s h (n-1)/n`` per rank (AG + RS);
* Eq. 2 — SP (Ulysses) attention: Eq. 1 ``× (2 + 2/m)/n``; as printed
  the equation counts both all-to-all directions, so the realized
  per-pass volume is exactly half;
* Eq. 3 — EP all-to-all dispatch: ``2 k/n · b s h (n-1)/n`` per rank —
  the uniform-routing expectation of a wire that ships one row per
  (token, expert).  The wire ships one row per (token, expert rank)
  cell plus one gate weight per pair
  (:func:`~repro.model.routing.a2a_wire`), and what it moves depends
  on the router, so the audit *recounts* it exactly from each pass's
  captured routing (:func:`a2a_wire_elements`) instead;
* Eq. 4 — TP FFN (and EP's AG/RS dispatch mode): Eq. 1's volume.

The auditor takes what a run actually moved — the byte ledger — groups
it by mechanism via the collective tags,
and compares against the formulas (1% tolerance for the ring
identities; the A2A recount must match to ``RECOUNT_TOLERANCE``).  This
is the accounting check behind the paper's "communication-efficient"
claims, run on every traced job instead of only inside the benchmark
suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..core.analysis import (
    sp_attention_comm_volume,
    tp_attention_comm_volume,
    tp_ffn_comm_volume,
)

__all__ = [
    "AuditEntry",
    "AuditReport",
    "MECHANISMS",
    "RECOUNT_TOLERANCE",
    "a2a_rows",
    "a2a_wire_elements",
    "audit_comm_volumes",
    "crosscheck_tracer_ledger",
]


@dataclass(frozen=True)
class MechanismSpec:
    """How one parallelism mechanism shows up in tags and formulas."""

    name: str
    equation: str
    #: Ledger-tag prefixes whose forward records belong to this mechanism.
    tag_prefixes: Tuple[str, ...]
    #: All-ranks expected elements per pass, from (b, s, h, n, m, k);
    #: None where the volume is recounted from captured routing.
    expected_elements: Optional[Callable[[int, int, int, int, int, int], float]]


MECHANISMS: Dict[str, MechanismSpec] = {
    "tp_attention": MechanismSpec(
        name="tp_attention",
        equation="Eq. 1",
        tag_prefixes=("tp_attn:",),
        expected_elements=lambda b, s, h, n, m, k: (
            tp_attention_comm_volume(b, s, h, n) * n
        ),
    ),
    "sp_attention": MechanismSpec(
        name="sp_attention",
        equation="Eq. 2 / 2",
        tag_prefixes=("sp_attn:",),
        expected_elements=lambda b, s, h, n, m, k: (
            sp_attention_comm_volume(b, s, h, n, m) * n / 2.0
        ),
    ),
    "ep_ffn_a2a": MechanismSpec(
        name="ep_ffn_a2a",
        equation="Eq. 3 cells",
        tag_prefixes=("ep_ffn:dispatch_a2a", "ep_ffn:combine_a2a"),
        expected_elements=None,
    ),
    "ep_ffn_ag_rs": MechanismSpec(
        name="ep_ffn_ag_rs",
        equation="Eq. 4",
        tag_prefixes=("ep_ffn:dispatch_ag", "ep_ffn:combine_rs"),
        expected_elements=lambda b, s, h, n, m, k: (
            tp_ffn_comm_volume(b, s, h, n) * n
        ),
    ),
    "tp_ffn": MechanismSpec(
        name="tp_ffn",
        equation="Eq. 4",
        tag_prefixes=("tp_ffn:",),
        expected_elements=lambda b, s, h, n, m, k: (
            tp_ffn_comm_volume(b, s, h, n) * n
        ),
    ),
}


@dataclass
class AuditEntry:
    """One mechanism's predicted-vs-measured forward byte volume."""

    mechanism: str
    equation: str
    expected_bytes: float
    measured_bytes: float
    tolerance: float

    @property
    def rel_error(self) -> float:
        if self.expected_bytes == 0.0:
            return 0.0 if self.measured_bytes == 0.0 else float("inf")
        return abs(self.measured_bytes - self.expected_bytes) / self.expected_bytes

    @property
    def ok(self) -> bool:
        return self.rel_error <= self.tolerance


@dataclass
class AuditReport:
    """All audited mechanisms for one run."""

    entries: List[AuditEntry]
    passes: int

    @property
    def ok(self) -> bool:
        return bool(self.entries) and all(e.ok for e in self.entries)

    def failed(self) -> List[AuditEntry]:
        """The entries that violated their tolerance or bound."""
        return [e for e in self.entries if not e.ok]

    def render(self) -> str:
        """Aligned expected-vs-measured table for terminals/logs."""
        lines = [
            "=== comm-volume audit (forward bytes, all ranks,"
            f" {self.passes} passes) ==="
        ]
        if not self.entries:
            lines.append("(no audited mechanisms found in the trace)")
            return "\n".join(lines)
        header = (
            f"{'mechanism':14s} {'equation':20s} {'expected':>12s}"
            f" {'measured':>12s} {'rel err':>8s} {'ok':>4s}"
        )
        lines.append(header)
        for e in self.entries:
            lines.append(
                f"{e.mechanism:14s} {e.equation:20s} {e.expected_bytes:12.0f}"
                f" {e.measured_bytes:12.0f} {e.rel_error:8.4f}"
                f" {'yes' if e.ok else 'NO':>4s}"
            )
        return "\n".join(lines)


def _tag_matches(tag: str, prefixes: Tuple[str, ...]) -> bool:
    return any(tag.startswith(p) for p in prefixes)


def _measured_from_ledger(
    ledger: Any, prefixes: Tuple[str, ...], include_backward: bool
) -> float:
    total = 0.0
    for tag, tag_bytes in ledger.bytes_by_tag().items():
        if not _tag_matches(tag, prefixes):
            continue
        if not include_backward and tag.endswith(":bwd"):
            continue
        total += tag_bytes
    return total


#: The A2A recount counts the same rows the wire moves: it must match
#: to rounding.
RECOUNT_TOLERANCE = 1e-9


def a2a_rows(dest: np.ndarray, local: int = -1) -> Tuple[int, int, int]:
    """``(token rows, partial rows, gate weights)`` that one source's
    tokens put on the a2a wire, recounted from their destination ranks
    ``dest`` (``[tokens, k]``, -1 where dropped); pairs bound for
    ``local`` stay home.

    A token sends one row to each other rank holding any of its
    experts and one gate weight per (token, expert) there; it gets one
    row back from each such rank, except that a rank after its first
    returns one row per pair (:func:`~repro.model.routing.a2a_wire`'s
    pre-sum rule).  The count reads only the routing — neither Eq. 3
    nor the sender's splits.
    """
    dest = np.sort(dest, axis=1)
    routed = dest >= 0
    new_rank = routed.copy()
    new_rank[:, 1:] &= dest[:, 1:] != dest[:, :-1]
    remote = routed & (dest != local)
    first = np.where(routed, dest, np.iinfo(dest.dtype).max).min(axis=1)
    later = remote & (dest > first[:, None])
    rows = int((new_rank & remote).sum())
    back = rows - int((new_rank & later).sum()) + int(later.sum())
    return rows, back, int(remote.sum())


def a2a_wire_elements(telemetry: Dict[str, Any], h: int) -> float:
    """Off-rank elements one EP A2A layer pass moved (forward, all
    ranks), recounted by :func:`a2a_rows` from the routing its
    ``last_telemetry`` captured (``experts``: each source rank's
    ``[tokens, k]`` experts, -1 where dropped)."""
    per_rank = telemetry["experts_per_rank"]
    total = 0
    for rank, experts in enumerate(telemetry["experts"]):
        rows, back, gates = a2a_rows(
            np.where(experts >= 0, experts // per_rank, -1), rank
        )
        total += (rows + back) * h + gates
    return float(total)


def audit_comm_volumes(
    ledger: Any,
    *,
    b: int,
    s: int,
    h: int,
    n: int,
    m: int = 1,
    k: int = 1,
    itemsize: float,
    passes: int = 1,
    tolerance: float = 0.01,
    a2a_telemetry: Iterable[Dict[str, Any]] = (),
    include_backward: bool = False,
) -> AuditReport:
    """Audit moved bytes against the Eq. 1–4 predictions.

    Args:
        ledger: The run's :class:`~repro.comm.group.CommLedger`.
        b, s, h, n, m, k: Table 1 symbols — micro-batch, sequence,
            hidden size, model-parallel degree, GQA ratio, top-k.
        itemsize: Wire bytes per element — the itemsize of the
            model's parameters (``model.embedding.data.itemsize``), not
            a width read back from the run being audited: a payload
            that some op widened on its way to a collective must show
            up as a byte excess here.
        passes: Forward passes audited (layers × steps).
        tolerance: Relative tolerance for the ring identities.
        a2a_telemetry: The EP layers' ``last_telemetry`` of every A2A
            layer pass in the audited window; the A2A entry's expected
            bytes are :func:`a2a_wire_elements` summed over them (with
            none, any A2A traffic fails the audit).
        include_backward: Also count ``:bwd``-tagged records (the dual
            collectives retrace forward volumes; off by default so the
            audit matches the per-pass formulas directly).

    Only mechanisms that actually moved bytes produce entries, so one
    auditor serves every strategy combination.
    """
    if passes < 1:
        raise ValueError(f"passes must be >= 1, got {passes}")
    entries: List[AuditEntry] = []
    direction_factor = 2.0 if include_backward else 1.0
    for spec in MECHANISMS.values():
        measured = _measured_from_ledger(ledger, spec.tag_prefixes, include_backward)
        if measured == 0.0:
            continue
        if spec.expected_elements is None:
            elements = sum(a2a_wire_elements(t, h) for t in a2a_telemetry)
            entry_tolerance = RECOUNT_TOLERANCE
        else:
            elements = spec.expected_elements(b, s, h, n, m, k) * passes
            entry_tolerance = tolerance
        entries.append(
            AuditEntry(
                mechanism=spec.name,
                equation=spec.equation,
                expected_bytes=elements * itemsize * direction_factor,
                measured_bytes=measured,
                tolerance=entry_tolerance,
            )
        )
    return AuditReport(entries=entries, passes=passes)


def crosscheck_tracer_ledger(
    tracer: Any, ledger: Any, tolerance: float = 1e-9
) -> Tuple[bool, float, float]:
    """Verify traced comm bytes equal the ledger's byte totals.

    Sums ``bytes`` over comm spans and comm instant events (p2p marks)
    and compares with ``ledger.total_bytes()``.  Returns
    ``(ok, traced_bytes, ledger_bytes)``.  Only meaningful when the
    tracer was attached for the ledger's whole lifetime.
    """
    traced = 0.0
    for span in tracer.spans:
        if span.cat.startswith("comm"):
            traced += float(span.attrs.get("bytes", 0.0))
    for event in tracer.events:
        if event.cat.startswith("comm"):
            traced += float(event.attrs.get("bytes", 0.0))
    ledger_bytes = float(ledger.total_bytes())
    if ledger_bytes == 0.0:
        return traced == 0.0, traced, ledger_bytes
    ok = abs(traced - ledger_bytes) / ledger_bytes <= tolerance
    return ok, traced, ledger_bytes
