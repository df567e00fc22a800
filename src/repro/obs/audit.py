"""Comm-volume auditor: traced bytes vs the Eq. 1–4 closed forms.

MegaScale-MoE's §3 strategy choices all rest on four closed-form
per-pass communication volumes (Table 1 symbols; ``×`` the wire element
size for bytes, ``×`` the rank count for all-ranks totals):

* Eq. 1 — TP attention: ``2 b s h (n-1)/n`` per rank (AG + RS);
* Eq. 2 — SP (Ulysses) attention: Eq. 1 ``× (2 + 2/m)/n``; as printed
  the equation counts both all-to-all directions, so the realized
  per-pass volume is exactly half;
* Eq. 3 — EP all-to-all dispatch: ``2 k/n · b s h (n-1)/n`` per rank —
  the *uniform-routing expectation*; the realized volume fluctuates with
  the router but never exceeds the all-remote bound ``2 k b s h / n``;
* Eq. 4 — TP FFN (and EP's AG/RS dispatch mode): Eq. 1's volume.

The auditor takes what a run actually moved — either the byte ledger or
the traced comm spans — groups it by mechanism via the collective tags,
and compares against the formulas, flagging divergence beyond a
tolerance (1% for the exact ring identities; configurable, looser, for
the stochastic A2A expectation).  This is the accounting check behind
the paper's "communication-efficient" claims, run on every traced job
instead of only inside the benchmark suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from ..core.analysis import (
    ep_ffn_comm_volume,
    sp_attention_comm_volume,
    tp_attention_comm_volume,
    tp_ffn_comm_volume,
)
from .tracer import Span

__all__ = [
    "AuditEntry",
    "AuditReport",
    "MECHANISMS",
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
    #: All-ranks expected elements per pass, from (b, s, h, n, m, k).
    expected_elements: Callable[[int, int, int, int, int, int], float]
    #: Whether the identity is exact (ring collectives) or an
    #: expectation (randomly routed all-to-all).
    exact: bool = True


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
        equation="Eq. 3 (expectation)",
        tag_prefixes=("ep_ffn:dispatch_a2a", "ep_ffn:combine_a2a"),
        expected_elements=lambda b, s, h, n, m, k: (
            ep_ffn_comm_volume(b, s, h, n, k) * n
        ),
        exact=False,
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
    exact: bool
    #: For the A2A expectation: the all-remote hard upper bound.
    hard_bound_bytes: Optional[float] = None

    @property
    def rel_error(self) -> float:
        if self.expected_bytes == 0.0:
            return 0.0 if self.measured_bytes == 0.0 else float("inf")
        return abs(self.measured_bytes - self.expected_bytes) / self.expected_bytes

    @property
    def within_bound(self) -> bool:
        if self.hard_bound_bytes is None:
            return True
        return self.measured_bytes <= self.hard_bound_bytes * (1.0 + 1e-9)

    @property
    def ok(self) -> bool:
        return self.rel_error <= self.tolerance and self.within_bound


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

    def entry(self, mechanism: str) -> AuditEntry:
        """The entry for one mechanism name (KeyError if absent)."""
        for e in self.entries:
            if e.mechanism == mechanism:
                return e
        raise KeyError(f"no audited mechanism {mechanism!r}")

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
    # Prefer the never-rotated cumulative tag counters: a bounded
    # CommLedger(max_records=...) drops old records, and live records +
    # rolled aggregates would drift out from under a long audit window.
    bytes_by_tag = getattr(ledger, "bytes_by_tag", None)
    if callable(bytes_by_tag):
        total = 0.0
        for tag, tag_bytes in bytes_by_tag().items():
            if not _tag_matches(tag, prefixes):
                continue
            if not include_backward and tag.endswith(":bwd"):
                continue
            total += tag_bytes
        return total
    # Duck-typed sources without counters: live records plus the
    # per-(op, tag) aggregates of anything rotated out.
    total = 0.0
    for record in ledger.records:
        if not _tag_matches(record.tag, prefixes):
            continue
        if not include_backward and record.tag.endswith(":bwd"):
            continue
        total += record.total_bytes
    for (_op, tag), rolled in getattr(ledger, "rolled", {}).items():
        if not _tag_matches(tag, prefixes):
            continue
        if not include_backward and tag.endswith(":bwd"):
            continue
        total += rolled["total_bytes"]
    return total


def _measured_from_spans(
    spans: Iterable[Span], prefixes: Tuple[str, ...], include_backward: bool
) -> float:
    total = 0.0
    for span in spans:
        if not span.cat.startswith("comm"):
            continue
        tag = str(span.attrs.get("tag", ""))
        if not _tag_matches(tag, prefixes):
            continue
        if not include_backward and tag.endswith(":bwd"):
            continue
        total += float(span.attrs.get("bytes", 0.0))
    return total


def audit_comm_volumes(
    source: Union[Any, Iterable[Span]],
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
    a2a_tolerance: float = 0.30,
    include_backward: bool = False,
) -> AuditReport:
    """Audit moved bytes against the Eq. 1–4 predictions.

    Args:
        source: A :class:`~repro.comm.group.CommLedger` (anything with
            ``.records``) or an iterable of comm :class:`Span` objects
            whose attrs carry ``tag`` and ``bytes``.
        b, s, h, n, m, k: Table 1 symbols — micro-batch, sequence,
            hidden size, model-parallel degree, GQA ratio, top-k.
        itemsize: Wire bytes per element — the itemsize of the
            model's parameters (``model.embedding.data.itemsize``), not
            a width read back from the run being audited: a payload
            that some op widened on its way to a collective must show
            up as a byte excess here.
        passes: Forward passes audited (layers × steps).
        tolerance: Relative tolerance for the exact ring identities.
        a2a_tolerance: Looser tolerance for the Eq. 3 routing
            expectation.
        include_backward: Also count ``:bwd``-tagged records (the dual
            collectives retrace forward volumes; off by default so the
            audit matches the per-pass formulas directly).

    Only mechanisms that actually moved bytes produce entries, so one
    auditor serves every strategy combination.
    """
    if passes < 1:
        raise ValueError(f"passes must be >= 1, got {passes}")
    from_ledger = hasattr(source, "records")
    span_list: List[Span] = [] if from_ledger else list(source)
    entries: List[AuditEntry] = []
    direction_factor = 2.0 if include_backward else 1.0
    for spec in MECHANISMS.values():
        if from_ledger:
            measured = _measured_from_ledger(
                source, spec.tag_prefixes, include_backward
            )
        else:
            measured = _measured_from_spans(
                span_list, spec.tag_prefixes, include_backward
            )
        if measured == 0.0:
            continue
        expected = (
            spec.expected_elements(b, s, h, n, m, k)
            * itemsize
            * passes
            * direction_factor
        )
        hard_bound = None
        if not spec.exact:
            hard_bound = 2.0 * k * b * s * h * itemsize * passes * direction_factor
        entries.append(
            AuditEntry(
                mechanism=spec.name,
                equation=spec.equation,
                expected_bytes=expected,
                measured_bytes=measured,
                tolerance=tolerance if spec.exact else a2a_tolerance,
                exact=spec.exact,
                hard_bound_bytes=hard_bound,
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
