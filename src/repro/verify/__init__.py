"""Differential verification: cross-strategy conformance checking.

Every parallel plan in this repo claims to compute the same model as
the single-rank reference.  This package makes that claim executable:

- :mod:`~repro.verify.cases` — frozen :class:`VerifyCase` configs and
  the seeded CI :func:`smoke_matrix`;
- :mod:`~repro.verify.invariants` — the registry of conformance
  invariants (golden closeness with per-format tolerance bands,
  tiled/untiled bitwise identity, token/router conservation,
  Eq. 1–4 comm audit, finiteness);
- :mod:`~repro.verify.engine` — runs a case differentially (case run,
  golden run, untiled twin) and evaluates the registry;
- :mod:`~repro.verify.fuzz` — random case sampling plus a greedy
  shrinker that reduces failing configs to minimal reproducers.

Entry point: ``python -m repro verify --smoke``.
"""

from .cases import (
    ServeCase,
    VerifyCase,
    plan_conformance_cases,
    serve_matrix,
    smoke_matrix,
)
from .engine import (
    CaseResult,
    ConformanceReport,
    GoldenArtifacts,
    RunArtifacts,
    ServeArtifacts,
    run_case,
    run_matrix,
    run_serve_case,
    run_serve_matrix,
)
from .fuzz import fuzz, sample_case, shrink
from .invariants import (
    Invariant,
    InvariantResult,
    ToleranceBand,
    register_invariant,
    register_serve_invariant,
    registered_invariants,
    registered_serve_invariants,
    tolerance_for_precision,
)

__all__ = [
    "VerifyCase",
    "ServeCase",
    "smoke_matrix",
    "serve_matrix",
    "plan_conformance_cases",
    "CaseResult",
    "ConformanceReport",
    "GoldenArtifacts",
    "RunArtifacts",
    "ServeArtifacts",
    "run_case",
    "run_matrix",
    "run_serve_case",
    "run_serve_matrix",
    "fuzz",
    "sample_case",
    "shrink",
    "Invariant",
    "InvariantResult",
    "ToleranceBand",
    "register_invariant",
    "register_serve_invariant",
    "registered_invariants",
    "registered_serve_invariants",
    "tolerance_for_precision",
]
