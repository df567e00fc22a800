"""Config fuzzer + shrinker for the conformance engine.

Random (model, plan, precision, tiling) tuples catch interaction
bugs no hand-written matrix covers; when a case fails, the raw config
is rarely the story you want to debug.  :func:`shrink` greedily
minimizes a failing case — fewer ranks, layers, steps, tokens, experts
— while re-running the failure predicate, returning the smallest
configuration that still violates an invariant (the property-testing
"minimal reproducer" discipline, applied to parallel-training plans).
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

import numpy as np

from .cases import VerifyCase
from .engine import ConformanceReport, run_case, run_matrix

__all__ = [
    "sample_case",
    "fuzz",
    "shrink",
    "corrupting_world_setup",
]


def sample_case(rng: np.random.Generator) -> VerifyCase:
    """One random valid case from the constrained config space."""
    ranks = int(rng.choice([2, 4]))
    gqa = int(rng.choice([1, 2]))
    heads = ranks * gqa * int(rng.choice([1, 2]))
    hidden = heads * int(rng.choice([2, 4]))
    experts = ranks * int(rng.choice([1, 2]))
    case = VerifyCase(
        ranks=ranks,
        layers=int(rng.choice([1, 2])),
        hidden=hidden,
        heads=heads,
        gqa_ratio=gqa,
        ffn_hidden=int(rng.choice([16, 32, 48])),
        experts=experts,
        top_k=int(rng.choice([1, min(2, experts)])),
        vocab=int(rng.choice([32, 64])),
        batch=int(rng.choice([1, 2])),
        seq=ranks * int(rng.choice([2, 4])),
        ep_dispatch=str(rng.choice(["a2a", "ag_rs"])),
        precision=str(rng.choice(["fp32", "fp8"])),
        steps=int(rng.choice([1, 2])),
        seed=int(rng.integers(0, 1_000_000)),
    )
    # Half the cases run tile-granular (§4.2): sample a token-chunk
    # width from the divisors of the per-rank shard.
    if float(rng.random()) < 0.5:
        local = case.seq // case.ranks
        divisors = [d for d in range(1, local + 1) if local % d == 0]
        case = case.replace(tile_tokens=int(rng.choice(divisors)))
    # Sometimes inject a cluster resize: fuzz over the resize step and
    # the old→new layout pair (any target world the model dimensions
    # admit).  Drawn after the base fields so the non-resize portion
    # of the case space is sampled exactly as before.
    if case.steps >= 2 and float(rng.random()) < 0.3:
        step = int(rng.integers(1, case.steps))
        for target in rng.permutation(
                [r for r in (1, 2, 4, 8) if r != case.ranks]):
            try:
                return case.replace(resize=((step, int(target)),))
            except ValueError:
                continue
    return case


def fuzz(n_cases: int, seed: int = 0,
         progress: Optional[Callable] = None) -> ConformanceReport:
    """Sample and run ``n_cases`` random cases from one fuzzer seed."""
    rng = np.random.default_rng(seed)
    cases = [sample_case(rng) for _ in range(n_cases)]
    return run_matrix(cases, progress=progress)


def _shrink_candidates(case: VerifyCase) -> Iterator[VerifyCase]:
    """Strictly-smaller neighbor configs, most aggressive first.

    Invalid combinations (divisibility violations) are filtered by the
    :class:`VerifyCase` validator at construction time.
    """

    def attempt(**changes) -> Optional[VerifyCase]:
        try:
            return case.replace(**changes)
        except ValueError:
            return None

    # Dropping the resize schedule first: it removes three extra
    # trainer builds per evaluation, the biggest single reduction.
    if case.resize:
        yield from filter(None, [attempt(resize=())])
        if len(case.resize) > 1:
            yield from filter(None, [attempt(resize=case.resize[:1])])
    # Untiling early: it halves the surface under test (no tile graph,
    # no chunked collectives, no twin run) without touching the model,
    # and it unlocks the seq/ranks shrinks a tile width would forbid.
    if case.tile_tokens is not None:
        yield from filter(None, [attempt(tile_tokens=None)])
    for degree in ("pp", "dp"):
        if getattr(case, degree) > 1:
            yield from filter(None, [attempt(**{degree: 1})])
    if case.ranks > 1:
        yield from filter(None, [attempt(ranks=case.ranks // 2)])
    if case.layers > 1:
        yield from filter(None, [attempt(layers=1)])
    if case.steps > 1:
        yield from filter(None, [attempt(steps=1)])
    if case.batch > 1:
        yield from filter(None, [attempt(batch=1)])
    if case.seq > case.ranks:
        yield from filter(None, [attempt(seq=case.seq // 2)])
    if case.experts > case.ranks:
        yield from filter(None, [attempt(experts=case.ranks,
                                         top_k=min(case.top_k,
                                                   case.ranks))])
    min_heads = case.ranks * case.gqa_ratio
    if case.heads > min_heads:
        head_dim = case.hidden // case.heads
        yield from filter(None, [attempt(heads=min_heads,
                                         hidden=min_heads * head_dim)])
    if case.ffn_hidden > 16:
        yield from filter(None, [attempt(ffn_hidden=16)])
    if case.top_k > 1:
        yield from filter(None, [attempt(top_k=1)])
    if case.vocab > 32:
        yield from filter(None, [attempt(vocab=32)])


def shrink(case: VerifyCase,
           fails: Callable[[VerifyCase], bool],
           max_evals: int = 64) -> VerifyCase:
    """Greedily minimize ``case`` while ``fails`` stays True.

    ``fails`` must be True for ``case`` itself (the caller found a
    failure); the returned case is a local minimum — no single
    candidate reduction still fails — reached within ``max_evals``
    predicate evaluations.
    """
    evals = 0
    current = case
    improved = True
    while improved and evals < max_evals:
        improved = False
        for candidate in _shrink_candidates(current):
            evals += 1
            if fails(candidate):
                current = candidate
                improved = True
                break
            if evals >= max_evals:
                break
    return current


def corrupting_world_setup(seed: int = 0, at_call: int = 0):
    """A world hook injecting one bit-flip corruption (for tests/demo).

    Attach via ``run_case(case, world_setup=...)``: the perturbation
    hits only the case run, so the conformance engine must *catch* it
    against the golden model or the clean untiled twin.
    """
    from ..ft.faults import FaultPlan, FaultSpec

    def setup(world) -> None:
        # verify_checksums=False delivers the corrupted payload
        # silently — the point is that the *invariants* must flag it.
        world.attach_fault_plan(
            FaultPlan([FaultSpec("corrupt", at_call=at_call)],
                      seed=seed, verify_checksums=False))

    return setup

