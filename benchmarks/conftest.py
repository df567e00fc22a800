"""The table printer of the two CI-run benches
(``pytest benchmarks/bench_serve_latency.py --benchmark-only -s``);
the paper's tables and figures are rows of ``scorecard.py``."""

from __future__ import annotations

from typing import Sequence


def report(title: str, headers: Sequence[str],
           rows: Sequence[Sequence], notes: str = "") -> None:
    """Print one experiment table."""
    widths = [
        max(len(str(h)), max((len(_fmt(r[i])) for r in rows), default=0))
        for i, h in enumerate(headers)
    ]
    lines = [f"\n=== {title} ==="]
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers,
                                                           widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(_fmt(v).ljust(w)
                               for v, w in zip(row, widths)))
    if notes:
        lines.append(notes)
    print("\n".join(lines))


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)
