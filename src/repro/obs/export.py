"""Trace exporters: Chrome-trace JSON and a plain-text timeline summary.

The Chrome trace event format is the lingua franca of GPU profilers
(``chrome://tracing``, Perfetto, TensorBoard all open it): a JSON object
with a ``traceEvents`` list of complete (``"ph": "X"``) and instant
(``"ph": "i"``) events.  Mapping from the span model:

==============  ==========================================
span field      trace event field
==============  ==========================================
``pid``         ``pid`` — one process lane per clock domain
                (wall-clock ``train`` vs simulated ``sim``)
``stream``      ``tid`` — one thread lane per stream
``start``       ``ts`` in microseconds
``duration``    ``dur`` in microseconds
``cat``         ``cat`` (filterable in the UI)
attrs           ``args`` (shown when a slice is clicked)
==============  ==========================================

Span nesting renders naturally: Chrome stacks slices that overlap on the
same ``(pid, tid)`` lane, which is exactly how nested spans behave.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from .tracer import Event, Span, Tracer

__all__ = [
    "to_chrome_trace",
    "write_chrome_trace",
    "text_summary",
]

_SCALE = 1e6  # seconds -> microseconds


def _json_safe(attrs: Dict[str, Any]) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for key, value in attrs.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            out[key] = value
        elif isinstance(value, (list, tuple)):
            out[key] = [_coerce(v) for v in value]
        else:
            out[key] = str(value)
    return out


def _coerce(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def to_chrome_trace(
    spans: Sequence[Span],
    events: Sequence[Event] = (),
    extra_metadata: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Build the Chrome-trace dict for a span/event collection.

    Open (unclosed) spans are skipped — a trace is exported after the
    run, so anything still open is a crashed frame, not a slice.
    """
    trace_events: List[Dict[str, Any]] = []
    for span in spans:
        if not span.closed:
            continue
        args = _json_safe(span.attrs)
        if span.rank is not None:
            args["rank"] = span.rank
        if span.phase:
            args["phase"] = span.phase
        trace_events.append(
            {
                "name": span.name,
                "cat": span.cat,
                "ph": "X",
                "ts": span.start * _SCALE,
                "dur": span.duration * _SCALE,
                "pid": span.pid,
                "tid": span.stream,
                "args": args,
            }
        )
    for event in events:
        args = _json_safe(event.attrs)
        if event.rank is not None:
            args["rank"] = event.rank
        trace_events.append(
            {
                "name": event.name,
                "cat": event.cat,
                "ph": "i",
                "s": "p",
                "ts": event.ts * _SCALE,
                "pid": event.pid,
                "tid": event.stream,
                "args": args,
            }
        )
    meta = {"tool": "repro.obs", "spanCount": len(trace_events)}
    if extra_metadata:
        meta.update(extra_metadata)
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": meta,
    }


def write_chrome_trace(
    path: str,
    tracer: Tracer,
    extra_metadata: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Serialize a tracer's spans/events to ``path`` (creating its
    directory); returns the dict."""
    trace = to_chrome_trace(tracer.spans, tracer.events, extra_metadata)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(trace, handle, indent=1)
    return trace


def text_summary(tracer: Tracer, title: str = "timeline summary") -> str:
    """Human-readable per-category and per-stream span accounting."""
    closed = [s for s in tracer.spans if s.closed]
    lines = [f"=== {title} ==="]
    if not closed:
        lines.append("(no closed spans)")
        return "\n".join(lines)

    by_cat: Dict[str, List[Span]] = {}
    by_lane: Dict[str, List[Span]] = {}
    for span in closed:
        by_cat.setdefault(span.cat, []).append(span)
        by_lane.setdefault(f"{span.pid}/{span.stream}", []).append(span)

    lines.append(f"{len(closed)} spans, {len(tracer.events)} events")
    lines.append("")
    lines.append(f"{'category':24s} {'spans':>6s} {'busy (s)':>10s} {'bytes':>14s}")
    for cat in sorted(by_cat):
        spans = by_cat[cat]
        busy = sum(s.duration for s in spans)
        moved = sum(float(s.attrs.get("bytes", 0.0)) for s in spans)
        lines.append(f"{cat:24s} {len(spans):6d} {busy:10.6f} {moved:14.0f}")
    lines.append("")
    lines.append(f"{'lane (pid/stream)':32s} {'spans':>6s} {'busy (s)':>10s}")
    for lane in sorted(by_lane):
        spans = by_lane[lane]
        busy = sum(s.duration for s in spans)
        lines.append(f"{lane:32s} {len(spans):6d} {busy:10.6f}")
    return "\n".join(lines)
