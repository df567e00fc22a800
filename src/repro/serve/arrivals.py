"""Request traces and the deterministic serving clock.

A serving benchmark is only reproducible if both the *workload* and the
*clock* are: :func:`poisson_trace` / :func:`bursty_trace` draw seeded
arrival processes, and :class:`VirtualClock` is the injected time source
the scheduler advances by its modelled per-iteration cost — so latency
percentiles are exact, CI-stable numbers rather than wall-clock noise.

The clock satisfies the :class:`~repro.obs.Tracer` ``clock`` protocol
(zero-arg callable returning seconds), which is how the same instant
flows scheduler → per-request spans → the percentile summary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

__all__ = ["Request", "VirtualClock", "poisson_trace", "bursty_trace",
           "latency_summary"]


@dataclass(frozen=True)
class Request:
    """One inference request: a prompt and a generation budget."""

    request_id: int
    prompt: tuple
    max_new_tokens: int
    arrival_time: float = 0.0

    def __post_init__(self):
        if len(self.prompt) < 1:
            raise ValueError("prompt must hold at least one token")
        if self.max_new_tokens < 1:
            raise ValueError(
                f"max_new_tokens must be >= 1, got {self.max_new_tokens}"
            )
        if self.arrival_time < 0:
            raise ValueError(
                f"arrival_time must be >= 0, got {self.arrival_time}"
            )

    @property
    def prompt_len(self) -> int:
        return len(self.prompt)


class VirtualClock:
    """A deterministic clock the scheduler advances explicitly."""

    def __init__(self, start: float = 0.0):
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> float:
        """Move forward by ``dt`` seconds; returns the new time."""
        if dt < 0:
            raise ValueError(f"cannot advance clock by {dt}")
        self.now += dt
        return self.now

    def advance_to(self, t: float) -> float:
        """Jump forward to ``t`` (no-op if already past it)."""
        self.now = max(self.now, float(t))
        return self.now


def _draw_requests(arrival_times: Sequence[float], vocab: int,
                   rng: np.random.Generator,
                   prompt_len: tuple, max_new_tokens: tuple
                   ) -> List[Request]:
    lo_p, hi_p = prompt_len
    lo_n, hi_n = max_new_tokens
    out = []
    for i, t in enumerate(arrival_times):
        plen = int(rng.integers(lo_p, hi_p + 1))
        nnew = int(rng.integers(lo_n, hi_n + 1))
        prompt = tuple(int(x) for x in rng.integers(0, vocab, size=plen))
        out.append(Request(request_id=i, prompt=prompt,
                           max_new_tokens=nnew, arrival_time=float(t)))
    return out


def poisson_trace(n_requests: int, rate: float, vocab: int,
                  prompt_len: tuple = (2, 6),
                  max_new_tokens: tuple = (2, 5),
                  seed: int = 0) -> List[Request]:
    """Seeded Poisson arrivals: exponential inter-arrival gaps at
    ``rate`` requests per clock unit."""
    if n_requests < 1:
        raise ValueError(f"n_requests must be >= 1, got {n_requests}")
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate, size=n_requests)
    arrivals = np.cumsum(gaps)
    return _draw_requests(arrivals, vocab, rng, prompt_len,
                          max_new_tokens)


def bursty_trace(n_requests: int, burst_size: int, burst_gap: float,
                 vocab: int,
                 prompt_len: tuple = (2, 6),
                 max_new_tokens: tuple = (2, 5),
                 seed: int = 0) -> List[Request]:
    """Seeded bursty arrivals: bursts of simultaneous requests spaced
    ``burst_gap`` apart — the adversarial admission pattern."""
    if n_requests < 1:
        raise ValueError(f"n_requests must be >= 1, got {n_requests}")
    if burst_size < 1:
        raise ValueError(f"burst_size must be >= 1, got {burst_size}")
    if burst_gap < 0:
        raise ValueError(f"burst_gap must be >= 0, got {burst_gap}")
    rng = np.random.default_rng(seed)
    arrivals = [(i // burst_size) * burst_gap for i in range(n_requests)]
    return _draw_requests(arrivals, vocab, rng, prompt_len,
                          max_new_tokens)


def latency_summary(tracer, cat: str = "serve.request"
                    ) -> Dict[str, float]:
    """p50/p95/p99 latency + throughput from per-request spans.

    Reads the closed ``serve.request`` spans the scheduler recorded on
    its injected clock, so the summary is deterministic end-to-end when
    a :class:`VirtualClock` is injected.
    """
    spans = tracer.closed_spans(cat)
    if not spans:
        return {"count": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0,
                "mean": 0.0, "throughput_tokens": 0.0,
                "span_seconds": 0.0}
    latencies = np.array([s.duration for s in spans], dtype=np.float64)
    tokens = float(sum(s.attrs.get("new_tokens", 0) for s in spans))
    t_lo = min(s.start for s in spans)
    t_hi = max(s.end for s in spans)
    window = max(t_hi - t_lo, 1e-12)
    return {
        "count": float(len(spans)),
        "p50": float(np.percentile(latencies, 50)),
        "p95": float(np.percentile(latencies, 95)),
        "p99": float(np.percentile(latencies, 99)),
        "mean": float(latencies.mean()),
        "throughput_tokens": tokens / window,
        "span_seconds": float(window),
    }
