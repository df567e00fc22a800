"""Metrics registry: counters, gauges, and histograms for one run.

The trainer, the production runner, and the byte ledger each keep their
own numbers; this registry gives them one namespace so a run can be
summarized (and regression-tested) from a single snapshot:

* counters — monotonically increasing totals (steps run, tokens seen,
  restarts, retries);
* gauges — last-value observations (current loss, ledger byte totals
  synced via :meth:`MetricsRegistry.ingest_ledger`);
* histograms — bounded-memory summaries (count/sum/min/max plus a
  reservoir of recent values for percentiles), for per-step losses and
  per-collective byte sizes.

Everything is plain floats — no external metrics client — so snapshots
serialize straight into the regression harness's JSON.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """A monotonically increasing total, sharded per thread.

    ``inc`` writes only the calling thread's shard — a single dict-slot
    update under the GIL, no lock — so concurrent caller threads
    never contend.  ``value`` folds base + shards on read.
    """

    __slots__ = ("_base", "_shards")

    def __init__(self, value: float = 0.0):
        self._base = float(value)
        self._shards: Dict[int, float] = {}

    def inc(self, amount: float = 1.0) -> None:
        """Add a non-negative ``amount`` to the total."""
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        tid = threading.get_ident()
        shards = self._shards
        shards[tid] = shards.get(tid, 0.0) + amount

    @property
    def value(self) -> float:
        """The folded total across all thread shards."""
        # list() snapshots the values atomically under the GIL, so a
        # concurrent inc cannot resize the dict mid-sum.
        return self._base + sum(list(self._shards.values()))

    @value.setter
    def value(self, new: float) -> None:
        self._base = float(new)
        self._shards = {}

    def __repr__(self) -> str:
        return f"Counter(value={self.value})"


@dataclass
class Gauge:
    """A last-value observation."""

    value: float = 0.0
    updates: int = 0

    def set(self, value: float) -> None:
        """Replace the current value."""
        self.value = float(value)
        self.updates += 1


@dataclass
class Histogram:
    """Bounded-memory distribution summary.

    Keeps exact count/sum/min/max and a sliding reservoir of the most
    recent ``reservoir_size`` observations for percentile estimates, so
    multi-thousand-step runs do not grow memory without limit.
    """

    reservoir_size: int = 1024
    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")
    _reservoir: List[float] = field(default_factory=list, repr=False)
    #: observe() folds several fields, so concurrent threads serialize.
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def observe(self, value: float) -> None:
        """Fold one observation into the summary and reservoir."""
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            self.min = min(self.min, value)
            self.max = max(self.max, value)
            self._reservoir.append(value)
            if len(self._reservoir) > self.reservoir_size:
                del self._reservoir[
                    : len(self._reservoir) - self.reservoir_size]

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Approximate percentile from the recent-value reservoir."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self._reservoir:
            return 0.0
        ordered = sorted(self._reservoir)
        index = round(p / 100.0 * (len(ordered) - 1))
        return ordered[index]


class MetricsRegistry:
    """Create-on-first-use registry keyed by dotted metric names."""

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    # -- accessors ---------------------------------------------------------

    def counter(self, name: str) -> Counter:
        """The named :class:`Counter`, created on first use."""
        return self.counters.setdefault(name, Counter())

    def gauge(self, name: str) -> Gauge:
        """The named :class:`Gauge`, created on first use."""
        return self.gauges.setdefault(name, Gauge())

    def histogram(self, name: str, reservoir_size: int = 1024) -> Histogram:
        """The named :class:`Histogram`, created on first use."""
        return self.histograms.setdefault(name, Histogram(reservoir_size))

    # -- convenience -------------------------------------------------------

    def inc(self, name: str, amount: float = 1.0) -> None:
        """Increment the named counter."""
        self.counter(name).inc(amount)

    def set(self, name: str, value: float) -> None:
        """Set the named gauge."""
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        """Observe into the named histogram."""
        self.histogram(name).observe(value)

    def ingest_ledger(self, ledger: Any, prefix: str = "comm") -> None:
        """Sync byte-ledger totals into gauges (idempotent snapshot).

        Creates ``<prefix>.bytes.total``, ``<prefix>.calls.total``, and
        per-op ``<prefix>.bytes.<op>`` / ``<prefix>.calls.<op>`` from a
        :class:`~repro.comm.group.CommLedger` (duck-typed: anything with
        ``total_bytes``/``counts``).
        """
        counts = ledger.counts()
        self.set(f"{prefix}.bytes.total", ledger.total_bytes())
        self.set(f"{prefix}.calls.total", float(sum(counts.values())))
        for op, n_calls in counts.items():
            self.set(f"{prefix}.bytes.{op}", ledger.total_bytes(op=op))
            self.set(f"{prefix}.calls.{op}", float(n_calls))

    # -- output ------------------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        """Flat name→value map (histograms expand to summary stats)."""
        out: Dict[str, float] = {}
        for name, counter in self.counters.items():
            out[name] = counter.value
        for name, gauge in self.gauges.items():
            out[name] = gauge.value
        for name, hist in self.histograms.items():
            if hist.count == 0:
                continue
            out[f"{name}.count"] = float(hist.count)
            out[f"{name}.mean"] = hist.mean
            out[f"{name}.min"] = hist.min
            out[f"{name}.max"] = hist.max
            out[f"{name}.p50"] = hist.percentile(50)
            out[f"{name}.p99"] = hist.percentile(99)
        return out

    def render(self, title: Optional[str] = None) -> str:
        """Aligned text table of the snapshot."""
        snap = self.snapshot()
        lines: List[str] = []
        if title:
            lines.append(f"=== {title} ===")
        if not snap:
            lines.append("(no metrics recorded)")
            return "\n".join(lines)
        width = max(len(name) for name in snap)
        for name in sorted(snap):
            lines.append(f"{name.ljust(width)}  {_fmt(snap[name])}")
        return "\n".join(lines)


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"
