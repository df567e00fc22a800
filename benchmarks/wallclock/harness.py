"""Measurement plumbing shared by the wall-clock benchmark's workloads.

Nothing here imports numpy or ``repro``: :func:`pin_environment` has to
run before numpy loads its BLAS, so the entry points call it first and
only then import the workload modules.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(BENCH_DIR))
SRC_DIR = os.path.join(REPO_ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
BENCHMARK_JSON = os.path.join(REPO_ROOT, "BENCHMARK.json")

#: One BLAS thread: with the default 2 on this 2-core host a small-shape
#: step burns 175 ms CPU for 88 ms wall and gains nothing, and the
#: second thread's scheduling is the largest source of run-to-run noise.
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Environment knobs the program reads when a config leaves a choice
#: open; cleared so "the default path" means the program's own default.
PROGRAM_KNOBS = ("REPRO_EXECUTION", "REPRO_BACKEND", "REPRO_TILE_TOKENS")

#: How often a workload builds its program from scratch; ``setup_s`` is
#: the median, so one slow build does not move it.
SETUP_REPEATS = 5


def pin_environment() -> bool:
    """Pin BLAS to one thread and put ``src/`` on the import path.

    Returns whether the pins can still take effect (numpy not imported
    yet); the fingerprint records it.
    """
    effective = "numpy" not in sys.modules
    for name in BLAS_PINS:
        os.environ[name] = "1"
    for name in PROGRAM_KNOBS:
        os.environ.pop(name, None)
    if SRC_DIR not in sys.path:
        sys.path.insert(0, SRC_DIR)
    return effective


class MissingSymbol(Exception):
    """A public ``repro`` symbol a per-layer metric needs is gone."""


def sym(module: str, name: str) -> Any:
    """``getattr(import_module(module), name)`` or :class:`MissingSymbol`.

    Per-layer sections resolve every program symbol through here, so a
    later PR that deletes an execution mode or an engine call chain
    turns that one metric into ``null`` with a note instead of a crash.
    """
    try:
        return getattr(importlib.import_module(module), name)
    except (ImportError, AttributeError) as exc:
        raise MissingSymbol(f"{module}.{name} is gone "
                            f"({type(exc).__name__}: {exc})") from exc


# -- statistics ------------------------------------------------------------

def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile (numpy's default definition)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    k = (len(xs) - 1) * p / 100.0
    lo = int(math.floor(k))
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def tail_percentile(n: int) -> int:
    """The highest multiple-of-5 percentile with >= 10 samples beyond
    it (p95 at n=300, p70 at n=36); the median when n is too small."""
    if n < 20:
        return 50
    return max(50, min(95, 5 * int(20 * (1 - 10.0 / n))))


#: Headline timings are the 10th percentile of the per-operation
#: samples.  Interference on this shared 2-core host only ever adds
#: time, so low quantiles repeat best: over sets of ten runs of identical
#: work the spread between runs was 1.5-8 % at q10, 2-11 % at q25 and
#: 3-23 % at the median (the minimum repeats as well but is one sample).
LOW = 10


def low(values: Sequence[float]) -> float:
    """The headline statistic of a timing sample (see :data:`LOW`)."""
    return percentile(values, LOW)


def sample(fn: Callable[[int], Any], seconds: float, min_ops: int = 2,
           max_ops: Optional[int] = None) -> Dict[str, List[float]]:
    """Call ``fn(i)`` for ``seconds`` (at least ``min_ops`` times) and
    return per-call wall and process-CPU seconds."""
    walls: List[float] = []
    cpus: List[float] = []
    deadline = time.perf_counter() + seconds
    i = 0
    while max_ops is None or i < max_ops:
        if i >= min_ops and time.perf_counter() >= deadline:
            break
        c0 = time.process_time()
        t0 = time.perf_counter()
        fn(i)
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        i += 1
    return {"wall": walls, "cpu": cpus}


def peak_rss_mb() -> float:
    """High-water resident set of this process so far (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_seconds(modules: Sequence[str]) -> float:
    """Median wall time of importing ``modules`` in a fresh interpreter.

    Imports can only be timed once per process, so they are timed in
    children (same pins, same path); part of ``setup_s`` so that work a
    PR moves to import time still shows.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    code = "import " + ", ".join(modules)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       cwd=REPO_ROOT)
        times.append(time.perf_counter() - t0)
    return percentile(times, 50)


# -- spans -----------------------------------------------------------------

class Spans:
    """The harness's own in-memory spans around calls into the program.

    Each span is ``{name, start, end, parent, op_id}``; ``parent`` is
    the index of the enclosing span and ``op_id`` the operation (step,
    run, sweep) it belongs to.  Disabled (the timed pass), ``span`` is
    a bare ``yield``: end-to-end numbers are measured with tracing off.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, op_id: int) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._stack[-1] if self._stack else None,
                  "op_id": op_id}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> List[float]:
        """Durations (s) of every closed span called ``name``."""
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and s["end"] is not None]

    def rollup(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total time, and self time (duration
        minus the part its direct children cover)."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None and s["end"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: Dict[str, Dict[str, float]] = {}
        for s, covered in zip(self.spans, child_time):
            if s["end"] is None:
                continue
            total = s["end"] - s["start"]
            agg = out.setdefault(s["name"],
                                 {"count": 0, "total_s": 0.0, "self_s": 0.0})
            agg["count"] += 1
            agg["total_s"] += total
            agg["self_s"] += total - covered
        return out


#: The timed pass's recorder: end-to-end numbers have tracing off.
NO_SPANS = Spans(enabled=False)


# -- results ---------------------------------------------------------------

class Report:
    """Metric values (or ``None`` + a note) collected by one pass."""

    def __init__(self) -> None:
        self.values: Dict[str, Optional[float]] = {}
        self.notes: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def set(self, name: str, value: float, note: str = "") -> None:
        self.values[name] = float(value)
        if note:
            self.notes[name] = note

    def set_timing(self, name: str, values: Sequence[float],
                   scale: float = 1.0, stat: str = "low") -> None:
        """Record the low quantile (or "p50" / "tail") of a sample, noting
        which percentile of how many, as every printed timing must."""
        p = {"low": LOW, "p50": 50,
             "tail": tail_percentile(len(values))}[stat]
        self.set(name, percentile(values, p) * scale,
                 f"{'q' if p < 50 else 'p'}{p} of n={len(values)}")

    def skip(self, names: Sequence[str], note: str) -> None:
        for name in names:
            self.values[name] = None
            self.notes[name] = note

    def section(self, names: Sequence[str],
                fn: Callable[[], None]) -> None:
        """Run one per-layer section; a vanished program symbol nulls
        the section's metrics instead of ending the run."""
        try:
            fn()
        except (MissingSymbol, AttributeError, TypeError) as exc:
            unset = [n for n in names if n not in self.values]
            self.skip(unset, f"{type(exc).__name__}: {exc}")

    def operation(self, ok: bool, why: str = "") -> None:
        """Count one attempted operation and, if it failed, why."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(why)


def load_declaration() -> Dict[str, Any]:
    """The root ``BENCHMARK.json``: the one list of metric names, units,
    directions and bounds (nothing here repeats it)."""
    with open(BENCHMARK_JSON) as handle:
        return json.load(handle)


# -- host fingerprint ------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _blas_info() -> str:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def fingerprint(seed: int, pins_effective: bool,
                counts: Dict[str, Any]) -> Dict[str, Any]:
    """Where and how the numbers were taken; part of every output."""
    import numpy
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas_info(),
        "blas_pins": {name: os.environ.get(name) for name in BLAS_PINS},
        "blas_pins_effective": pins_effective,
        "git_sha": _git_sha(),
        "seed": seed,
        "counts": counts,
    }
