#!/usr/bin/env python3
"""Wall-clock + per-layer benchmark: one command, every metric by name.

    python3 benchmarks/wallclock/run.py
        all four workloads, both passes, each in its own child process
    python3 benchmarks/wallclock/run.py --workload W --seed S \\
            --seconds N --trace 0|1 [--out F]
        one pass of one workload in this process (what the driver runs)

``--trace 0`` is the timed pass: tracing off, the end-to-end metrics of
``BENCHMARK.json``.  ``--trace 1`` is the per-layer pass: the harness
records spans around every call into the program, attaches the
program's own tracer to one trainer, and writes
``benchmarks/wallclock/out/trace_<workload>.json``.

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  In it a per-layer
metric the workload does not exercise (or whose program symbol a later
PR removed) reads 0; the table above it and ``--out`` show those as
``null`` with the reason.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import os
import subprocess
import sys
import tempfile
from typing import Any, Dict, Iterator, List, Optional

import harness

DECLARATION = harness.load_declaration()
WORKLOAD_NAMES = [w["name"] for w in DECLARATION["workloads"]]
NOT_EXERCISED = "not exercised by this workload"


def run_pass(workload: str, seed: int, seconds: float,
             trace: int) -> Dict[str, Any]:
    """One pass of one workload, in this process."""
    pins_effective = harness.pin_environment()
    from workloads import WORKLOADS
    spec = WORKLOADS[workload]
    module = importlib.import_module(spec.MODULE)

    report = harness.Report()
    result: Dict[str, Any] = {"workload": workload, "trace": trace}
    if trace:
        spans = harness.Spans()
        program_tracer = module.per_layer(spec, seed, seconds, report, spans)
        os.makedirs(harness.OUT_DIR, exist_ok=True)
        result["trace_file"] = os.path.join(harness.OUT_DIR,
                                            f"trace_{workload}.json")
    else:
        module.end_to_end(spec, seed, seconds, report)

    result["fingerprint"] = harness.fingerprint(
        seed, pins_effective,
        dict(dataclasses.asdict(spec), seconds=seconds,
             operations=report.attempted))
    declared = DECLARATION["per_layer" if trace else "end_to_end"]
    metrics = {}
    for entry in declared:
        name = entry["name"]
        value = report.values.get(name)
        if value is None and not trace:
            raise RuntimeError(f"end-to-end metric {name} was not measured")
        metrics[name] = {
            "value": value, "unit": entry["unit"],
            "note": report.notes.get(name, "" if value is not None
                                     else NOT_EXERCISED)}
    declared_names = {entry["name"] for entry in declared}
    result.update(
        correct=report.failed == 0, attempted=report.attempted,
        failed=report.failed, failures=report.failures, metrics=metrics,
        also_measured={k: {"value": v, "note": report.notes.get(k, "")}
                       for k, v in report.values.items()
                       if k not in declared_names})
    if trace:
        with open(result["trace_file"], "w") as handle:
            json.dump({"fingerprint": result["fingerprint"],
                       "spans": spans.spans, "rollup": spans.rollup(),
                       "program_tracer": program_tracer}, handle)
    return result


def render(result: Dict[str, Any]) -> str:
    """The human-readable table of one pass."""
    fp = result["fingerprint"]
    kind = ("per-layer pass, harness spans on" if result["trace"]
            else "timed pass, tracing off")
    pins = ",".join(f"{k}={v}" for k, v in fp["blas_pins"].items())
    lines = [
        f"== {result['workload']} ({kind}) ==",
        f"host: nproc={fp['nproc']} cpu={fp['cpu_model']!r} "
        f"python={fp['python']} numpy={fp['numpy']} blas={fp['blas']}",
        f"      pins={pins} effective={fp['blas_pins_effective']} "
        f"git={fp['git_sha'][:12]} seed={fp['seed']}",
        "counts: " + " ".join(f"{k}={v}" for k, v in fp["counts"].items()),
        f"operations: attempted {result['attempted']}, "
        f"failed {result['failed']}",
    ]
    lines += [f"  FAILED: {why}" for why in result["failures"]]

    def row(name: str, value: Optional[float], unit: str, note: str) -> str:
        shown = "null" if value is None else f"{value:.6g}"
        return f"  {name:40s} {shown:>12s} {unit:8s} {note}"

    for name, m in result["metrics"].items():
        if m["value"] is not None or m["note"] != NOT_EXERCISED:
            lines.append(row(name, m["value"], m["unit"], m["note"]))
    skipped = sum(1 for m in result["metrics"].values()
                  if m["value"] is None and m["note"] == NOT_EXERCISED)
    if skipped:
        lines.append(f"  ({skipped} metrics {NOT_EXERCISED})")
    if result["also_measured"]:
        lines.append("also measured:")
        lines += [row(name, m["value"], "", m["note"])
                  for name, m in result["also_measured"].items()]
    if "trace_file" in result:
        lines.append(f"trace: {os.path.relpath(result['trace_file'])}")
    return "\n".join(lines)


def contract_line(result: Dict[str, Any]) -> str:
    """The driver's result object; ``null`` per-layer values read 0."""
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"] if m["value"] is not None
                           else 0.0, "unit": m["unit"]}
                    for name, m in result["metrics"].items()},
    })


def run_children(workloads: List[str], seed: int, seconds: float,
                 passes: List[int]) -> Iterator[Dict[str, Any]]:
    """Each (workload, pass) alone in a child process, so that peak
    memory and warm caches belong to that workload only."""
    with tempfile.TemporaryDirectory(dir=harness.BENCH_DIR) as tmp:
        for workload in workloads:
            for trace in passes:
                out = os.path.join(tmp, f"{workload}_{trace}.json")
                # A child that found failed operations exits 1 but still
                # writes its result; only a missing result is an error.
                subprocess.run(
                    [sys.executable, os.path.abspath(__file__),
                     "--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace),
                     "--out", out], stdout=subprocess.DEVNULL)
                with open(out) as handle:
                    yield from json.load(handle)



def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DECLARATION["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out", help="write the full result as JSON")
    args = parser.parse_args(argv)

    if args.workload is not None and args.trace is not None:
        results = [run_pass(args.workload, args.seed, args.seconds,
                            args.trace)]
        print(render(results[0]))
        last_line = contract_line(results[0])
    else:
        workloads = [args.workload] if args.workload else WORKLOAD_NAMES
        passes = [args.trace] if args.trace is not None else [0, 1]
        results = []
        for result in run_children(workloads, args.seed, args.seconds,
                                   passes):
            print(render(result), flush=True)
            results.append(result)
        last_line = json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results)})
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(results, handle, indent=1)
    print(last_line)
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
