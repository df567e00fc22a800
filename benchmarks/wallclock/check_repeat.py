#!/usr/bin/env python3
"""Is the benchmark steady enough to judge a change by?

Runs the timed pass of every workload as two sets of ``--runs`` seeds
(the second set with the workload order reversed, so neither set always
runs on a warmer machine), then for each end-to-end metric prints both
medians, each set's spread (interquartile range over median, as
``statistics.quantiles(values, n=4)`` gives it) and the gap between the
medians.  Exits non-zero when

* a spread, except that of ``setup_s``, exceeds the metric's bound in
  ``BENCHMARK.json``,
* the second median is worse than the first by more than the bound, or
* a quantity that must repeat exactly for a given seed (bytes per
  token, final loss, virtual-clock latency, modelled outputs) differs
  between the two sets.

``--runs 1`` is the quick form: every workload twice, gaps only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Any, Dict, List, Optional, Tuple

import run

#: Deterministic for a given seed; any difference is a real change.
EXACT = ("comm_bytes_per_token", "train.final_loss", "serve.latency_p50_vs",
         "serve.latency_tail_vs", "model.relerr_table3_tput",
         "model.relerr_table3_speedup")


def one_run(workload: str, seed: int,
            seconds: float) -> Dict[str, Optional[float]]:
    """Every value the timed pass measured, declared or not."""
    result, = run.run_children([workload], seed, seconds, [0])
    values = {k: m["value"] for k, m in result["metrics"].items()}
    values.update({k: m["value"]
                   for k, m in result["also_measured"].items()})
    return values


def spread(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: Optional[List[str]] = None) -> int:
    declaration = run.DECLARATION
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10,
                        help="seeds per workload per set")
    parser.add_argument("--seconds", type=float,
                        default=declaration["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--out", help="write every run's values as JSON")
    args = parser.parse_args(argv)

    names = run.WORKLOAD_NAMES
    seeds = range(args.first_seed, args.first_seed + args.runs)
    sets: List[Dict[Tuple[str, int], Dict[str, Any]]] = []
    for order in (names, names[::-1]):
        runs = {}
        for workload in order:
            for seed in seeds:
                runs[workload, seed] = one_run(workload, seed, args.seconds)
                print(f"set {len(sets) + 1} {workload} seed {seed} done",
                      file=sys.stderr, flush=True)
        sets.append(runs)

    problems = []
    print(f"{'workload':16s} {'metric':22s} {'median 1':>12s} "
          f"{'median 2':>12s} {'gap':>7s} {'spread 1':>8s} {'spread 2':>8s} "
          f"{'bound':>6s}")
    for workload in names:
        for metric in declaration["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[runs[workload, seed][name] for seed in seeds]
                      for runs in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            worse = (medians[1] - medians[0]) / medians[0]
            if metric["better"] == "higher":
                worse = -worse
            print(f"{workload:16s} {name:22s} {medians[0]:12.6g} "
                  f"{medians[1]:12.6g} {worse:+7.1%} {spreads[0]:8.1%} "
                  f"{spreads[1]:8.1%} {bound:6.0%}")
            where = f"{workload} {name}"
            if worse > bound:
                problems.append(f"{where}: second median worse by "
                                f"{worse:.1%} > bound {bound:.0%}")
            if name != "setup_s" and max(spreads) > bound:
                problems.append(f"{where}: spread {max(spreads):.1%} > "
                                f"bound {bound:.0%}")
        for seed in seeds:
            first, second = (runs[workload, seed] for runs in sets)
            for name in EXACT:
                if first.get(name) != second.get(name):
                    problems.append(
                        f"{workload} seed {seed} {name}: "
                        f"{first.get(name)!r} != {second.get(name)!r} "
                        "(must repeat exactly)")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump([{f"{w}:{s}": v for (w, s), v in runs.items()}
                       for runs in sets], handle, indent=1)
    for problem in problems:
        print("NOT STEADY:", problem)
    if not problems:
        print("steady: every spread and gap within its bound, exact "
              "metrics bit-for-bit equal")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
