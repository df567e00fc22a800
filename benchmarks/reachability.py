"""Reachability gate: every ``src/repro`` function has an entry point.

Runs each entry point in-process under a ``sys.setprofile`` hook that
records every code object entered, walks ``src/repro`` with ``ast`` for
every ``def``, and exits 1 when

* a function is entered by no entry point and the allowlist does not
  cover it (a nested function whose enclosing function is also
  unreached is reported once, under the outermost one), or
* an allowlist entry is stale: its function is now entered, or no
  longer exists.

The entry points are every ``python -m repro ...`` line of
``.github/workflows/ci.yml`` (read from that file, so the two lists
cannot drift) and ``benchmarks/scorecard.py::main``.

Each allowlist entry gives one of two reasons: ``error: <typed error or
failure report>, driven by tests/<file>::<test>`` for an error path a
test drives, or ``item N`` for a function an open ROADMAP item will
give an entry point.  :func:`reason_problems` checks both forms.

Usage::

    python benchmarks/reachability.py        # exit 1 on any finding
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import os
import re
import shlex
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")

#: ``<module path under src/>::<qualified name>`` -> reason.  Error paths
#: name the failure and the test that drives it; ``item N`` entries are
#: functions an open ROADMAP item will give an entry point (item 1: only
#: the wall-clock harness calls them).
ALLOWLIST: Dict[str, str] = {
    "repro/core/operators.py::OpGraph._check_acyclic":
        "error: ValueError naming the cycle, "
        "driven by tests/test_operators.py::"
        "TestOpValidation::test_graph_rejects_cycle",
    "repro/core/runner.py::ProductionRunner._mark_invalid":
        "error: a corrupt checkpoint walked past, "
        "driven by tests/test_elastic.py::"
        "TestCorruptedSidecars::test_latest_walks_past_broken_meta",
    "repro/ft/recovery.py::ConfigMismatch.__init__":
        "error: ConfigMismatch, "
        "driven by tests/test_pp_zero_checkpoint.py::"
        "TestCheckpoint::test_config_mismatch_rejected",
    "repro/obs/audit.py::AuditReport.failed":
        "error: a failed Eq. 1-4 audit report, "
        "driven by tests/test_obs_export_audit.py::"
        "TestAudit::test_tampered_ledger_detected",
    "repro/verify/engine.py::CaseResult.failures":
        "error: a failing case's report, "
        "driven by tests/test_verify.py::"
        "TestInjectedViolations::test_bitflip_breaks_tile_identity",
    "repro/verify/engine.py::CaseResult.outcome":
        "error: a failing case's report, "
        "driven by tests/test_a2a_wire.py::"
        "TestTrainingWire::test_audit_catches_a_sender_that_ships_every_pair",
    "repro/__main__.py::cmd_verify.fails": "item 15",
    "repro/verify/fuzz.py::shrink": "item 15",
    "repro/verify/fuzz.py::_shrink_candidates": "item 15",
    "repro/verify/fuzz.py::corrupting_world_setup": "item 15",
    "repro/perf/estimator.py::KernelModel.gemm_efficiency": "item 4",
    "repro/perf/estimator.py::calibrate_from_spans": "item 4",
    "repro/perf/estimator.py::_expand_to_graph_ops": "item 4",
    "repro/perf/estimator.py::calibrated_durations": "item 4",
    "repro/perf/estimator.py::AnchorCalibration.scale": "item 4",
    "repro/perf/estimator.py::CalibrationReport.default_scale": "item 4",
    "repro/perf/estimator.py::CalibrationReport.scale_for": "item 4",
    "repro/tensor/checkpoint.py::tape_saved_arrays": "items 1/2",
    "repro/tensor/checkpoint.py::tape_live_bytes": "items 1/2",
    "repro/core/autoschedule.py::AutoScheduleResult.gain": "item 3",
    "repro/runtime/backward.py::backward": "item 1",
    "repro/parallel/block.py::ParallelBlockEngine.sync_grads_to_reference": "item 1",
    "repro/parallel/block.py::ParallelBlockEngine.refresh_shards": "item 1",
    "repro/obs/tracer.py::Tracer.clear": "item 1",
    "repro/core/analysis.py::attention_comm_volume": "item 1",
    "repro/core/analysis.py::ffn_comm_volume": "item 1",
}


@dataclass(frozen=True)
class Function:
    """One ``def`` found by :func:`walk`."""

    name: str            # "repro/core/x.py::Class.method"
    path: str            # absolute file path
    first_line: int      # the code object's co_firstlineno
    lines: int           # def line through last body line
    parent: Optional[str] = None  # nearest enclosing function's name


def walk(root: str, package: str) -> Dict[str, Function]:
    """Every function and method under ``root/package``, by name."""
    found: Dict[str, Function] = {}
    base = os.path.join(root, package)
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames.sort()
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            with open(path) as handle:
                tree = ast.parse(handle.read(), filename=path)
            _collect(tree, rel, path, [], None, found)
    return found


def _collect(node: ast.AST, rel: str, path: str, scope: List[str],
             parent: Optional[str], found: Dict[str, Function]) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{rel}::{'.'.join(scope + [child.name])}"
            accessor = [d.attr for d in child.decorator_list
                        if isinstance(d, ast.Attribute)
                        and d.attr in ("setter", "deleter")]
            if accessor:  # a property's setter shares the getter's name
                name += f".{accessor[0]}"
            first = min([child.lineno] + [d.lineno for d in
                                          child.decorator_list])
            found[name] = Function(name, path, first,
                                   child.end_lineno - child.lineno + 1,
                                   parent)
            _collect(child, rel, path, scope + [child.name], name, found)
        elif isinstance(child, ast.ClassDef):
            _collect(child, rel, path, scope + [child.name], parent,
                     found)
        else:
            _collect(child, rel, path, scope, parent, found)


class Recorder:
    """Records ``(filename, co_firstlineno)`` of every frame entered."""

    def __init__(self) -> None:
        self.entered: Set[Tuple[str, int]] = set()
        self._codes: Set[object] = set()

    def _hook(self, frame, event, arg):
        if event == "call":
            self._codes.add(frame.f_code)

    @contextlib.contextmanager
    def recording(self):
        sys.setprofile(self._hook)
        threading.setprofile(self._hook)
        try:
            yield
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
            self.entered |= {(os.path.abspath(code.co_filename),
                              code.co_firstlineno) for code in self._codes}


@dataclass
class Findings:
    """What :func:`check` found; empty lists mean the gate passes."""

    unreached: List[Function] = field(default_factory=list)
    stale: List[str] = field(default_factory=list)
    vanished: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.unreached or self.stale or self.vanished)

    def render(self) -> str:
        lines = [f"UNREACHED {f.name} ({f.lines} lines)"
                 for f in self.unreached]
        lines += [f"STALE {name}: entered by an entry point; drop it "
                  "from ALLOWLIST" for name in self.stale]
        lines += [f"VANISHED {name}: no such function; drop it from "
                  "ALLOWLIST" for name in self.vanished]
        return "\n".join(lines)


def check(functions: Dict[str, Function],
          entered: Set[Tuple[str, int]],
          allowlist: Dict[str, str]) -> Findings:
    """Compare the walked functions with the entered code objects."""
    reached = {name for name, f in functions.items()
               if (f.path, f.first_line) in entered}
    findings = Findings()
    for name, f in functions.items():
        if name in reached or name in allowlist:
            continue
        parent = f.parent
        if parent is not None and parent not in reached:
            continue  # reported under (or covered by) the parent
        findings.unreached.append(f)
    for name in allowlist:
        if name not in functions:
            findings.vanished.append(name)
        elif name in reached:
            findings.stale.append(name)
    return findings


_ERROR = re.compile(r"^error: .+, driven by (tests/[\w/]+\.py)::([\w:]+)$")
_ITEM = re.compile(r"^items? (\d+)(?:/(\d+))?$")


def open_items(roadmap: str) -> Set[int]:
    """Numbers of the ``### N.`` headings under ROADMAP's open items."""
    with open(roadmap) as handle:
        text = handle.read()
    start = text.index("## Open items")
    end = text.index("\n## ", start + 1)
    return {int(n) for n in re.findall(r"^### (\d+)\.", text[start:end],
                                       re.MULTILINE)}


def reason_problems(allowlist: Dict[str, str], repo: str) -> List[str]:
    """Entries whose reason names a missing test or a closed item."""
    items = open_items(os.path.join(repo, "ROADMAP.md"))
    problems = []
    for name, reason in allowlist.items():
        error, item = _ERROR.match(reason), _ITEM.match(reason)
        if error:
            path = os.path.join(repo, error.group(1))
            if not os.path.exists(path) or not _has_test(
                    path, error.group(2).split("::")):
                problems.append(f"{name}: no test "
                                f"{error.group(1)}::{error.group(2)}")
        elif item:
            numbers = {int(n) for n in item.groups() if n}
            if not numbers <= items:
                problems.append(f"{name}: {reason!r} is not an open "
                                "ROADMAP item")
        else:
            problems.append(f"{name}: reason {reason!r} is neither "
                            "'error: ..., driven by tests/...' nor "
                            "'item N'")
    return problems


def _has_test(path: str, parts: List[str]) -> bool:
    with open(path) as handle:
        nodes: Iterable[ast.AST] = ast.parse(handle.read()).body
    for part in parts:
        match = [n for n in nodes if isinstance(
            n, (ast.FunctionDef, ast.ClassDef)) and n.name == part]
        if not match:
            return False
        nodes = match[0].body if isinstance(match[0], ast.ClassDef) \
            else []
    return True


def ci_commands(workflow: str) -> List[List[str]]:
    """The arguments of every ``python -m repro ...`` line in CI."""
    commands = []
    with open(workflow) as handle:
        for line in handle:
            match = re.search(r"python -m repro\s+([^;#\n]+)", line)
            if match:
                commands.append(shlex.split(match.group(1)))
    return commands


def entry_points(tmp: str) -> List[Tuple[str, Callable[[], object]]]:
    """``(label, call)`` for every CI command and the scorecard."""
    from repro.__main__ import main as repro_main

    points = []
    for argv in ci_commands(os.path.join(REPO, ".github", "workflows",
                                         "ci.yml")):
        # Outputs a command writes land in the scratch directory.
        argv = [os.path.join(tmp, os.path.basename(arg))
                if prev == "--trace" else arg
                for prev, arg in zip([""] + argv, argv)]
        points.append((" ".join(argv),
                       lambda argv=argv: repro_main(argv)))
    spec = importlib.util.spec_from_file_location(
        "scorecard", os.path.join(REPO, "benchmarks", "scorecard.py"))
    scorecard = importlib.util.module_from_spec(spec)
    sys.modules["scorecard"] = scorecard
    spec.loader.exec_module(scorecard)
    points.append(("scorecard", scorecard.main))
    return points


def main() -> int:
    sys.path.insert(0, SRC)
    recorder = Recorder()
    os.chdir(REPO)
    with tempfile.TemporaryDirectory(prefix="reachability-") as tmp:
        with recorder.recording():  # import-time calls count too
            points = entry_points(tmp)
        for label, call in points:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()), \
                    recorder.recording():
                code = call()
            print(f"entered by: {label} (exit {code})")
    functions = walk(SRC, "repro")
    findings = check(functions, recorder.entered, ALLOWLIST)
    problems = reason_problems(ALLOWLIST, REPO)
    print(f"\n{len(functions)} functions, {len(findings.unreached)} "
          f"unreached, {len(ALLOWLIST)} allowlist entries")
    if not findings.ok:
        print(findings.render())
    for problem in problems:
        print(f"BAD REASON {problem}")
    return 0 if findings.ok and not problems else 1


if __name__ == "__main__":
    sys.exit(main())
