"""Checks of the benchmark itself (not collected by tier-1).

    pytest benchmarks/wallclock -q

Counts are reduced so the whole file runs in well under 30 s.
"""

import dataclasses
import json
import os
import re
import time

import pytest

import harness

harness.pin_environment()

import plan_workload  # noqa: E402
import run  # noqa: E402
import serve_workload  # noqa: E402
import train_workload  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
DECLARATION = harness.load_declaration()

TINY_TRAIN = dataclasses.replace(workloads.TRAIN_SMALL, warmup=1,
                                 fixed_ops=2)
TINY_SERVE = dataclasses.replace(workloads.SERVE_MIXED, n_requests=8,
                                 fixed_ops=1)
TINY_PLAN = dataclasses.replace(workloads.PLAN_MODEL, fixed_ops=1,
                                schedule_budget=5)
TINY = ((train_workload, TINY_TRAIN), (serve_workload, TINY_SERVE),
        (plan_workload, TINY_PLAN))


@pytest.fixture(autouse=True)
def no_import_children(monkeypatch):
    """Timing interpreter start-up is not what these tests are about."""
    for module in (train_workload, serve_workload, plan_workload):
        monkeypatch.setattr(module, "import_seconds", lambda modules: 0.0)


def test_declaration_meets_the_contract_limits():
    assert os.path.getsize(harness.BENCHMARK_JSON) <= 64 * 1024
    assert set(DECLARATION) == {"command", "paths", "run_seconds",
                                "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(DECLARATION["workloads"]) <= 8
    assert 1 <= len(DECLARATION["end_to_end"]) <= 16
    assert 1 <= len(DECLARATION["per_layer"]) <= 128
    assert 1 <= DECLARATION["run_seconds"] <= 60
    names = []
    for workload in DECLARATION["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in DECLARATION["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in DECLARATION["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in DECLARATION["end_to_end"] + DECLARATION["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
        names.append(metric["name"])
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(set(names)) == len(names)
    setup = [m for m in DECLARATION["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"]
                                    for m in DECLARATION["end_to_end"])
    for path in DECLARATION["paths"]:
        assert os.path.isdir(os.path.join(harness.REPO_ROOT, path))


def test_workloads_and_modes_match_the_declaration():
    assert list(workloads.WORKLOADS) == run.WORKLOAD_NAMES
    declared = {m["name"] for m in DECLARATION["per_layer"]}
    assert {f"runtime.step_ms.{m}"
            for m in train_workload.MODE_NAMES} <= declared
    assert {f"obs.op_ms.{op}" for op in train_workload.OBS_OPS} <= declared


def test_same_seed_gives_the_same_inputs():
    for spec in (workloads.TRAIN_SMALL, workloads.TRAIN_WIDE):
        a, b, c = (spec.batches(seed, 3) for seed in (7, 7, 8))
        assert all((x == y).all() for x, y in zip(a, b))
        assert any((x != y).any() for x, y in zip(a, c))
        assert a[0].shape == (workloads.TRAIN_BATCH, spec.seq + 1)
    spec = workloads.SERVE_MIXED
    a, b, c = (spec.requests(seed) for seed in (7, 7, 8))
    assert a == b and a != c
    # The seed fills in token ids only; the trace shape is the workload.
    assert ([(r.prompt_len, r.max_new_tokens, r.arrival_time) for r in a]
            == [(r.prompt_len, r.max_new_tokens, r.arrival_time) for r in c])


def test_missing_symbol_yields_null_and_a_note():
    report = harness.Report()

    def section():
        report.set("kept", 1.0)
        harness.sym("repro.runtime", "no_such_function")

    report.section(["kept", "lost.a", "lost.b"], section)
    assert report.values == {"kept": 1.0, "lost.a": None, "lost.b": None}
    assert "repro.runtime.no_such_function is gone" in report.notes["lost.a"]
    # A mode the program no longer accepts is the same kind of absence.
    ctx = train_workload.Ctx(TINY_TRAIN, 0, 0.0, report, harness.Spans(), [])
    with pytest.raises(harness.MissingSymbol):
        train_workload.mode(ctx, "dag-nonexistent")


def test_null_per_layer_values_read_zero_on_the_contract_line():
    line = json.loads(run.contract_line({
        "correct": True, "attempted": 1, "failed": 0,
        "metrics": {"a": {"value": None, "unit": "ms"},
                    "b": {"value": 2.5, "unit": "ms"}}}))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"] == {"a": {"value": 0.0, "unit": "ms"},
                               "b": {"value": 2.5, "unit": "ms"}}


@pytest.mark.parametrize("module,spec", TINY, ids=lambda v: getattr(
    v, "name", None))
def test_exact_metrics_repeat_bit_for_bit(module, spec):
    from check_repeat import EXACT
    runs = []
    for _ in range(2):
        report = harness.Report()
        module.end_to_end(spec, 3, 0.0, report)
        assert report.failed == 0 and report.attempted >= 1
        for metric in DECLARATION["end_to_end"]:
            assert report.values[metric["name"]] > 0
        runs.append({k: report.values.get(k) for k in EXACT})
    assert runs[0] == runs[1]
    assert any(v is not None for v in runs[0].values())


@pytest.fixture(scope="module")
def per_layer_passes():
    """One reduced per-layer pass of each kind of workload."""
    passes = {}
    for module, spec in TINY:
        report, spans = harness.Report(), harness.Spans()
        module.per_layer(spec, 3, 0.5, report, spans)
        passes[spec.name] = (report, spans)
    return passes


def test_per_layer_pass_measures_everything_it_owns(per_layer_passes):
    declared = {m["name"] for m in DECLARATION["per_layer"]}
    owned = set()
    for report, spans in per_layer_passes.values():
        assert report.failed == 0, report.failures
        assert not {k: report.notes[k] for k, v in report.values.items()
                    if v is None}
        owned |= set(report.values)
        # Self times add up to the top-level spans (the 2 % criterion).
        roots = sum(s["end"] - s["start"] for s in spans.spans
                    if s["parent"] is None)
        assert sum(r["self_s"] for r in spans.rollup().values()) \
            == pytest.approx(roots, rel=0.02)
    # Every declared per-layer metric belongs to some workload.
    assert owned == declared


def test_no_replay_without_evictions():
    roomy = dataclasses.replace(TINY_SERVE, kv_blocks=400)
    report = harness.Report()
    serve_workload.per_layer(roomy, 3, 0.0, report, harness.Spans())
    assert report.values["serve.evictions"] == 0
    assert report.values["serve.replayed_token_frac"] == pytest.approx(0.0)


def test_statistics():
    assert harness.percentile([1, 2, 3, 4, 5], 25) == 2
    assert harness.percentile([1, 2], 50) == 1.5
    assert harness.tail_percentile(300) == 95
    assert harness.tail_percentile(36) == 70
    assert harness.tail_percentile(12) == 50
    ticks = []
    out = harness.sample(lambda i: ticks.append(i) or time.sleep(0.001),
                         seconds=0.0, min_ops=3)
    assert ticks == [0, 1, 2] and len(out["wall"]) == len(out["cpu"]) == 3
    assert harness.sample(lambda i: None, seconds=60, max_ops=4)["wall"] \
        and len(ticks) == 3


def test_spans_nest_and_disabled_spans_record_nothing():
    spans = harness.Spans()
    with spans.span("step", 0):
        with spans.span("forward", 0):
            time.sleep(0.002)
        with spans.span("backward", 0):
            time.sleep(0.001)
    assert [s["parent"] for s in spans.spans] == [None, 0, 0]
    rollup = spans.rollup()
    assert rollup["step"]["self_s"] < rollup["forward"]["total_s"]
    assert rollup["step"]["self_s"] + rollup["forward"]["total_s"] \
        + rollup["backward"]["total_s"] == pytest.approx(
            rollup["step"]["total_s"])
    with harness.NO_SPANS.span("step", 0):
        pass
    assert harness.NO_SPANS.spans == []
