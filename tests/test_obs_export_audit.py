"""Chrome-trace export and Eq. 1–4 comm-volume audit tests."""

import json

import numpy as np
import pytest

from conftest import attention_half, audit_entry, ffn_half, run_bindings
from repro.comm import CommLedger, World
from repro.core.analysis import (
    sp_attention_comm_volume,
    tp_attention_comm_volume,
)
from repro.core.executor_bindings import ffn_bindings
from repro.model.layers import SelfAttention
from repro.model.moe import MoELayer
from repro.obs import (
    Tracer,
    audit_comm_volumes,
    crosscheck_tracer_ledger,
    text_summary,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.parallel.ep_ffn import EPFFNEngine
from repro.parallel.sp_attention import SPAttentionEngine
from repro.parallel.tp_attention import TPAttentionEngine
from repro.tensor import Tensor

B, S, H, FH, E, K, N, M = 2, 16, 32, 48, 8, 2, 4, 2
EB = 8.0  # every engine below is built with dtype=np.float64


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 0.5
        return self.now


def shard(x, n):
    s = x.shape[1]
    return [Tensor(x[:, r * s // n:(r + 1) * s // n].copy())
            for r in range(n)]


def run_engine(kind, tracer=None, mode="ag_rs"):
    """One forward pass of a parallel engine on a fresh world."""
    rng = np.random.default_rng(0)
    world = World(N, N)
    if tracer is not None:
        world.attach_tracer(tracer)
    x = rng.standard_normal((B, S, H))
    if kind in ("sp_attn", "tp_attn"):
        attn = SelfAttention(rng, H, 8, M, dtype=np.float64)
        cls = SPAttentionEngine if kind == "sp_attn" else TPAttentionEngine
        engine = cls(world.full_group(), attn)
        attention_half(engine, shard(x, N), S)
    else:
        moe = MoELayer(rng, H, FH, E, K, dtype=np.float64)
        engine = EPFFNEngine(world.full_group(), moe, mode=mode)
        ffn_half(engine, shard(x, N))
    return world


class TestChromeExport:
    def test_complete_event_mapping(self):
        t = Tracer(clock=FakeClock())
        with t.span("fwd", cat="train", stream="main", pid="train",
                    phase="forward", step=3):
            pass
        trace = to_chrome_trace(t.spans, t.events)
        (ev,) = trace["traceEvents"]
        assert ev["ph"] == "X"
        assert ev["name"] == "fwd" and ev["cat"] == "train"
        assert ev["pid"] == "train" and ev["tid"] == "main"
        assert ev["ts"] == pytest.approx(0.5e6)  # seconds -> us
        assert ev["dur"] == pytest.approx(0.5e6)
        assert ev["args"]["step"] == 3
        assert ev["args"]["phase"] == "forward"

    def test_open_spans_skipped(self):
        t = Tracer(clock=FakeClock())
        t.begin("never-closed")
        assert to_chrome_trace(t.spans)["traceEvents"] == []

    def test_instant_events(self):
        t = Tracer(clock=FakeClock())
        t.instant("checkpoint", cat="runner", step=8)
        (ev,) = to_chrome_trace([], t.events)["traceEvents"]
        assert ev["ph"] == "i" and ev["s"] == "p"
        assert ev["args"]["step"] == 8

    def test_non_json_attrs_coerced(self):
        t = Tracer(clock=FakeClock())
        with t.span("x", arr=np.zeros(2), deps=("a", "b")):
            pass
        trace = to_chrome_trace(t.spans)
        args = trace["traceEvents"][0]["args"]
        assert isinstance(args["arr"], str)
        assert args["deps"] == ["a", "b"]
        json.dumps(trace)  # round-trips

    def test_write_and_reload(self, tmp_path):
        t = Tracer(clock=FakeClock())
        with t.span("step"):
            pass
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), t, extra_metadata={"pr": 2})
        loaded = json.loads(path.read_text())
        assert loaded["otherData"]["pr"] == 2
        assert loaded["otherData"]["tool"] == "repro.obs"
        assert len(loaded["traceEvents"]) == 1

    def test_write_creates_the_directory(self, tmp_path):
        """``train --trace bench_artifacts/t.json`` on a fresh checkout:
        the directory does not exist yet."""
        t = Tracer(clock=FakeClock())
        with t.span("step"):
            pass
        path = tmp_path / "new" / "t.json"
        write_chrome_trace(str(path), t)
        assert len(json.loads(path.read_text())["traceEvents"]) == 1

    def test_text_summary(self):
        tracer = Tracer(clock=FakeClock())
        run_engine("sp_attn", tracer=tracer)
        text = text_summary(tracer)
        assert "comm" in text
        assert "train/comm/intra" in text

    def test_text_summary_empty(self):
        assert "no closed spans" in text_summary(Tracer())


class TestAudit:
    def test_sp_attention_exact(self):
        world = run_engine("sp_attn")
        report = audit_comm_volumes(world.ledger, b=B, s=S, h=H, n=N,
                                    m=M, k=K, itemsize=EB)
        entry = audit_entry(report, "sp_attention")
        assert report.ok
        assert entry.rel_error < 1e-9
        assert entry.expected_bytes == pytest.approx(
            sp_attention_comm_volume(B, S, H, N, M) * N / 2 * 8.0)

    def test_tp_attention_exact(self):
        world = run_engine("tp_attn")
        report = audit_comm_volumes(world.ledger, b=B, s=S, h=H, n=N,
                                    m=M, k=K, itemsize=EB)
        entry = audit_entry(report, "tp_attention")
        assert report.ok
        assert entry.rel_error < 1e-9
        assert entry.expected_bytes == pytest.approx(
            tp_attention_comm_volume(B, S, H, N) * N * 8.0)

    def test_ep_ag_rs_exact(self):
        world = run_engine("ep_ffn", mode="ag_rs")
        report = audit_comm_volumes(world.ledger, b=B, s=S, h=H, n=N,
                                    m=M, k=K, itemsize=EB)
        assert report.ok
        assert audit_entry(report, "ep_ffn_ag_rs").rel_error < 1e-9

    def test_ep_a2a_exact_recount(self):
        """The A2A entry recounts the wire from the captured routing,
        exactly; A2A bytes with no routing to recount fail."""
        rng = np.random.default_rng(0)
        world = World(N, N)
        moe = MoELayer(rng, H, FH, E, K, dtype=np.float64)
        engine = EPFFNEngine(world.full_group(), moe, mode="a2a")
        _, env = run_bindings(engine.group, ffn_bindings(engine),
                              ln2=shard(rng.standard_normal((B, S, H)), N))
        routed = {"experts": [np.where(r.kept, r.expert_index, -1)
                              for _, r, _, _ in env["router"]],
                  "experts_per_rank": E // N}
        kwargs = dict(b=B, s=S, h=H, n=N, m=M, k=K, itemsize=EB)
        report = audit_comm_volumes(world.ledger, a2a_telemetry=[routed],
                                    **kwargs)
        entry = audit_entry(report, "ep_ffn_a2a")
        assert entry.ok and entry.rel_error <= entry.tolerance <= 1e-9
        # Fewer bytes than one row each way per remote (token,
        # expert) pair: two of a token's experts often share a rank.
        per = E // N
        remote = sum(int(((x >= 0) & (x // per != rank)).sum())
                     for rank, x in enumerate(routed["experts"]))
        assert entry.measured_bytes < (2 * H + 1) * remote * EB
        assert not audit_comm_volumes(world.ledger, **kwargs).ok

    def test_tampered_ledger_detected(self):
        world = run_engine("sp_attn")
        # The auditor reads the rotation-proof cumulative counters, so
        # that is where a byte-accounting bug would surface.
        for agg in world.ledger.cumulative.values():
            agg["total_bytes"] *= 1.5
        report = audit_comm_volumes(world.ledger, b=B, s=S, h=H, n=N,
                                    m=M, k=K, itemsize=EB)
        assert not report.ok
        assert [e.mechanism for e in report.failed()] == ["sp_attention"]

    def test_only_active_mechanisms_reported(self):
        world = run_engine("sp_attn")
        report = audit_comm_volumes(world.ledger, b=B, s=S, h=H, n=N,
                                    m=M, k=K, itemsize=EB)
        assert {e.mechanism for e in report.entries} == {"sp_attention"}

    def test_empty_source_not_ok(self):
        report = audit_comm_volumes(CommLedger(), b=B, s=S, h=H, n=N,
                                    m=M, k=K, itemsize=EB)
        assert not report.ok
        assert report.entries == []

    def test_bad_passes(self):
        with pytest.raises(ValueError):
            audit_comm_volumes(CommLedger(), b=B, s=S, h=H, n=N,
                               itemsize=EB, passes=0)

    def test_render(self):
        world = run_engine("sp_attn")
        report = audit_comm_volumes(world.ledger, b=B, s=S, h=H, n=N,
                                    m=M, k=K, itemsize=EB)
        text = report.render()
        assert "sp_attention" in text and "Eq. 2" in text and "yes" in text


class TestCrosscheck:
    def test_traced_bytes_match_ledger(self):
        tracer = Tracer(clock=FakeClock())
        world = run_engine("ep_ffn", tracer=tracer)
        ok, traced, ledger_bytes = crosscheck_tracer_ledger(
            tracer, world.ledger)
        assert ok
        assert traced == ledger_bytes > 0

    def test_untraced_record_detected(self):
        from repro.comm.group import CommRecord

        tracer = Tracer(clock=FakeClock())
        world = run_engine("ep_ffn", tracer=tracer)
        # A record slipped into the ledger without passing the tracer.
        world.ledger.record(CommRecord("all_gather", 4, [99.0] * 4))
        ok, traced, ledger_bytes = crosscheck_tracer_ledger(
            tracer, world.ledger)
        assert not ok
        assert ledger_bytes - traced == pytest.approx(396.0)

    def test_empty_world(self):
        ok, traced, ledger_bytes = crosscheck_tracer_ledger(
            Tracer(), World(2, 2).ledger)
        assert ok and traced == 0.0 and ledger_bytes == 0.0


class TestFaultEvents:
    def test_injected_fault_leaves_instant_event(self):
        from repro.comm.collectives import all_gather
        from repro.ft.faults import CommTimeout, FaultPlan, FaultSpec

        tracer = Tracer(clock=FakeClock())
        world = World(2, 2)
        world.attach_tracer(tracer)
        world.attach_fault_plan(FaultPlan([FaultSpec("timeout",
                                                     at_call=0)]))
        g = world.full_group()
        with pytest.raises(CommTimeout):
            all_gather(g, [np.zeros(4), np.zeros(4)], tag="x")
        (event,) = [e for e in tracer.events if e.cat == "fault"]
        assert event.name == "fault:all_gather"
        assert event.attrs["error"] == "CommTimeout"
        # The fault fired before data moved: no comm span was opened.
        assert tracer.closed_spans(cat="comm") == []
        assert tracer.current() is None
