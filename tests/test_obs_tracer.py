"""Tracer, metrics-registry, and bounded-ledger unit tests."""

import numpy as np
import pytest

from repro.comm.group import CommLedger, CommRecord, World
from repro.obs import MetricsRegistry, Observability, Tracer
from repro.sim import SimTask, simulate


class FakeClock:
    """Deterministic clock: every read advances one second."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


class TestSpans:
    def test_nesting_links(self):
        t = Tracer(clock=FakeClock())
        outer = t.begin("outer")
        inner = t.begin("inner")
        assert inner.parent_id == outer.span_id
        assert inner.depth == 1 and outer.depth == 0
        t.end(inner)
        t.end(outer)
        assert outer.closed and inner.closed
        assert inner.start >= outer.start
        assert inner.end <= outer.end

    def test_context_manager(self):
        t = Tracer(clock=FakeClock())
        with t.span("step", phase="step") as s:
            assert t.current() is s
        assert s.closed and s.phase == "step"
        assert t.open_depth == 0

    def test_exception_unwinds(self):
        t = Tracer(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with t.span("outer"):
                t.begin("inner")  # never explicitly closed
                raise RuntimeError("boom")
        # Closing the outer span closed the abandoned inner one too.
        assert t.open_depth == 0
        assert all(s.closed for s in t.spans)

    def test_end_outer_closes_inner(self):
        t = Tracer(clock=FakeClock())
        outer = t.begin("outer")
        inner = t.begin("inner")
        t.end(outer)
        assert inner.closed and outer.closed
        assert t.open_depth == 0

    def test_annotate_hits_innermost(self):
        t = Tracer(clock=FakeClock())
        t.begin("outer")
        inner = t.begin("inner")
        t.annotate(bytes=123.0)
        assert inner.attrs["bytes"] == 123.0
        t.end()
        t.end()

    def test_end_attrs_merge(self):
        t = Tracer(clock=FakeClock())
        s = t.begin("comm", op="all_gather")
        t.end(s, bytes=64.0)
        assert s.attrs == {"op": "all_gather", "bytes": 64.0}

    def test_disabled_is_noop(self):
        t = Tracer(enabled=False)
        assert t.begin("x") is None
        assert t.instant("y") is None
        with t.span("z") as s:
            assert s is None
        assert t.spans == [] and t.events == []

    def test_children_of(self):
        t = Tracer(clock=FakeClock())
        outer = t.begin("outer")
        a = t.begin("a")
        t.end(a)
        b = t.begin("b")
        t.end(b)
        t.end(outer)
        assert t.children_of(outer) == [a, b]

    def test_instant_event(self):
        t = Tracer(clock=FakeClock())
        e = t.instant("checkpoint", cat="runner", step=4)
        assert e.ts == 1.0
        assert e.attrs == {"step": 4}
        assert t.events == [e]

    def test_closed_spans_filters(self):
        t = Tracer(clock=FakeClock())
        with t.span("a", cat="comm"):
            pass
        with t.span("b", cat="comm.p2p"):
            pass
        t.begin("open", cat="comm")
        assert len(t.closed_spans()) == 2
        assert len(t.closed_spans(cat="comm")) == 2  # prefix match
        assert t.closed_spans(cat="train") == []

    def test_clear(self):
        t = Tracer(clock=FakeClock())
        t.begin("a")
        t.instant("e")
        t.clear()
        assert t.spans == [] and t.events == [] and t.open_depth == 0


class TestTimelineIngestion:
    def test_sim_records_become_closed_spans(self):
        tasks = [
            SimTask("gemm", 2.0, "compute"),
            SimTask("a2a", 1.0, "comm", deps=("gemm",), is_comm=True),
        ]
        t = Tracer(clock=FakeClock())
        timeline = simulate(tasks, tracer=t, trace_pid="sim")
        spans = t.closed_spans(pid="sim")
        assert len(spans) == 2
        by_name = {s.name: s for s in spans}
        assert by_name["gemm"].cat == "sim.compute"
        assert by_name["a2a"].cat == "sim.comm"
        # Simulated clock, not the tracer's wall clock.
        record = timeline.record_of("a2a")
        assert by_name["a2a"].start == record.start
        assert by_name["a2a"].end == record.end

    def test_untraced_simulate_unchanged(self):
        timeline = simulate([SimTask("x", 1.0, "s")])
        assert timeline.makespan == 1.0


class TestMetrics:
    def test_counter_monotonic(self):
        m = MetricsRegistry()
        m.inc("steps")
        m.inc("steps", 2.0)
        assert m.counter("steps").value == 3.0
        with pytest.raises(ValueError):
            m.inc("steps", -1.0)

    def test_gauge(self):
        m = MetricsRegistry()
        m.set("loss", 4.5)
        m.set("loss", 4.0)
        assert m.gauge("loss").value == 4.0
        assert m.gauge("loss").updates == 2

    def test_histogram_summary(self):
        m = MetricsRegistry()
        for v in [1.0, 2.0, 3.0, 4.0]:
            m.observe("loss", v)
        h = m.histogram("loss")
        assert h.count == 4
        assert h.mean == 2.5
        assert h.min == 1.0 and h.max == 4.0
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 4.0

    def test_histogram_reservoir_bounded(self):
        m = MetricsRegistry()
        h = m.histogram("x", reservoir_size=8)
        for v in range(100):
            h.observe(float(v))
        assert h.count == 100
        assert len(h._reservoir) == 8
        assert h.min == 0.0 and h.max == 99.0
        # Percentiles come from the newest values only.
        assert h.percentile(0) == 92.0

    def test_snapshot_flat(self):
        m = MetricsRegistry()
        m.inc("steps")
        m.set("loss", 2.0)
        m.observe("h", 1.0)
        snap = m.snapshot()
        assert snap["steps"] == 1.0
        assert snap["loss"] == 2.0
        assert snap["h.count"] == 1.0 and snap["h.mean"] == 1.0

    def test_ingest_ledger(self):
        ledger = CommLedger()
        ledger.record(CommRecord("all_gather", 4, [8.0] * 4, "t"))
        ledger.record(CommRecord("all_to_all", 4, [2.0] * 4, "t"))
        m = MetricsRegistry()
        m.ingest_ledger(ledger)
        snap = m.snapshot()
        assert snap["comm.bytes.total"] == 40.0
        assert snap["comm.calls.total"] == 2.0
        assert snap["comm.bytes.all_gather"] == 32.0
        assert snap["comm.calls.all_to_all"] == 1.0

    def test_render(self):
        m = MetricsRegistry()
        m.inc("steps", 3)
        text = m.render("demo")
        assert "demo" in text and "steps" in text and "3" in text

    def test_observability_bundle(self):
        obs = Observability.create(clock=FakeClock())
        assert isinstance(obs.tracer, Tracer)
        assert isinstance(obs.metrics, MetricsRegistry)


def _fill(ledger, n, op="all_gather", tag="t", group=4, per_rank=8.0):
    for _ in range(n):
        ledger.record(CommRecord(op, group, [per_rank] * group, tag))


class TestBoundedLedger:
    def test_unbounded_by_default(self):
        ledger = CommLedger()
        _fill(ledger, 100)
        assert len(ledger.records) == 100
        assert ledger.dropped == 0

    def test_rotation_keeps_newest(self):
        ledger = CommLedger(max_records=5)
        for i in range(12):
            ledger.record(CommRecord("ag", 2, [float(i)] * 2, f"c{i}"))
        assert len(ledger.records) == 5
        assert ledger.dropped == 7
        assert ledger.record_count == 12
        assert [r.tag for r in ledger.records] == \
            [f"c{i}" for i in range(7, 12)]

    def test_totals_exact_across_rotation(self):
        bounded = CommLedger(max_records=3)
        unbounded = CommLedger()
        for i in range(20):
            rec = CommRecord("ag" if i % 2 else "rs", 4,
                             [float(i + 1)] * 4, f"tag{i % 3}")
            bounded.record(rec)
            unbounded.record(rec)
        assert bounded.total_bytes() == unbounded.total_bytes()
        assert bounded.total_bytes(op="ag") == unbounded.total_bytes(op="ag")
        assert bounded.total_bytes(tag="tag1") == \
            unbounded.total_bytes(tag="tag1")
        assert bounded.per_rank_bytes(op="rs") == \
            unbounded.per_rank_bytes(op="rs")
        assert bounded.counts() == unbounded.counts()

    def test_clear_resets_rotation_state(self):
        ledger = CommLedger(max_records=2)
        _fill(ledger, 10)
        ledger.clear()
        assert ledger.total_bytes() == 0.0
        assert ledger.dropped == 0 and ledger.rolled == {}
        assert ledger.record_count == 0

    def test_invalid_max_records(self):
        with pytest.raises(ValueError):
            CommLedger(max_records=0)

    def test_world_plumbs_bound(self):
        world = World(4, 4, max_ledger_records=6)
        g = world.full_group()
        for i in range(10):
            g.record("all_gather", [1.0] * 4, tag=f"x{i}")
        assert len(world.ledger.records) == 6
        assert world.ledger.total_bytes() == 40.0

    def test_bounded_ledger_under_training(self):
        # A real traced engine run stays exact under aggressive rotation.
        from conftest import ffn_half
        from repro.model.moe import MoELayer
        from repro.parallel.ep_ffn import EPFFNEngine
        from repro.tensor import Tensor

        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 16, 32))

        def run(world):
            moe = MoELayer(rng_init, 32, 48, 8, 2, dtype=np.float64)
            engine = EPFFNEngine(world.full_group(), moe, mode="ag_rs")
            shards = [Tensor(x[:, r * 4:(r + 1) * 4].copy())
                      for r in range(4)]
            ffn_half(engine, shards)
            return world.ledger

        rng_init = np.random.default_rng(1)
        full = run(World(4, 4))
        rng_init = np.random.default_rng(1)
        bounded = run(World(4, 4, max_ledger_records=1))
        assert bounded.dropped > 0
        assert bounded.total_bytes() == full.total_bytes()
        assert bounded.counts() == full.counts()
