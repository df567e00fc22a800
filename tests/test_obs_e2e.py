"""End-to-end observability tests: traced training, 2D pipeline traces,
runner events, and the ``repro train --trace`` CLI."""

import json

import numpy as np
import pytest

from repro.comm import World
from repro.core.config import ModelConfig, ParallelConfig, TrainConfig
from repro.core.runner import FaultInjector, ProductionRunner
from repro.core.trainer import MegaScaleTrainer
from repro.data import MarkovCorpus, batch_iterator
from repro.elastic import ParallelLayout
from repro.model import MoETransformer
from repro.obs import (
    Observability,
    audit_comm_volumes,
    crosscheck_tracer_ledger,
)
from conftest import audit_entry, children_of

CONFIG = ModelConfig("obs-e2e", n_layers=2, hidden_size=32, n_heads=8,
                     gqa_ratio=2, ffn_hidden_size=48, n_experts=8,
                     top_k=2, vocab_size=64, seq_len=16)
TRAIN = TrainConfig(global_batch_size=2, micro_batch_size=2, seq_len=16,
                    learning_rate=3e-3, aux_loss_coeff=0.01)


def make_batches(n, batch=2, seq=16):
    corpus = MarkovCorpus(vocab_size=64, seed=0)
    return list(batch_iterator(corpus, batch, seq, seed=1, limit=n))


def traced_step(ep_dispatch="ag_rs", telemetry_log=None):
    """One observed 4-way SP+EP training step; returns (obs, world).
    ``telemetry_log`` collects every EP layer pass's telemetry."""
    model = MoETransformer(CONFIG, seed=0, dtype=np.float64)
    obs = Observability.create()
    world = World(4, 4)
    trainer = MegaScaleTrainer(
        model, world,
        ParallelConfig.megascale(4, ep_dispatch=ep_dispatch), TRAIN,
        obs=obs)
    for engine in trainer.engines:
        engine.ffn_engine.telemetry_log = telemetry_log
    trainer.train_step(make_batches(1)[0])
    return obs, world


class TestTracedTrainingStep:
    def test_span_nesting(self):
        obs, _ = traced_step()
        tracer = obs.tracer
        (step,) = [s for s in tracer.closed_spans(cat="train")
                   if s.name == "train.step"]
        phases = [s.name for s in children_of(tracer, step)]
        assert phases == ["forward", "backward", "optimizer"]
        # Comm spans hang off the phases, never off the root.
        for span in tracer.closed_spans(cat="comm"):
            assert span.parent_id is not None

    def test_comm_spans_carry_stream_and_bytes(self):
        obs, _ = traced_step()
        comm = obs.tracer.closed_spans(cat="comm")
        assert comm, "no comm spans traced"
        for span in comm:
            assert span.stream == "comm/intra"
            assert span.attrs["bytes"] > 0
            assert span.attrs["tag"]

    def test_audit_ag_rs_within_one_percent(self):
        obs, world = traced_step(ep_dispatch="ag_rs")
        report = audit_comm_volumes(
            world.ledger, b=2, s=16, h=32, n=4, m=2, k=2,
            itemsize=8.0, passes=CONFIG.n_layers)
        assert report.ok, report.render()
        assert {e.mechanism for e in report.entries} == \
            {"sp_attention", "ep_ffn_ag_rs"}
        for entry in report.entries:
            assert entry.rel_error <= 0.01

    def test_audit_a2a_dispatch(self):
        """The A2A entry recounts every layer pass's captured routing
        exactly; with no routing to recount, A2A bytes fail it."""
        passes = []
        obs, world = traced_step(ep_dispatch="a2a", telemetry_log=passes)
        assert len(passes) == CONFIG.n_layers
        kwargs = dict(b=2, s=16, h=32, n=4, m=2, k=2, itemsize=8.0,
                      passes=CONFIG.n_layers)
        report = audit_comm_volumes(world.ledger, a2a_telemetry=passes,
                                    **kwargs)
        entry = audit_entry(report, "ep_ffn_a2a")
        assert report.ok, report.render()
        assert entry.tolerance <= 1e-9 and entry.rel_error <= 1e-9
        assert not audit_comm_volumes(world.ledger, **kwargs).ok

    def test_crosscheck_and_metrics(self):
        obs, world = traced_step()
        ok, traced, ledger_bytes = crosscheck_tracer_ledger(
            obs.tracer, world.ledger)
        assert ok and traced == ledger_bytes > 0
        snap = obs.metrics.snapshot()
        assert snap["train.steps"] == 1.0
        assert snap["train.tokens"] == 2.0 * 16.0
        assert snap["comm.bytes.total"] == ledger_bytes
        assert snap["train.step.loss.count"] == 1.0
        # Collectives and float64 bytes per SP+EP ag_rs step of this
        # 2-layer model (fwd + bwd), fixed by the layer program.
        assert snap["comm.calls.total"] == 60.0
        assert ledger_bytes == 270336.0


class TestPipeline2DTrace:
    def _run(self):
        """Two pipeline stages of an SP+EP node each, traced."""
        model = MoETransformer(CONFIG, seed=0, dtype=np.float64)
        obs = Observability.create()
        train = TrainConfig(global_batch_size=2, micro_batch_size=1,
                            seq_len=16, learning_rate=1e-2,
                            weight_decay=0.0, aux_loss_coeff=0.01)
        trainer = MegaScaleTrainer(
            model, World(4, 2), ParallelConfig.megascale(2, 2), train,
            obs=obs)
        result = trainer.train_step(make_batches(1)[0])
        return obs, trainer.world, result

    def test_stage_spans_and_streams(self):
        obs, _, result = self._run()
        stages = obs.tracer.closed_spans(cat="pp.stage")
        # 2 stages x 2 micro-batches, forward only.
        assert len(stages) == 4
        assert {s.stream for s in stages} == {"stage0", "stage1"}
        assert all(s.phase == "F" for s in stages)
        assert result.loss > 0.0

    def test_comm_spans_nested_under_stages(self):
        obs, _, _ = self._run()
        tracer = obs.tracer
        stage_ids = {s.span_id for s in
                     tracer.closed_spans(cat="pp.stage")}
        op_parent = {s.span_id: s.parent_id
                     for s in tracer.closed_spans(cat="dag")}
        fwd_comm = [s for s in tracer.closed_spans(cat="comm")
                    if s.attrs.get("op") != "p2p"
                    and not str(s.attrs.get("tag", "")).endswith(":bwd")]
        assert fwd_comm
        for span in fwd_comm:
            # stage > dag.op:<collective> > comm
            assert op_parent[span.parent_id] in stage_ids

    def test_p2p_instant_events(self):
        """Every stage-boundary send is a self-contained ``p2p`` comm
        span on the inter-node lane, under the receiving stage's span
        in the forward."""
        obs, world, _ = self._run()
        p2p = [s for s in obs.tracer.closed_spans(cat="comm")
               if s.attrs.get("op") == "p2p"]
        fwd = [s for s in p2p if s.attrs["tag"].startswith("pp_fwd")]
        # Each of the 2 micro-batches crosses the single stage boundary,
        # forward and backward.
        assert len(fwd) == 2 and len(p2p) == 4
        assert sum(s.attrs["bytes"] for s in p2p) == \
            world.ledger.total_bytes(op="p2p") > 0
        assert {s.stream for s in p2p} == {"comm/inter"}
        stage1 = {s.span_id for s in obs.tracer.closed_spans(cat="pp.stage")
                  if s.stream == "stage1"}
        assert all(s.parent_id in stage1 for s in fwd)

    def test_traced_bytes_cover_both_worlds(self):
        """Stage-boundary and in-stage traffic share the one world's
        ledger, and the tracer sees all of it."""
        obs, world, _ = self._run()
        traced = sum(
            float(s.attrs.get("bytes", 0.0))
            for s in obs.tracer.spans if s.cat.startswith("comm"))
        traced += sum(
            float(e.attrs.get("bytes", 0.0))
            for e in obs.tracer.events if e.cat.startswith("comm"))
        assert traced == pytest.approx(world.ledger.total_bytes())
        assert world.ledger.total_bytes(op="p2p") > 0


class TestRunnerObservability:
    def test_checkpoint_and_restart_events(self, tmp_path):
        small = ModelConfig("obs-run", n_layers=1, hidden_size=16,
                            n_heads=4, gqa_ratio=2, ffn_hidden_size=24,
                            n_experts=4, top_k=2, vocab_size=32,
                            seq_len=8)
        train = TrainConfig(global_batch_size=2, micro_batch_size=2,
                            seq_len=8, learning_rate=5e-3,
                            weight_decay=0.0, aux_loss_coeff=0.01)
        obs = Observability.create()

        def factory(layout):
            model = MoETransformer(small, seed=0, dtype=np.float64)
            return MegaScaleTrainer(
                model, World(2, 2), ParallelConfig.megascale(2), train, obs=obs)

        layout = ParallelLayout.from_parallel_config(
            ParallelConfig.megascale(2))
        runner = ProductionRunner(factory, layout, str(tmp_path),
                                  checkpoint_interval=2, obs=obs)
        corpus = MarkovCorpus(vocab_size=32, seed=0)
        batches = list(batch_iterator(corpus, 2, 8, seed=1, limit=4))
        metrics = runner.run(batches,
                             fault_injector=FaultInjector([1]))

        events = [e for e in obs.tracer.events if e.cat == "runner"]
        names = [e.name for e in events]
        assert names.count("restart") == 1
        assert names.count("checkpoint") == len(metrics.checkpoints)
        restart = next(e for e in events if e.name == "restart")
        assert restart.attrs["fault"] == "SimulatedFault"
        snap = obs.metrics.snapshot()
        assert snap["runner.restart"] == 1.0
        assert snap["runner.checkpoint"] == float(len(metrics.checkpoints))
        # The trainer shared the bundle: step spans surround the events.
        assert any(s.name == "train.step"
                   for s in obs.tracer.closed_spans(cat="train"))


class TestTraceCLI:
    def test_trace_command(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "trace.json"
        assert main(["train", "1", "--trace", str(out),
                     "--dir", str(tmp_path / "ckpt")]) == 0
        stdout = capsys.readouterr().out
        assert "comm-volume audit" in stdout
        assert "tracer/ledger bytes" in stdout and "match" in stdout

        trace = json.loads(out.read_text())
        events = trace["traceEvents"]
        assert events and all(e["ph"] in ("X", "i") for e in events)
        pids = {e["pid"] for e in events}
        assert "sim" in pids  # simulated lane rides along
        comm = [e for e in events if e.get("cat") == "comm"]
        assert comm and all(e["args"]["bytes"] > 0 for e in comm)

    def test_trace_rejects_bad_steps(self, tmp_path):
        from repro.__main__ import main

        out = tmp_path / "t.json"
        assert main(["train", "0", "--trace", str(out)]) == 2
        assert not out.exists()
