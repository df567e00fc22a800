"""DAG executor: schedule-ordered numeric execution of the operator IR.

The contract under test: running a layer through
:class:`~repro.runtime.dag_executor.DagExecutor` — in the overlap
schedule's flattened order — computes the single-rank
:class:`~repro.model.transformer.TransformerBlock`, any valid
topological order gives the same bits, and the executed op sequence is
a valid topological order of both the op graph and the scheduled task
list.
"""

import dataclasses

import numpy as np
import pytest

from repro.comm import World
from repro.core import MegaScaleTrainer, ParallelConfig, TrainConfig
from repro.core.config import GPU_SPECS
from repro.core.executor_bindings import (
    LayerProgram,
    expand_task,
    layer_program,
)
from repro.model import MoETransformer
from repro.model.transformer import TransformerBlock
from repro.obs import Observability
from repro.parallel import (
    ParallelBlockEngine,
    build_layer_bindings,
    shard_sequence,
)
from repro.precision.formats import FP8_E4M3
from repro.perf.estimator import (
    KernelModel,
    calibrate_from_spans,
    calibrated_durations,
)
from repro.runtime import DagExecutor, schedule_conformance_problems
from repro.tensor import Tensor
from conftest import unshard_sequence

RANKS = 4
SEQ = 8

COMBOS = [
    ("sp", "ep", "a2a"),
    ("sp", "ep", "ag_rs"),
    ("tp", "ep", "a2a"),
    ("sp", "tp", "a2a"),
    ("tp", "tp", "a2a"),
]


def make_engine(tiny_config, attn, ffn, dispatch, **kw):
    block = TransformerBlock(np.random.default_rng(0), tiny_config,
                             dtype=np.float64)
    world = World(RANKS, RANKS)
    engine = ParallelBlockEngine(world.full_group(), block, attn, ffn,
                                 ep_mode=dispatch, **kw)
    return world, engine


def make_program(tiny_config, attn, ffn, dispatch, batch=2, seq=SEQ):
    parallel = ParallelConfig(RANKS, attention=attn, ffn=ffn,
                              ep_dispatch=dispatch)
    return layer_program(tiny_config, parallel, batch, seq)


@pytest.fixture
def layer_input(rng, tiny_config):
    return rng.standard_normal((2, SEQ, tiny_config.hidden_size))


class TestDagMatchesEngine:
    def reference(self, engine, layer_input):
        hidden, moe_out = engine.block(Tensor(layer_input))
        return hidden.data, moe_out.aux_loss.item()

    @pytest.mark.parametrize("attn,ffn,dispatch", COMBOS)
    def test_forward_matches_block(self, tiny_config, layer_input, attn,
                                   ffn, dispatch):
        _, engine = make_engine(tiny_config, attn, ffn, dispatch)
        ref, ref_aux = self.reference(engine, layer_input)
        outs, aux = engine.forward(shard_sequence(layer_input, RANKS),
                                   SEQ)
        np.testing.assert_allclose(unshard_sequence(outs), ref,
                                   rtol=1e-9, atol=1e-12)
        assert aux.item() == pytest.approx(ref_aux, rel=1e-9)
        # The engine sizes its program from its own block and group;
        # that must be the program the model's config gives.
        want = make_program(tiny_config, attn, ffn, dispatch)
        got = engine.executor_for(2, SEQ).program
        assert (got.order, got.durations) == (want.order, want.durations)
        assert engine.executor_for(2, SEQ).program is got  # cached

    @pytest.mark.parametrize("attn,ffn,dispatch", [
        ("sp", "ep", "ag_rs"), ("sp", "tp", "a2a"),
    ])
    def test_forward_fp8_close_to_block(self, tiny_config, layer_input,
                                        attn, ffn, dispatch):
        """Per-token E4M3 payloads on the FFN collectives: within the
        format's epsilon of the uncompressed block at the output's
        scale."""
        _, engine = make_engine(tiny_config, attn, ffn, dispatch,
                                fp8_comm=True)
        ref, _ = self.reference(engine, layer_input)
        outs, _ = engine.forward(shard_sequence(layer_input, RANKS),
                                 SEQ)
        err = np.abs(unshard_sequence(outs) - ref).max()
        assert 0.0 < err <= FP8_E4M3.epsilon * np.abs(ref).max()

    def test_shuffled_valid_topo_order_is_bitwise_identical(
            self, tiny_config, layer_input):
        """Any valid topological order must produce the same bits —
        op results depend on the graph structure, not the schedule."""
        _, engine = make_engine(tiny_config, "sp", "ep", "a2a")
        outs_ref, _ = engine.forward(shard_sequence(layer_input, RANKS),
                                     SEQ)
        program = engine.executor_for(2, SEQ).program

        rng = np.random.default_rng(7)
        order = _random_topo_order(program.graph, rng)
        assert order != program.order  # actually a different order
        shuffled = LayerProgram(graph=program.graph,
                                tasks=program.tasks, order=order,
                                durations=program.durations)
        world, engine2 = make_engine(tiny_config, "sp", "ep", "a2a")
        dag = DagExecutor(shuffled, build_layer_bindings(engine2),
                          world.full_group())
        result = dag.run({"hidden": shard_sequence(layer_input, RANKS)})
        for a, b in zip(result.per_rank("residual2"), outs_ref):
            np.testing.assert_array_equal(a.data, b.data)


def _random_topo_order(graph, rng):
    """A random valid topological order via seeded Kahn's algorithm."""
    remaining = {op.name: set(op.deps) for op in graph}
    order = []
    while remaining:
        ready = sorted(n for n, deps in remaining.items() if not deps)
        pick = ready[int(rng.integers(len(ready)))]
        order.append(pick)
        del remaining[pick]
        for deps in remaining.values():
            deps.discard(pick)
    return order


class TestScheduleConformance:
    def test_executed_order_conforms(self, tiny_config, layer_input):
        program = make_program(tiny_config, "sp", "ep", "a2a")
        _, engine = make_engine(tiny_config, "sp", "ep", "a2a")
        engine.forward(shard_sequence(layer_input, RANKS), SEQ)
        assert engine.last_executed_ops is not None
        problems = schedule_conformance_problems(
            program, engine.last_executed_ops)
        assert problems == []

    def test_detects_missing_op(self, tiny_config):
        program = make_program(tiny_config, "sp", "ep", "a2a")
        problems = schedule_conformance_problems(program,
                                                 program.order[:-1])
        assert any("not a permutation" in p for p in problems)

    def test_detects_dependency_violation(self, tiny_config):
        program = make_program(tiny_config, "sp", "ep", "a2a")
        problems = schedule_conformance_problems(
            program, list(reversed(program.order)))
        assert any("before its dependency" in p for p in problems)

    def test_random_topo_orders_conform(self, tiny_config):
        """Today's task deps are exactly the member ops' data deps, so
        every graph-valid order also respects the unit schedule."""
        program = make_program(tiny_config, "sp", "ep", "ag_rs")
        rng = np.random.default_rng(3)
        for _ in range(20):
            order = _random_topo_order(program.graph, rng)
            assert schedule_conformance_problems(program, order) == []

    def test_detects_unit_order_violation(self):
        """The unit-level check is defense-in-depth: it catches a
        scheduler-added edge (e.g. comm-stream serialization) that the
        op graph alone does not imply."""
        from repro.core.operators import Op, OpGraph
        from repro.sim.engine import SimTask
        graph = OpGraph([
            Op("a", "memory", mem_bytes=1.0),
            Op("b", "memory", mem_bytes=1.0),
            Op("c", "memory", mem_bytes=1.0, deps=("a", "b")),
        ])
        tasks = [
            SimTask("a", 1.0, "main"),
            SimTask("b", 1.0, "main", deps=("a",)),  # non-data edge
            SimTask("c", 1.0, "main", deps=("a", "b")),
        ]
        program = LayerProgram(graph=graph, tasks=tasks,
                               order=["a", "b", "c"])
        assert schedule_conformance_problems(
            program, ["a", "b", "c"]) == []
        problems = schedule_conformance_problems(program,
                                                 ["b", "a", "c"])
        assert any("scheduled dependency" in p for p in problems)


class TestExecutorValidation:
    @pytest.fixture
    def pieces(self, tiny_config):
        program = make_program(tiny_config, "sp", "ep", "a2a")
        world, engine = make_engine(tiny_config, "sp", "ep", "a2a")
        bindings = build_layer_bindings(engine)
        return program, bindings, world.full_group()

    def test_valid_construction(self, pieces):
        program, bindings, group = pieces
        DagExecutor(program, bindings, group)

    def test_order_must_be_permutation(self, pieces):
        program, bindings, group = pieces
        bad = dataclasses.replace(program, order=program.order[:-1])
        with pytest.raises(ValueError, match="not a permutation"):
            DagExecutor(bad, bindings, group)

    def test_order_must_be_topological(self, pieces):
        program, bindings, group = pieces
        bad = dataclasses.replace(
            program, order=program.order[1:] + program.order[:1])
        with pytest.raises(ValueError, match="before its dependency"):
            DagExecutor(bad, bindings, group)

    def test_every_op_needs_a_binding(self, pieces):
        program, bindings, group = pieces
        with pytest.raises(ValueError, match="not covered"):
            DagExecutor(program, bindings[:-1], group)

    def test_no_double_coverage(self, pieces):
        program, bindings, group = pieces
        with pytest.raises(ValueError, match="covered by both"):
            DagExecutor(program, bindings + [bindings[0]], group)

    def test_reads_must_resolve(self, pieces):
        program, bindings, group = pieces
        broken = [dataclasses.replace(b, reads=b.reads + ("ghost",))
                  if b.op == "ln2" else b for b in bindings]
        with pytest.raises(ValueError, match="reads 'ghost'"):
            DagExecutor(program, broken, group)

    def test_run_requires_inputs(self, pieces):
        program, bindings, group = pieces
        dag = DagExecutor(program, bindings, group)
        with pytest.raises(ValueError, match="missing layer inputs"):
            dag.run({})

    def test_expand_task_roundtrip(self, pieces):
        program = pieces[0]
        expanded = [name for task in program.tasks
                    for name in expand_task(program.graph, task.name)]
        assert expanded == program.order
        assert sorted(expanded) == sorted(
            op.name for op in program.graph)


class TestSpanCalibration:
    def test_traced_run_calibrates_estimator(self, tiny_config,
                                             layer_input):
        obs = Observability.create()
        world, engine = make_engine(tiny_config, "sp", "ep", "a2a")
        world.attach_tracer(obs.tracer)
        engine.forward(shard_sequence(layer_input, RANKS), SEQ)
        program = engine.executor_for(2, SEQ).program

        model = KernelModel(GPU_SPECS["h800"])
        report = calibrate_from_spans(model, program.graph,
                                      obs.tracer.spans)
        anchors = report.anchors
        assert anchors  # the dag.op:* spans were found
        assert all(a.samples >= 1 for a in anchors.values())
        assert all(a.predicted > 0.0 for a in anchors.values())
        # Every graph op maps to a traced anchor (covers partition).
        assert set(report.op_anchor) == {op.name
                                         for op in program.graph}

        durations = calibrated_durations(model, program.graph, report)
        assert set(durations) == {op.name for op in program.graph}
        assert all(d >= 0.0 for d in durations.values())
        # Scaling is exact per anchor: measured == scale * predicted.
        for cal in anchors.values():
            assert cal.scale * cal.predicted == pytest.approx(
                cal.measured)


class TestTrainerBackend:
    def run_steps(self, tiny_config, **mode):
        model = MoETransformer(tiny_config, seed=0, dtype=np.float64)
        world = World(RANKS, RANKS)
        train = TrainConfig(global_batch_size=2, micro_batch_size=2,
                            seq_len=tiny_config.seq_len,
                            learning_rate=1e-2, **mode)
        trainer = MegaScaleTrainer(model, world,
                                   ParallelConfig.megascale(RANKS),
                                   train)
        rng = np.random.default_rng(0)
        losses = []
        for _ in range(2):
            batch = rng.integers(
                0, tiny_config.vocab_size,
                size=(2, tiny_config.seq_len + 1))
            losses.append(trainer.train_step(batch).loss)
        params = {name: p.data.copy()
                  for name, p in model.named_parameters()}
        return losses, params, trainer

    def test_dag_backend_trains_bitwise_identically(self, tiny_config):
        """The one-valued ``backend`` / ``execution`` fields, spelled
        out (as the wall-clock benchmark does), select nothing."""
        ref_losses, ref_params, _ = self.run_steps(tiny_config)
        losses, params, trainer = self.run_steps(
            tiny_config, backend="dag", execution="sequential")
        assert losses == ref_losses
        for name in ref_params:
            np.testing.assert_array_equal(params[name],
                                          ref_params[name])
        for engine in trainer.engines:
            assert engine.last_executed_ops is not None

    @pytest.mark.parametrize("mode", [
        {"backend": "engine"}, {"backend": "cuda-graphs"},
        {"execution": "vectorized"}, {"execution": "threaded"},
    ], ids=lambda mode: next(iter(mode.values())))
    def test_train_config_names_the_survivor(self, mode):
        survivor = "dag" if "backend" in mode else "sequential"
        with pytest.raises(ValueError, match=survivor):
            TrainConfig(global_batch_size=2, **mode)
