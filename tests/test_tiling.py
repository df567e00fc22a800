"""Tile-granular fused-kernel execution (§4.2): properties and knobs.

The tile transform decomposes each fused op group into per-tile
sub-ops, the chunked collectives move one tile's bytes at a time, and
the DAG executor runs the resulting stream — all without changing a
single bit of the numerics.  These tests pin the three contracts:

* **recomposition** — the tiled graph is the original graph cut along
  tile boundaries: same base op set, work attributes summing back
  exactly, deps encoding the §4.2 pipeline;
* **exact accounting** — per-tile CommLedger records sum to the
  unfused Eq. 1–4 bytes (bitwise, across ledger rotation), and the
  logical collective counts do not change;
* **bitwise identity** — tiled execution matches untiled execution.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.group import World
from repro.core.config import (GPU_SPECS, MODEL_ZOO, ModelConfig,
                               ParallelConfig, TrainConfig)
from repro.core.executor_bindings import layer_program
from repro.core.operators import plan_tiles, tile_name, tiled_members
from repro.core.trainer import MegaScaleTrainer
from repro.model.transformer import MoETransformer
from repro.perf.estimator import (TILE_SPAN_PREFIX, KernelModel,
                                  calibrate_from_spans)
from repro.runtime.dag_executor import (tile_conformance_problems,
                                        tiled_execution_order)
from repro.sim.engine import simulate
from repro.verify.cases import VerifyCase
from conftest import base_op_name, task_order

RANKS = 4
SEQ = 16


def tiny_model_config(seq_len: int = SEQ) -> ModelConfig:
    return ModelConfig("tiny", n_layers=2, hidden_size=32, n_heads=8,
                       gqa_ratio=2, ffn_hidden_size=48, n_experts=8,
                       top_k=2, vocab_size=64, seq_len=seq_len)


def tiled_program(attention="sp", ffn="ep", ep_dispatch="ag_rs",
                  tile_tokens=2):
    parallel = ParallelConfig(RANKS, attention=attention, ffn=ffn,
                              ep_dispatch=ep_dispatch)
    return layer_program(tiny_model_config(), parallel, 2, SEQ,
                         tile_tokens=tile_tokens)


def run_training(tile_tokens, steps=2,
                 ep_dispatch="ag_rs", tracer=None, seed=0):
    """Train ``steps`` on the tiny model; returns (trainer, world)."""
    model = MoETransformer(tiny_model_config(), seed=seed,
                           dtype=np.float64)
    world = World(RANKS, RANKS)
    world.tracer = tracer
    train = TrainConfig(global_batch_size=2, micro_batch_size=2,
                        seq_len=SEQ, tile_tokens=tile_tokens)
    trainer = MegaScaleTrainer(
        model, world,
        ParallelConfig(RANKS, ep_dispatch=ep_dispatch), train)
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        trainer.train_step(rng.integers(0, 64, size=(2, SEQ + 1)))
    return trainer, world


#: FFN collective tags of the AG-based FFNs, by tiled op.
FFN_TAGS = {"ep": {"ffn_ag": "ep_ffn:dispatch_ag",
                   "ffn_rs": "ep_ffn:combine_rs"},
            "tp": {"ffn_ag": "tp_ffn:ag", "ffn_rs": "tp_ffn:rs"}}


class TestFP8TilesMove:
    """Under FP8 communication the AG-based FFN moves exactly the tiles
    its program lists: the tile plan alone decides tiling."""

    @staticmethod
    def train(ffn, tile_tokens):
        model = MoETransformer(tiny_model_config(), seed=0,
                               dtype=np.float64)
        world = World(RANKS, RANKS)
        train = TrainConfig(global_batch_size=2, micro_batch_size=2,
                            seq_len=SEQ, tile_tokens=tile_tokens,
                            precision="fp8")
        trainer = MegaScaleTrainer(
            model, world,
            ParallelConfig(RANKS, ffn=ffn, ep_dispatch="ag_rs"), train)
        rng = np.random.default_rng(0)
        losses = [trainer.train_step(
            rng.integers(0, 64, size=(2, SEQ + 1))).loss]
        return trainer, world, losses

    @pytest.mark.parametrize("ffn", ["ep", "tp"])
    def test_every_listed_ffn_tile_is_one_ledger_record(self, ffn):
        trainer, world, losses = self.train(ffn, 2)
        layers = len(trainer.engines)
        for op, tag in FFN_TAGS[ffn].items():
            listed = [name for name in trainer.engines[0].last_executed_tiles
                      if base_op_name(name) == op]
            assert len(listed) == RANKS
            records = [r for r in world.ledger.records if r.tag == tag]
            assert all(r.tile is not None for r in records), tag
            assert sorted(r.tile for r in records) == sorted(
                (i, RANKS) for i in range(RANKS) for _ in range(layers))
        plain, plain_world, plain_losses = self.train(ffn, None)
        assert losses == plain_losses
        for (name, p), (_, q) in zip(trainer.model.named_parameters(),
                                     plain.model.named_parameters()):
            assert np.array_equal(p.data, q.data), name
        assert (world.ledger.total_bytes()
                == plain_world.ledger.total_bytes())


class TestTilePlan:
    def test_group_counts_follow_comm_pattern(self):
        """AG/RS and ragged-dispatch groups tile per rank (the §4.2
        source-rank swizzle); dense A2A groups tile per token chunk."""
        program = tiled_program(ep_dispatch="ag_rs", tile_tokens=2)
        assert program.tile_plan.group_tiles == {
            "a2a+attn/fwd": 2, "a2a+gemm/fwd": 2,
            "ag+scatter+ggemm/fwd": RANKS,
            "ggemm+gather+rs/fwd": RANKS,
        }
        program = tiled_program(ep_dispatch="a2a", tile_tokens=2)
        assert program.tile_plan.group_tiles == {
            "a2a+attn/fwd": 2, "a2a+gemm/fwd": 2,
            "a2a+ggemm/fwd": RANKS,
        }

    def test_widest_chunk_keeps_only_swizzle_groups(self):
        """tile_tokens == local shard: dense A2A groups collapse to a
        single tile (dropped); rank-swizzled groups still decompose."""
        program = tiled_program(tile_tokens=SEQ // RANKS)
        assert program.tile_plan.group_tiles == {
            "ag+scatter+ggemm/fwd": RANKS,
            "ggemm+gather+rs/fwd": RANKS,
        }

    @pytest.mark.parametrize("model,n,seq,tile_tokens,dispatch,sub_ops", [
        ("tiny", RANKS, SEQ, 2, "ag_rs", 36),
        ("tiny", RANKS, SEQ, 2, "a2a", 16),
        # The 352B layer at n=8, local shard 512 -> 4 token chunks.
        ("internal-352b", 8, 4096, 128, "ag_rs", 72),
    ])
    def test_sub_op_count(self, model, n, seq, tile_tokens, dispatch,
                          sub_ops):
        config = (tiny_model_config() if model == "tiny"
                  else MODEL_ZOO[model])
        program = layer_program(
            config, ParallelConfig.megascale(n, ep_dispatch=dispatch), 1,
            seq, tile_tokens=tile_tokens)
        members = tiled_members(program.tile_graph)
        assert sum(len(tiles) for tiles in members.values()) == sub_ops

    def test_non_divisor_width_rejected(self):
        with pytest.raises(ValueError, match="divisors"):
            tiled_program(tile_tokens=3)
        program = tiled_program(tile_tokens=2)
        with pytest.raises(ValueError):
            plan_tiles(program.graph, RANKS, SEQ, 0)


class TestRecomposition:
    @pytest.mark.parametrize("attention,ffn,dispatch", [
        ("sp", "ep", "ag_rs"), ("sp", "ep", "a2a"), ("tp", "tp", "a2a"),
    ])
    def test_tile_graph_recomposes_to_original(self, attention, ffn,
                                               dispatch):
        program = tiled_program(attention, ffn, dispatch)
        graph, tiled = program.graph, program.tile_graph
        base_names = {op.name for op in graph}
        assert {base_op_name(op.name) for op in tiled} == base_names
        members = tiled_members(tiled)
        assert members, "tile graph decomposed no ops"
        for base, tiles in members.items():
            op = graph[base]
            count = len(tiles)
            assert tiles == [tile_name(base, i) for i in range(count)]
            for attr in ("flops", "mem_bytes", "comm_bytes"):
                total = sum(getattr(tiled[t], attr) for t in tiles)
                assert total == pytest.approx(getattr(op, attr),
                                              rel=1e-12)
            # Ascending in-order chain: tile i depends on tile i-1.
            for i in range(1, count):
                assert tile_name(base, i - 1) in tiled[tiles[i]].deps

    def test_untiled_ops_pass_through_unchanged(self):
        program = tiled_program()
        members = tiled_members(program.tile_graph)
        for op in program.graph:
            if op.name in members:
                continue
            assert op.name in program.tile_graph
            clone = program.tile_graph[op.name]
            assert clone.flops == op.flops
            assert clone.comm_bytes == op.comm_bytes


class TestTileConformance:
    def test_execution_order_is_conformant(self):
        """Both the executed stream (base-order expansion) and the
        scheduler's tile order are legal interleavings of the tile
        graph — the invariant accepts either, and any other topo
        order."""
        program = tiled_program()
        order = tiled_execution_order(program)
        assert tile_conformance_problems(program, order) == []
        assert tile_conformance_problems(program,
                                         program.tile_order) == []

    def test_descending_tiles_rejected(self):
        program = tiled_program()
        order = list(program.tile_order)
        base = next(iter(tiled_members(program.tile_graph)))
        i0, i1 = (order.index(tile_name(base, 0)),
                  order.index(tile_name(base, 1)))
        order[i0], order[i1] = order[i1], order[i0]
        assert tile_conformance_problems(program, order)

    def test_non_permutation_rejected(self):
        program = tiled_program()
        assert tile_conformance_problems(program,
                                         program.tile_order[:-1])
        assert tile_conformance_problems(program, None)

    def test_untiled_program_accepts_only_empty_stream(self):
        untiled = layer_program(tiny_model_config(),
                                ParallelConfig(RANKS), 2, SEQ)
        assert not untiled.tiled
        assert tile_conformance_problems(untiled, None) == []
        assert tile_conformance_problems(untiled, ["qkv_a2a#t0"])


class TestBitwiseIdentity:
    @pytest.mark.parametrize("dispatch", ["a2a", "ag_rs"])
    def test_tiled_matches_untiled(self, dispatch):
        tiled, tiled_world = run_training(2, ep_dispatch=dispatch)
        plain, plain_world = run_training(None, ep_dispatch=dispatch)
        for (name, p), (_, q) in zip(tiled.model.named_parameters(),
                                     plain.model.named_parameters()):
            assert np.array_equal(p.data, q.data), name
        assert (tiled_world.ledger.total_bytes()
                == plain_world.ledger.total_bytes())
        assert tiled_world.ledger.counts() == plain_world.ledger.counts()

    def test_executed_tile_streams_recorded(self):
        trainer, _ = run_training(2)
        for engine in trainer.engines:
            stream = engine.last_executed_tiles
            assert stream is not None
            program = engine.executor_for(2, SEQ).program
            assert tile_conformance_problems(program, stream) == []

    def test_untiled_run_records_no_tile_stream(self):
        trainer, _ = run_training(None)
        for engine in trainer.engines:
            assert engine.last_executed_tiles is None


class TestLedgerExactness:
    def test_tile_records_tagged_with_chunk_index(self):
        _, world = run_training(2, steps=1)
        tiles = [r for r in world.ledger.records if r.tile is not None]
        assert tiles
        for record in tiles:
            index, count = record.tile
            assert 0 <= index < count


class TestKnobValidation:
    def test_train_config_rejects_bad_widths(self):
        with pytest.raises(ValueError):
            TrainConfig(global_batch_size=2, tile_tokens=0)

    def test_trainer_rejects_non_divisor_width_at_build(self):
        model = MoETransformer(tiny_model_config(), seed=0,
                               dtype=np.float64)
        train = TrainConfig(global_batch_size=2, micro_batch_size=2,
                            seq_len=SEQ, tile_tokens=3)
        trainer = MegaScaleTrainer(model, World(RANKS, RANKS),
                                   ParallelConfig(RANKS), train)
        with pytest.raises(ValueError, match="divisors"):
            trainer.train_step(np.zeros((2, SEQ + 1), dtype=np.int64))

    def test_program_cache_keys_on_tile_width(self):
        trainer, _ = run_training(2, steps=1)
        engine = trainer.engines[0]
        tiled = engine.executor_for(2, SEQ).program
        assert tiled.tiled
        engine.tile_tokens = None
        assert not engine.executor_for(2, SEQ).program.tiled
        engine.tile_tokens = 2
        assert engine.executor_for(2, SEQ).program is tiled

    def test_verify_case_validation_and_id(self):
        case = VerifyCase(tile_tokens=2)
        assert "tt2" in case.case_id
        assert case.untiled_twin().tile_tokens is None
        with pytest.raises(ValueError, match="divide"):
            VerifyCase(tile_tokens=3)


class TestSimAndCalibration:
    def test_sim_timeline_matches_traced_tile_stream(self):
        """The simulator replays the same tile stream the execution
        traced: per tiled op, simulated start order == traced span
        order, and the full simulated order is tile-conformant."""
        from repro.obs.tracer import Tracer

        tracer = Tracer()
        trainer, _ = run_training(2, steps=1, tracer=tracer)
        program = trainer.engines[0].executor_for(2, SEQ).program
        timeline = simulate(program.tile_tasks)
        sim_order = task_order(timeline)
        assert tile_conformance_problems(program, sim_order) == []

        traced = [s.name[len(TILE_SPAN_PREFIX):] for s in tracer.spans
                  if s.name.startswith(TILE_SPAN_PREFIX)]
        assert traced, "no dag.tile spans traced"
        executed = trainer.engines[0].last_executed_tiles
        # A traced op's spans cycle ascending once per chunked
        # collective call (qkv moves three tensors); the simulator and
        # the executed stream play each op's tiles ascending once.
        for base in {base_op_name(t) for t in traced}:
            tiles = [t for t in traced if base_op_name(t) == base]
            count = len(set(tiles))
            want = [tile_name(base, i) for i in range(count)]
            assert len(tiles) % count == 0
            assert tiles == want * (len(tiles) // count)
            assert [t for t in sim_order
                    if base_op_name(t) == base] == want
            assert [t for t in executed
                    if base_op_name(t) == base] == want

    def test_calibration_covers_tile_sub_ops(self):
        from repro.obs.tracer import Tracer

        tracer = Tracer()
        trainer, _ = run_training(2, steps=1, tracer=tracer)
        program = trainer.engines[0].executor_for(2, SEQ).program
        km = KernelModel(GPU_SPECS["h800"])
        # dag.op: spans cover bindings whose base op was decomposed —
        # the expansion must land on the tile sub-ops.
        by_op = calibrate_from_spans(km, program.tile_graph,
                                     tracer.spans)
        assert any("#t" in name for name in by_op.op_anchor)
        # dag.tile: spans measure each comm tile directly.
        by_tile = calibrate_from_spans(km, program.tile_graph,
                                       tracer.spans,
                                       prefix=TILE_SPAN_PREFIX)
        assert by_tile.anchors
        for anchor, cal in by_tile.anchors.items():
            assert cal.ops == (anchor,)
            assert program.tile_graph[anchor].kind == "comm"
            assert cal.scale > 0.0


def _traced_tiled_program(tile_tokens):
    """One traced tiled training step; returns (program, tracer,
    executed tile stream)."""
    from repro.obs.tracer import Tracer

    tracer = Tracer()
    trainer, _ = run_training(tile_tokens, steps=1, tracer=tracer)
    engine = trainer.engines[0]
    program = engine.executor_for(2, SEQ).program
    return program, tracer, engine.last_executed_tiles


def test_sim_timeline_matches_traced_tile_order():
    """The simulated tile schedule and the traced/executed stream agree
    per op: same ascending §4.2 chunk order."""
    from repro.core.operators import tile_name

    program, tracer, executed = _traced_tiled_program(2)
    sim_order = task_order(simulate(program.tile_tasks))
    assert tile_conformance_problems(program, sim_order) == []
    traced = [s.name[len(TILE_SPAN_PREFIX):] for s in tracer.spans
              if s.name.startswith(TILE_SPAN_PREFIX)]
    assert traced
    for base in {base_op_name(t) for t in traced}:
        tiles = [t for t in traced if base_op_name(t) == base]
        count = len(set(tiles))
        want = [tile_name(base, i) for i in range(count)]
        assert tiles == want * (len(tiles) // count)
        assert [t for t in sim_order
                if base_op_name(t) == base] == want
        assert [t for t in executed
                if base_op_name(t) == base] == want
