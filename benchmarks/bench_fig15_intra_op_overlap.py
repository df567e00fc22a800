"""Figure 15 — intra-operator overlap: fused vs sequential op pairs.

Paper setup: four key communication+computation pairs per layer in the
forward pass — (i) QKV Projection + all-to-all, (ii) all-to-all + Output
Projection, (iii) all-gather + scatter + GroupedGEMM, (iv) GroupedGEMM +
gather + reduce-scatter — across the six Table 2 models.  Paper results:
the fused kernels cut the combined time by 1.2–4.7×, and intra-operator
overlap alone trims iteration time by 7.1–12.9%.
"""

import numpy as np
import pytest

from conftest import report
from repro.comm.group import World
from repro.core.config import GPU_SPECS, MODEL_ZOO, ModelConfig, \
    ParallelConfig, TrainConfig
from repro.core.operators import build_forward_graph
from repro.core.schedule import FusedKernel, OverlapConfig
from repro.core.trainer import MegaScaleTrainer
from repro.model.transformer import MoETransformer
from repro.obs.tracer import Tracer
from repro.perf.estimator import (TILE_SPAN_PREFIX, KernelModel,
                                  calibrate_from_spans,
                                  calibrated_durations)
from repro.perf.systems import MegaScalePerfModel
from repro.runtime.dag_executor import tile_conformance_problems
from repro.sim.engine import SimTask, simulate

GPU = GPU_SPECS["h800"]
MODELS = ["internal-352b", "mixtral-8x7b", "mixtral-8x22b",
          "hunyuan-large", "phi-3.5-moe", "deepseekmoe"]

PAIRS = {
    "QKV+A2A": ("gemm+a2a", ["qkv_proj"], ["qkv_a2a"]),
    "A2A+OutProj": ("a2a+gemm", ["out_proj"], ["attn_a2a"]),
    "AG+scatter+GroupedGEMM": ("ag+scatter+ggemm",
                               ["scatter", "fc1"], ["ffn_ag"]),
    "GroupedGEMM+gather+RS": ("ggemm+gather+rs",
                              ["fc2", "gather"], ["ffn_rs"]),
}


def pair_times(model_name):
    """Sequential vs fused time for each §4.2 kernel pair."""
    model = MODEL_ZOO[model_name]
    km = KernelModel(GPU)
    # Force AG/RS dispatch so all four pairs exist in the graph.
    graph = build_forward_graph(
        model, ParallelConfig.megascale(8, ep_dispatch="ag_rs"), 1)
    durations = km.durations(graph)
    out = {}
    for label, (_, compute_names, comm_names) in PAIRS.items():
        compute = sum(durations[n] for n in compute_names if n in graph)
        comm = sum(durations[n] for n in comm_names if n in graph)
        kernel = FusedKernel(label, [], comm_time=comm,
                             compute_time=compute)
        out[label] = (kernel.sequential_duration, kernel.duration)
    return out


def run_fig15():
    pair_results = {name: pair_times(name) for name in MODELS}

    # Iteration-time gain from intra-op overlap alone (right panel).
    iter_gains = {}
    train = TrainConfig(global_batch_size=32)
    for name in MODELS:
        model = MODEL_ZOO[name].scaled(n_layers=4)
        pc = ParallelConfig.megascale(8, 1, 4)
        full = MegaScalePerfModel().iteration(model, pc, train, GPU)
        inter_only = MegaScalePerfModel(
            overlap=OverlapConfig(inter_op=True, intra_op=False)
        ).iteration(model, pc, train, GPU)
        iter_gains[name] = 1 - full.iteration_time \
            / inter_only.iteration_time
    return pair_results, iter_gains


# -- measured path: execute, trace, calibrate, simulate ----------------------
#
# The analytic path above *models* the §4.2 fused kernels; the measured
# path runs a real tiled DAG training step, calibrates per-tile
# durations from the ``dag.tile:``/``dag.op:`` spans the execution
# traced, and replays each fused group through the event simulator —
# tiled (comm tile i overlapping compute tile i-1's successor) vs
# strictly sequential.  The speedups below are therefore grounded in
# wall-clock measurements of this testbed, not just the roofline model.

#: The four §4.2 fused kernels as tile-decomposed groups of the
#: AG/RS-dispatch MegaScale graph.
MEASURED_PAIRS = {
    "a2a+attn/fwd": "A2A + Attention",
    "a2a+gemm/fwd": "A2A + OutProj",
    "ag+scatter+ggemm/fwd": "AG + scatter + GroupedGEMM",
    "ggemm+gather+rs/fwd": "GroupedGEMM + gather + RS",
}

_MEASURED_RANKS = 4
_MEASURED_SEQ = 16


def _traced_tiled_program(tile_tokens):
    """One traced tiled training step; returns (program, tracer,
    executed tile stream)."""
    config = ModelConfig("bench-fig15", 2, 32, 8, 2, 48, 8, 2,
                         vocab_size=64, seq_len=_MEASURED_SEQ)
    model = MoETransformer(config, seed=0, dtype=np.float64)
    world = World(_MEASURED_RANKS, _MEASURED_RANKS)
    world.tracer = tracer = Tracer()
    train = TrainConfig(global_batch_size=2, micro_batch_size=2,
                        seq_len=_MEASURED_SEQ, tile_tokens=tile_tokens)
    trainer = MegaScaleTrainer(
        model, world,
        ParallelConfig.megascale(_MEASURED_RANKS, ep_dispatch="ag_rs"),
        train)
    rng = np.random.default_rng(0)
    trainer.train_step(rng.integers(0, 64, size=(2, _MEASURED_SEQ + 1)))
    engine = trainer.engines[0]
    program = engine.executor_for(2, _MEASURED_SEQ).program
    return program, tracer, engine.last_executed_tiles


def _calibrated_tile_durations(program, tracer):
    """Span-calibrated per-tile durations: ``dag.op:`` spans fit the
    (tile-expanded) binding anchors, ``dag.tile:`` spans then pin each
    comm tile directly."""
    km = KernelModel(GPU)
    merged = calibrate_from_spans(km, program.tile_graph, tracer.spans)
    per_tile = calibrate_from_spans(km, program.tile_graph, tracer.spans,
                                    prefix=TILE_SPAN_PREFIX)
    merged.anchors.update(per_tile.anchors)
    merged.op_anchor.update(per_tile.op_anchor)
    return calibrated_durations(km, program.tile_graph, merged)


def _group_members(program, key):
    """Tile sub-ops of one fused group, in graph order."""
    return [op.name for op in program.tile_graph
            if op.tile is not None
            and f"{op.fuse_group}/{op.phase}" == key]


def measured_pair_times(tile_tokens=2):
    """Measured sequential vs tiled time per §4.2 fused group.

    Returns ``{label: (sequential_s, tiled_s)}`` where sequential runs
    the group's tiles back-to-back and tiled pipelines them on separate
    comm/compute streams with the tile graph's real dependencies.
    """
    program, tracer, executed = _traced_tiled_program(tile_tokens)
    assert tile_conformance_problems(program, executed) == []
    durations = _calibrated_tile_durations(program, tracer)
    out = {}
    for key, label in MEASURED_PAIRS.items():
        members = _group_members(program, key)
        if not members:
            continue
        member_set = set(members)
        tasks = [
            SimTask(name, durations[name],
                    "comm" if program.tile_graph[name].kind == "comm"
                    else "compute",
                    tuple(d for d in program.tile_graph[name].deps
                          if d in member_set),
                    program.tile_graph[name].kind == "comm")
            for name in members
        ]
        out[label] = (sum(durations[n] for n in members),
                      simulate(tasks).makespan)
    return out


def tile_width_sweep(widths=(1, 2, 4)):
    """Measured per-group tiled time across token-chunk widths."""
    sweep = {}
    for width in widths:
        sweep[width] = measured_pair_times(tile_tokens=width)
    return sweep


@pytest.mark.benchmark(group="fig15")
def test_fig15_measured_tile_overlap(benchmark):
    """Measured (span-calibrated) fused-vs-sequential §4.2 speedups."""
    sweep = benchmark(tile_width_sweep)

    table = []
    for width, pairs in sweep.items():
        for label, (seq_t, tiled_t) in pairs.items():
            table.append([f"tt={width}", label, seq_t * 1e6,
                          tiled_t * 1e6, f"{seq_t / tiled_t:.2f}x"])
    report(
        "Fig. 15 (measured): tiled vs sequential fused groups (us)",
        ["tile width", "kernel pair", "sequential", "tiled",
         "speedup"],
        table,
        notes="span-calibrated from a traced tiled DAG run; "
              "paper: 1.2-4.7x",
    )

    # Every §4.2 pair must gain from tiling at the default width.
    pairs = sweep[2]
    assert set(pairs) == set(MEASURED_PAIRS.values())
    for label, (seq_t, tiled_t) in pairs.items():
        assert tiled_t > 0.0
        assert seq_t / tiled_t > 1.0, (label, seq_t, tiled_t)
    # The widest chunk (one tile per dense group) still tiles the
    # rank-swizzled EP groups.
    assert "AG + scatter + GroupedGEMM" in sweep[4]


def test_sim_timeline_matches_traced_tile_order():
    """The simulated tile schedule and the traced/executed stream agree
    per op: same ascending §4.2 chunk order."""
    from repro.core.operators import base_op_name, tile_name

    program, tracer, executed = _traced_tiled_program(2)
    sim_order = simulate(program.tile_tasks).task_order()
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


@pytest.mark.benchmark(group="fig15")
def test_fig15_intra_op_overlap(benchmark):
    pair_results, iter_gains = benchmark(run_fig15)

    table = []
    for name in MODELS:
        for label, (seq, fused) in pair_results[name].items():
            table.append([name, label, seq * 1e6, fused * 1e6,
                          f"{seq / fused:.2f}x"])
    report(
        "Fig. 15: fused vs sequential comm+compute pairs (us)",
        ["model", "kernel pair", "sequential", "fused", "reduction"],
        table,
        notes="paper: 1.2-4.7x combined-time reduction",
    )
    report(
        "Fig. 15 (right): iteration-time gain from intra-op overlap",
        ["model", "gain"],
        [[name, f"{gain * 100:.1f}%"]
         for name, gain in iter_gains.items()],
        notes="paper: 7.1%-12.9% iteration-time reduction",
    )

    ratios = [seq / fused
              for pairs in pair_results.values()
              for seq, fused in pairs.values()]
    # Every pair benefits; reductions fall in the paper's 1.2-4.7 band
    # (allowing the fill/drain floor of ~1.1 at the low end).
    assert min(ratios) > 1.05
    assert max(ratios) < 4.7
    assert max(ratios) > 1.5  # some pairs gain a lot
    for name, gain in iter_gains.items():
        assert 0.02 < gain < 0.20, (name, gain)
