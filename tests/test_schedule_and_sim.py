"""Tests for the event simulator and the holistic scheduler (§4)."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import MODEL_ZOO, ParallelConfig
from repro.core.operators import (
    Op,
    OpGraph,
    build_backward_graph,
    build_forward_graph,
    plan_tiles,
    tile_forward_graph,
)
from repro.core.schedule import (
    FUSION_FILL_DRAIN,
    FusedKernel,
    HolisticScheduler,
    OverlapConfig,
)
from repro.perf.estimator import KernelModel
from repro.core.config import GPU_SPECS
from repro.sim.engine import SimTask, simulate
from conftest import record_of

MODEL = MODEL_ZOO["mixtral-8x7b"]
GPU = GPU_SPECS["h800"]


class TestSimulator:
    def test_sequential_chain(self):
        tasks = [
            SimTask("a", 1.0, "s"),
            SimTask("b", 2.0, "s", deps=("a",)),
        ]
        tl = simulate(tasks)
        assert tl.makespan == 3.0
        assert record_of(tl, "b").start == 1.0

    def test_parallel_streams_overlap(self):
        tasks = [
            SimTask("compute", 3.0, "compute"),
            SimTask("comm", 2.0, "comm", is_comm=True),
        ]
        tl = simulate(tasks)
        assert tl.makespan == 3.0
        assert tl.exposed_comm == 0.0

    def test_exposed_comm_counts_uncovered_time(self):
        tasks = [
            SimTask("comm", 2.0, "comm", is_comm=True),
            SimTask("compute", 3.0, "compute", deps=("comm",)),
        ]
        tl = simulate(tasks)
        assert tl.makespan == 5.0
        assert tl.exposed_comm == 2.0

    def test_exposed_comm_unions_compute_streams(self):
        tasks = [
            SimTask("c1", 2.0, "s1"),
            SimTask("c2", 2.0, "s2"),  # overlaps c1 entirely
            SimTask("comm", 1.0, "comm", is_comm=True, deps=("c1", "c2")),
        ]
        tl = simulate(tasks)
        assert tl.exposed_comm == pytest.approx(1.0)

    def test_stream_in_order_blocking(self):
        """A ready task queued behind a blocked one must wait — CUDA
        stream semantics."""
        tasks = [
            SimTask("slow", 5.0, "other"),
            SimTask("blocked", 1.0, "s", deps=("slow",)),
            SimTask("ready", 1.0, "s"),  # queued after 'blocked'
        ]
        tl = simulate(tasks)
        assert record_of(tl, "ready").start == 6.0

    def test_deadlock_detection(self):
        tasks = [
            SimTask("a", 1.0, "s1", deps=("b",)),
            SimTask("b", 1.0, "s2", deps=("a",)),
        ]
        with pytest.raises(ValueError, match="deadlock"):
            simulate(tasks)

    def test_unknown_dep(self):
        with pytest.raises(ValueError, match="unknown task"):
            simulate([SimTask("a", 1.0, "s", deps=("ghost",))])

    def test_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            simulate([SimTask("a", 1.0, "s"), SimTask("a", 1.0, "t")])

    def test_negative_duration(self):
        with pytest.raises(ValueError, match="negative"):
            SimTask("a", -1.0, "s")


class TestFusedKernel:
    def test_duration_max_plus_fill_drain(self):
        k = FusedKernel("f", [], comm_time=2.0, compute_time=5.0)
        assert k.duration == pytest.approx(5.0 + FUSION_FILL_DRAIN * 2.0)
        assert k.sequential_duration == 7.0

    def test_fusion_always_wins_when_balanced(self):
        k = FusedKernel("f", [], comm_time=3.0, compute_time=3.0)
        assert k.duration < k.sequential_duration


class TestHolisticScheduler:
    def durations(self, graph):
        return KernelModel(GPU).durations(graph)

    def makespan(self, graph, overlap):
        sched = HolisticScheduler(overlap)
        return simulate(sched.schedule(graph, self.durations(graph)))

    @pytest.mark.parametrize("parallel", [
        ParallelConfig.megascale(8, ep_dispatch="a2a"),
        ParallelConfig.megascale(8, ep_dispatch="ag_rs"),
        ParallelConfig.megatron(8),
    ], ids=lambda p: f"{p.strategy_name}-{p.ep_dispatch}")
    def test_overlap_strictly_ordered(self, parallel):
        """makespan(full) <= makespan(inter-only) <= makespan(none) for
        both passes — the §4 hierarchy of optimizations."""
        fwd = build_forward_graph(MODEL, parallel, 1)
        for graph in (fwd, build_backward_graph(fwd)):
            none = self.makespan(graph, OverlapConfig.none()).makespan
            inter = self.makespan(
                graph, OverlapConfig(inter_op=True,
                                     intra_op=False)).makespan
            full = self.makespan(graph, OverlapConfig.full()).makespan
            assert full <= inter * (1 + 1e-9)
            assert inter <= none * (1 + 1e-9)

    def test_no_overlap_equals_sum_of_durations(self):
        graph = build_forward_graph(MODEL, ParallelConfig.megascale(8), 1)
        durations = self.durations(graph)
        tl = self.makespan(graph, OverlapConfig.none())
        assert tl.makespan == pytest.approx(sum(durations.values()))

    def test_full_overlap_hides_most_comm(self):
        """With intra-op fusion the exposed communication of a MegaScale
        forward layer approaches zero (§4.2)."""
        graph = build_forward_graph(
            MODEL, ParallelConfig.megascale(8, ep_dispatch="ag_rs"), 1)
        tl = self.makespan(graph, OverlapConfig.full())
        none = self.makespan(graph, OverlapConfig.none())
        comm_total = sum(self.durations(graph)[op.name]
                         for op in graph.comm_ops())
        assert tl.exposed_comm < 0.2 * comm_total

    def test_megatron_exposes_all_comm(self):
        graph = build_forward_graph(MODEL, ParallelConfig.megatron(8), 1)
        tl = self.makespan(graph, OverlapConfig.none())
        comm_total = sum(self.durations(graph)[op.name]
                         for op in graph.comm_ops())
        assert tl.exposed_comm == pytest.approx(comm_total, rel=1e-6)

    def test_remat_hidden_under_communication(self):
        """Backward with selective remat costs at most a few percent
        more than without, despite re-running ops (§4.1, Fig. 16)."""
        pc = ParallelConfig.megascale(8, ep_dispatch="ag_rs")
        fwd = build_forward_graph(MODEL, pc, 1)
        with_remat = build_backward_graph(fwd, selective_remat=True)
        without = build_backward_graph(fwd, selective_remat=False)
        t_with = self.makespan(with_remat, OverlapConfig.full()).makespan
        t_without = self.makespan(without, OverlapConfig.full()).makespan
        assert t_with <= t_without * 1.05

    @pytest.mark.parametrize("path,tile_tokens,makespan,exposed", [
        ("holistic", None, 4.291637158007476e-3, 0.0),
        ("layer_program", None, 2.877126389763235e-3, 0.0),
        ("layer_program", 128, 9.87383940682031e-3, 2.982581155922693e-4),
    ])
    def test_352b_layer_forward_pinned(self, path, tile_tokens, makespan,
                                       exposed):
        """The simulated 352B SP+EP ag_rs layer forward at n=8 is a
        closed form of the roofline model and the event simulator (no
        wall clock): any drift is a deliberate model change."""
        from repro.core.executor_bindings import layer_program

        model = MODEL_ZOO["internal-352b"]
        pc = ParallelConfig.megascale(8, ep_dispatch="ag_rs")
        if path == "holistic":
            tl = self.makespan(build_forward_graph(model, pc, 1),
                               OverlapConfig.full())
        else:
            program = layer_program(model, pc, 1, 4096,
                                    tile_tokens=tile_tokens)
            tl = simulate(program.tile_tasks if tile_tokens
                          else program.tasks)
        assert tl.makespan == pytest.approx(makespan, rel=1e-12)
        assert tl.exposed_comm == pytest.approx(exposed, rel=1e-12)

    def test_missing_duration_rejected(self):
        graph = build_forward_graph(MODEL, ParallelConfig.megascale(8), 1)
        sched = HolisticScheduler(OverlapConfig.full())
        with pytest.raises(KeyError, match="no duration"):
            sched.schedule(graph, {})

    def test_fused_units_replace_members(self):
        graph = build_forward_graph(
            MODEL, ParallelConfig.megascale(8, ep_dispatch="ag_rs"), 1)
        sched = HolisticScheduler(OverlapConfig.full())
        tasks = sched.schedule(graph, self.durations(graph))
        names = {t.name for t in tasks}
        assert any(n.startswith("fused:") for n in names)
        assert "ffn_ag" not in names  # absorbed into the fused kernel

    def test_schedule_is_simulatable_for_all_strategies(self):
        for parallel in (ParallelConfig.megascale(8),
                         ParallelConfig.megatron(8),
                         ParallelConfig(8, "sp", "tp"),
                         ParallelConfig(8, "tp", "ep")):
            for remat in (True, False):
                graph = build_backward_graph(
                    build_forward_graph(MODEL, parallel, 1),
                    selective_remat=remat)
                tl = self.makespan(graph, OverlapConfig.full())
                assert tl.makespan > 0


def _reference_list_schedule(units):
    """The quadratic scan the heap scheduler replaced: rescan every
    pending unit per step, keep the strictly smallest (start, -crit)."""
    by_name = {u[0]: u for u in units}
    children = {u[0]: [] for u in units}
    for name, _, _, _, deps in units:
        for d in deps:
            children[d].append(name)
    out_degree = {u[0]: len(children[u[0]]) for u in units}
    ready = [name for name, deg in out_degree.items() if deg == 0]
    crit = {}
    while ready:
        name = ready.pop()
        crit[name] = by_name[name][1] + max(
            (crit[c] for c in children[name]), default=0.0)
        for dep in by_name[name][4]:
            out_degree[dep] -= 1
            if out_degree[dep] == 0:
                ready.append(dep)

    finish, stream_free = {}, {}
    pending = list(units)
    ordered = []
    while pending:
        best, best_key = None, None
        for u in pending:
            name, dur, is_comm, scope, deps = u
            if any(d not in finish for d in deps):
                continue
            stream = f"comm_{scope}" if is_comm else "compute"
            start = max(stream_free.get(stream, 0.0),
                        max((finish[d] for d in deps), default=0.0))
            key = (start, -crit[name])
            if best_key is None or key < best_key:
                best, best_key = u, key
        name, dur, is_comm, scope, deps = best
        stream = f"comm_{scope}" if is_comm else "compute"
        finish[name] = best_key[0] + dur
        stream_free[stream] = best_key[0] + dur
        ordered.append(best)
        pending.remove(best)
    return ordered


def _reference_schedule(units):
    """The reference order as tasks, timed by the simulator."""
    tasks = [SimTask(name, dur, f"comm_{scope}" if is_comm else "compute",
                     deps, is_comm)
             for name, dur, is_comm, scope, deps
             in _reference_list_schedule(units)]
    return tasks, simulate(tasks)


def _zoo_graphs():
    for model_name, model in MODEL_ZOO.items():
        for parallel in (ParallelConfig(n, attention, ffn,
                                        ep_dispatch=dispatch)
                         for n in (1, 2, 4, 8)
                         for attention in ("sp", "tp")
                         for ffn, dispatch in (("ep", "a2a"),
                                               ("ep", "ag_rs"),
                                               ("tp", "adaptive"))):
            label = (f"{model_name}-{parallel.strategy_name}"
                     f"-n{parallel.model_parallel_size}"
                     f"-{parallel.ep_dispatch}")
            fwd = build_forward_graph(model, parallel, 1)
            yield label + "-fwd", fwd
            yield label + "-bwd", build_backward_graph(fwd)


def _random_graph(seed, n_ops=40):
    """A seeded random DAG: compute and intra/inter comm ops, some
    comm -> compute pairs sharing a fuse group."""
    rng = np.random.default_rng(seed)
    ops = []
    for i in range(n_ops):
        n_deps = int(rng.integers(0, min(i, 3) + 1))
        deps = tuple(f"op{j}" for j in sorted(set(
            rng.choice(i, size=n_deps, replace=False).tolist())))
        prev = ops[-1] if ops else None
        if (prev is not None and prev.kind == "comm"
                and not prev.fuse_group and rng.random() < 0.5):
            ops[-1] = replace(prev, fuse_group=f"g{i}")
            ops.append(Op(f"op{i}", "gemm", deps=(prev.name,),
                          fuse_group=f"g{i}"))
        elif rng.random() < 0.4:
            ops.append(Op(f"op{i}", "comm", comm_pattern="a2a",
                          comm_scope=str(rng.choice(["intra", "inter"])),
                          deps=deps))
        else:
            ops.append(Op(f"op{i}", str(rng.choice(["gemm", "memory"])),
                          deps=deps))
    return OpGraph(ops)


def _tie_heavy_durations(graph, seed):
    rng = np.random.default_rng(seed)
    return {op.name: float(rng.choice([0.0, 0.5, 1.0, 2.0]))
            for op in graph}


class TestListScheduleEquivalence:
    """The O(U log U) heap scheduler picks exactly the unit the
    quadratic scan picked at every step: earliest start, then higher
    criticality, then earlier position — and its placement is the
    simulator's timeline of that order."""

    @staticmethod
    def both(graph, durations, intra, monkeypatch):
        sched = HolisticScheduler(OverlapConfig.full())
        heap = sched._schedule(graph, durations, intra=intra)
        with monkeypatch.context() as m:
            m.setattr(HolisticScheduler, "_list_schedule",
                      staticmethod(_reference_schedule))
            reference = sched._schedule(graph, durations, intra=intra)
        return heap, reference

    @pytest.mark.parametrize("intra", [True, False],
                             ids=["fused", "unfused"])
    def test_zoo_graphs_match_reference(self, intra, monkeypatch):
        checked = 0
        for label, graph in _zoo_graphs():
            for durations in (KernelModel(GPU).durations(graph),
                              _tie_heavy_durations(graph, checked)):
                heap, reference = self.both(graph, durations, intra,
                                            monkeypatch)
                assert heap == reference, label
                checked += 1
        assert checked == 2 * 2 * 24 * len(MODEL_ZOO)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_tie_heavy_dags_match_reference(self, seed,
                                                   monkeypatch):
        graph = _random_graph(seed)
        durations = _tie_heavy_durations(graph, seed)
        for intra in (True, False):
            heap, reference = self.both(graph, durations, intra,
                                        monkeypatch)
            assert heap == reference

    def test_schedule_timeline_is_the_simulated_schedule(self):
        graph = build_forward_graph(
            MODEL, ParallelConfig.megascale(8, ep_dispatch="ag_rs"), 1)
        durations = KernelModel(GPU).durations(graph)
        for overlap in (OverlapConfig.full(), OverlapConfig.none()):
            sched = HolisticScheduler(overlap)
            tasks, timeline = sched.schedule_timeline(graph, durations)
            assert tasks == sched.schedule(graph, durations)
            assert timeline.records == simulate(tasks).records

    def test_unknown_and_cyclic_units_rejected(self):
        with pytest.raises(ValueError, match="depends on unknown unit"):
            HolisticScheduler._list_schedule(
                [("a", 1.0, False, "intra", ("ghost",))])
        with pytest.raises(ValueError, match="cyclic dependencies"):
            HolisticScheduler._list_schedule(
                [("a", 1.0, False, "intra", ("b",)),
                 ("b", 1.0, True, "intra", ("a",))])


def _strategy_graphs():
    """Forward and both remat backward graphs over the zoo, every
    strategy and dispatch mode at n = 2 and 8, and the tiled forward
    graphs of the shapes whose fuse groups tile."""
    for model_name, model in MODEL_ZOO.items():
        for n, attention, (ffn, dispatch) in itertools.product(
                (2, 8), ("sp", "tp"),
                (("ep", "a2a"), ("ep", "ag_rs"), ("tp", "adaptive"))):
            parallel = ParallelConfig(n, attention, ffn,
                                      ep_dispatch=dispatch)
            label = (f"{model_name}-{parallel.strategy_name}"
                     f"-n{n}-{dispatch}")
            fwd = build_forward_graph(model, parallel, 1)
            yield label + "-fwd", fwd
            for remat in (True, False):
                yield (f"{label}-bwd-remat={remat}",
                       build_backward_graph(fwd, selective_remat=remat))
            plan = plan_tiles(fwd, n, model.seq_len,
                              model.seq_len // n // 4)
            if plan.group_tiles:
                yield label + "-tiled", tile_forward_graph(fwd, plan)


class TestScheduleIsTheTimeline:
    """The scheduler's placement is the simulator's timeline: record for
    record, makespan and exposed comm, so no schedule is simulated
    twice."""

    OVERLAPS = {
        "full": OverlapConfig.full(),
        "inter-only": OverlapConfig(inter_op=True, intra_op=False),
        "none": OverlapConfig.none(),
    }

    @pytest.mark.parametrize("overlap", list(OVERLAPS))
    def test_timeline_equals_simulate(self, overlap):
        sched = HolisticScheduler(self.OVERLAPS[overlap])
        tiled = 0
        for label, graph in _strategy_graphs():
            tiled += label.endswith("-tiled")
            durations = KernelModel(GPU).durations(graph)
            tasks, timeline = sched.schedule_timeline(graph, durations)
            oracle = simulate(tasks)
            assert timeline.records == oracle.records, label
            assert timeline.makespan == oracle.makespan, label
            assert timeline.exposed_comm == oracle.exposed_comm, label
            assert tasks == sched.schedule(graph, durations), label
        assert tiled >= len(MODEL_ZOO)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_tie_heavy_dags(self, seed):
        graph = _random_graph(seed)
        durations = _tie_heavy_durations(graph, seed)
        for overlap in self.OVERLAPS.values():
            tasks, timeline = HolisticScheduler(
                overlap).schedule_timeline(graph, durations)
            assert timeline == simulate(tasks)
            assert timeline.exposed_comm == simulate(tasks).exposed_comm

    @pytest.mark.parametrize("place", ["_list_schedule", "_in_order"])
    def test_simulator_input_checks_hold(self, place):
        place = getattr(HolisticScheduler, place)
        with pytest.raises(ValueError, match="duplicate unit name"):
            place([("a", 1.0, False, "intra", ()),
                   ("a", 1.0, True, "intra", ())])
        with pytest.raises(ValueError, match="depends on unknown unit"):
            place([("a", 1.0, False, "intra", ("ghost",))])

    def test_single_stream_misorder_deadlocks(self):
        with pytest.raises(ValueError, match="deadlocked"):
            HolisticScheduler._in_order(
                [("a", 1.0, False, "intra", ("b",)),
                 ("b", 1.0, True, "intra", ())])

    def test_fused_unit_names_are_unique(self):
        for label, graph in _strategy_graphs():
            durations = KernelModel(GPU).durations(graph)
            units, _ = HolisticScheduler()._fuse(graph, durations)
            names = [u[0] for u in units]
            assert len(names) == len(set(names)), label

