"""Plan-space optimizer tests: ClusterSpec, tiered pricing, the
feasibility-filtered enumerator, the MoNTA cross-node-traffic check,
the fp8 dispatch-crossover shift, and the composed plan+schedule
search."""

import hashlib
import json
import random

import pytest

from repro.comm.cost import (
    LinkSpec,
    all_to_all_time,
    cross_node_fraction,
    ring_all_gather_time,
    tiered_all_to_all_time,
    tiered_ring_time,
)
from repro.core.autoschedule import _placer, optimize_plan
from repro.core.cluster import ClusterSpec
from repro.core.config import (
    GPU_SPECS,
    MODEL_ZOO,
    ModelConfig,
    ParallelConfig,
    TrainConfig,
)
from repro.core.planner import (
    NoFeasiblePlan,
    PlanCandidate,
    _cross_node_a2a_bytes,
    dispatch_crossover_top_k,
    dispatch_mode_times,
    plan_cluster,
)
from repro.core.schedule import HolisticScheduler
from repro.perf.estimator import CalibrationReport, KernelModel
from repro.perf import systems
from repro.perf.systems import MegaScalePerfModel, SystemPerfModel
from repro.sim.engine import SimTask
from conftest import enumerate_plans

H800 = GPU_SPECS["h800"]
MIXTRAL = MODEL_ZOO["mixtral-8x7b"]
SMALL = MODEL_ZOO["mixtral-8x2b"]
LINK = LinkSpec(bandwidth=168e9, latency=1e-5, a2a_efficiency=0.6)


# ---------------------------------------------------------------------------
# ClusterSpec
# ---------------------------------------------------------------------------


class TestClusterSpec:
    def test_homogeneous_shape(self):
        c = ClusterSpec.homogeneous("h800", n_nodes=4, gpus_per_node=8)
        assert c.n_nodes == 4
        assert c.n_gpus == 32
        assert not c.is_heterogeneous
        assert c.bottleneck_gpu() is H800

    def test_default_links_derive_from_gpu(self):
        c = ClusterSpec.homogeneous("h800", n_nodes=2)
        assert c.intra_link.bandwidth == pytest.approx(
            H800.nvlink_bandwidth * 0.42)
        assert c.inter_link.bandwidth == pytest.approx(
            H800.nic_bandwidth)

    def test_mixed_fleet_bottleneck_is_elementwise_min(self):
        c = ClusterSpec(name="mix", gpus_per_node=8,
                        node_gpus=("h800", "a100", "h20"))
        assert c.is_heterogeneous
        g = c.bottleneck_gpu()
        for attr in ("peak_flops", "memory_bytes", "memory_bandwidth",
                     "nvlink_bandwidth", "nic_bandwidth", "sm_count"):
            assert getattr(g, attr) == min(
                getattr(GPU_SPECS[m], attr)
                for m in ("h800", "a100", "h20"))

    def test_cross_node_fraction(self):
        c = ClusterSpec.homogeneous("h800", n_nodes=2, gpus_per_node=4)
        assert c.cross_node_fraction(4) == 0.0
        assert c.cross_node_fraction(8) == pytest.approx(4 / 7)

    def test_json_round_trip(self, tmp_path):
        c = ClusterSpec(name="mix", gpus_per_node=4,
                        node_gpus=("h800", "a100"))
        path = tmp_path / "cluster.json"
        path.write_text(json.dumps({"name": "mix", "gpus_per_node": 4,
                                    "node_gpus": ["h800", "a100"]}))
        assert ClusterSpec.load(str(path)) == c

    def test_unknown_gpu_rejected(self):
        with pytest.raises(ValueError, match="unknown GPU"):
            ClusterSpec(name="x", gpus_per_node=8,
                        node_gpus=("h800", "tpu-v9"))

    def test_empty_nodes_rejected(self):
        with pytest.raises(ValueError, match="at least one node"):
            ClusterSpec(name="x", gpus_per_node=8, node_gpus=())

    def test_from_dict_missing_keys(self):
        with pytest.raises(ValueError, match="cluster spec needs"):
            ClusterSpec.from_dict({"name": "x"})

    def test_example_specs_load(self):
        for name in ("h800x2", "mixed_fleet"):
            with open(f"examples/clusters/{name}.json") as fh:
                spec = ClusterSpec.from_dict(json.load(fh))
            assert spec.n_gpus > 0


# ---------------------------------------------------------------------------
# Tiered collective pricing
# ---------------------------------------------------------------------------


class TestTieredCost:
    INTRA = LinkSpec(bandwidth=168e9, latency=1e-5, a2a_efficiency=0.6)
    INTER = LinkSpec(bandwidth=50e9, latency=2e-5, a2a_efficiency=0.6)

    def test_cross_node_fraction_formula(self):
        assert cross_node_fraction(8, 8) == 0.0
        assert cross_node_fraction(16, 8) == pytest.approx(8 / 15)
        assert cross_node_fraction(1, 8) == 0.0

    def test_node_local_a2a_collapses_to_intra(self):
        t = tiered_all_to_all_time(1e8, 8, 8, self.INTRA, self.INTER)
        assert t == pytest.approx(
            all_to_all_time(1e8, 8, self.INTRA))

    def test_spanning_a2a_is_max_of_tiers(self):
        n, r = 16, 8
        t = tiered_all_to_all_time(1e8, n, r, self.INTRA, self.INTER)
        cross = cross_node_fraction(n, r)
        t_inter = (8 * self.INTER.latency + 1e8 * cross
                   / (self.INTER.bandwidth * 0.6))
        assert t == pytest.approx(t_inter)  # NIC tier paces here
        # and always at least the intra share
        assert t >= 1e8 * (1 - cross) / (self.INTRA.bandwidth * 0.6)

    def test_spanning_ring_prices_at_inter_tier(self):
        local = tiered_ring_time(1e9, 8, 8, self.INTRA, self.INTER)
        spanning = tiered_ring_time(1e9, 16, 8, self.INTRA, self.INTER)
        assert local == pytest.approx(
            ring_all_gather_time(1e9, 8, self.INTRA))
        assert spanning == pytest.approx(
            ring_all_gather_time(1e9, 16, self.INTER))
        assert spanning > local

    def test_kernel_model_legacy_parity_when_group_fits(self):
        """cluster=None and a node-local cluster price identically."""
        c = ClusterSpec.homogeneous("h800", n_nodes=2)
        perf_legacy = MegaScalePerfModel()
        perf_tiered = MegaScalePerfModel(cluster=c)
        par = ParallelConfig.megascale(8, 1, 2)
        train = TrainConfig(global_batch_size=16)
        a = perf_legacy.iteration(MIXTRAL, par, train, H800)
        b = perf_tiered.iteration(MIXTRAL, par, train,
                                  c.bottleneck_gpu())
        assert a.iteration_time == pytest.approx(b.iteration_time)

    def test_spanning_mp_group_costs_more(self):
        c = ClusterSpec.homogeneous("h800", n_nodes=2)
        train = TrainConfig(global_batch_size=16)
        local = MegaScalePerfModel(cluster=c).iteration(
            MIXTRAL, ParallelConfig.megascale(8, 1, 2), train, H800)
        spanning = MegaScalePerfModel(cluster=c).iteration(
            MIXTRAL, ParallelConfig.megascale(16, 1, 1), train, H800)
        assert spanning.exposed_comm_time > local.exposed_comm_time
        assert spanning.iteration_time > local.iteration_time


# ---------------------------------------------------------------------------
# Enumerator + feasibility
# ---------------------------------------------------------------------------


class TestEnumerator:
    def test_candidates_respect_divisibility(self):
        c = ClusterSpec.homogeneous("h800", n_nodes=2)
        train = TrainConfig(global_batch_size=64, micro_batch_size=2)
        for cand in enumerate_plans(SMALL, c, train):
            par = cand.parallel
            n = par.model_parallel_size
            assert par.total_gpus == c.n_gpus
            assert SMALL.n_layers % par.pipeline_size == 0
            assert 64 % (par.data_parallel_size * 2) == 0
            if par.attention == "sp":
                assert SMALL.n_heads % n == 0
                assert SMALL.n_kv_heads % n == 0
            if par.ffn == "ep":
                assert SMALL.n_experts % n == 0

    def test_non_divisible_heads_exclude_sp(self):
        model = ModelConfig("odd-heads", 4, 96, 6, 2, 128, 8, 2,
                            vocab_size=256, seq_len=64)
        c = ClusterSpec.homogeneous("h800", n_nodes=1, gpus_per_node=4)
        train = TrainConfig(global_batch_size=16, micro_batch_size=1)
        plans = enumerate_plans(model, c, train)
        assert plans  # n=1 and n=2 still legal
        assert all(p.parallel.model_parallel_size != 4
                   or p.parallel.attention != "sp" for p in plans)

    def test_non_divisible_experts_exclude_ep(self):
        model = ModelConfig("odd-experts", 4, 64, 8, 2, 128, 6, 2,
                            vocab_size=256, seq_len=64)
        c = ClusterSpec.homogeneous("h800", n_nodes=1, gpus_per_node=4)
        train = TrainConfig(global_batch_size=16, micro_batch_size=1)
        plans = enumerate_plans(model, c, train)
        assert all(p.parallel.ffn != "ep" for p in plans
                   if p.parallel.model_parallel_size == 4)

    def test_coprime_nodes_and_layers_limit_pp(self):
        """n_layers=7 coprime with nodes=4: PP in {1, 7} only."""
        model = ModelConfig("coprime", 7, 64, 8, 2, 128, 8, 2,
                            vocab_size=256, seq_len=64)
        c = ClusterSpec.homogeneous("h800", n_nodes=4,
                                    gpus_per_node=2)
        train = TrainConfig(global_batch_size=64, micro_batch_size=1)
        pps = {p.parallel.pipeline_size
               for p in enumerate_plans(model, c, train)}
        assert pps <= {1, 7}

    def test_single_node_cluster_plans(self):
        c = ClusterSpec.homogeneous("h800", n_nodes=1)
        train = TrainConfig(global_batch_size=32, micro_batch_size=2)
        result = plan_cluster(SMALL, c, train)
        assert result.best.cross_node_a2a_bytes == 0.0
        assert result.best.candidate.parallel.total_gpus == 8

    def test_memory_infeasible_raises_typed_error(self):
        c = ClusterSpec.homogeneous("v100", n_nodes=1)
        train = TrainConfig(global_batch_size=32, micro_batch_size=2)
        with pytest.raises(NoFeasiblePlan) as exc:
            plan_cluster(MODEL_ZOO["internal-352b"], c, train)
        assert exc.value.n_enumerated > 0

    def test_infeasible_is_runtime_error_subclass(self):
        assert issubclass(NoFeasiblePlan, RuntimeError)

    def test_candidate_validation(self):
        with pytest.raises(ValueError, match="precision"):
            PlanCandidate(ParallelConfig.megascale(8), precision="int4")
        with pytest.raises(ValueError, match="remat"):
            PlanCandidate(ParallelConfig.megascale(8), remat="full")


# ---------------------------------------------------------------------------
# Plan search: MegaScale reproduction + MoNTA preference
# ---------------------------------------------------------------------------


class TestPlanSearch:
    def test_reproduces_megascale_choice_on_h800_nodes(self):
        """Paper's 8×H800 node shape → SP attention, EP FFN, a2a."""
        c = ClusterSpec.homogeneous("h800", n_nodes=4, gpus_per_node=8)
        train = TrainConfig(global_batch_size=512, micro_batch_size=2)
        result = plan_cluster(MIXTRAL, c, train)
        best = result.best.candidate.parallel
        assert best.attention == "sp"
        assert best.ffn == "ep"
        # top-k=2 on EP size 8 sits left of the Fig. 7 crossover.
        assert best.ep_dispatch == "a2a"
        assert best.model_parallel_size == 8
        assert result.best.cross_node_a2a_bytes == 0.0

    def test_two_node_search_pinned(self):
        """The plan_model workload's first search, pinned exactly: the
        plan-space shape and the winner's simulated iteration."""
        c = ClusterSpec.homogeneous("h800", n_nodes=2)
        train = TrainConfig(global_batch_size=64, micro_batch_size=2)
        result = plan_cluster(SMALL, c, train)
        assert (result.n_enumerated, result.n_feasible) == (216, 200)
        assert result.best.iteration_time == pytest.approx(
            2.0954872146864543, rel=1e-12)
        assert result.best.cross_node_a2a_bytes == 0.0

    def test_monta_prefers_low_cross_node_traffic(self):
        """Two-tier cluster: winner keeps dispatch inside the node and
        provably beats the node-spanning EP alternative."""
        c = ClusterSpec.homogeneous("h800", n_nodes=4, gpus_per_node=4)
        train = TrainConfig(global_batch_size=512, micro_batch_size=2)
        result = plan_cluster(SMALL, c, train)
        assert result.best.cross_node_a2a_bytes == 0.0
        assert (result.best.candidate.parallel.model_parallel_size
                <= c.gpus_per_node)

        # Price the node-spanning EP-8 plan explicitly: more cross-node
        # a2a bytes AND a slower simulated iteration.
        spanning = PlanCandidate(
            parallel=ParallelConfig(
                model_parallel_size=8, attention="sp", ffn="ep",
                ep_dispatch="a2a", pipeline_size=1,
                data_parallel_size=c.n_gpus // 8),
            precision=result.best.candidate.precision,
            remat=result.best.candidate.remat)
        cross = _cross_node_a2a_bytes(SMALL, c, spanning, train)
        assert cross > result.best.cross_node_a2a_bytes
        perf = MegaScalePerfModel(
            cluster=c,
            selective_remat=spanning.remat == "selective",
            elem_bytes=spanning.elem_bytes)
        it = perf.iteration(SMALL, spanning.parallel, train,
                            c.bottleneck_gpu())
        assert it.iteration_time > result.best.iteration_time

    def test_search_result_explain_mentions_key_facts(self):
        c = ClusterSpec.homogeneous("h800", n_nodes=2)
        train = TrainConfig(global_batch_size=64, micro_batch_size=2)
        result = plan_cluster(SMALL, c, train)
        text = result.explain()
        assert "scale-up ratio" in text
        assert "strategy =" in text
        assert "simulated iteration time" in text
        assert result.n_feasible <= result.n_enumerated
        assert result.n_simulated >= len(result.ranked)

    def test_search_is_deterministic(self):
        c = ClusterSpec.homogeneous("h800", n_nodes=2)
        train = TrainConfig(global_batch_size=64, micro_batch_size=2)
        a = plan_cluster(SMALL, c, train)
        b = plan_cluster(SMALL, c, train)
        assert a.best.candidate == b.best.candidate
        assert [s.candidate for s in a.ranked] == \
            [s.candidate for s in b.ranked]

    #: (model, nodes, train) -> ((parallel, precision) pairs bounded,
    #: forward graphs built, backward graphs built, forwards scheduled,
    #: backwards scheduled), then plans simulated, best s and the
    #: sha256 of the ranked list.  Only a price builds a backward graph,
    #: so the backwards built are the backwards scheduled.  The first
    #: two are the plan_model workload's searches; the third is 352B at
    #: 1,440.
    RANKED_PINS = [
        ("mixtral-8x2b", 2, TrainConfig(global_batch_size=64,
                                        micro_batch_size=2),
         (105, 34, 10, 5, 10), 10, 2.0954872146864543,
         "b7d7a237fb49bccff99a33da92148ce70e6cc3d6c9fd9d99fb37fe9490255e10"),
        ("mixtral-8x7b", 4, TrainConfig(global_batch_size=64,
                                        micro_batch_size=2),
         (109, 41, 9, 5, 9), 11, 3.5888225412411363,
         "df6a762c95578c6b1756ca6905d4aebf5303b51d834e40347b48a22f34dc1a16"),
        ("internal-352b", 180, TrainConfig(),
         (252, 48, 26, 13, 26), 128, 3.9961101236184704,
         "11cb682f54ee4c8580019ba4cc6f33eb4164ad5e7f6dc7cccba7f525b294f769"),
    ]

    @pytest.mark.parametrize(
        "model,nodes,train,counts,n_simulated,best,digest",
        RANKED_PINS, ids=[p[0] for p in RANKED_PINS])
    def test_each_layer_shape_priced_once_per_search(
            self, model, nodes, train, counts, n_simulated, best, digest,
            monkeypatch):
        """The search bounds each (parallel, precision) once, builds and
        schedules each (layer shape, precision) forward once, builds and
        schedules each priced (layer shape, precision, remat) backward
        once and no other (pp and dp never change the layer graph, remat
        only the backward, and the bound reads the forward), and the
        ranked list is exactly what pricing every candidate from
        scratch gave: every price, in the same order, at rel 0."""
        bounded, built, built_bwd = [], [], []
        scheduled = {True: [], False: []}
        lower_bound = SystemPerfModel.lower_bound
        build_forward_graph = systems.build_forward_graph
        build_backward_graph = systems.build_backward_graph
        schedule_timeline = HolisticScheduler.schedule_timeline

        def bounding(self, model, parallel, train, gpu):
            bounded.append((parallel, self.elem_bytes))
            return lower_bound(self, model, parallel, train, gpu)

        def building(model, parallel, micro_batch, elem_bytes):
            built.append((parallel.model_parallel_size, parallel.attention,
                          parallel.ffn, parallel.ep_dispatch, elem_bytes))
            return build_forward_graph(model, parallel, micro_batch,
                                       elem_bytes)

        def building_bwd(fwd, selective_remat=True):
            built_bwd.append((tuple(fwd), selective_remat))
            return build_backward_graph(fwd, selective_remat=selective_remat)

        def scheduling(self, graph, durations):
            scheduled[graph.ops[0].phase == "fwd"].append(
                tuple((op.name, durations[op.name]) for op in graph))
            return schedule_timeline(self, graph, durations)

        monkeypatch.setattr(SystemPerfModel, "lower_bound", bounding)
        monkeypatch.setattr(systems, "build_forward_graph", building)
        monkeypatch.setattr(systems, "build_backward_graph", building_bwd)
        monkeypatch.setattr(HolisticScheduler, "schedule_timeline",
                            scheduling)
        c = ClusterSpec.homogeneous("h800", n_nodes=nodes)
        calls = (bounded, built, built_bwd, scheduled[True],
                 scheduled[False])

        result = plan_cluster(MODEL_ZOO[model], c, train)
        # (calls, distinct calls) per kind of work: each is done once.
        assert [(len(done), len(set(done))) for done in calls] == \
            [(n, n) for n in counts]
        assert result.n_simulated == n_simulated

        assert result.best.iteration_time == best
        text = "\n".join(
            f"{s.candidate.describe()} {s.cross_node_a2a_bytes!r} "
            f"{s.iteration!r}" for s in result.ranked)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

        # The memo lasts one search: the next call prices again.
        for done in calls:
            done.clear()
        plan_cluster(MODEL_ZOO[model], c, train)
        assert tuple(len(done) for done in calls) == counts

    def test_calibration_scales_prices(self):
        c = ClusterSpec.homogeneous("h800", n_nodes=2)
        train = TrainConfig(global_batch_size=64, micro_batch_size=2)
        base = plan_cluster(SMALL, c, train)
        report = CalibrationReport()  # empty → median scale 1.0
        same = plan_cluster(SMALL, c, train, calibration=report)
        assert same.best.iteration_time == pytest.approx(
            base.best.iteration_time)


# ---------------------------------------------------------------------------
# fp8 dispatch crossover (§5 + Fig. 7)
# ---------------------------------------------------------------------------


class TestPrecisionCrossover:
    def test_fp8_shifts_crossover_down(self):
        model = MODEL_ZOO["phi-3.5-moe"]
        bf16 = dispatch_crossover_top_k(model, 8, LINK,
                                        precision="bf16")
        fp8 = dispatch_crossover_top_k(model, 8, LINK, precision="fp8")
        assert bf16 == 5
        assert fp8 == 3
        assert fp8 < bf16

    def test_default_matches_bf16(self):
        model = MODEL_ZOO["phi-3.5-moe"]
        assert dispatch_crossover_top_k(model, 8, LINK) == \
            dispatch_crossover_top_k(model, 8, LINK, precision="bf16")

    def test_fp8_cheapens_rings_not_a2a(self):
        model = MODEL_ZOO["phi-3.5-moe"]
        bf16 = dispatch_mode_times(model, 2, 8, LINK, precision="bf16")
        fp8 = dispatch_mode_times(model, 2, 8, LINK, precision="fp8")
        assert fp8["ag"] < bf16["ag"]
        assert fp8["rs"] < bf16["rs"]
        assert fp8["a2a"] == pytest.approx(bf16["a2a"])

    def test_fp32_scales_everything(self):
        model = MODEL_ZOO["phi-3.5-moe"]
        bf16 = dispatch_mode_times(model, 2, 8, LINK, precision="bf16")
        fp32 = dispatch_mode_times(model, 2, 8, LINK, precision="fp32")
        assert fp32["a2a"] > bf16["a2a"]
        assert fp32["ag"] > bf16["ag"]


# ---------------------------------------------------------------------------
# Search layer: deterministic tie-breaks + composed plan/schedule search
# ---------------------------------------------------------------------------


class TestScheduleSearch:
    def tasks(self):
        return [
            SimTask("b", 1.0, "compute"),
            SimTask("a", 1.0, "compute"),
            SimTask("c", 1.0, "compute", deps=("a", "b")),
        ]

    def test_equal_priorities_tie_break_by_name(self):
        out, _, _ = _placer(self.tasks())([0.0] * 3)
        assert [t.name for t in out] == ["a", "b", "c"]

    def test_tie_break_is_insertion_order_independent(self):
        rev = list(reversed(self.tasks()[:2])) + self.tasks()[2:]
        a, _, _ = _placer(self.tasks())([0.0] * 3)
        b, _, _ = _placer(rev)([0.0] * 3)
        assert [t.name for t in a] == [t.name for t in b]

    def test_optimize_plan_composes(self):
        c = ClusterSpec.homogeneous("h800", n_nodes=2)
        train = TrainConfig(global_batch_size=64, micro_batch_size=2)
        result = optimize_plan(SMALL, c, train, budget=20, seed=0)
        assert result.plan.best is not None
        # By construction never worse than the holistic baseline.
        assert result.fwd.makespan <= result.fwd.baseline_makespan
        assert result.bwd.makespan <= result.bwd.baseline_makespan
        assert 0.0 <= result.layer_gain < 1.0
        assert not result.calibrated

    def test_optimize_plan_accepts_spans(self):
        from repro.obs import Span
        c = ClusterSpec.homogeneous("h800", n_nodes=2)
        train = TrainConfig(global_batch_size=64, micro_batch_size=2)
        # A single span anchors the whole-graph median scale at ~2x.
        feas = enumerate_plans(SMALL, c, train)
        from repro.core.operators import build_forward_graph
        graph = build_forward_graph(SMALL, feas[0].parallel, 2,
                                    feas[0].elem_bytes)
        km = KernelModel(
            c.bottleneck_gpu(), cluster=c,
            mp_group_size=feas[0].parallel.model_parallel_size)
        first = next(iter(graph))
        span = Span(name=f"dag.op:{first.name}", start=0.0,
                    end=2.0 * km.op_duration(first),
                    attrs={"ops": first.name})
        result = optimize_plan(SMALL, c, train, budget=5, seed=0,
                               spans=[span])
        assert result.calibrated

    def test_seeded_search_is_reproducible(self):
        c = ClusterSpec.homogeneous("h800", n_nodes=2)
        train = TrainConfig(global_batch_size=64, micro_batch_size=2)
        a = optimize_plan(SMALL, c, train, budget=15, seed=3)
        b = optimize_plan(SMALL, c, train, budget=15, seed=3)
        assert a.fwd.makespan == b.fwd.makespan
        assert [t.name for t in a.fwd.tasks] == \
            [t.name for t in b.fwd.tasks]

    #: The plan_model sweep's two schedule searches (seed 0, budget 60):
    #: per pass, (makespan, evaluations, sha256 of the task order).
    OPTIMIZE_PINS = [
        ("mixtral-8x2b", 2,
         (0.0024841736006005876, 61,
          "76a5a435c2f0ae1bad8f1c2f995e3046352bd9f7c91a5165bc2b6d4e72a0fad5"),
         (0.005072309216019414, 61,
          "70aab3659c133d4fd7f4de68050bc7b9bfd781ce93498a372216a0483d628599")),
        ("mixtral-8x7b", 4,
         (0.004312026745084987, 61,
          "ce6f5dcc6b848ef6fd708cd3c85397dba0dc70201f12c188755792da269123a9"),
         (0.008550407073242181, 61,
          "81cd15acc1617b5cb5a859bdf4cf1b2d7a03f5cc2d9f393fadca0807ce01f6cf")),
    ]

    @pytest.mark.parametrize("model,nodes,fwd,bwd", OPTIMIZE_PINS,
                             ids=[p[0] for p in OPTIMIZE_PINS])
    def test_seeded_optimize_is_pinned(self, model, nodes, fwd, bwd):
        c = ClusterSpec.homogeneous("h800", n_nodes=nodes)
        train = TrainConfig(global_batch_size=64, micro_batch_size=2)
        result = optimize_plan(MODEL_ZOO[model], c, train, budget=60,
                               seed=0)
        for got, (makespan, evaluations, digest) in ((result.fwd, fwd),
                                                     (result.bwd, bwd)):
            assert got.makespan == makespan
            assert got.evaluations == evaluations
            order = "\n".join(t.name for t in got.tasks)
            assert hashlib.sha256(order.encode()).hexdigest() == digest

    def test_ready_heap_pops_what_a_sorted_scan_pops(self):
        """Popping ``(priority, name)`` from a heap gives the order that
        re-sorting the ready list before every pop gave."""
        def sorted_scan(tasks, priority):
            indegree = {t.name: len(t.deps) for t in tasks}
            children = {t.name: [] for t in tasks}
            for t in tasks:
                for dep in t.deps:
                    children[dep].append(t.name)
            by_name = {t.name: t for t in tasks}
            ready = [n for n, deg in indegree.items() if deg == 0]
            out = []
            while ready:
                ready.sort(key=lambda n: (priority.get(n, 0.0), n))
                name = ready.pop(0)
                out.append(by_name[name])
                for child in children[name]:
                    indegree[child] -= 1
                    if indegree[child] == 0:
                        ready.append(child)
            return out

        from repro.core.operators import (build_backward_graph,
                                          build_forward_graph)
        from repro.core.schedule import HolisticScheduler
        rng = random.Random(0)
        for parallel in (ParallelConfig.megascale(8),
                         ParallelConfig.megascale(8, ep_dispatch="ag_rs")):
            fwd = build_forward_graph(SMALL, parallel, 1)
            for graph in (fwd, build_backward_graph(fwd)):
                tasks = HolisticScheduler().schedule(
                    graph, KernelModel(H800).durations(graph))
                for _ in range(10):
                    # Few distinct values: most pops break a tie by name.
                    priority = {t.name: float(rng.randrange(4))
                                for t in tasks if rng.random() < 0.8}
                    order, _, _ = _placer(tasks)(
                        [priority.get(t.name, 0.0) for t in tasks])
                    assert order == sorted_scan(tasks, priority)
