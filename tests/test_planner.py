"""Tests for the one planner and the Fig. 7 dispatch analysis."""

import hashlib

import pytest

from repro.comm.cost import LinkSpec
from repro.core.analysis import memory_per_gpu
from repro.core.cluster import ClusterSpec
from repro.core.config import GPU_SPECS, MODEL_ZOO, TrainConfig
from repro.core.planner import (
    HBM_HEADROOM,
    NoFeasiblePlan,
    _cross_node_a2a_bytes,
    _within_memory,
    _raw_candidates,
    dispatch_crossover_top_k,
    dispatch_mode_times,
    plan_cluster,
)
from repro.core.schedule import OverlapConfig
from repro.perf.estimator import AnchorCalibration, CalibrationReport
from repro.perf.systems import MegaScalePerfModel
from conftest import enumerate_plans

H800 = GPU_SPECS["h800"]
NVLINK = LinkSpec(bandwidth=200e9, latency=1e-5, a2a_efficiency=0.6)


class TestOnePlanner:
    """``plan_cluster`` is the only planner: every plan it returns fits
    the shared per-GPU memory formula, and on 8-GPU H800 nodes it picks
    the dispatch mode the Fig. 7 crossover predicts."""

    @pytest.mark.parametrize("n_nodes", [1, 2, 4, 8, 16])
    @pytest.mark.parametrize("name", sorted(MODEL_ZOO))
    def test_winner_fits_or_no_feasible_plan(self, name, n_nodes):
        # The memory gate runs before pricing, so the search cannot
        # simulate a plan the gate rejected.
        model = MODEL_ZOO[name]
        cluster = ClusterSpec.homogeneous("h800", n_nodes=n_nodes)
        train = TrainConfig()
        try:
            result = plan_cluster(model, cluster, train)
        except NoFeasiblePlan:
            return
        best = result.best.candidate
        need = memory_per_gpu(model, best.parallel, best.remat_plan,
                              train.micro_batch_size,
                              best.elem_bytes)["total"]
        assert need < H800.memory_bytes * HBM_HEADROOM
        assert best.parallel.total_gpus == cluster.n_gpus

    @pytest.mark.parametrize("n_nodes", [1, 2, 16, 180])
    def test_memory_gate_is_memory_per_gpu(self, n_nodes):
        """The per-shape gate keeps exactly the raw candidates whose
        ``memory_per_gpu`` total is under the cap, for every zoo model:
        sharing the static and retained terms changes no bit."""
        cluster = ClusterSpec.homogeneous("h800", n_nodes=n_nodes)
        cap = H800.memory_bytes * HBM_HEADROOM
        kept = rejected = 0
        for name in sorted(MODEL_ZOO):
            model = MODEL_ZOO[name]
            for train in (TrainConfig(),
                          TrainConfig(global_batch_size=64,
                                      micro_batch_size=2)):
                micro = train.micro_batch_size
                raw = _raw_candidates(model, cluster, train)
                expected = [
                    c for c in raw
                    if memory_per_gpu(model, c.parallel, c.remat_plan,
                                      micro, c.elem_bytes)["total"] < cap]
                assert _within_memory(model, cluster, raw, micro) == expected
                kept += len(expected)
                rejected += len(raw) - len(expected)
        assert kept and rejected

    def test_352b_on_64_gpus_is_infeasible(self):
        """Static memory alone exceeds HBM at every PP that divides the
        layers; the search says so instead of emitting an OOM plan."""
        cluster = ClusterSpec.homogeneous("h800", n_nodes=8)
        with pytest.raises(NoFeasiblePlan):
            plan_cluster(MODEL_ZOO["internal-352b"], cluster)

    def test_dispatch_mode_by_top_k(self):
        """Fig. 7's scope is one 8-GPU EP group: among the n=8 EP plans
        of the exact ranking, top-2 sits left of the crossover (a2a) and
        top-6 right of it (ag_rs).  Over the whole plan space the
        simulator prefers other group sizes, so the winner itself is
        not a Fig. 7 statement."""
        cluster = ClusterSpec.homogeneous("h800", n_nodes=8)
        for name, mode, seconds in (("mixtral-8x7b", "a2a", 21.2255),
                                    ("deepseekmoe", "ag_rs", 5.7465)):
            model = MODEL_ZOO[name]
            ranked = plan_cluster(model, cluster, top=len(
                enumerate_plans(model, cluster))).ranked
            first = next(s for s in ranked
                         if s.candidate.parallel.ffn == "ep"
                         and s.candidate.parallel.model_parallel_size == 8)
            assert first.candidate.parallel.ep_dispatch == mode, name
            assert first.iteration_time == pytest.approx(seconds, abs=1e-4)

    def test_exact_search_on_mixtral_8x7b(self):
        """What the simulator prefers on 8 nodes: TP+EP at n=4 with
        ag_rs and fp8; among bf16 plans SP+EP n=4 ag_rs, ahead of the
        same plan with a2a dispatch."""
        model = MODEL_ZOO["mixtral-8x7b"]
        cluster = ClusterSpec.homogeneous("h800", n_nodes=8)
        result = plan_cluster(model, cluster, top=len(
            enumerate_plans(model, cluster)))
        assert result.best.candidate.describe() == \
            "TP+EP n=4 pp=2 dp=8 ag_rs fp8 remat=none"
        assert result.best.iteration_time == pytest.approx(20.6515,
                                                           abs=1e-4)
        bf16 = [(s.candidate.describe(), round(s.iteration_time, 2))
                for s in result.ranked if s.candidate.precision == "bf16"]
        assert bf16[0] == ("SP+EP n=4 pp=2 dp=8 ag_rs bf16 remat=none",
                           21.51)
        assert ("SP+EP n=4 pp=2 dp=8 a2a bf16 remat=none", 21.91) in bf16

    def test_ranks_every_simulated_plan_and_explains_the_winner(self):
        cluster = ClusterSpec.homogeneous("h800", n_nodes=1)
        result = plan_cluster(MODEL_ZOO["mixtral-8x2b"], cluster,
                              TrainConfig(global_batch_size=32,
                                          micro_batch_size=2))
        assert result.ranked[0] is result.best
        # The bound prunes most plans; the simulated ones are ranked.
        assert 1 < result.n_simulated < result.n_feasible
        times = [s.iteration_time for s in result.ranked]
        assert times == sorted(times)
        assert result.best.rationale
        assert not any(s.rationale for s in result.ranked[1:])
        assert result.scale_up_ratio > 1.0
        assert f"scale-up ratio R = {result.scale_up_ratio:.2f} (> 1)" \
            in result.explain()


def _perf_models(cluster, **settings):
    """``(remat, precision) -> perf model``, built on first use, as
    :func:`plan_cluster` builds them."""
    models = {}

    def perf(remat, precision):
        if (remat, precision) not in models:
            models[remat, precision] = MegaScalePerfModel(
                cluster=cluster, selective_remat=remat == "selective",
                elem_bytes={"bf16": 2.0, "fp8": 1.0}[precision],
                **settings)
        return models[remat, precision]
    return perf


def _calibration(op_scales):
    """A report giving each op name in ``op_scales`` (name -> anchor
    name, scale) that anchor's scale; untraced ops get the median."""
    anchors = dict(op_scales.values())
    return CalibrationReport(
        anchors={name: AnchorCalibration(name, (name,), 1, scale, 1.0)
                 for name, scale in anchors.items()},
        op_anchor={op: name for op, (name, _) in op_scales.items()})


def _bound_grid(calibration):
    """``(perf models, model, candidate, gpu, train)`` for every
    feasible plan of the zoo on 1 and 16 nodes, under full and no
    overlap and under full overlap with ``calibration``."""
    train = TrainConfig(global_batch_size=64, micro_batch_size=2)
    for overlap, report in ((OverlapConfig.full(), None),
                            (OverlapConfig.none(), None),
                            (OverlapConfig.full(), calibration)):
        for nodes in (1, 16):
            cluster = ClusterSpec.homogeneous("h800", n_nodes=nodes)
            perf = _perf_models(cluster, overlap=overlap,
                                calibration=report)
            for name in sorted(MODEL_ZOO):
                model = MODEL_ZOO[name]
                for c in enumerate_plans(model, cluster, train):
                    yield perf, model, c, cluster.bottleneck_gpu(), train


class TestOnePrice:
    """``plan_cluster`` ranks by the simulator alone, and the lower
    bound that prunes its search never exceeds a simulated price."""

    @staticmethod
    def brute_force(model, cluster, train):
        """Every feasible plan simulated, in ``plan_cluster``'s order."""
        perf = _perf_models(cluster)
        gpu = cluster.bottleneck_gpu()
        return sorted(
            (perf(c.remat, c.precision).iteration(
                model, c.parallel, train, gpu).iteration_time,
             _cross_node_a2a_bytes(model, cluster, c, train),
             c.describe())
            for c in enumerate_plans(model, cluster, train))

    @pytest.mark.parametrize("name,nodes", [("internal-352b", 180),
                                            ("mixtral-8x7b", 8),
                                            ("mixtral-8x2b", 2)])
    def test_search_returns_the_simulators_ranking(self, name, nodes):
        model = MODEL_ZOO[name]
        cluster = ClusterSpec.homogeneous("h800", n_nodes=nodes)
        train = TrainConfig(global_batch_size=720)
        exact = self.brute_force(model, cluster, train)
        best = plan_cluster(model, cluster, train).best
        assert best.candidate.describe() == exact[0][2]
        for top in (1, 4):
            ranked = plan_cluster(model, cluster, train, top=top).ranked
            assert [(s.iteration_time, s.cross_node_a2a_bytes,
                     s.candidate.describe())
                    for s in ranked[:top]] == exact[:top]

    def test_top_must_be_positive(self):
        cluster = ClusterSpec.homogeneous("h800", n_nodes=1)
        with pytest.raises(ValueError, match="top must be >= 1"):
            plan_cluster(MODEL_ZOO["mixtral-8x2b"], cluster, top=0)

    def test_bound_never_exceeds_the_price(self):
        """Every feasible plan on a zoo x cluster-size grid, under full
        and no overlap and under a calibration that scales anchors up
        and down: the remat-free bound floors both remat settings."""
        scales = {"attention": 3.0, "fc1": 0.5, "dispatch_a2a": 2.0}
        report = _calibration({
            op: (name, scale) for name, scale in scales.items()
            for op in (name, f"{name}.bwd", f"{name}.dgrad",
                       f"{name}.wgrad")})
        checked = 0
        for perf, model, c, gpu, train in _bound_grid(report):
            bound = perf("none", c.precision).lower_bound(
                model, c.parallel, train, gpu)
            price = perf(c.remat, c.precision).iteration(
                model, c.parallel, train, gpu).iteration_time
            assert bound <= price, (model.name, c.describe(),
                                    perf("none", c.precision).overlap)
            checked += 1
        assert checked > 1000

    #: sha256 of every bound's repr over the grid, one per line, as
    #: pricing the built remat-free backward graph gives them.
    BOUND_DIGEST = ("d8df457c87bde4a6990b69d6ae39757107808898e6ee67ed93c1"
                    "b2d9114b8852")

    def test_bound_values_are_pinned(self):
        """The bound reads the backward off the forward's ops, with no
        backward graph: every value is what pricing the built graph
        gave, bit for bit.  Each anchor's forward op, ``.dgrad``,
        ``.wgrad`` and ``.bwd`` carry four different scales, so a
        backward op calibrated under another op's name moves the
        digest."""
        factors = {"": 1.0, ".dgrad": 0.6, ".wgrad": 1.7, ".bwd": 2.3}
        report = _calibration({
            name + suffix: (name + suffix, scale * factor)
            for name, scale in (("attention", 3.0), ("fc1", 0.5),
                                ("dispatch_a2a", 2.0), ("ln1", 1.5),
                                ("qkv_proj", 0.8))
            for suffix, factor in factors.items()})
        bounds = [repr(perf("none", c.precision).lower_bound(
                      model, c.parallel, train, gpu))
                  for perf, model, c, gpu, train in _bound_grid(report)]
        assert len(bounds) > 5000
        assert hashlib.sha256("\n".join(bounds).encode()).hexdigest() \
            == self.BOUND_DIGEST


class TestDispatchModeTimes:
    def test_a2a_grows_with_k(self):
        model = MODEL_ZOO["mixtral-8x7b"]
        t2 = dispatch_mode_times(model, 2, 8, NVLINK)["a2a"]
        t8 = dispatch_mode_times(model, 8, 8, NVLINK)["a2a"]
        # 4× the bytes; the fixed latency term dilutes the ratio a bit.
        assert t8 > t2 * 2.5

    def test_ag_rs_independent_of_k(self):
        model = MODEL_ZOO["mixtral-8x7b"]
        t2 = dispatch_mode_times(model, 2, 8, NVLINK)
        t8 = dispatch_mode_times(model, 8, 8, NVLINK)
        assert t2["ag"] == t8["ag"]
        assert t2["rs"] == t8["rs"]

    def test_fig7_crossover_band(self):
        """Fig. 7: on Mixtral-8×7B with 8 ranks, AG/RS overtakes A2A
        around top-k ≈ 6."""
        model = MODEL_ZOO["mixtral-8x7b"]
        crossover = dispatch_crossover_top_k(model, 8, NVLINK)
        assert 4 <= crossover <= 8

    def test_crossover_never_for_tiny_k_range(self):
        """With a perfect-efficiency A2A link the crossover moves to
        k = n (pure volume argument)."""
        model = MODEL_ZOO["mixtral-8x7b"]
        perfect = LinkSpec(bandwidth=200e9, latency=0.0,
                           a2a_efficiency=1.0)
        crossover = dispatch_crossover_top_k(model, 8, perfect)
        assert crossover == 8

    def test_low_a2a_efficiency_moves_crossover_down(self):
        model = MODEL_ZOO["mixtral-8x7b"]
        bad_a2a = LinkSpec(bandwidth=200e9, latency=1e-5,
                           a2a_efficiency=0.3)
        assert dispatch_crossover_top_k(model, 8, bad_a2a) < \
            dispatch_crossover_top_k(model, 8, NVLINK)
