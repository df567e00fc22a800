"""Tests for the one planner and the Fig. 7 dispatch analysis."""

import pytest

from repro.comm.cost import LinkSpec
from repro.core.analysis import memory_per_gpu
from repro.core.cluster import ClusterSpec
from repro.core.config import GPU_SPECS, MODEL_ZOO, TrainConfig
from repro.core import planner
from repro.core.planner import (
    HBM_HEADROOM,
    SIM_SHORTLIST,
    NoFeasiblePlan,
    dispatch_crossover_top_k,
    dispatch_mode_times,
    plan_cluster,
)

H800 = GPU_SPECS["h800"]
NVLINK = LinkSpec(bandwidth=200e9, latency=1e-5, a2a_efficiency=0.6)


class TestOnePlanner:
    """``plan_cluster`` is the only planner: every plan it returns fits
    the shared per-GPU memory formula, and on 8-GPU H800 nodes it picks
    the dispatch mode the Fig. 7 crossover predicts."""

    @pytest.mark.parametrize("n_nodes", [1, 2, 4, 8, 16])
    @pytest.mark.parametrize("name", sorted(MODEL_ZOO))
    def test_winner_fits_or_no_feasible_plan(self, monkeypatch, name,
                                             n_nodes):
        # The memory gate runs before pricing, so the simulated
        # shortlist cannot admit a plan the gate rejected; pricing one
        # plan keeps these 35 searches cheap.
        monkeypatch.setattr(planner, "SIM_SHORTLIST", 1)
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

    def test_352b_on_64_gpus_is_infeasible(self):
        """Static memory alone exceeds HBM at every PP that divides the
        layers; the search says so instead of emitting an OOM plan."""
        cluster = ClusterSpec.homogeneous("h800", n_nodes=8)
        with pytest.raises(NoFeasiblePlan):
            plan_cluster(MODEL_ZOO["internal-352b"], cluster)

    def test_dispatch_mode_by_top_k(self):
        """Top-2 sits left of the Fig. 7 crossover, top-6 right of it."""
        cluster = ClusterSpec.homogeneous("h800", n_nodes=8)
        for name, mode in (("mixtral-8x7b", "a2a"), ("deepseekmoe", "ag_rs")):
            best = plan_cluster(MODEL_ZOO[name], cluster).best.candidate
            assert best.parallel.ffn == "ep", name
            assert best.parallel.ep_dispatch == mode, name

    def test_ranks_every_simulated_plan_and_explains_the_winner(self):
        cluster = ClusterSpec.homogeneous("h800", n_nodes=1)
        result = plan_cluster(MODEL_ZOO["mixtral-8x2b"], cluster,
                              TrainConfig(global_batch_size=32,
                                          micro_batch_size=2))
        assert result.ranked[0] is result.best
        assert result.n_simulated == min(SIM_SHORTLIST,
                                         result.n_feasible) > 1
        times = [s.iteration_time for s in result.ranked]
        assert times == sorted(times)
        assert result.best.rationale
        assert not any(s.rationale for s in result.ranked[1:])
        assert result.scale_up_ratio > 1.0
        assert f"scale-up ratio R = {result.scale_up_ratio:.2f} (> 1)" \
            in result.explain()


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
