"""Tests for the kernel-duration model and the system perf models."""

from dataclasses import replace

import pytest

from repro.core.config import (
    GPU_SPECS,
    MODEL_ZOO,
    ParallelConfig,
    TrainConfig,
)
from repro.core.operators import Op, OpGraph, build_forward_graph
from repro.core.schedule import OverlapConfig
from repro.obs.tracer import Span
from repro.perf.estimator import (
    AnchorCalibration,
    CalibrationReport,
    KernelModel,
    calibrate_from_spans,
    calibrated_durations,
)
from repro.perf.systems import (
    IterationBreakdown,
    MegaScalePerfModel,
    MegatronPerfModel,
    SystemPerfModel,
)

H800 = GPU_SPECS["h800"]
MODEL352 = MODEL_ZOO["internal-352b"]


class TestKernelModel:
    def test_gemm_roofline_compute_bound(self):
        km = KernelModel(H800)
        op = Op("g", "gemm", flops=1e12, mem_bytes=1e6,
                gemm_shape=(8192, 8192, 8192))
        t = km.op_duration(op)
        assert t >= 1e12 / H800.peak_flops  # can't beat peak

    def test_gemm_memory_bound_when_thin(self):
        km = KernelModel(H800)
        op = Op("g", "gemm", flops=1e6, mem_bytes=1e9)
        t = km.op_duration(op)
        assert t >= 1e9 / H800.memory_bandwidth

    def test_shape_factor_penalizes_thin_dims(self):
        km = KernelModel(H800)
        fat = km.gemm_efficiency(4096, 4096, 14336)
        thin = km.gemm_efficiency(4096, 4096, 14336 / 8)
        assert thin < fat

    def test_shape_factor_neutral_without_shape(self):
        km = KernelModel(H800)
        assert km._shape_factor((0.0, 0.0, 0.0)) == 1.0

    def test_comm_scope_selects_link(self):
        km = KernelModel(H800)
        intra = Op("c1", "comm", comm_bytes=1e8, comm_pattern="ag",
                   comm_scope="intra")
        inter = Op("c2", "comm", comm_bytes=1e8, comm_pattern="ag",
                   comm_scope="inter")
        assert km.op_duration(inter) > km.op_duration(intra)

    def test_a2a_pays_efficiency_penalty(self):
        km = KernelModel(H800)
        ring = Op("r", "comm", comm_bytes=1e8, comm_pattern="ag")
        a2a = Op("a", "comm", comm_bytes=1e8, comm_pattern="a2a")
        assert km.op_duration(a2a) > km.op_duration(ring)

    def test_memory_op_time(self):
        km = KernelModel(H800, mem_eff=0.8)
        op = Op("m", "memory", mem_bytes=1e9)
        assert km.op_duration(op) == pytest.approx(
            1e9 / (H800.memory_bandwidth * 0.8) + km.kernel_latency)

    def test_durations_cover_graph(self):
        km = KernelModel(H800)
        graph = build_forward_graph(MODEL_ZOO["mixtral-8x7b"],
                                    ParallelConfig.megascale(8), 1)
        d = km.durations(graph)
        assert set(d) == {op.name for op in graph}
        assert all(v > 0 for v in d.values())


class TestSpanCalibration:
    def graph(self):
        return OpGraph([
            Op("a", "memory", mem_bytes=1e6),
            Op("b", "memory", mem_bytes=2e6, deps=("a",)),
            Op("c", "memory", mem_bytes=4e6, deps=("b",)),
        ])

    def span(self, anchor, duration, ops=None):
        return Span(name=f"dag.op:{anchor}", start=0.0, end=duration,
                    attrs={"ops": ops or anchor})

    def test_scales_match_measured_over_predicted(self):
        km = KernelModel(H800)
        graph = self.graph()
        predicted_a = km.op_duration(graph["a"])
        report = calibrate_from_spans(km, graph, [
            self.span("a", 3 * predicted_a),
            self.span("a", 5 * predicted_a),  # averages to 4x
        ])
        assert report.anchors["a"].samples == 2
        assert report.anchors["a"].scale == pytest.approx(4.0)

    def test_covers_group_sums_predictions(self):
        km = KernelModel(H800)
        graph = self.graph()
        predicted = (km.op_duration(graph["b"])
                     + km.op_duration(graph["c"]))
        report = calibrate_from_spans(km, graph, [
            self.span("b", 2 * predicted, ops="b,c"),
        ])
        assert report.anchors["b"].scale == pytest.approx(2.0)
        assert report.scale_for("c") == report.scale_for("b")

    def test_untraced_ops_use_median_scale(self):
        km = KernelModel(H800)
        graph = self.graph()
        report = calibrate_from_spans(km, graph, [
            self.span("a", 2 * km.op_duration(graph["a"])),
        ])
        assert report.scale_for("c") == pytest.approx(
            report.default_scale)
        durations = calibrated_durations(km, graph, report)
        assert durations["a"] == pytest.approx(
            2 * km.op_duration(graph["a"]))

    def test_non_dag_spans_ignored(self):
        km = KernelModel(H800)
        graph = self.graph()
        other = Span(name="collective:ag", start=0.0, end=1.0)
        report = calibrate_from_spans(km, graph, [other])
        assert report.anchors == {}
        assert report.default_scale == 1.0

    def test_empty_report_is_identity(self):
        km = KernelModel(H800)
        graph = self.graph()
        durations = calibrated_durations(km, graph,
                                         CalibrationReport())
        assert durations == km.durations(graph)


class TestMFUHelpers:
    """Table 3's throughput and MFU columns, read off one iteration."""

    @staticmethod
    def iteration(seconds, tokens, n_gpus):
        return IterationBreakdown("x", seconds, *[0.0] * 7,
                                  global_batch_tokens=tokens,
                                  n_gpus=n_gpus)

    def test_tokens_per_second(self):
        assert self.iteration(2.0, 1e6, 8).tokens_per_second == 5e5

    def test_mfu_range(self):
        tokens = 720 * 8192
        it = self.iteration(tokens / 1.4e6, tokens, 1440)
        value = it.mfu(MODEL352, H800)
        assert 0.0 < value < 1.0
        assert value == pytest.approx(
            MODEL352.train_flops_per_token() * 1.4e6
            / (1440 * H800.peak_flops))


class TestSystemModels:
    def iteration(self, system, model, parallel, gbs=720, gpu=H800):
        return system.iteration(model, parallel,
                                TrainConfig(global_batch_size=gbs), gpu)

    def test_repeated_iteration_on_one_instance_is_identical(self):
        """A perf model prices a layer shape once and reuses it; under
        Megatron's full recompute, iteration folds forward kind times
        into backward ones, which must not leak into the next call."""
        for system in (MegatronPerfModel(), MegaScalePerfModel()):
            parallel = ParallelConfig.megatron(8, 15, 6)
            first = self.iteration(system, MODEL352, parallel)
            again = self.iteration(system, MODEL352, parallel)
            fresh = self.iteration(replace(system), MODEL352, parallel)
            assert again == first == fresh

    def test_breakdown_reads_the_calibrated_durations(self):
        """A report that triples the attention anchor (the median scale
        stays 1) triples the breakdown's attention time and leaves its
        GEMM and memory-op times alone: the per-kind times come from the
        same calibrated map the scheduler receives."""
        scales = {"attention": 3.0, "fc1": 1.0, "fc2": 1.0}
        report = CalibrationReport(
            anchors={name: AnchorCalibration(name, (name,), 1, scale, 1.0)
                     for name, scale in scales.items()},
            op_anchor={"attention": "attention",
                       "attention.bwd": "attention"})
        parallel = ParallelConfig.megascale(8, 15, 6)
        base = self.iteration(MegaScalePerfModel(), MODEL352, parallel)
        calibrated = self.iteration(MegaScalePerfModel(calibration=report),
                                    MODEL352, parallel)
        assert calibrated.attn_time == pytest.approx(3 * base.attn_time)
        assert calibrated.gemm_time == base.gemm_time
        assert calibrated.memory_op_time == base.memory_op_time
        assert calibrated.iteration_time > base.iteration_time

    def test_table3_speedup_band(self):
        """Strong scaling: MegaScale beats Megatron by 1.6–2.0× (paper:
        1.65–1.88×) at every scale."""
        for n_gpus in (240, 480, 720, 960, 1440):
            dp = n_gpus // 120
            ms = self.iteration(MegaScalePerfModel(), MODEL352,
                                ParallelConfig.megascale(8, 15, dp))
            mg = self.iteration(MegatronPerfModel(), MODEL352,
                                ParallelConfig.megatron(8, 15, dp))
            speedup = mg.iteration_time / ms.iteration_time
            assert 1.5 < speedup < 2.1, (n_gpus, speedup)

    def test_table3_absolute_times_close_to_paper(self):
        """Iteration times land within 25% of Table 3's numbers."""
        paper = {240: (39.94, 21.61), 1440: (7.90, 4.19)}
        for n_gpus, (mg_paper, ms_paper) in paper.items():
            dp = n_gpus // 120
            ms = self.iteration(MegaScalePerfModel(), MODEL352,
                                ParallelConfig.megascale(8, 15, dp))
            mg = self.iteration(MegatronPerfModel(), MODEL352,
                                ParallelConfig.megatron(8, 15, dp))
            assert ms.iteration_time == pytest.approx(ms_paper, rel=0.25)
            assert mg.iteration_time == pytest.approx(mg_paper, rel=0.25)

    def test_table3_720_point_pinned(self):
        """The 720-GPU MegaScale point is a closed form: pinned exactly,
        so a perf-model change is a deliberate diff."""
        br = self.iteration(MegaScalePerfModel(), MODEL352,
                            ParallelConfig.megascale(8, 15, 6))
        for got, want in (
                (br.iteration_time, 7.501352838860517),
                (br.fraction("exposed_comm_time"), 0.020248982196405807),
                (br.mfu(MODEL352, H800), 0.2419232680153715),
                (br.tokens_per_second, 786290.1701469577)):
            assert got == pytest.approx(want, rel=1e-12)

    def test_mfu_declines_with_scale(self):
        """Fixed global batch + more GPUs → fewer micro-batches → more
        bubble → lower MFU (Table 3's trend)."""
        mfus = []
        for n_gpus in (240, 720, 1440):
            dp = n_gpus // 120
            br = self.iteration(MegaScalePerfModel(), MODEL352,
                                ParallelConfig.megascale(8, 15, dp))
            mfus.append(br.mfu(MODEL352, H800))
        assert mfus[0] > mfus[1] > mfus[2]

    def test_weak_scaling_near_linear(self):
        """Fig. 11: throughput grows ~linearly when batch scales with
        GPUs."""
        t480 = self.iteration(MegaScalePerfModel(), MODEL352,
                              ParallelConfig.megascale(8, 15, 4),
                              gbs=360).tokens_per_second
        t1440 = self.iteration(MegaScalePerfModel(), MODEL352,
                               ParallelConfig.megascale(8, 15, 12),
                               gbs=1080).tokens_per_second
        assert t1440 / t480 == pytest.approx(3.0, rel=0.05)

    def test_fig12_mfu_order_across_gpus(self):
        """Fig. 12: MFU decreases as GPU compute capability increases
        (H20 > A100 > H800), and MegaScale always beats Megatron."""
        mix = MODEL_ZOO["mixtral-8x7b"]
        mfus = {}
        for name in ("h800", "a100", "h20"):
            gpu = GPU_SPECS[name]
            ms = MegaScalePerfModel().iteration(
                mix, ParallelConfig.megascale(8, 1, 4),
                TrainConfig(global_batch_size=32), gpu)
            mg = MegatronPerfModel(full_recompute=False).iteration(
                mix, ParallelConfig.megatron(8, 1, 4),
                TrainConfig(global_batch_size=32), gpu)
            mfus[name] = (ms.mfu(mix, gpu), mg.mfu(mix, gpu))
            assert mfus[name][0] > mfus[name][1], name
        assert mfus["h20"][0] > mfus["a100"][0] > mfus["h800"][0]

    def test_fig12_exposed_comm_shrinks(self):
        mix = MODEL_ZOO["mixtral-8x7b"]
        ms = MegaScalePerfModel().iteration(
            mix, ParallelConfig.megascale(8, 1, 4),
            TrainConfig(global_batch_size=32), H800)
        mg = MegatronPerfModel(full_recompute=False).iteration(
            mix, ParallelConfig.megatron(8, 1, 4),
            TrainConfig(global_batch_size=32), H800)
        assert ms.fraction("exposed_comm_time") < \
            0.35 * mg.fraction("exposed_comm_time")

    def test_fig13_strategy_ordering(self):
        """SP+EP > SP+TP, TP+EP > TP+TP in MFU with overlap disabled
        (the parallelism-only ablation)."""
        model = MODEL_ZOO["mixtral-8x7b"].scaled(n_layers=4)
        results = {}
        for attn, ffn in (("sp", "ep"), ("sp", "tp"), ("tp", "ep"),
                          ("tp", "tp")):
            system = SystemPerfModel(
                name=f"{attn}+{ffn}", overlap=OverlapConfig.none(),
                mem_eff=0.8, grad_elem_bytes=4.0)
            br = system.iteration(
                model, ParallelConfig(8, attn, ffn),
                TrainConfig(global_batch_size=32), H800)
            results[(attn, ffn)] = br.mfu(model, H800)
        assert results[("sp", "ep")] == max(results.values())
        assert results[("tp", "tp")] == min(results.values())

    def test_fig13_gain_band(self):
        """SP+EP vs TP+TP MFU gain falls in a 10–45% band across the
        zoo (paper: 14.9–32.9%)."""
        for name in ("internal-352b", "mixtral-8x7b", "mixtral-8x22b",
                     "hunyuan-large", "phi-3.5-moe", "deepseekmoe"):
            model = MODEL_ZOO[name].scaled(n_layers=4)
            gains = {}
            for attn, ffn in (("sp", "ep"), ("tp", "tp")):
                system = SystemPerfModel(
                    name="x", overlap=OverlapConfig.none(), mem_eff=0.8,
                    grad_elem_bytes=4.0)
                br = system.iteration(
                    model, ParallelConfig(8, attn, ffn),
                    TrainConfig(global_batch_size=32), H800)
                gains[(attn, ffn)] = br.mfu(model, H800)
            gain = gains[("sp", "ep")] / gains[("tp", "tp")] - 1
            assert 0.10 < gain < 0.45, (name, gain)

    def test_intra_op_overlap_iteration_gain(self):
        """Fig. 15's right panel: intra-operator overlap shaves ~5–15%
        off iteration time (paper: 7.1–12.9%)."""
        mix = MODEL_ZOO["mixtral-8x7b"]
        full = MegaScalePerfModel().iteration(
            mix, ParallelConfig.megascale(8, 1, 4),
            TrainConfig(global_batch_size=32), H800)
        inter_only = MegaScalePerfModel(
            overlap=OverlapConfig(inter_op=True, intra_op=False)
        ).iteration(mix, ParallelConfig.megascale(8, 1, 4),
                    TrainConfig(global_batch_size=32), H800)
        gain = 1 - full.iteration_time / inter_only.iteration_time
        assert 0.02 < gain < 0.20

    def test_batch_divisibility_validated(self):
        with pytest.raises(ValueError, match="not divisible"):
            MegaScalePerfModel().iteration(
                MODEL352, ParallelConfig.megascale(8, 15, 7),
                TrainConfig(global_batch_size=720), H800)

    def test_breakdown_fractions_sum_sensibly(self):
        br = self.iteration(MegaScalePerfModel(), MODEL352,
                            ParallelConfig.megascale(8, 15, 4))
        parts = (br.attn_time + br.gemm_time + br.memory_op_time
                 + br.exposed_comm_time + br.bubble_time
                 + br.dp_exposed_time + br.optimizer_time)
        # Components approximately account for the iteration (overlap
        # means compute categories can exceed the wall clock slightly).
        assert 0.7 < parts / br.iteration_time < 1.3

    def test_megatron_baseline_characterization(self):
        """§6.1: no fine-grained overlap, FP32 DP gradients, full
        recompute, torch.scatter_add memory ops."""
        system = MegatronPerfModel()
        assert system.name == "megatron-lm"
        assert not system.overlap.inter_op
        assert not system.overlap.intra_op
        assert system.grad_elem_bytes == 4.0
        assert system.full_recompute
        assert system.mem_eff < 0.6

    def test_megatron_overrides(self):
        assert not MegatronPerfModel(full_recompute=False).full_recompute

    def test_full_recompute_slows_backward(self):
        base = MegatronPerfModel(full_recompute=False)
        recompute = MegatronPerfModel(full_recompute=True)
        t0 = self.iteration(base, MODEL352,
                            ParallelConfig.megatron(8, 15, 4))
        t1 = self.iteration(recompute, MODEL352,
                            ParallelConfig.megatron(8, 15, 4))
        assert t1.iteration_time > t0.iteration_time * 1.2
