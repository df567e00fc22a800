"""Figure 16 — selective activation rematerialization (SAR) ablation.

Paper setup: Mixtral-8×7B and Mixtral-8×2B on 128 H800 GPUs, MegaScale
with and without SAR.  Paper results: SAR cuts activation memory by
45.5% and 57.2% respectively (21.3% / 35% of total memory), while the
training-MFU difference stays within 0.5% because the recompute work
hides under communication.
"""

import pytest

from conftest import report
from repro.core.analysis import memory_per_gpu
from repro.core.config import GPU_SPECS, MODEL_ZOO, ParallelConfig, \
    TrainConfig
from repro.core.remat import default_remat_plan, no_remat_plan
from repro.perf.systems import MegaScalePerfModel

GPU = GPU_SPECS["h800"]
GB = 1024.0 ** 3
ELEM_BYTES = 2.0  # BF16 activations

# 128 GPUs: intra-node 8, PP covering layers, DP filling the rest.
SETUPS = {
    "mixtral-8x7b": ParallelConfig.megascale(8, pipeline_size=4,
                                             data_parallel_size=4),
    "mixtral-8x2b": ParallelConfig.megascale(8, pipeline_size=4,
                                             data_parallel_size=4),
}


def memory_breakdown(model_name, plan):
    return memory_per_gpu(MODEL_ZOO[model_name], SETUPS[model_name], plan,
                          1, ELEM_BYTES)


def run_fig16():
    rows = []
    train = TrainConfig(global_batch_size=128)
    for name in SETUPS:
        model = MODEL_ZOO[name]
        pc = SETUPS[name]
        sar = memory_breakdown(name, default_remat_plan())
        no_sar = memory_breakdown(name, no_remat_plan())

        mfu_sar = MegaScalePerfModel(selective_remat=True).iteration(
            model, pc, train, GPU).mfu(model, GPU)
        mfu_no = MegaScalePerfModel(selective_remat=False).iteration(
            model, pc, train, GPU).mfu(model, GPU)
        rows.append({
            "model": name,
            "act_sar": sar["activations"],
            "act_no": no_sar["activations"],
            "total_sar": sar["total"],
            "total_no": no_sar["total"],
            "act_savings": 1 - sar["activations"] / no_sar["activations"],
            "total_savings": 1 - sar["total"] / no_sar["total"],
            "mfu_sar": mfu_sar,
            "mfu_no": mfu_no,
        })
    return rows


@pytest.mark.benchmark(group="fig16")
def test_fig16_sar(benchmark):
    rows = benchmark(run_fig16)
    report(
        "Fig. 16: selective activation rematerialization (128 GPUs)",
        ["model", "act GB (SAR)", "act GB (no SAR)", "act saved",
         "total saved", "MFU (SAR)", "MFU (no SAR)"],
        [[r["model"], r["act_sar"] / GB, r["act_no"] / GB,
          f"{r['act_savings'] * 100:.1f}%",
          f"{r['total_savings'] * 100:.1f}%",
          f"{r['mfu_sar'] * 100:.2f}%", f"{r['mfu_no'] * 100:.2f}%"]
         for r in rows],
        notes="paper measured: -45.5%/-57.2% activations (8x7B/8x2B), "
              "-21.3%/-35% total, MFU within 0.5%. Our model tracks the "
              "paper's own Appendix A.2 formulas, which give ~66% per-"
              "layer savings; the lower measured figures include "
              "activations outside the MoE-layer graph (logits, "
              "attention workspace, fragmentation) that a layer-level "
              "model excludes.",
    )

    by_model = {r["model"]: r for r in rows}
    # Per-layer activation savings follow Appendix A.2 — roughly the
    # paper's "~50%" headline, between the measured 45.5%/57.2% and the
    # formula's 66%.
    for r in rows:
        assert 0.40 < r["act_savings"] < 0.75, r["model"]
    # Total memory saved is substantial but smaller than the activation
    # fraction (static parameter/optimizer bytes are untouched).
    for r in rows:
        assert 0.0 < r["total_savings"] < r["act_savings"]
    # Training speed essentially unchanged (paper: within 0.5%).
    for r in rows:
        assert abs(r["mfu_sar"] / r["mfu_no"] - 1) < 0.02, r["model"]
