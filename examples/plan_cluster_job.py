"""Plan a production training job the way §3 and §7 do.

Given a model from the Table 2 zoo and a GPU budget, this example:

1. searches the plan space with ``plan_cluster`` (SP vs TP attention,
   EP dispatch mode, PP/DP layout, precision, remat) and prints the
   winner's §3 rationale;
2. checks the §7 scale-up ratio R — can expert compute hide dispatch
   communication on this hardware?
3. predicts iteration time, throughput, MFU, and days-to-1T-tokens for
   the winner, against the Megatron-LM baseline on the same layout;
4. prints the winner's per-GPU memory budget with and without selective
   activation rematerialization.

Run:  python examples/plan_cluster_job.py [model] [n_gpus] [gpu]
e.g.  python examples/plan_cluster_job.py internal-352b 1440 h800
"""

import sys

from repro.core import (
    MODEL_ZOO,
    ClusterSpec,
    ParallelConfig,
    TrainConfig,
    default_remat_plan,
    memory_per_gpu,
    no_remat_plan,
    plan_cluster,
)
from repro.perf import MegatronPerfModel, days_for_tokens

GB = 1024.0 ** 3


def main(model_name="internal-352b", n_gpus=1440, gpu_name="h800"):
    model = MODEL_ZOO[model_name]
    if n_gpus <= 0 or n_gpus % 8:
        sys.exit(f"n_gpus must be a positive multiple of 8 (8-GPU "
                 f"nodes), got {n_gpus}")
    cluster = ClusterSpec.homogeneous(gpu_name, n_nodes=n_gpus // 8)
    gpu = cluster.bottleneck_gpu()
    print(f"planning: {model.name} ({model.total_params / 1e9:.0f}B "
          f"params) on {cluster.n_gpus} x {gpu.name.upper()}\n")

    # 1. Strategy selection.
    train = TrainConfig(global_batch_size=720)
    plan = plan_cluster(model, cluster, train)
    print(plan.explain())
    best = plan.best.candidate
    parallel = best.parallel

    # 2. Scale-up feasibility (§7).
    verdict = ("expert compute can hide dispatch communication"
               if plan.scale_up_ratio > 1 else
               "experts too thin: dispatch communication will be "
               "exposed — grow h_ffn or stay inside NVLink")
    print(f"\nscale-up check: R = {plan.scale_up_ratio:.2f} -> "
          f"{verdict}\n")

    # 3. Predicted training performance vs the Megatron-LM baseline.
    ms = plan.best.iteration
    mg_parallel = ParallelConfig.megatron(
        parallel.model_parallel_size, parallel.pipeline_size,
        parallel.data_parallel_size)
    mg = MegatronPerfModel(cluster=cluster).iteration(
        model, mg_parallel, train, gpu)
    print(f"{'':22s}{'Megatron-LM':>14s}{'MegaScale-MoE':>15s}")
    print(f"{'iteration time':22s}{mg.iteration_time:>12.2f} s"
          f"{ms.iteration_time:>13.2f} s")
    print(f"{'throughput':22s}{mg.tokens_per_second / 1e3:>11.0f}k t/s"
          f"{ms.tokens_per_second / 1e3:>12.0f}k t/s")
    print(f"{'MFU':22s}{mg.mfu(model, gpu) * 100:>13.1f}%"
          f"{ms.mfu(model, gpu) * 100:>14.1f}%")
    print(f"{'days for 1T tokens':22s}"
          f"{days_for_tokens(mg.tokens_per_second):>14.1f}"
          f"{days_for_tokens(ms.tokens_per_second):>15.1f}")
    print(f"\nspeedup: {mg.iteration_time / ms.iteration_time:.2f}x "
          f"(paper band: 1.65-1.88x)\n")

    # 4. Memory budget of the chosen layout.
    for label, remat_plan in (("with SAR", default_remat_plan()),
                              ("no SAR", no_remat_plan())):
        mem = memory_per_gpu(model, parallel, remat_plan,
                             train.micro_batch_size, best.elem_bytes)
        flag = "OK" if mem["total"] < gpu.memory_bytes else "OOM!"
        print(f"memory/GPU {label:9s}: params+opt "
              f"{mem['static'] / GB:5.1f} GB + activations "
              f"{mem['activations'] / GB:5.1f} GB = "
              f"{mem['total'] / GB:5.1f} GB "
              f"(HBM {gpu.memory_bytes / GB:.0f} GB) {flag}")


if __name__ == "__main__":
    args = sys.argv[1:]
    main(
        args[0] if len(args) > 0 else "internal-352b",
        int(args[1]) if len(args) > 1 else 1440,
        args[2] if len(args) > 2 else "h800",
    )
