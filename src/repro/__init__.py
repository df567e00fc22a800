"""repro — reproduction of MegaScale-MoE (EuroSys 2026).

A communication-efficient large-scale MoE training system, rebuilt on a
simulated cluster: real sharded numerics over simulated ranks, plus a
calibrated performance model that regenerates the paper's evaluation.

Quickstart::

    import numpy as np
    from repro import (MODEL_ZOO, ModelConfig, ParallelConfig,
                       TrainConfig, MegaScaleTrainer, World,
                       MoETransformer)

    cfg = ModelConfig("tiny", 2, 32, 8, 2, 48, 8, 2,
                      vocab_size=64, seq_len=16)
    model = MoETransformer(cfg, seed=0)
    trainer = MegaScaleTrainer(model, World(4, 4),
                               ParallelConfig.megascale(4),
                               TrainConfig(global_batch_size=4,
                                           micro_batch_size=4,
                                           seq_len=16))

Subpackages:

* :mod:`repro.core` — configs, Eq. 1–9 analysis, planner, operator
  graphs, holistic scheduler, rematerialization, trainer.
* :mod:`repro.comm` — simulated process groups and collectives with a
  byte ledger.
* :mod:`repro.model` / :mod:`repro.tensor` — numpy MoE transformer with
  tape-based autograd.
* :mod:`repro.parallel` — SP/TP attention, EP/TP FFN, DP, and pipeline
  engines, all numerically equal to the reference model.
* :mod:`repro.precision` — BF16/FP8 emulation, quantization schemes,
  optimizers, communication compression.
* :mod:`repro.perf` / :mod:`repro.sim` — calibrated performance model
  and discrete-event simulator behind every table/figure bench.
* :mod:`repro.data` — learnable synthetic corpora for loss-curve
  experiments.
"""

from .comm import World
from .core import (
    GPU_SPECS,
    MODEL_ZOO,
    ClusterSpec,
    GPUSpec,
    MegaScaleTrainer,
    ModelConfig,
    NoFeasiblePlan,
    OverlapConfig,
    ParallelConfig,
    TrainConfig,
    plan_cluster,
)
from .data import MarkovCorpus
from .model import MoETransformer
from .perf import MegaScalePerfModel, MegatronPerfModel

__version__ = "0.1.0"

__all__ = [
    "World",
    "GPU_SPECS",
    "MODEL_ZOO",
    "GPUSpec",
    "MegaScaleTrainer",
    "ModelConfig",
    "OverlapConfig",
    "ParallelConfig",
    "TrainConfig",
    "ClusterSpec",
    "NoFeasiblePlan",
    "plan_cluster",
    "MarkovCorpus",
    "MoETransformer",
    "MegaScalePerfModel",
    "MegatronPerfModel",
    "__version__",
]
