"""Operate a long training run the way §7 describes: checkpoints,
failures, restarts, and a stable loss trajectory (Fig. 19).

This example drives a miniature MegaScale trainer through 48 steps with
periodic checkpoints while a fault injector kills the "job" three times.
The ProductionRunner resumes from the latest durable checkpoint each
time; the printed trajectory shows the replayed steps and that the loss
keeps converging toward the corpus's entropy floor.

Run:  python examples/production_run.py
"""

import os
import tempfile

import numpy as np

from repro import (
    MarkovCorpus,
    MegaScaleTrainer,
    ModelConfig,
    MoETransformer,
    ParallelConfig,
    TrainConfig,
    World,
)
from repro.core.runner import FaultInjector, ProductionRunner
from repro.data import batch_iterator

CONFIG = ModelConfig("prod-demo", n_layers=2, hidden_size=32, n_heads=8,
                     gqa_ratio=2, ffn_hidden_size=48, n_experts=8,
                     top_k=2, vocab_size=32, seq_len=16)
STEPS = 48
FAULT_STEPS = (13, 27, 41)
CHECKPOINT_INTERVAL = 8


def trainer_factory():
    model = MoETransformer(CONFIG, seed=0, dtype=np.float64)
    train = TrainConfig(global_batch_size=8, micro_batch_size=8,
                        seq_len=16, learning_rate=5e-3, weight_decay=0.0,
                        aux_loss_coeff=0.01)
    return MegaScaleTrainer(
        model, World(4, 4), ParallelConfig.megascale(4), train)


def main():
    corpus = MarkovCorpus(vocab_size=32, branching=3, temperature=0.1,
                          seed=3)
    batches = list(batch_iterator(corpus, 8, 16, seed=4, limit=STEPS))
    print(f"corpus entropy floor: {corpus.conditional_entropy():.3f} "
          f"nats; faults injected at steps {FAULT_STEPS}; "
          f"checkpoint every {CHECKPOINT_INTERVAL} steps\n")

    with tempfile.TemporaryDirectory() as ckpt_dir:
        runner = ProductionRunner(trainer_factory, ckpt_dir,
                                  checkpoint_interval=CHECKPOINT_INTERVAL)
        injector = FaultInjector(FAULT_STEPS)
        metrics = runner.run(batches, injector)

        print("step  loss    (replays shown where the run restarted)")
        seen = set()
        for step, loss in zip(metrics.steps, metrics.losses):
            replay = " (replay)" if step in seen else ""
            seen.add(step)
            if step % 4 == 0 or replay:
                print(f"{step:4d}  {loss:.4f}{replay}")

        print(f"\nrestarts: {metrics.restart_count} "
              f"(at steps {metrics.restarts})")
        print(f"checkpoints written: {metrics.checkpoints}")
        first = np.mean(metrics.losses[:6])
        last = np.mean(metrics.losses[-6:])
        print(f"loss: {first:.3f} -> {last:.3f} "
              f"({(1 - last / first) * 100:.0f}% down, floor "
              f"{corpus.conditional_entropy():.3f})")

        csv_path = os.path.join(ckpt_dir, "metrics.csv")
        metrics.to_csv(csv_path)
        with open(csv_path) as handle:
            rows = len(handle.readlines()) - 1
        print(f"metrics.csv: {rows} rows")


if __name__ == "__main__":
    main()
