"""Low-precision training walkthrough (§5 + §7 of the paper).

Trains the same miniature MoE three times — BF16, FP8 with the paper's
per-token quantization, and FP8 with naive per-tensor scales — and once
with DP gradient compression, printing the loss curves side by side and
the wire-byte savings.  This is the Fig. 17 / Fig. 18 experiment at
laptop scale.

Run:  python examples/fp8_training.py
"""

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
from repro.data import batch_iterator
from repro.precision.policy import (
    bf16_policy,
    fp8_naive_policy,
    fp8_policy,
)

CONFIG = ModelConfig("fp8-demo", n_layers=2, hidden_size=32, n_heads=8,
                     gqa_ratio=2, ffn_hidden_size=48, n_experts=8,
                     top_k=2, vocab_size=64, seq_len=16)
STEPS = 12


def precision_curve(policy):
    model = MoETransformer(CONFIG, seed=0, dtype=np.float64)
    train = TrainConfig(global_batch_size=4, micro_batch_size=4,
                        seq_len=16, learning_rate=3e-3,
                        aux_loss_coeff=0.01)
    trainer = MegaScaleTrainer(
        model, World(4, 4), ParallelConfig.megascale(4), train, policy=policy)
    corpus = MarkovCorpus(vocab_size=64, seed=0)
    return [trainer.train_step(b).lm_loss
            for b in batch_iterator(corpus, 4, 16, seed=1, limit=STEPS)]


def dp_compression_curves():
    """Two DP replicas of a float32 model (the FP32 gradient wire the
    paper compresses), without and with §5's BF16 all-to-all sync."""
    curves, wire = {}, {}
    corpus = MarkovCorpus(vocab_size=64, seed=0)
    batches = list(batch_iterator(corpus, 4, 16, seed=1, limit=STEPS))
    for compress in (False, True):
        model = MoETransformer(CONFIG, seed=0)
        train = TrainConfig(global_batch_size=4, micro_batch_size=2,
                            seq_len=16, learning_rate=3e-3,
                            weight_decay=0.0, aux_loss_coeff=0.01,
                            dp_comm_compression=compress)
        trainer = MegaScaleTrainer(
            model, World(2, 1), ParallelConfig(1, data_parallel_size=2),
            train)
        curves[compress] = [trainer.train_step(b).loss for b in batches]
        wire[compress] = sum(
            b for tag, b in trainer.world.ledger.bytes_by_tag().items()
            if tag.startswith("dp_grad"))
    return curves, wire


def main():
    print("== Fig. 18 miniature: GEMM-input precision ==")
    curves = {
        "bf16": precision_curve(bf16_policy()),
        "fp8 (per-token)": precision_curve(fp8_policy()),
        "fp8 (per-tensor)": precision_curve(fp8_naive_policy()),
    }
    header = "step  " + "  ".join(f"{k:>17s}" for k in curves)
    print(header)
    for step in range(STEPS):
        row = "  ".join(f"{curves[k][step]:>17.4f}" for k in curves)
        print(f"{step:4d}  {row}")
    drift = np.abs(np.array(curves["bf16"])
                   - np.array(curves["fp8 (per-token)"]))
    print(f"max |bf16 - fp8| / loss: "
          f"{(drift / np.array(curves['bf16'])).max() * 100:.2f}% "
          f"(paper: curves coincide)\n")

    print("== Fig. 17 miniature: DP gradient compression ==")
    dp_curves, wire = dp_compression_curves()
    print("step   fp32_rs   bf16_a2a")
    for step in range(STEPS):
        print(f"{step:4d}  {dp_curves[False][step]:8.4f}  "
              f"{dp_curves[True][step]:9.4f}")
    print(f"\ngradient sync bytes: fp32 {wire[False] / 1e6:.2f} MB "
          f"-> bf16 {wire[True] / 1e6:.2f} MB "
          f"({wire[True] / wire[False] * 100:.0f}%, paper: 50%)")


if __name__ == "__main__":
    main()
