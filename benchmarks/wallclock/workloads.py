"""The four workloads: their shapes, fixed counts, and seeded inputs.

``--seed`` drives everything the program computes on — model weights,
token ids, the schedule search — while the *shape* of each workload
(tensor sizes, request lengths and arrival times) is part of its
definition and does not change with the seed: a serve trace whose
lengths moved with the seed served 15 % more or fewer tokens per second
from one seed to the next, which would bury any real change.

Counts are fixed here, not derived from a clock: one *window* is
``fixed_ops`` operations on the same inputs from the same state.  Every
quantity that must repeat exactly (final loss, bytes per token, peak
memory) is taken over the first window; the timed pass then repeats the
window until ``--seconds`` is used up, and only the number of timing
samples grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List

import numpy as np

from repro.core.config import ModelConfig, ServeConfig

#: Simulated model-parallel ranks of both train workloads.
TRAIN_RANKS = 4
TRAIN_BATCH = 2


@dataclass(frozen=True)
class TrainSpec:
    #: Module holding this kind of workload's two passes.
    MODULE = "train_workload"

    name: str
    hidden: int
    ffn: int
    vocab: int
    seq: int
    dispatch: str
    #: "markov" (learnable chain, near-uniform expert load) or "zipf"
    #: (Zipf(1.5) token marginal: skewed expert load).
    tokens: str
    warmup: int
    fixed_ops: int

    def model_config(self) -> ModelConfig:
        return ModelConfig(self.name, n_layers=2, hidden_size=self.hidden,
                           n_heads=8, gqa_ratio=2,
                           ffn_hidden_size=self.ffn, n_experts=8, top_k=2,
                           vocab_size=self.vocab, seq_len=self.seq)

    @property
    def tokens_per_step(self) -> int:
        return TRAIN_BATCH * self.seq

    def batches(self, seed: int, count: int) -> List[np.ndarray]:
        """``count`` fresh ``[batch, seq + 1]`` token batches."""
        rng = np.random.default_rng([seed, 1])
        if self.tokens == "markov":
            from repro.data import MarkovCorpus
            corpus = MarkovCorpus(vocab_size=self.vocab, seed=seed)
            return [corpus.sample(rng, TRAIN_BATCH, self.seq + 1)
                    for _ in range(count)]
        weights = 1.0 / np.arange(1, self.vocab + 1) ** 1.5
        ids = rng.permutation(self.vocab)
        return [ids[rng.choice(self.vocab, size=(TRAIN_BATCH, self.seq + 1),
                               p=weights / weights.sum())]
                for _ in range(count)]


@dataclass(frozen=True)
class ServeSpec:
    MODULE = "serve_workload"

    name: str
    n_requests: int
    warmup: int
    fixed_ops: int
    #: 40 blocks of 8 tokens is tight for 8 concurrent requests: the
    #: trace forces evictions and replays, the engine's waste path.
    kv_blocks: int = 40

    #: Seed of the trace *shape* (lengths, arrivals); see module doc.
    SHAPE_SEED = 0

    def model_config(self) -> ModelConfig:
        return ModelConfig(self.name, n_layers=2, hidden_size=64,
                           n_heads=8, gqa_ratio=2, ffn_hidden_size=128,
                           n_experts=8, top_k=2, vocab_size=128,
                           seq_len=192)

    def serve_config(self) -> ServeConfig:
        return ServeConfig(attention_ranks=2, expert_ranks=2,
                           kv_block_size=8, kv_blocks=self.kv_blocks,
                           max_batch_size=8)

    def requests(self, seed: int) -> List[Any]:
        """Decode-heavy requests interleaved with prefill-heavy ones
        that arrive 3.0 virtual seconds later; token ids from ``seed``."""
        from repro.serve import Request, bursty_trace
        half = self.n_requests // 2
        vocab = self.model_config().vocab_size
        decode = bursty_trace(half, burst_size=4, burst_gap=3.0, vocab=vocab,
                              prompt_len=(4, 12), max_new_tokens=(16, 40),
                              seed=self.SHAPE_SEED)
        prefill = bursty_trace(half, burst_size=4, burst_gap=3.0, vocab=vocab,
                               prompt_len=(48, 128), max_new_tokens=(2, 6),
                               seed=self.SHAPE_SEED + 1)
        rng = np.random.default_rng([seed, 2])
        out = []
        for d, p in zip(decode, prefill):
            for shape, delay in ((d, 0.0), (p, 3.0)):
                prompt = tuple(int(t) for t in
                               rng.integers(0, vocab, size=shape.prompt_len))
                out.append(Request(len(out), prompt, shape.max_new_tokens,
                                   shape.arrival_time + delay))
        return out


@dataclass(frozen=True)
class PlanSpec:
    MODULE = "plan_workload"

    name: str
    warmup: int
    fixed_ops: int
    schedule_budget: int = 60


# Why each workload exists is recorded once, in BENCHMARK.json.
TRAIN_SMALL = TrainSpec(
    "train_small_a2a",
    hidden=64, ffn=128, vocab=128, seq=192, dispatch="a2a", tokens="markov",
    warmup=3, fixed_ops=60)

# seq is 256, not the 512 ISSUE.md sketches: a 0.9 s step leaves 16
# samples in a 15 s run, too few for a steady lower quartile; at 0.45 s
# kernels are still > 80 % of the step.
TRAIN_WIDE = TrainSpec(
    "train_wide_agrs",
    hidden=256, ffn=512, vocab=256, seq=256, dispatch="ag_rs", tokens="zipf",
    warmup=2, fixed_ops=10)

SERVE_MIXED = ServeSpec(
    "serve_mixed", n_requests=40, warmup=1, fixed_ops=3)

PLAN_MODEL = PlanSpec(
    "plan_model", warmup=1, fixed_ops=5)

WORKLOADS = {spec.name: spec for spec in
             (TRAIN_SMALL, TRAIN_WIDE, SERVE_MIXED, PLAN_MODEL)}
