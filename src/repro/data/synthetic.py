"""Synthetic language-modelling data.

The paper's convergence experiments (Figs. 17–19) train on ByteDance's
proprietary corpus; we substitute a *learnable* synthetic token stream so
loss curves exhibit a realistic decay that precision changes could
disturb.  Tokens follow a seeded first-order Markov chain whose
transition matrix mixes a low-entropy structured component with a uniform
component — the model must learn the transition structure, so
cross-entropy falls from ``ln(vocab)`` toward the chain's conditional
entropy as training progresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

__all__ = ["MarkovCorpus", "batch_iterator"]


@dataclass
class MarkovCorpus:
    """A seeded Markov-chain token source.

    Attributes:
        vocab_size: Number of distinct tokens.
        branching: Likely successors per token (lower = easier to learn).
        temperature: Mixing weight of the uniform component in (0, 1);
            higher means noisier, higher-entropy text.
        seed: RNG seed; the same seed reproduces the same corpus.
    """

    vocab_size: int = 64
    branching: int = 4
    temperature: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.branching > self.vocab_size:
            raise ValueError(
                f"branching={self.branching} exceeds "
                f"vocab_size={self.vocab_size}"
            )
        rng = np.random.default_rng(self.seed)
        matrix = np.full((self.vocab_size, self.vocab_size),
                         self.temperature / self.vocab_size)
        for token in range(self.vocab_size):
            successors = rng.choice(self.vocab_size, self.branching,
                                    replace=False)
            weights = rng.dirichlet(np.ones(self.branching))
            matrix[token, successors] += (1 - self.temperature) * weights
        self.transition = matrix / matrix.sum(axis=1, keepdims=True)

    def sample(self, rng: np.random.Generator, batch: int,
               seq_len: int) -> np.ndarray:
        """Draw ``[batch, seq_len]`` token ids from the chain."""
        out = np.empty((batch, seq_len), dtype=np.int64)
        out[:, 0] = rng.integers(0, self.vocab_size, batch)
        # Vectorized ancestral sampling via inverse-CDF per step.
        cdf = np.cumsum(self.transition, axis=1)
        for t in range(1, seq_len):
            u = rng.random(batch)
            rows = cdf[out[:, t - 1]]
            out[:, t] = (u[:, None] < rows).argmax(axis=1)
        return out

def batch_iterator(corpus: MarkovCorpus, batch: int, seq_len: int,
                   seed: int = 1,
                   limit: Optional[int] = None) -> Iterator[np.ndarray]:
    """Yield ``[batch, seq_len + 1]`` arrays (inputs + next-token labels)."""
    rng = np.random.default_rng(seed)
    count = 0
    while limit is None or count < limit:
        yield corpus.sample(rng, batch, seq_len + 1)
        count += 1
