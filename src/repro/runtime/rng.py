"""Per-rank random streams for stochastic ops.

One shared :class:`numpy.random.Generator` would make each rank's
mask depend on the *order* ranks draw in, which the overlap schedule is
free to change.  The fix is the standard counter-based recipe: spawn
one independent child stream per rank from a single
:class:`numpy.random.SeedSequence`, so a rank's stream advances only
with that rank's own draws.
"""

from __future__ import annotations

from typing import Iterator, List

import numpy as np

__all__ = ["RankRngPool"]


class RankRngPool:
    """``n_ranks`` independent child generators spawned from one seed.

    ``pool[rank]`` is rank's private :class:`numpy.random.Generator`.
    Two pools built from the same ``(seed, n_ranks)`` yield identical
    streams, which is what makes dropout reproducible across restarts.
    """

    def __init__(self, seed: int, n_ranks: int):
        if n_ranks < 1:
            raise ValueError(f"n_ranks must be >= 1, got {n_ranks}")
        self.seed = int(seed)
        self.n_ranks = int(n_ranks)
        children = np.random.SeedSequence(self.seed).spawn(self.n_ranks)
        self._generators: List[np.random.Generator] = [
            np.random.default_rng(child) for child in children
        ]

    def __getitem__(self, rank: int) -> np.random.Generator:
        return self._generators[rank]

    def __len__(self) -> int:
        return self.n_ranks

    def __iter__(self) -> Iterator[np.random.Generator]:
        return iter(self._generators)

    def reset(self) -> None:
        """Rewind every rank stream to its initial state."""
        children = np.random.SeedSequence(self.seed).spawn(self.n_ranks)
        self._generators = [
            np.random.default_rng(child) for child in children
        ]
