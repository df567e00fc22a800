"""ZeRO optimizer-state sharding (§2.2, §4.1).

MegaScale-MoE "employ[s] ZeRO optimizations to eliminate redundant
optimizer states across DP groups".  This module implements stage 1
*numerically*: the flattened parameter space is split into per-rank
shards; each DP rank keeps Adam moments and the master copy for its
shard only — in the parameters' dtype, FP32 for the default model, the
12 B/param the planner's :func:`~repro.core.analysis
.param_memory_per_gpu` charges — updates it from its shard of the
already-synchronized gradient, and the updated shards are all-gathered
back into the full parameter set.

The update is :func:`repro.precision.optimizer.adam_update_`, the
kernel every optimizer calls, run over the slices of each shard whose
parameters received a gradient: a parameter no rank has a gradient for
(an idle expert) sits the step out, exactly as under ``AdamW``.  The
result is bit-identical to a full (unsharded) AdamW step on the
averaged gradients — asserted by the tests — while optimizer memory
drops by ``1/dp``.  The gradient reaches the optimizer through the DP
sync (:mod:`repro.comm.hierarchical`), so the only collective here is
the parameter all-gather.

A checkpoint holds ``AdamW``'s per-parameter state
(:meth:`Zero1AdamW.state_dict`), not the shards: the shard grid is
re-derived from this optimizer's group size at load, so a DP resize is
a slice (docs/INTERNALS.md §11).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..comm.collectives import all_gather
from ..comm.group import ProcessGroup
from ..precision.optimizer import adam_update_
from ..tensor import Tensor

__all__ = ["Zero1AdamW"]


class Zero1AdamW:
    """ZeRO stage-1 sharded AdamW over a DP group.

    Args:
        params: The shared model parameters (replicated across ranks in
            the simulation).
        group: Data-parallel process group; ``group.size`` shards.
        lr, betas, eps, weight_decay: AdamW hyper-parameters.
    """

    def __init__(self, params: Sequence[Tensor], group: ProcessGroup,
                 lr: float = 3e-4, betas: tuple = (0.9, 0.95),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        self.params = list(params)
        self.group = group
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0

        #: State dtype of the flat space: the parameters' dtype.
        self.dtype = np.result_type(*(p.data.dtype for p in self.params))
        #: ``offsets[i]:offsets[i + 1]`` is parameter ``i`` in the flat
        #: space.
        self.offsets = np.cumsum([0] + [p.size for p in self.params])
        self.numel = int(self.offsets[-1])
        n = group.size
        self.padded = -(-self.numel // n) * n
        self.shard_size = self.padded // n
        # Per-rank optimizer shard: master copy + moments for 1/n of
        # the flattened parameter space.
        self.master_shards = self._shards(
            self._flatten([p.data for p in self.params]))
        self.m_shards = self._shards(np.zeros(self.padded, self.dtype))
        self.v_shards = self._shards(np.zeros(self.padded, self.dtype))
        self._scratch: Dict[np.dtype, np.ndarray] = {}

    def _flatten(self, arrays: Sequence[Optional[np.ndarray]]
                 ) -> np.ndarray:
        """The padded flat vector of one array per parameter (``None``
        reads as zeros)."""
        flat = np.zeros(self.padded, dtype=self.dtype)
        for a, lo, hi in zip(arrays, self.offsets, self.offsets[1:]):
            if a is not None:
                flat[lo:hi] = np.asarray(a).reshape(-1)
        return flat

    def _shards(self, flat: np.ndarray) -> List[np.ndarray]:
        """The ``group.size`` equal per-rank slices of a padded flat
        vector."""
        return [flat[r * self.shard_size:(r + 1) * self.shard_size]
                for r in range(self.group.size)]

    def _unflatten(self, flat: np.ndarray) -> List[np.ndarray]:
        return [flat[lo:hi].reshape(p.shape) for p, lo, hi
                in zip(self.params, self.offsets, self.offsets[1:])]

    def step(self) -> None:
        """One sharded update from the parameters' synchronized
        ``.grad``: rank ``r`` reads its shard of the flat gradient.

        A parameter with no gradient is not updated and its moments do
        not decay.
        """
        grads = [p.grad for p in self.params]
        has_grad = [g is not None for g in grads]
        flat = self._flatten(grads)

        self.step_count += 1
        for r in range(self.group.size):
            base = r * self.shard_size
            g = flat[base:base + self.shard_size]
            # The slice of every parameter with a gradient that falls
            # in this shard (the padded tail belongs to no parameter).
            for got, lo, hi in zip(has_grad, self.offsets,
                                   self.offsets[1:]):
                lo = max(lo - base, 0)
                hi = min(hi - base, self.shard_size)
                if got and lo < hi:
                    adam_update_(
                        self.master_shards[r][lo:hi], g[lo:hi],
                        self.m_shards[r][lo:hi], self.v_shards[r][lo:hi],
                        self._scratch, step=self.step_count, lr=self.lr,
                        beta1=self.beta1, beta2=self.beta2, eps=self.eps,
                        weight_decay=self.weight_decay)

        # All-gather the updated shards into the full parameter set.
        fulls = all_gather(self.group, self.master_shards, tag="zero1:ag")
        self._write_params(fulls[0])

    def _write_params(self, flat: np.ndarray) -> None:
        """Copy the flat master vector into the live parameters."""
        for p, updated in zip(self.params, self._unflatten(flat)):
            p.data = updated.astype(p.data.dtype)

    def zero_grad(self) -> None:
        """Clear every parameter's gradient."""
        for p in self.params:
            p.zero_grad()

    # -- checkpoint state -----------------------------------------------------

    def state_dict(self) -> Dict[str, np.ndarray]:
        """``AdamW``'s per-parameter state: ``opt/step_count``,
        ``opt/m/<i>`` and ``opt/v/<i>`` in each parameter's shape.

        The moment shards are unflattened, so the checkpoint does not
        depend on the DP degree: a resize, or a switch between ZeRO-1
        and ``AdamW``, is a plain :meth:`load_state_dict`.
        """
        m, v = (self._unflatten(np.concatenate(shards))
                for shards in (self.m_shards, self.v_shards))
        state = {"opt/step_count": np.asarray(self.step_count)}
        for i in range(len(self.params)):
            state[f"opt/m/{i}"] = m[i]
            state[f"opt/v/{i}"] = v[i]
        return state

    def load_state_dict(self, state: Mapping[str, np.ndarray]) -> None:
        """Restore what :meth:`state_dict` (or ``AdamW.state_dict``)
        saved, at this optimizer's group size.

        Each moment is re-flattened — cast once to the state dtype, so
        a float64-era state loads into a float32 model as float32 —
        and sliced into this group's shards.  The master shards are
        rebuilt from the parameters, which :meth:`_write_params` keeps
        bit-equal to the master copy: load the model first.
        """
        self.step_count = int(state["opt/step_count"])
        indices = range(len(self.params))
        self.m_shards, self.v_shards = (
            self._shards(self._flatten(
                [state[f"opt/{kind}/{i}"] for i in indices]))
            for kind in ("m", "v"))
        self.master_shards = self._shards(
            self._flatten([p.data for p in self.params]))

    def state_nbytes_per_rank(self) -> int:
        """Master + moments bytes held by one rank (the ZeRO saving)."""
        return (self.master_shards[0].nbytes + self.m_shards[0].nbytes
                + self.v_shards[0].nbytes)

