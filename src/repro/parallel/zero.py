"""ZeRO optimizer-state sharding (§2.2, §4.1).

MegaScale-MoE "employ[s] ZeRO optimizations to eliminate redundant
optimizer states across DP groups".  This module implements stage 1
*numerically*: the flattened parameter space is split into per-rank
shards; each DP rank keeps Adam moments and the master copy for its
shard only — in the parameters' dtype, FP32 for the default model, the
12 B/param :func:`zero_memory_model` charges — updates it from its
shard of the already-synchronized gradient, and the updated shards are
all-gathered back into the full parameter set.

The update is :func:`repro.precision.optimizer.adam_update_`, the
kernel every optimizer calls, run over the slices of each shard whose
parameters received a gradient: a parameter no rank has a gradient for
(an idle expert) sits the step out, exactly as under ``AdamW``.  The
result is bit-identical to a full (unsharded) AdamW step on the
averaged gradients — asserted by the tests — while optimizer memory
drops by ``1/dp``.  The gradient reaches the optimizer through the DP
sync (:mod:`repro.comm.hierarchical`), so the only collective here is
the parameter all-gather.

Stages 2 and 3 are provided as memory/communication models
(:func:`zero_memory_model`), matching the paper's usage (stage 1 in
production, deeper stages analyzed).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..comm.collectives import all_gather
from ..comm.group import ProcessGroup
from ..precision.optimizer import adam_update_
from ..tensor import Tensor

__all__ = ["Zero1AdamW", "zero_memory_model"]


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
        flat = self._flatten([p.data for p in self.params])
        self.master_shards = [
            flat[r * self.shard_size:(r + 1) * self.shard_size].copy()
            for r in range(n)
        ]
        self.m_shards = [np.zeros(self.shard_size, dtype=self.dtype)
                         for _ in range(n)]
        self.v_shards = [np.zeros(self.shard_size, dtype=self.dtype)
                         for _ in range(n)]
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

    # -- shard-level state (elastic resharding) ------------------------------

    def shard_state_dict(self) -> Dict:
        """Per-rank optimizer shards in re-partitionable form.

        The returned dict is exactly what
        :func:`repro.elastic.reshard.reshard_zero1_state` maps across
        DP degrees: the padded per-rank slices of the master copy and
        both Adam moments, plus the flatten geometry needed to undo
        the padding.
        """
        return {
            "numel": self.numel,
            "dp": self.group.size,
            "step_count": self.step_count,
            "master": [s.copy() for s in self.master_shards],
            "m": [s.copy() for s in self.m_shards],
            "v": [s.copy() for s in self.v_shards],
        }

    def load_shard_state_dict(self, state: Dict) -> None:
        """Restore shards saved by :meth:`shard_state_dict`.

        The state's DP degree must match this optimizer's group —
        reshard first (:func:`~repro.elastic.reshard
        .reshard_zero1_state`) when resuming at a different size.
        """
        if int(state["numel"]) != self.numel:
            raise ValueError(
                f"state covers {state['numel']} elements, optimizer "
                f"has {self.numel}"
            )
        if int(state["dp"]) != self.group.size:
            raise ValueError(
                f"state sharded for dp={state['dp']}, group size is "
                f"{self.group.size}; reshard before loading"
            )
        self.step_count = int(state["step_count"])
        for name, shards in (("master_shards", state["master"]),
                             ("m_shards", state["m"]),
                             ("v_shards", state["v"])):
            # One cast to the state dtype (a float64-era state loads
            # into a float32 model as float32).
            loaded = [np.array(s, dtype=self.dtype) for s in shards]
            if any(s.shape != (self.shard_size,) for s in loaded):
                raise ValueError(
                    f"{name} shard shapes do not match shard_size "
                    f"{self.shard_size}"
                )
            setattr(self, name, loaded)
        # Propagate the restored master copy into the live parameters.
        self._write_params(np.concatenate(self.master_shards))

    def state_nbytes_per_rank(self) -> int:
        """Master + moments bytes held by one rank (the ZeRO saving)."""
        return (self.master_shards[0].nbytes + self.m_shards[0].nbytes
                + self.v_shards[0].nbytes)


def zero_memory_model(param_count: float, dp_size: int,
                      stage: int = 1,
                      param_bytes: float = 2.0,
                      grad_bytes: float = 4.0,
                      state_bytes: float = 12.0) -> Dict[str, float]:
    """Per-GPU bytes under ZeRO stages 0–3 (§2.2's three stages).

    Stage 0 replicates everything; stage 1 shards optimizer states;
    stage 2 also shards gradients; stage 3 also shards parameters
    (at the cost of per-layer parameter all-gathers).
    """
    if stage not in (0, 1, 2, 3):
        raise ValueError(f"unknown ZeRO stage {stage}")
    if dp_size < 1:
        raise ValueError(f"dp_size must be >= 1, got {dp_size}")
    d = dp_size
    params = param_count * param_bytes / (d if stage >= 3 else 1)
    grads = param_count * grad_bytes / (d if stage >= 2 else 1)
    states = param_count * state_bytes / (d if stage >= 1 else 1)
    return {
        "params": params,
        "grads": grads,
        "optimizer": states,
        "total": params + grads + states,
    }
