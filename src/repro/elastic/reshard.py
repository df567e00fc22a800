"""Deterministic re-partitioning of training state across layouts.

Three mappings, each exact by construction:

* **ZeRO-1 optimizer shards across a changed DP degree.**  A
  checkpoint holds the Adam moments per parameter at every DP degree
  (:meth:`repro.precision.optimizer.AdamW.state_dict`), and the
  optimizer slices them onto its own shard grid
  (:func:`~repro.precision.optimizer.zero1_shard_size`) as it steps;
  the state passes through here unchanged.  The bytes that change
  owners between the old and new DP degree's grids fall out of
  interval arithmetic on them (:func:`zero1_moved_elements`).
* **Expert re-placement under a changed EP degree.**  Experts live in
  contiguous blocks of ``E/n`` per rank (the EP binding factories,
  :mod:`repro.parallel.ep_ffn` and :mod:`repro.parallel.ag_ffn`); the
  placement at any degree is a pure function of ``(E, n)``, and the
  experts that move are exactly those whose block index changes.
* **DP ring re-formation.**  The data-parallel rings at the new world
  size are recomputed from scratch (:func:`form_dp_rings`) — ring
  membership is never patched incrementally, which is what makes the
  re-partition deterministic regardless of which ranks left or joined.

:func:`reshard_state` applies all three to a trainer checkpoint and
returns the re-partitioned state plus a :class:`ReshardReport` (bytes
moved, experts moved, modelled reshard seconds at a configurable link
bandwidth) — the numbers ``repro train --resize`` and
``bench_elastic_resize`` report.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from ..precision.optimizer import zero1_shard_size
from .layout import ParallelLayout

__all__ = [
    "DEFAULT_RESHARD_BANDWIDTH",
    "ReshardReport",
    "zero1_moved_elements",
    "expert_placement",
    "expert_moves",
    "form_dp_rings",
    "reshard_state",
]

#: Modelled reshard link bandwidth (bytes/s).  Resharding moves state
#: between *nodes*, so the H800 NIC (Table 4) is the honest default.
DEFAULT_RESHARD_BANDWIDTH = 50e9

_EXPERT_KEY = re.compile(
    r"(?:^|/)blocks\.(\d+)\.moe\.experts\.(\d+)\.")


# -- ZeRO-1 shard grids -------------------------------------------------------


def zero1_moved_elements(numel: int, old_dp: int, new_dp: int) -> int:
    """Elements whose owning rank changes between two shard grids.

    Walks the merged shard boundaries of both grids; within each
    interval the (old owner, new owner) pair is constant, so the count
    is exact without touching per-element data.
    """
    if numel <= 0 or old_dp == new_dp:
        return 0
    old_size = zero1_shard_size(numel, old_dp)
    new_size = zero1_shard_size(numel, new_dp)
    cuts = sorted(
        {0, numel}
        | {min(r * old_size, numel) for r in range(1, old_dp)}
        | {min(r * new_size, numel) for r in range(1, new_dp)}
    )
    moved = 0
    for lo, hi in zip(cuts, cuts[1:]):
        if lo // old_size != lo // new_size:
            moved += hi - lo
    return moved


# -- expert re-placement ------------------------------------------------------


def expert_placement(n_experts: int, ep: int) -> List[int]:
    """Owning rank per expert index at EP degree ``ep``.

    Contiguous blocks of ``E/n`` experts per rank — the exact layout
    the EP bindings (:func:`~repro.parallel.ep_ffn.ep_a2a_bindings`,
    :func:`~repro.parallel.ag_ffn.ag_ffn_bindings`) slice out of the
    reference :class:`~repro.model.moe.MoELayer`.
    """
    if ep < 1:
        raise ValueError(f"ep must be >= 1, got {ep}")
    if n_experts % ep != 0:
        raise ValueError(
            f"n_experts={n_experts} not divisible by ep={ep}"
        )
    per_rank = n_experts // ep
    return [e // per_rank for e in range(n_experts)]


def expert_moves(n_experts: int, old_ep: int,
                 new_ep: int) -> List[int]:
    """Expert indices whose owning rank changes old→new."""
    old = expert_placement(n_experts, old_ep)
    new = expert_placement(n_experts, new_ep)
    return [e for e in range(n_experts) if old[e] != new[e]]


# -- DP ring re-formation -----------------------------------------------------


def form_dp_rings(world_size: int, dp: int) -> List[List[int]]:
    """Data-parallel rings at one world size, re-formed from scratch.

    Ranks are laid out replica-major (all of replica 0's model-parallel
    slots, then replica 1's, ...), so the ``world/dp`` rings each
    connect the same model-parallel slot across all ``dp`` replicas.
    """
    if world_size < 1 or dp < 1:
        raise ValueError("world_size and dp must be >= 1")
    if world_size % dp != 0:
        raise ValueError(
            f"world_size={world_size} not divisible by dp={dp}"
        )
    slots = world_size // dp
    return [[slot + replica * slots for replica in range(dp)]
            for slot in range(slots)]


# -- the full state mapping ---------------------------------------------------


@dataclass(frozen=True)
class ReshardReport:
    """What one checkpoint re-partition moved, and what it would cost."""

    old_layout: ParallelLayout
    new_layout: ParallelLayout
    #: Flattened optimizer-state element count (the ZeRO shard space).
    numel: int
    #: Elements whose ZeRO-1 shard owner changed.
    zero_elements_moved: int
    #: Bytes of the main copy + both Adam moments that change ranks.
    zero_bytes: float
    #: Expert indices (per layer) that change ranks under the new EP.
    experts_moved: Tuple[Tuple[int, ...], ...]
    #: Bytes of expert parameters that change ranks.
    expert_bytes: float
    #: The re-formed DP rings at the new layout.
    dp_rings: Tuple[Tuple[int, ...], ...] = field(default=())

    @property
    def total_bytes(self) -> float:
        return self.zero_bytes + self.expert_bytes

    def seconds(self,
                bandwidth: float = DEFAULT_RESHARD_BANDWIDTH) -> float:
        """Modelled reshard time: bytes over one re-partition link."""
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be > 0, got {bandwidth}")
        return self.total_bytes / bandwidth


def _expert_bytes_by_layer(state: Dict[str, np.ndarray],
                           ) -> Dict[int, Dict[int, float]]:
    """``{layer: {expert: bytes}}`` for every expert tensor in state."""
    layers: Dict[int, Dict[int, float]] = {}
    for key, value in state.items():
        match = _EXPERT_KEY.search(key)
        if match is None:
            continue
        layer, expert = int(match.group(1)), int(match.group(2))
        per = layers.setdefault(layer, {})
        per[expert] = per.get(expert, 0.0) + float(
            np.asarray(value).nbytes)
    return layers


def reshard_state(state: Dict[str, np.ndarray],
                  old_layout: ParallelLayout,
                  new_layout: ParallelLayout,
                  ) -> Tuple[Dict[str, np.ndarray], ReshardReport]:
    """Map a trainer checkpoint from one parallel layout to another.

    Every array passes through unchanged, and ``new_state`` is
    ``state`` itself: the optimizer state is saved per parameter and
    ZeRO-1 slices it onto its own DP degree, and expert tensors are
    replicated in this simulation's reference model.  The report
    prices the movement the real system performs: the AdamW state
    changes owners between the ZeRO-1 shard grids of the old and new
    DP degree (a resize that keeps ``dp`` moves none of it), and the
    experts move to their blocks under the new EP degree.

    Returns ``(new_state, report)``.
    """
    # m and v each cover the flattened space once.
    moments = [np.asarray(value) for key, value in state.items()
               if re.fullmatch(r"opt/m/\d+", key)]
    numel = sum(value.size for value in moments)
    moved = zero1_moved_elements(numel, old_layout.dp, new_layout.dp)
    # Master copy + first and second Adam moments, each an element of
    # the saved moments' dtype.
    itemsize = np.result_type(*moments).itemsize if moments else 0
    zero_bytes = 3.0 * itemsize * moved

    expert_bytes = 0.0
    moved_by_layer: List[Tuple[int, ...]] = []
    per_layer = _expert_bytes_by_layer(state)
    old_ep, new_ep = old_layout.ep, new_layout.ep
    for layer in sorted(per_layer):
        experts = per_layer[layer]
        moves = tuple(expert_moves(len(experts), old_ep, new_ep))
        moved_by_layer.append(moves)
        expert_bytes += sum(experts[e] for e in moves)

    report = ReshardReport(
        old_layout=old_layout,
        new_layout=new_layout,
        numel=numel,
        zero_elements_moved=moved,
        zero_bytes=zero_bytes,
        experts_moved=tuple(moved_by_layer),
        expert_bytes=expert_bytes,
        dp_rings=tuple(tuple(ring) for ring in form_dp_rings(
            new_layout.world_size, new_layout.dp)),
    )
    return state, report
