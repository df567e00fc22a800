"""Elastic resharding: map a saved training state across layouts.

The paper's production story (§6.4, Fig. 19) is month-long 352B jobs on
fleets that shrink and grow as machines fail and return.  This package
is the deterministic re-partitioner that maps a saved training state
from one parallel layout to another; the production runner
(:class:`~repro.core.runner.ProductionRunner`) calls it whenever a
checkpoint's layout differs from its trainer's:

* :class:`~repro.elastic.layout.ParallelLayout` — the (world, DP, EP,
  TP, SP, PP) degrees of a run, recorded in every checkpoint's meta
  sidecar and compared on load.
* :mod:`~repro.elastic.reshard` — the ZeRO-1 shard elements that
  change owners across a changed DP degree, expert re-placement
  under a changed EP degree, DP ring re-formation, and
  :func:`~repro.elastic.reshard.reshard_state` tying them together
  into a :class:`~repro.elastic.reshard.ReshardReport` (bytes moved,
  experts moved, modelled reshard seconds).

The ``elastic_resume`` verify invariant asserts a resize-injected
run's loss trajectory matches the fixed-size run within the existing
per-format precision bands (see :mod:`repro.verify.invariants`).
"""

from .layout import ParallelLayout
from .reshard import (
    DEFAULT_RESHARD_BANDWIDTH,
    ReshardReport,
    expert_moves,
    expert_placement,
    form_dp_rings,
    reshard_state,
    zero1_moved_elements,
)

__all__ = [
    "ParallelLayout",
    "ReshardReport",
    "DEFAULT_RESHARD_BANDWIDTH",
    "expert_placement",
    "expert_moves",
    "form_dp_rings",
    "zero1_moved_elements",
    "reshard_state",
]
