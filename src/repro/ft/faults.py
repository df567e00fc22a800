"""Fault taxonomy and deterministic fault injection for the comm layer.

The Fig. 19 production run "uses over 10,000 GPUs and lasts for months
... Different colors indicate training restarts" — at that scale the
comm substrate routinely experiences rank crashes, NCCL timeouts,
corrupted transfers, and slow links.  This module models those faults
on the simulated cluster:

* an exception hierarchy rooted at :class:`Fault`, split into
  *transient* faults (retryable at the call site:
  :class:`CommTimeout`, :class:`PayloadCorruption`) and *persistent*
  ones (require a restart: :class:`RankCrash`, :class:`NumericFault`,
  :class:`LossSpike`, :class:`RetryExhausted`);
* :class:`FaultPlan` — a deterministic, seeded schedule of faults that
  :class:`~repro.comm.group.ProcessGroup` consults before and after
  every collective.  Scheduled faults fire exactly once (the
  post-recovery replay proceeds, as on a real cluster after the bad
  node is cordoned), and a seeded RNG picks the corrupted bit, so a
  given seed always produces the same fault sequence.

The comm layer talks to the plan through three duck-typed hooks
(``before`` / ``corrupt`` / ``slow_factor``), so :mod:`repro.comm`
never imports this module.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

__all__ = [
    "Fault",
    "TransientCommFault",
    "CommTimeout",
    "PayloadCorruption",
    "RankCrash",
    "NumericFault",
    "LossSpike",
    "RetryExhausted",
    "ResizeEvent",
    "FaultSpec",
    "FaultEvent",
    "FaultPlan",
]


class Fault(RuntimeError):
    """Base class for every injected or detected training fault."""


class TransientCommFault(Fault):
    """A comm fault that a bounded retry of the same step may clear."""


class CommTimeout(TransientCommFault):
    """A collective exceeded its deadline (models an NCCL timeout)."""


class PayloadCorruption(TransientCommFault):
    """A transfer checksum mismatched (bit-flip on the wire)."""


class RankCrash(Fault):
    """A rank died mid-collective; the job must restart."""


class NumericFault(Fault):
    """A NaN/inf appeared in the loss or gradients."""


class LossSpike(Fault):
    """The loss jumped far above its rolling statistics."""


class RetryExhausted(Fault):
    """Transient-fault retries ran out; escalate to a restart."""


class ResizeEvent(Fault):
    """The cluster changed size: rebuild the world at a new layout.

    Raised by the step-level injector when the fleet shrinks (machines
    fail) or grows (machines return).  ``layout`` is the *target*
    parallel layout, a :class:`~repro.elastic.layout.ParallelLayout`
    (duck-typed so this module stays import-free of
    :mod:`repro.elastic`).  :class:`~repro.core.runner.ProductionRunner`
    answers with checkpoint–reshard–resume.
    """

    def __init__(self, step: int, layout: object):
        super().__init__(
            f"cluster resize at step {step} -> {layout}"
        )
        self.step = int(step)
        self.layout = layout


_KINDS = ("crash", "timeout", "corrupt")


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    Attributes:
        kind: ``"crash"``, ``"timeout"``, or ``"corrupt"``.
        at_call: Global collective call index (0-based, as counted by
            the plan across the whole run) at which the fault fires.
        op: Restrict to one collective op name (``None`` = any).
    """

    kind: str
    at_call: int
    op: Optional[str] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{_KINDS}"
            )
        if self.at_call < 0:
            raise ValueError(f"at_call must be >= 0, got {self.at_call}")


@dataclass(frozen=True)
class FaultEvent:
    """Record of one fault that actually fired."""

    kind: str
    op: str
    tag: str
    call_index: int


class FaultPlan:
    """Deterministic fault schedule consulted by the comm layer.

    Args:
        specs: Scheduled :class:`FaultSpec` entries; each fires at most
            once and is then retired.
        slow_ranks: ``{global_rank: slowdown_factor}`` for persistently
            slow links; consulted by the health timing ledger.
        seed: Seeds the corruption bit positions, making the full
            fault sequence reproducible.
        verify_checksums: When True, an injected corruption is caught
            at the receiver (checksum mismatch) and raised as
            :class:`PayloadCorruption`; when False it propagates
            silently into the training numerics.
        timeout_s: Reported deadline in :class:`CommTimeout` messages.
    """

    def __init__(self, specs: Sequence[FaultSpec] = (), *,
                 slow_ranks: Optional[Dict[int, float]] = None,
                 seed: int = 0,
                 verify_checksums: bool = True,
                 timeout_s: float = 30.0):
        for rank, factor in (slow_ranks or {}).items():
            if factor < 1.0:
                raise ValueError(
                    f"slow factor for rank {rank} must be >= 1, got "
                    f"{factor}"
                )
        self.pending: List[FaultSpec] = sorted(specs,
                                               key=lambda s: s.at_call)
        self.slow_ranks = dict(slow_ranks or {})
        self.verify_checksums = bool(verify_checksums)
        self.timeout_s = float(timeout_s)
        self.rng = np.random.default_rng(seed)
        self.calls = 0
        self.fired: List[FaultEvent] = []
        self._corrupt_pending = False
        # before()/corrupt() mutate the call counter, the RNG stream,
        # and the pending list; callers may issue collectives on one
        # world from several threads, so the hooks serialize.
        self._lock = threading.Lock()

    # -- hooks used by repro.comm -------------------------------------------

    def before(self, op: str, tag: str) -> None:
        """Called before each collective moves data; may raise."""
        with self._lock:
            index = self.calls
            self.calls += 1
            kind = self._scheduled_kind(index, op)
            if kind is None:
                return
            self.fired.append(FaultEvent(kind, op, tag, index))
            if kind == "crash":
                raise RankCrash(
                    f"injected rank crash during {op} (call {index})"
                )
            if kind == "timeout":
                raise CommTimeout(
                    f"injected timeout: {op} (call {index}) exceeded "
                    f"{self.timeout_s:.0f}s deadline"
                )
            # "corrupt" fires on the payload after the data has moved.
            self._corrupt_pending = True

    def corrupt(self, op: str, tag: str,
                arrays: Sequence[np.ndarray]) -> bool:
        """Flip one random bit in one output buffer if scheduled.

        Returns True when a corruption was applied.  Raises
        :class:`PayloadCorruption` instead when ``verify_checksums``
        is on — the receiver detects the mismatch and discards the
        payload, exactly like a checksummed transport.
        """
        with self._lock:
            if not self._corrupt_pending:
                return False
            self._corrupt_pending = False
            targets = [a for a in arrays if a.size > 0]
            if not targets:
                return False
            target = targets[int(self.rng.integers(len(targets)))]
            raw = target.reshape(-1).view(np.uint8)
            pos = int(self.rng.integers(raw.size))
            raw[pos] ^= np.uint8(1 << int(self.rng.integers(8)))
            if self.verify_checksums:
                raise PayloadCorruption(
                    f"checksum mismatch on {op} payload (call "
                    f"{self.calls - 1})"
                )
            return True

    def slow_factor(self, rank: int) -> float:
        """Link slowdown factor for ``rank`` (1.0 = nominal)."""
        return self.slow_ranks.get(rank, 1.0)

    # -- internals -----------------------------------------------------------

    def _scheduled_kind(self, index: int, op: str) -> Optional[str]:
        for i, spec in enumerate(self.pending):
            if spec.at_call == index and spec.op in (None, op):
                del self.pending[i]
                return spec.kind
            if spec.at_call > index:
                break
        return None
