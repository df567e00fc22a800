"""Recovery policies: retry with backoff and checkpoint integrity.

Detection (:mod:`repro.ft.health`) and injection
(:mod:`repro.ft.faults`) are only useful if something *acts* on them.
This module supplies the action half:

* :func:`retry_with_backoff` — bounded retry of a transient-faulting
  callable with exponential backoff.  Backoff "sleeps" are simulated
  by default (accumulated into :class:`RetryStats`, no wall-clock
  delay), matching the repo-wide principle that time is modelled, not
  spent.  When retries run out the last transient fault is escalated
  as :class:`~repro.ft.faults.RetryExhausted`, which the
  :class:`~repro.core.runner.ProductionRunner` turns into a restart.
* checkpoint integrity — a CRC32 sidecar written next to every
  ``.npz`` checkpoint and :func:`validate_checkpoint`, which rejects
  truncated files, bit-flipped payloads, and unreadable archives.  The
  runner walks the checkpoint chain newest-to-oldest and resumes from
  the newest checkpoint that validates instead of crashing on a
  corrupt latest.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple, Type

from .faults import RetryExhausted, TransientCommFault

__all__ = [
    "BackoffPolicy",
    "RetryStats",
    "retry_with_backoff",
    "LayoutMismatch",
    "ConfigMismatch",
    "file_crc32",
    "meta_path",
    "write_checkpoint_meta",
    "read_checkpoint_meta",
    "validate_checkpoint",
]

#: v1 sidecars carried step/size/crc32; v2 adds the parallel layout of
#: the writer and its model-config fingerprint.  Readers accept both
#: (``layout`` and ``config`` are simply absent in v1).
META_FORMAT_VERSION = 2


class LayoutMismatch(RuntimeError):
    """A checkpoint's recorded parallel layout differs from the
    trainer it is being loaded into.

    Deliberately *not* a :class:`~repro.ft.faults.Fault`: the restart
    path would retry forever against the same mismatched files.  The
    fixed-size runner raises this instead of silently loading
    wrong-shaped arrays; the elastic runner catches the mismatch
    earlier and reshards.
    """

    def __init__(self, message: str, *, saved: object = None,
                 current: object = None):
        super().__init__(message)
        self.saved = saved
        self.current = current


class ConfigMismatch(RuntimeError):
    """A checkpoint was written for a different model config than the
    trainer it is being loaded into.

    Like :class:`LayoutMismatch`, not a fault and not corruption: every
    checkpoint of the chain has the same config, so walking back past
    it would only discard good checkpoints of the other model.
    ``saved`` and ``current`` are the two config fingerprints.
    """

    def __init__(self, message: str, *, saved: object = None,
                 current: object = None):
        super().__init__(message)
        self.saved = saved
        self.current = current


# -- retry with exponential backoff -----------------------------------------


@dataclass(frozen=True)
class BackoffPolicy:
    """Bounded exponential backoff: ``base * multiplier**attempt``.

    ``jitter`` subtracts a deterministic, seeded fraction of up to
    ``jitter`` of each delay so ranks that hit the same transient fault
    don't wake in lockstep and re-stampede the fabric (retry-storm
    avoidance).  The draw is keyed on ``(jitter_seed, salt, attempt)``
    — give each rank its own ``salt`` and every rank sees a different
    but fully reproducible schedule.  The default ``jitter=0.0``
    returns exactly the old deterministic delays, bit for bit.
    """

    max_retries: int = 3
    base_delay: float = 0.5
    multiplier: float = 2.0
    max_delay: float = 30.0
    jitter: float = 0.0
    jitter_seed: int = 0

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(
                f"jitter must be in [0, 1], got {self.jitter}"
            )

    def delay(self, attempt: int, salt: int = 0) -> float:
        """Backoff before retry number ``attempt`` (0-based).

        ``salt`` decorrelates independent retriers (pass the rank).
        """
        delay = min(self.base_delay * self.multiplier ** attempt,
                    self.max_delay)
        if self.jitter == 0.0:
            return delay
        import numpy as np

        rng = np.random.default_rng(
            [int(self.jitter_seed), int(salt), int(attempt)])
        return delay * (1.0 - self.jitter * float(rng.random()))


@dataclass
class RetryStats:
    """Telemetry accumulated across :func:`retry_with_backoff` calls."""

    attempts: int = 0
    retries: int = 0
    exhausted: int = 0
    total_backoff: float = 0.0
    faults: List[str] = field(default_factory=list)


def retry_with_backoff(
    fn: Callable[[], object],
    policy: Optional[BackoffPolicy] = None,
    *,
    retryable: Tuple[Type[BaseException], ...] = (TransientCommFault,),
    sleep: Optional[Callable[[float], None]] = None,
    stats: Optional[RetryStats] = None,
    salt: int = 0,
):
    """Call ``fn`` until it succeeds or retries are exhausted.

    Only ``retryable`` exceptions are retried; anything else (e.g. a
    :class:`~repro.ft.faults.RankCrash`) propagates immediately.  After
    ``policy.max_retries`` failed retries the last fault is re-raised
    wrapped in :class:`RetryExhausted`.
    """
    policy = policy or BackoffPolicy()
    for attempt in range(policy.max_retries + 1):
        if stats is not None:
            stats.attempts += 1
        try:
            return fn()
        except retryable as fault:
            if stats is not None:
                stats.faults.append(f"{type(fault).__name__}: {fault}")
            if attempt == policy.max_retries:
                if stats is not None:
                    stats.exhausted += 1
                raise RetryExhausted(
                    f"gave up after {policy.max_retries} retries; last "
                    f"fault: {fault}"
                ) from fault
            delay = policy.delay(attempt, salt)
            if stats is not None:
                stats.retries += 1
                stats.total_backoff += delay
            if sleep is not None:
                sleep(delay)


# -- checkpoint integrity ----------------------------------------------------


def file_crc32(path: str, chunk_size: int = 1 << 20) -> int:
    """CRC32 of a file's bytes (streamed)."""
    crc = 0
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(chunk_size)
            if not chunk:
                break
            crc = zlib.crc32(chunk, crc)
    return crc & 0xFFFFFFFF


def meta_path(checkpoint_path: str) -> str:
    """Path of the integrity sidecar next to a checkpoint file."""
    return checkpoint_path + ".meta.json"


def write_checkpoint_meta(checkpoint_path: str, step: int,
                          layout: Optional[object] = None,
                          config: Optional[dict] = None) -> dict:
    """Write the CRC/size sidecar for an already-written checkpoint.

    ``layout`` (anything with ``to_dict()``, e.g. a
    :class:`~repro.elastic.layout.ParallelLayout`, or a plain dict)
    records the parallel degrees the state was written under, so a
    later load can detect — and a resharder can resolve — a layout
    change instead of silently restoring wrong-shaped arrays.
    ``config`` (:func:`~repro.core.checkpoint.config_fingerprint`)
    records the model the state belongs to, so a load into another
    model fails as :class:`ConfigMismatch`, not as corruption.
    """
    from ..core.checkpoint import atomic_write

    meta = {
        "format": META_FORMAT_VERSION,
        "step": int(step),
        "size": os.path.getsize(checkpoint_path),
        "crc32": file_crc32(checkpoint_path),
    }
    if layout is not None:
        to_dict = getattr(layout, "to_dict", None)
        meta["layout"] = dict(to_dict() if callable(to_dict)
                              else layout)
    if config is not None:
        meta["config"] = dict(config)
    atomic_write(meta_path(checkpoint_path),
                 lambda handle: json.dump(meta, handle), text=True)
    return meta


def read_checkpoint_meta(checkpoint_path: str) -> Optional[dict]:
    """The sidecar contents, or None when absent/unreadable."""
    try:
        with open(meta_path(checkpoint_path)) as handle:
            meta = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    return meta if isinstance(meta, dict) else None


def validate_checkpoint(checkpoint_path: str) -> bool:
    """True when a checkpoint is present, uncorrupted, and loadable.

    Checks, in order: the file exists; the CRC/size sidecar (when one
    exists) parses and matches the file bytes — a sidecar that is
    *present but unparseable* fails validation, because a half-written
    meta means the checkpoint's provenance can't be trusted, while an
    *absent* sidecar (legacy checkpoint) is still acceptable; and every
    array in the ``.npz`` archive decompresses cleanly (``zipfile``
    verifies per-member CRCs on read, so this also catches truncation
    and in-archive flips even without a sidecar).
    """
    import numpy as np

    if not os.path.isfile(checkpoint_path):
        return False
    meta = read_checkpoint_meta(checkpoint_path)
    if meta is None and os.path.exists(meta_path(checkpoint_path)):
        return False
    if meta is not None:
        try:
            if int(meta.get("size", -1)) != os.path.getsize(
                    checkpoint_path):
                return False
            if int(meta.get("crc32", -1)) != file_crc32(checkpoint_path):
                return False
        except (TypeError, ValueError, OSError):
            return False
    try:
        with np.load(checkpoint_path) as data:
            for key in data.files:
                _ = data[key]
    except Exception:
        return False
    return True
