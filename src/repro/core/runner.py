"""Production training runner: checkpoint cadence, faults, recovery.

Fig. 19's run "uses over 10,000 GPUs and lasts for months ... Different
colors indicate training restarts."  Operating such a run requires more
than a train_step: periodic checkpoints, crash detection, resume from
the latest durable state, and a metrics trail.  This module provides
that loop for any trainer exposing ``train_step`` /
``state_dict`` / ``load_state_dict``:

* :class:`ProductionRunner` — drives steps, checkpoints every
  ``checkpoint_interval`` steps, and recovers from faults with a
  layered policy (see :mod:`repro.ft`).  Its trainer factory takes the
  current :class:`~repro.elastic.layout.ParallelLayout`, so the same
  loop survives world-size changes:

  1. *transient comm faults* (timeouts, checksum mismatches) are
     retried in place with exponential backoff when a
     :class:`~repro.ft.recovery.BackoffPolicy` is configured;
  2. *persistent faults* (rank crashes, exhausted retries, NaNs, and
     plain :class:`SimulatedFault`) trigger a restart: the trainer is
     rebuilt and state reloaded from the newest checkpoint that passes
     CRC/readability validation — corrupt or truncated ``.npz`` files
     are skipped, walking back the checkpoint chain;
  3. *loss spikes* (via a :class:`~repro.ft.health.LossSpikeGuard`)
     roll back to the last checkpoint and replay;
  4. *resizes* (a :class:`~repro.ft.faults.ResizeEvent`: the fleet
     shrank or grew) checkpoint at the exact step, rebuild the trainer
     at the new layout and restore.  A load whose recorded layout
     differs from the trainer's reshards the state through
     :func:`~repro.elastic.reshard.reshard_state`, so a resize replays
     no steps, where a cold restart replays everything since the last
     periodic checkpoint (``benchmarks/bench_elastic_resize.py``).

  Checkpoints are written atomically (tmp file + fsync + rename) with a CRC32
  sidecar; leftover ``.tmp`` files from crashed writes are ignored and
  swept on the next successful save.
* :class:`FaultInjector` — deterministic step-level fault/loss-spike
  schedule for tests and benches (comm-level faults are injected by
  :class:`~repro.ft.faults.FaultPlan` instead).
* :class:`MetricsLog` — step/loss/restart/recovery history.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Set

import numpy as np

from ..core.checkpoint import atomic_write, config_fingerprint
from ..elastic.layout import ParallelLayout
from ..elastic.reshard import ReshardReport, reshard_state
from ..ft.faults import Fault, LossSpike, ResizeEvent
from ..ft.health import LossSpikeGuard, NumericGuard
from ..ft.recovery import (
    BackoffPolicy,
    ConfigMismatch,
    RetryStats,
    read_checkpoint_meta,
    retry_with_backoff,
    validate_checkpoint,
    write_checkpoint_meta,
)

__all__ = ["SimulatedFault", "FaultInjector", "MetricsLog",
           "ProductionRunner"]


class SimulatedFault(Fault):
    """An injected failure (node loss, NCCL timeout, ...)."""


class FaultInjector:
    """Raises :class:`SimulatedFault` at predetermined global steps.

    Each scheduled step faults exactly once: the post-restart replay of
    the same step proceeds (a real cluster swaps the bad node out).
    ``spike_steps`` additionally perturb the *reported* loss once per
    scheduled step by ``spike_factor`` — modelling a transient loss
    blow-up for the spike-rollback path without touching the weights.
    ``resize_steps`` maps ``{step: target_layout}`` and raises a
    :class:`~repro.ft.faults.ResizeEvent` once per scheduled step —
    the fleet shrinking or growing mid-run.
    """

    def __init__(self, fault_steps: Sequence[int] = (),
                 spike_steps: Sequence[int] = (),
                 spike_factor: float = 100.0,
                 resize_steps: Optional[dict] = None):
        self.pending = set(int(s) for s in fault_steps)
        self.fired: List[int] = []
        self.spike_pending = set(int(s) for s in spike_steps)
        self.spiked: List[int] = []
        self.spike_factor = float(spike_factor)
        self.resize_pending = {int(s): layout for s, layout
                               in (resize_steps or {}).items()}
        self.resized: List[int] = []

    def check(self, step: int) -> None:
        """Raise :class:`SimulatedFault` if ``step`` is scheduled to fail."""
        if step in self.resize_pending:
            layout = self.resize_pending.pop(step)
            self.resized.append(step)
            raise ResizeEvent(step, layout)
        if step in self.pending:
            self.pending.discard(step)
            self.fired.append(step)
            raise SimulatedFault(f"injected fault at step {step}")

    def perturb_loss(self, step: int, loss: float) -> float:
        """Inflate the reported loss once at each scheduled spike step."""
        if step in self.spike_pending:
            self.spike_pending.discard(step)
            self.spiked.append(step)
            return loss * self.spike_factor
        return loss


@dataclass
class MetricsLog:
    """Append-only training telemetry."""

    steps: List[int] = field(default_factory=list)
    losses: List[float] = field(default_factory=list)
    restarts: List[int] = field(default_factory=list)
    checkpoints: List[int] = field(default_factory=list)
    #: Steps at which a loss spike forced a rollback.
    rollbacks: List[int] = field(default_factory=list)
    #: Checkpoint steps discarded as corrupt during recovery.
    invalid_checkpoints: List[int] = field(default_factory=list)
    #: In-place step retries after transient comm faults.
    retries: int = 0
    #: Total simulated backoff delay across those retries.
    backoff_seconds: float = 0.0
    #: Steps at which the runner absorbed a cluster resize.
    resizes: List[int] = field(default_factory=list)
    #: State bytes that changed ranks across those resizes.
    reshard_bytes: float = 0.0
    #: Modelled wall time spent resharding.
    reshard_seconds: float = 0.0

    def record(self, step: int, loss: float) -> None:
        """Append one training step."""
        self.steps.append(step)
        self.losses.append(loss)


class ProductionRunner:
    """Runs a trainer with durable checkpoints and crash recovery.

    Args:
        trainer_factory: Builds a *fresh* trainer for a given
            :class:`ParallelLayout` (called at start, after every
            restart and after every resize); the trainer must expose
            ``train_step(batch)`` returning an object with a ``loss``
            attribute (or a float), plus ``state_dict()`` /
            ``load_state_dict()``.  Toy trainers without a ``parallel``
            config ignore the layout and opt out of layout checks.
        layout: The :class:`ParallelLayout` the run starts at.
        checkpoint_dir: Where step-stamped ``.npz`` state lands.
        checkpoint_interval: Steps between checkpoints.
        max_restarts: Give up (re-raise) after this many recoveries.
        retry_policy: Retry transient comm faults in place with this
            backoff before escalating to a restart (None = every fault
            escalates immediately).
        loss_guard: Raise-and-rollback on loss spikes.
        numeric_guard: Raise-and-restart on NaN/inf losses.
        max_rollbacks: Give up after this many loss-spike recoveries.
        sleep: Receives each backoff delay (None = simulated time,
            no real sleeping).
        obs: Optional :class:`~repro.obs.Observability` bundle; the
            runner marks checkpoints, restarts, rollbacks and resizes as
            instant trace events and counts them in the metrics
            registry (the trainer-level spans come from passing the
            same bundle to the trainer factory's trainer).
    """

    def __init__(self, trainer_factory: Callable[[ParallelLayout], object],
                 layout: ParallelLayout, checkpoint_dir: str,
                 checkpoint_interval: int = 10, max_restarts: int = 10, *,
                 retry_policy: Optional[BackoffPolicy] = None,
                 loss_guard: Optional[LossSpikeGuard] = None,
                 numeric_guard: Optional[NumericGuard] = None,
                 max_rollbacks: int = 10,
                 sleep: Optional[Callable[[float], None]] = None,
                 obs: Optional[object] = None):
        if checkpoint_interval < 1:
            raise ValueError(
                f"checkpoint_interval must be >= 1, got "
                f"{checkpoint_interval}"
            )
        self.trainer_factory = trainer_factory
        #: The layout the next trainer is built at.
        self.layout = layout
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_interval = checkpoint_interval
        self.max_restarts = max_restarts
        self.retry_policy = retry_policy
        self.loss_guard = loss_guard
        self.numeric_guard = numeric_guard
        self.max_rollbacks = max_rollbacks
        self.sleep = sleep
        self.obs = obs
        self.retry_stats = RetryStats()
        #: Every re-partition performed, in order.
        self.reshard_reports: List[ReshardReport] = []
        #: Checkpoint steps found corrupt/unreadable and walked past.
        self.discarded: List[int] = []
        self._invalid: Set[int] = set()
        os.makedirs(checkpoint_dir, exist_ok=True)
        # A crash before the first save of a resumed run must not leave
        # its .tmp leftovers behind until that save happens.
        self._sweep_tmp_files()

    # -- checkpoint files ---------------------------------------------------

    def _path(self, step: int) -> str:
        return os.path.join(self.checkpoint_dir, f"step_{step:08d}.npz")

    def checkpoint_steps(self) -> List[int]:
        """All checkpointed steps on disk, ascending (``.tmp`` ignored)."""
        steps = []
        for name in os.listdir(self.checkpoint_dir):
            if name.startswith("step_") and name.endswith(".npz"):
                try:
                    steps.append(int(name[5:-4]))
                except ValueError:
                    continue
        return sorted(steps)

    def latest_checkpoint(self) -> Optional[int]:
        """Newest *valid* checkpointed step, or None.

        Walks the chain newest-to-oldest, skipping checkpoints that
        fail CRC-sidecar validation or cannot be read back (truncated
        or bit-flipped archives); skipped steps land in
        :attr:`discarded`.
        """
        for step in reversed(self.checkpoint_steps()):
            if step in self._invalid:
                continue
            if validate_checkpoint(self._path(step)):
                return step
            self._mark_invalid(step)
        return None

    def _mark_invalid(self, step: int) -> None:
        if step not in self._invalid:
            self._invalid.add(step)
            self.discarded.append(step)

    def _new_trainer(self):
        return self.trainer_factory(self.layout)

    @staticmethod
    def _trainer_layout(trainer) -> Optional[ParallelLayout]:
        """The trainer's :class:`ParallelLayout`, or None for
        layout-less toy trainers (which opt out of layout checks)."""
        return ParallelLayout.from_trainer(trainer)

    @staticmethod
    def _trainer_config(trainer) -> Optional[dict]:
        """The fingerprint of the trainer's model config, or None for
        toy trainers without one (which opt out of the config check)."""
        config = getattr(getattr(trainer, "model", None), "config", None)
        return None if config is None else config_fingerprint(config)

    def _save(self, trainer, step: int) -> None:
        state = trainer.state_dict()
        atomic_write(self._path(step),
                     lambda handle: np.savez(handle, **state))
        write_checkpoint_meta(self._path(step), step,
                              layout=self._trainer_layout(trainer),
                              config=self._trainer_config(trainer))
        self._invalid.discard(step)
        self._sweep_tmp_files()

    def _sweep_tmp_files(self) -> None:
        """Remove leftovers from writes that crashed mid-checkpoint."""
        for name in os.listdir(self.checkpoint_dir):
            if name.endswith(".npz.tmp") or name.endswith(".json.tmp"):
                try:
                    os.remove(os.path.join(self.checkpoint_dir, name))
                except OSError:
                    pass

    def _load(self, trainer, step: int) -> None:
        meta = read_checkpoint_meta(self._path(step)) or {}
        saved_config = meta.get("config")
        config = self._trainer_config(trainer)
        if isinstance(saved_config, dict) and config is not None \
                and saved_config != config:
            saved_text, current_text = (
                " ".join(f"{key}={value}" for key, value in c.items())
                for c in (saved_config, config))
            raise ConfigMismatch(
                f"checkpoint step {step} was written for the model "
                f"[{saved_text}] but the trainer's model is "
                f"[{current_text}]", saved=saved_config, current=config)
        with np.load(self._path(step)) as data:
            state = {k: data[k] for k in data.files}
        saved, current = self._saved_layout(meta), \
            self._trainer_layout(trainer)
        if saved is not None and current is not None \
                and saved != current:
            # Map the checkpoint's state from its recorded layout onto
            # the live trainer's.
            state, report = reshard_state(state, saved, current,
                                          obs=self.obs)
            self.reshard_reports.append(report)
        trainer.load_state_dict(state)

    @staticmethod
    def _saved_layout(meta: dict) -> Optional[ParallelLayout]:
        """The layout recorded in a checkpoint's sidecar, or None."""
        layout = meta.get("layout")
        if not isinstance(layout, dict):
            return None
        try:
            return ParallelLayout.from_dict(layout)
        except (KeyError, TypeError, ValueError):
            return None

    def _restore(self, trainer, metrics: Optional[MetricsLog] = None,
                 ) -> int:
        """Load the newest checkpoint that actually restores; returns
        the resume step (0 when no usable checkpoint remains)."""
        self._sweep_tmp_files()
        while True:
            resume = self.latest_checkpoint()
            if resume is None:
                if metrics is not None:
                    self._sync_invalid(metrics)
                return 0
            try:
                self._load(trainer, resume)
            except ConfigMismatch:
                # Not corruption: the checkpoint is fine, the model is
                # another one.  Walking further back would only find
                # more such checkpoints — surface it.
                raise
            except Exception:
                # Validation passed but the load failed (e.g. raced
                # corruption): drop this step and walk further back.
                self._mark_invalid(resume)
                continue
            if metrics is not None:
                self._sync_invalid(metrics)
            return resume

    def _sync_invalid(self, metrics: MetricsLog) -> None:
        for step in self.discarded:
            if step not in metrics.invalid_checkpoints:
                metrics.invalid_checkpoints.append(step)

    # -- observability -------------------------------------------------------

    def _mark(self, name: str, **attrs) -> None:
        """Instant trace event + matching counter, when observed."""
        if self.obs is None:
            return
        self.obs.tracer.instant(name, cat="runner", stream="runner",
                                **attrs)
        self.obs.metrics.inc(f"runner.{name}")

    # -- the loop ------------------------------------------------------------

    def _resize(self, event: ResizeEvent, trainer, step: int,
                metrics: MetricsLog):
        """Checkpoint – reshard – rebuild – resume at the event's
        layout; returns ``(trainer, step)``."""
        old_layout = self.layout
        # Checkpoint at the exact step the resize fired, so nothing
        # is replayed after the world comes back up.
        self._save(trainer, step)
        if step not in metrics.checkpoints:
            metrics.checkpoints.append(step)
        self._mark("checkpoint", step=step)

        reports_before = len(self.reshard_reports)
        self.layout = event.layout
        trainer = self._new_trainer()
        resume = self._restore(trainer, metrics)

        metrics.resizes.append(event.step)
        for report in self.reshard_reports[reports_before:]:
            metrics.reshard_bytes += report.total_bytes
            metrics.reshard_seconds += report.seconds()
        self._mark("resize", step=event.step,
                   old=old_layout.describe(),
                   new=self.layout.describe(),
                   resumed_at=resume)
        return trainer, resume

    def _attempt_step(self, trainer, batch):
        if self.retry_policy is None:
            return trainer.train_step(batch)
        return retry_with_backoff(
            lambda: trainer.train_step(batch),
            self.retry_policy,
            sleep=self.sleep,
            stats=self.retry_stats,
        )

    def run(self, batches: Sequence[np.ndarray],
            fault_injector: Optional[FaultInjector] = None,
            metrics: Optional[MetricsLog] = None) -> MetricsLog:
        """Train through ``batches`` with recovery; returns the log."""
        metrics = metrics or MetricsLog()
        retries_before = self.retry_stats.retries
        backoff_before = self.retry_stats.total_backoff
        trainer = self._new_trainer()

        step = self._restore(trainer, metrics)
        last_saved = step if step > 0 else None

        restarts = 0
        rollbacks = 0
        while step < len(batches):
            try:
                if fault_injector is not None:
                    fault_injector.check(step)
                result = self._attempt_step(trainer, batches[step])
                loss = float(getattr(result, "loss", result))
                if fault_injector is not None:
                    loss = fault_injector.perturb_loss(step, loss)
                if self.numeric_guard is not None:
                    self.numeric_guard.check(loss)
                if self.loss_guard is not None:
                    self.loss_guard.observe(step, loss)
                metrics.record(step, loss)
                step += 1
                if step % self.checkpoint_interval == 0:
                    self._save(trainer, step)
                    metrics.checkpoints.append(step)
                    self._mark("checkpoint", step=step)
                    last_saved = step
            except LossSpike:
                rollbacks += 1
                if rollbacks > self.max_rollbacks:
                    raise
                metrics.rollbacks.append(step)
                self._mark("rollback", step=step)
                trainer = self._new_trainer()
                step = self._restore(trainer, metrics)
            except ResizeEvent as event:
                trainer, step = self._resize(event, trainer, step, metrics)
            except Fault as fault:
                restarts += 1
                if restarts > self.max_restarts:
                    raise
                metrics.restarts.append(step)
                self._mark("restart", step=step,
                           fault=type(fault).__name__)
                trainer = self._new_trainer()
                step = self._restore(trainer, metrics)
        if last_saved != step:
            self._save(trainer, step)
            metrics.checkpoints.append(step)
            self._mark("checkpoint", step=step)
        retries = self.retry_stats.retries - retries_before
        metrics.retries += retries
        metrics.backoff_seconds += (self.retry_stats.total_backoff
                                    - backoff_before)
        if self.obs is not None and retries:
            self.obs.metrics.inc("runner.retries", retries)
        return metrics
