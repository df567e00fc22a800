"""SPMD thread-per-rank execution engine.

The parallel engines in :mod:`repro.parallel` were written as Python
loops over ranks: rank ``r``'s compute is a closure over its shard, and
collectives are whole-world functions taking every rank's tensor at
once.  :class:`SpmdExecutor` runs those same per-rank closures as real
concurrent threads — numpy releases the GIL inside BLAS kernels, so on
a multi-core host the ranks' GEMMs genuinely overlap, which is the
regime where MegaScale-MoE's communication/computation overlap story
(§4) is measurable at all.

Design:

* :meth:`SpmdExecutor.run` spawns one thread per rank of a process
  group and hands each a :class:`RankComm`.  Collectives issued through
  the handle meet at a :class:`~repro.comm.rendezvous.Rendezvous`
  barrier, where one thread executes the *existing* whole-world
  collective over the rank-ordered payload slots — identical
  arithmetic, one ledger record, one fault-plan consultation, one
  tracer span; see the determinism contract in
  :mod:`repro.comm.rendezvous` and ``docs/INTERNALS.md`` §8.
* :meth:`SpmdExecutor.map` runs independent closures (embedding shards,
  LM-loss pieces, DP replicas, pipeline tasks) concurrently with no
  rendezvous, bounded by ``parallelism``.
* The active mode resolves from the ``execution`` knob
  (:class:`~repro.core.config.TrainConfig`), falling back to the
  ``REPRO_EXECUTION`` environment variable and finally to
  ``"sequential"`` — so ``REPRO_EXECUTION=threaded pytest`` exercises
  the whole suite on threads.

Tracer integration: worker threads inherit the spawning thread's
innermost open span as their root parent
(:meth:`repro.obs.tracer.Tracer.inherit_parent`), so Chrome traces show
rank work nested under ``forward``/``backward`` exactly as in
sequential runs.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Callable, Iterable, List, Optional, Sequence

from ..comm.rendezvous import Rendezvous, SpmdAbort
from ..tensor.tensor import is_grad_enabled, set_grad_enabled

__all__ = [
    "EXECUTION_MODES",
    "RankComm",
    "SpmdExecutor",
    "current_rank",
    "make_executor",
    "resolve_execution",
]

EXECUTION_MODES = ("sequential", "threaded", "vectorized")

_TLS = threading.local()


def current_rank() -> Optional[int]:
    """The world rank of the calling SPMD thread (None outside one)."""
    return getattr(_TLS, "rank", None)


def resolve_execution(execution: Optional[str] = None) -> str:
    """Resolve an execution mode: explicit > ``REPRO_EXECUTION`` > default."""
    mode = execution or os.environ.get("REPRO_EXECUTION") or "sequential"
    if mode not in EXECUTION_MODES:
        raise ValueError(
            f"unknown execution mode {mode!r}; expected one of "
            f"{EXECUTION_MODES}"
        )
    return mode


def make_executor(execution: Optional[str] = None,
                  parallelism: Optional[int] = None
                  ) -> Optional["SpmdExecutor"]:
    """An :class:`SpmdExecutor` for ``"threaded"`` mode, else None.

    ``"vectorized"`` also resolves to None: the vectorized backend is
    single-threaded (all ranks batched into one kernel per op), so the
    engines' sequential code paths carry it — the trainer routes the
    mode to the DAG executor's ``vectorized`` flag instead.

    ``None`` doubles as the sequential sentinel throughout the engines:
    every ``executor`` parameter treats it as "run the classic loop".
    """
    if resolve_execution(execution) == "threaded":
        return SpmdExecutor(parallelism=parallelism)
    return None


def _dist_ops():
    # Imported lazily: repro.parallel builds on repro.runtime.
    from ..parallel import dist_ops
    return dist_ops


class RankComm:
    """One rank's collective endpoint inside an SPMD run.

    Wraps a shared :class:`Rendezvous`; every collective method blocks
    until all ranks of the group arrive, then returns this rank's share
    of the single whole-world result.
    """

    __slots__ = ("group", "index", "rank", "_rdv")

    def __init__(self, group: Any, index: int, rdv: Rendezvous):
        self.group = group
        #: Position of this rank inside ``group.ranks``.
        self.index = index
        #: Global (world) rank id.
        self.rank = int(group.ranks[index])
        self._rdv = rdv

    @property
    def size(self) -> int:
        return int(self.group.size)

    # -- generic exchanges ---------------------------------------------------

    def exchange(self, label: Any, payload: Any,
                 fn: Callable[[List[Any]], Any]) -> Any:
        """Rendezvous on ``label``; one rank runs ``fn(slots)`` for all.

        Returns ``fn``'s result, shared by every rank.  ``fn`` must be
        equivalent across ranks (it sees the rank-ordered payloads).
        """
        return self._rdv.exchange(self.index, label, payload, fn)

    def gossip(self, label: Any, payload: Any) -> List[Any]:
        """All-gather arbitrary Python metadata (no ledger bytes).

        The sequential engines read peers' routing metadata directly
        from shared lists; gossip is the explicit SPMD equivalent.
        """
        return self.exchange(("gossip", label), payload, list)

    def collective(self, fn: Callable[..., Sequence[Any]], payload: Any,
                   **kwargs: Any) -> Any:
        """Run whole-world ``fn(group, slots, **kwargs)``; return my share."""
        label = (getattr(fn, "__name__", repr(fn)), kwargs.get("tag", ""))
        group = self.group
        outs = self.exchange(
            label, payload, lambda slots: fn(group, slots, **kwargs))
        return outs[self.index]

    # -- differentiable collectives (repro.parallel.dist_ops) ----------------

    def all_gather(self, tensor: Any, axis: int = 0,
                   elem_bytes: Optional[float] = None,
                   tag: str = "", tiled: bool = False,
                   tile_label: str = "") -> Any:
        """Differentiable all-gather; returns the full tensor."""
        return self.collective(_dist_ops().dist_all_gather, tensor,
                               axis=axis, elem_bytes=elem_bytes, tag=tag,
                               tiled=tiled, tile_label=tile_label)

    def reduce_scatter(self, tensor: Any, axis: int = 0,
                       elem_bytes: Optional[float] = None,
                       tag: str = "", tiled: bool = False,
                       tile_label: str = "") -> Any:
        """Differentiable reduce-scatter; returns this rank's slice."""
        return self.collective(_dist_ops().dist_reduce_scatter, tensor,
                               axis=axis, elem_bytes=elem_bytes, tag=tag,
                               tiled=tiled, tile_label=tile_label)

    def all_reduce(self, tensor: Any,
                   elem_bytes: Optional[float] = None,
                   tag: str = "") -> Any:
        """Differentiable all-reduce; returns the summed tensor."""
        return self.collective(_dist_ops().dist_all_reduce, tensor,
                               elem_bytes=elem_bytes, tag=tag)

    def all_to_all(self, tensor: Any, split_axis: int, concat_axis: int,
                   elem_bytes: Optional[float] = None,
                   tag: str = "", tiles: int = 1, tile_axis: int = 0,
                   tile_label: str = "") -> Any:
        """Differentiable balanced all-to-all (the Ulysses primitive)."""
        return self.collective(_dist_ops().dist_all_to_all, tensor,
                               split_axis=split_axis,
                               concat_axis=concat_axis,
                               elem_bytes=elem_bytes, tag=tag,
                               tiles=tiles, tile_axis=tile_axis,
                               tile_label=tile_label)

    def all_to_all_uneven(self, tensor: Any, splits: Sequence[int],
                          elem_bytes: Optional[float] = None,
                          tag: str = "", tiled: bool = False,
                          tile_label: str = "") -> Any:
        """Differentiable uneven all-to-all (MoE token dispatch)."""
        ops = _dist_ops()
        group = self.group

        def fn(slots: List[Any]) -> Any:
            return ops.dist_all_to_all_uneven(
                group, [s[0] for s in slots], [s[1] for s in slots],
                elem_bytes=elem_bytes, tag=tag, tiled=tiled,
                tile_label=tile_label)

        outs = self.exchange(("all_to_all_uneven", tag),
                             (tensor, list(splits)), fn)
        return outs[self.index]


class SpmdExecutor:
    """Runs per-rank closures on real threads with rendezvous collectives.

    Args:
        parallelism: Concurrency cap for :meth:`map`.  :meth:`run`
            always keeps every rank resident (a barrier needs all
            parties), exactly as NCCL cannot timeshare a communicator.
            Defaults to ``os.cpu_count()``.
    """

    def __init__(self, parallelism: Optional[int] = None):
        if parallelism is not None and parallelism < 1:
            raise ValueError(
                f"parallelism must be >= 1, got {parallelism}"
            )
        self.parallelism = parallelism

    def _tracer_of(self, group: Any) -> Any:
        world = getattr(group, "world", None)
        return getattr(world, "tracer", None)

    def run(self, group: Any, rank_fn: Callable[[RankComm], Any]
            ) -> List[Any]:
        """Execute ``rank_fn(comm)`` concurrently for every group rank.

        Returns the per-rank results in rank order.  The first failing
        rank's exception propagates; peers stuck at a rendezvous are
        aborted and unwind via :class:`SpmdAbort`.
        """
        n = int(group.size)
        rdv = Rendezvous(n)
        if n == 1:
            return [rank_fn(RankComm(group, 0, rdv))]
        results: List[Any] = [None] * n
        errors: List[Any] = []
        err_lock = threading.Lock()
        tracer = self._tracer_of(group)
        parent = tracer.current() if tracer is not None else None
        grad_mode = is_grad_enabled()

        def worker(idx: int) -> None:
            _TLS.rank = int(group.ranks[idx])
            set_grad_enabled(grad_mode)
            if tracer is not None:
                tracer.inherit_parent(parent)
            try:
                results[idx] = rank_fn(RankComm(group, idx, rdv))
            except SpmdAbort:
                pass  # a peer failed; its error is already recorded
            except BaseException as exc:  # noqa: BLE001
                with err_lock:
                    errors.append((idx, exc))
                rdv.abort()
            finally:
                if tracer is not None:
                    tracer.inherit_parent(None)
                _TLS.rank = None

        threads = [
            threading.Thread(target=worker, args=(i,),
                             name=f"spmd-rank{group.ranks[i]}",
                             daemon=True)
            for i in range(n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            errors.sort(key=lambda e: e[0])
            raise errors[0][1]
        return results

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any],
            tracer: Any = None) -> List[Any]:
        """Apply ``fn`` to independent items on concurrent threads.

        No rendezvous: items must not need to communicate.  Concurrency
        is bounded by ``parallelism`` (wave scheduling); results return
        in item order and the lowest-index failure propagates.
        """
        work = list(items)
        if len(work) <= 1:
            return [fn(item) for item in work]
        results: List[Any] = [None] * len(work)
        errors: List[Any] = []
        err_lock = threading.Lock()
        parent = tracer.current() if tracer is not None else None
        grad_mode = is_grad_enabled()

        def worker(idx: int) -> None:
            set_grad_enabled(grad_mode)
            if tracer is not None:
                tracer.inherit_parent(parent)
            try:
                results[idx] = fn(work[idx])
            except BaseException as exc:  # noqa: BLE001
                with err_lock:
                    errors.append((idx, exc))
            finally:
                if tracer is not None:
                    tracer.inherit_parent(None)

        limit = self.parallelism or os.cpu_count() or len(work)
        limit = max(1, min(limit, len(work)))
        for start in range(0, len(work), limit):
            wave = [
                threading.Thread(target=worker, args=(i,),
                                 name=f"spmd-map{i}", daemon=True)
                for i in range(start, min(start + limit, len(work)))
            ]
            for t in wave:
                t.start()
            for t in wave:
                t.join()
            if errors:
                break
        if errors:
            errors.sort(key=lambda e: e[0])
            raise errors[0][1]
        return results
