"""Deterministic parallel reverse-mode sweep over the autograd tape.

:meth:`repro.tensor.Tensor.backward` walks the tape sequentially in
reverse-topological order.  That order is a *valid schedule*, but not
the only one: any node may run as soon as every consumer of its output
has contributed its gradient.  :func:`parallel_backward` exploits that
freedom with a worker pool, while keeping results **bitwise identical**
to the sequential sweep:

* gradient *contributions* to a tensor are tagged with the key
  ``(position of the consumer in the sequential order, input index)``
  and folded in ascending key order once the tensor's consumer count
  drains — exactly the operand order of the sequential
  ``grads[id] = grads[id] + g`` accumulation, including duplicate-input
  occurrences;
* each ``backward_fn`` runs on whatever worker picks the node up, but
  sees the identical, fully-folded upstream gradient, so it produces
  identical outputs;
* dtype coercion and unbroadcasting are applied per contribution before
  folding, as in the sequential code, and the fold itself is the shared
  :func:`~repro.tensor.tensor._fold_grads` (first addition allocates,
  the rest accumulate in place into that sweep-owned buffer).

Fault-plan interaction: :class:`~repro.ft.faults.FaultPlan` counts
collective calls globally, and the backward hooks of
:mod:`repro.parallel.dist_ops` issue ledger records as they run.  Under
a *scheduled* or *probabilistic* plan the call order decides which
collective a fault hits, so concurrency would change fault placement;
:func:`backward` therefore falls back to the sequential sweep unless
the plan is *passive* (slow-link factors only) — see
:func:`_plan_is_passive`.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..tensor.tensor import Tensor, _as_grad_of, _fold_grads

__all__ = ["backward", "parallel_backward"]


def _plan_is_passive(plan: Any) -> bool:
    """True when a fault plan cannot fire (slow-link factors only).

    Scheduled specs and probabilistic rates key off the global
    collective call index, which a concurrent backward would reorder;
    ``slow_ranks`` only scales health-ledger durations and is stateless
    per call, so it stays deterministic under any schedule.
    """
    if plan is None:
        return True
    return (not getattr(plan, "pending", None)
            and float(getattr(plan, "rate", 0.0)) == 0.0)


def backward(root: Tensor, grad: Optional[np.ndarray] = None, *,
             executor: Any = None, fault_plan: Any = None,
             tracer: Any = None) -> None:
    """Run the reverse sweep, parallel when the executor allows it.

    Sequential (``executor is None``) delegates to
    :meth:`Tensor.backward` untouched.  Threaded mode uses
    :func:`parallel_backward` unless ``fault_plan`` is active, whose
    call-index bookkeeping requires the sequential schedule.
    """
    if executor is None or not _plan_is_passive(fault_plan):
        root.backward(grad)
        return
    workers = getattr(executor, "parallelism", None) or os.cpu_count() or 1
    parallel_backward(root, grad, workers=workers, tracer=tracer)


def parallel_backward(root: Tensor, grad: Optional[np.ndarray] = None, *,
                      workers: int = 2, tracer: Any = None) -> None:
    """Multi-threaded tape sweep, bitwise identical to ``root.backward``.

    Args:
        root: Output tensor to differentiate (scalar unless ``grad``).
        grad: Upstream gradient; defaults to ones for scalars.
        workers: Worker-thread count (>= 1).
        tracer: Optional :class:`~repro.obs.tracer.Tracer`; workers
            inherit the caller's open span so comm spans emitted by
            backward hooks nest correctly.
    """
    # -- validation: byte-for-byte the sequential error behaviour ----------
    if not root.requires_grad:
        raise RuntimeError("called backward() on a non-grad tensor")
    if grad is None:
        if root.size != 1:
            raise RuntimeError(
                "backward() without an explicit gradient requires a "
                f"scalar output, got shape {root.shape}"
            )
        grad = np.ones_like(root.data)
    grad = np.asarray(grad, dtype=root.data.dtype)

    order = root._topological_order()
    pos: Dict[int, int] = {id(t): i for i, t in enumerate(order)}
    # Remaining consumer occurrences per tensor; a tensor may run once
    # every consumer has reported (with a gradient or a None).
    pending: Dict[int, int] = {}
    for t in order:
        if t.node is None:
            continue
        for inp in t.node.inputs:
            if id(inp) in pos:
                pending[id(inp)] = pending.get(id(inp), 0) + 1
    # Sort-key -> contribution; key = (consumer position, input index)
    # reproduces the sequential accumulation operand order exactly.
    contribs: Dict[int, List[Tuple[Tuple[int, int], np.ndarray]]] = {
        id(root): [((-1, 0), grad)],
    }

    ready: deque = deque([root])
    cond = threading.Condition()
    state: Dict[str, Any] = {"remaining": len(order), "error": None}
    parent = tracer.current() if tracer is not None else None

    def process(t: Tensor, g_out: Optional[np.ndarray]
                ) -> List[Tuple[Tensor, int, Optional[np.ndarray]]]:
        """One node's backward; returns (input, input_idx, grad) tuples."""
        if g_out is None or t.node is None:
            if g_out is not None and t.node is None and t.requires_grad:
                t.grad = g_out if t.grad is None else t.grad + g_out
            if t.node is None:
                return []
            # g_out is None: no gradient flowed here, but the inputs'
            # consumer counts still drain (sequential simply never
            # touched them from this node).
            return [(inp, i, None) for i, inp in enumerate(t.node.inputs)]
        in_grads = t.node.backward_fn(g_out)
        if len(in_grads) != len(t.node.inputs):
            raise RuntimeError(
                f"op {t.node.op_name!r} returned {len(in_grads)} "
                f"gradients for {len(t.node.inputs)} inputs"
            )
        out: List[Tuple[Tensor, int, Optional[np.ndarray]]] = []
        for i, (inp, g) in enumerate(zip(t.node.inputs, in_grads)):
            if g is None or not inp.requires_grad:
                out.append((inp, i, None))
                continue
            out.append((inp, i, _as_grad_of(g, inp)))
        return out

    def worker() -> None:
        if tracer is not None:
            tracer.inherit_parent(parent)
        try:
            while True:
                with cond:
                    while (not ready and state["remaining"] > 0
                           and state["error"] is None):
                        cond.wait()
                    if state["error"] is not None or state["remaining"] <= 0:
                        return
                    t = ready.popleft()
                    entries = contribs.pop(id(t), None)
                if entries is None:
                    g_out: Optional[np.ndarray] = None
                else:
                    entries.sort(key=lambda e: e[0])
                    g_out = _fold_grads([g for _, g in entries])
                try:
                    produced = process(t, g_out)
                except BaseException as exc:  # noqa: BLE001
                    with cond:
                        if state["error"] is None:
                            state["error"] = exc
                        cond.notify_all()
                    return
                t_pos = pos[id(t)]
                with cond:
                    for inp, idx, g in produced:
                        key = id(inp)
                        if g is not None:
                            contribs.setdefault(key, []).append(
                                ((t_pos, idx), g))
                        if key in pending:
                            pending[key] -= 1
                            if pending[key] == 0:
                                del pending[key]
                                ready.append(inp)
                    state["remaining"] -= 1
                    cond.notify_all()
        finally:
            if tracer is not None:
                tracer.inherit_parent(None)

    count = max(1, min(int(workers), len(order)))
    threads = [threading.Thread(target=worker, name=f"bwd-w{i}",
                                daemon=True)
               for i in range(count)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    if state["error"] is not None:
        raise state["error"]
