"""The optimizer: AdamW, ZeRO-1-sharded over the DP group when dp > 1.

:class:`AdamW` is the one optimizer class.  It is a caller of one
in-place kernel, :func:`adam_update_`, and keeps both moments **in the
parameter's dtype**: FP32 for the default float32 model, as in §7
("main parameters in FP32"); float64 for the float64 conformance models.
``p.data`` is the full-precision main copy.  Under FP8 training the
GEMMs read FP8-rounded weights through
:func:`~repro.precision.policy.fp8_policy`, so no low-precision copy of
the parameters is kept here.  Nothing in the update phase widens
(docs/INTERNALS.md §17).

With a data-parallel ``group`` of ``d > 1`` ranks, the update is ZeRO
stage 1, which the paper uses "to eliminate redundant optimizer states
across DP groups" (§2.2).  The flat parameter space is cut into the
equal, padded shards of :func:`zero1_shard_size`.  Rank ``r`` runs the
kernel on its shard of the main copy and on its slices of the
per-parameter moments, reading the gradient the DP sync already
averaged, and the updated shards are all-gathered (tag ``zero1:ag``)
into the parameters.  The result is bit-identical to the unsharded
update.  The moments keep their per-parameter shapes either way, so
``state_dict``'s ``opt/...`` keys are the one optimizer-state
checkpoint format at every DP degree, and a DP resize is a plain
``load_state_dict`` (docs/INTERNALS.md §11).
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..comm.collectives import all_gather
from ..comm.group import ProcessGroup
from ..tensor import Tensor

__all__ = ["AdamW", "adam_update_", "clip_grad_norm", "zero1_shard_size"]

#: Elements per kernel pass: the slices of param / grad / m / v plus the
#: two scratch blocks (6 x 256 KB in float32) stay cache-resident
#: across the kernel's ~15 elementwise passes.
_CHUNK = 1 << 16


def adam_update_(param: np.ndarray, grad: np.ndarray, m: np.ndarray,
                 v: np.ndarray, scratch: Dict[np.dtype, np.ndarray], *,
                 step: int, lr: float, beta1: float, beta2: float,
                 eps: float, weight_decay: float) -> None:
    """One AdamW update of a flat parameter segment, in place.

    ``param``, ``m`` and ``v`` are 1-D writeable arrays of one dtype —
    the state dtype — and every operation runs in it: the textbook

        m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
        param -= lr ((m / bc1) / (sqrt(v / bc2) + eps) + wd param)

    evaluated operation for operation with ``out=``, over chunks of at
    most ``_CHUNK`` elements.  ``grad`` is cast to the state dtype as
    it is read and is never written.  ``scratch`` maps a dtype to the
    caller's two preallocated ``_CHUNK`` blocks (created on first use).
    Callers decide *which* segments move: one without a gradient is
    simply not passed, so its moments do not decay.
    """
    dtype = param.dtype
    if m.dtype != dtype or v.dtype != dtype:
        raise TypeError(
            f"Adam moments are {m.dtype}/{v.dtype} for a {dtype} "
            f"parameter; optimizer state lives in the parameter's dtype "
            f"(restore checkpoints through load_state_dict, which casts "
            f"once)"
        )
    blocks = scratch.get(dtype)
    if blocks is None:
        blocks = scratch[dtype] = np.empty((2, _CHUNK), dtype=dtype)
    bc1 = 1.0 - beta1 ** step
    bc2 = 1.0 - beta2 ** step
    for lo in range(0, param.size, _CHUNK):
        hi = min(lo + _CHUNK, param.size)
        pc, gc, mc, vc = param[lo:hi], grad[lo:hi], m[lo:hi], v[lo:hi]
        t, update = blocks[0, :hi - lo], blocks[1, :hi - lo]
        if gc.dtype != dtype:
            np.copyto(update, gc)
            gc = update  # consumed before the update is formed below
        np.multiply(gc, 1 - beta1, out=t)
        mc *= beta1
        mc += t
        np.multiply(gc, 1 - beta2, out=t)
        t *= gc
        vc *= beta2
        vc += t
        np.divide(vc, bc2, out=t)
        np.sqrt(t, out=t)
        t += eps
        np.divide(mc, bc1, out=update)
        update /= t
        if weight_decay:
            np.multiply(pc, weight_decay, out=t)
            update += t
        update *= lr
        pc -= update


def clip_grad_norm(params: Sequence[Tensor], max_norm: float) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm.  Gradients are scaled in place when the
    array is this parameter's own (writeable, not a view); an array two
    parameters share is scaled once.
    """
    total = 0.0
    for p in params:
        if p.grad is not None:
            sq = p.grad.astype(np.float64)
            np.square(sq, out=sq)
            total += float(np.sum(sq))
    norm = float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        scaled = {}
        for p in params:
            g = p.grad
            if g is None:
                continue
            if id(g) in scaled:
                p.grad = scaled[id(g)]
            elif g.flags.writeable and g.flags.owndata:
                g *= scale
                scaled[id(g)] = g
            else:
                p.grad = scaled[id(g)] = g * scale
    return norm


def zero1_shard_size(numel: int, d: int) -> int:
    """Elements per rank of ZeRO-1's shard grid over ``numel`` flat
    elements and ``d`` ranks.

    Rank ``r`` owns ``[r * size, (r + 1) * size)``; the grid is padded
    to ``d * size`` elements, so the last shard's tail belongs to no
    parameter.
    """
    return -(-numel // d)


class AdamW:
    """Decoupled-weight-decay Adam over a parameter list.

    ``m[i]`` / ``v[i]`` have the shape and dtype of parameter ``i``.
    Without a ``group`` (dp = 1), ``step`` updates each ``p.data`` in
    place.  With a data-parallel ``group``, it is ZeRO-1: each rank
    updates its shard of the flat parameter space and the shards are
    all-gathered into the parameters (module docstring).
    """

    def __init__(self, params: Sequence[Tensor], lr: float = 3e-4,
                 betas: tuple = (0.9, 0.95), eps: float = 1e-8,
                 weight_decay: float = 0.0,
                 group: Optional[ProcessGroup] = None):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.group = group
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        #: ``offsets[i]:offsets[i + 1]`` is parameter ``i`` in the flat
        #: space the ZeRO-1 shard grid cuts.
        self.offsets = np.cumsum([0] + [p.size for p in self.params])
        self._scratch: Dict[np.dtype, np.ndarray] = {}

    def _begin_step(self, grads: Optional[Sequence[np.ndarray]]
                    ) -> Iterator[Tuple[int, Tensor, np.ndarray]]:
        """Advance the step count; yield ``(i, param, grad)`` for every
        parameter with a gradient (the others sit the step out)."""
        self.step_count += 1
        for i, p in enumerate(self.params):
            g = grads[i] if grads is not None else p.grad
            if g is not None:
                yield i, p, g

    def _adam(self, param: np.ndarray, grad: np.ndarray, m: np.ndarray,
              v: np.ndarray) -> None:
        """Run the kernel on flat segments of one parameter's state."""
        adam_update_(
            param, grad, m, v, self._scratch, step=self.step_count,
            lr=self.lr, beta1=self.beta1, beta2=self.beta2, eps=self.eps,
            weight_decay=self.weight_decay)

    def step(self, grads: Optional[Sequence[np.ndarray]] = None) -> None:
        """Apply one update from ``p.grad`` (or explicit ``grads``)."""
        if self.group is not None:
            self._sharded_step(grads)
            return
        for i, p, g in self._begin_step(grads):
            if not (p.data.flags.c_contiguous and p.data.flags.writeable):
                p.data = np.array(p.data, order="C")
            self._adam(p.data.reshape(-1), np.asarray(g).reshape(-1),
                       self.m[i].reshape(-1), self.v[i].reshape(-1))

    def _sharded_step(self, grads: Optional[Sequence[np.ndarray]]) -> None:
        """ZeRO-1: rank ``r`` updates the part of every parameter with a
        gradient that falls in its shard, and the all-gathered shards
        become the parameters (a fault on ``zero1:ag`` reaches them)."""
        d = self.group.size
        offsets = self.offsets
        size = zero1_shard_size(int(offsets[-1]), d)
        main = np.zeros(d * size,
                        np.result_type(*(p.data.dtype for p in self.params)))
        for p, lo, hi in zip(self.params, offsets, offsets[1:]):
            main[lo:hi] = p.data.reshape(-1)
        updates = [(offsets[i], offsets[i + 1], np.asarray(g).reshape(-1),
                    self.m[i].reshape(-1), self.v[i].reshape(-1))
                   for i, _, g in self._begin_step(grads)]
        for r in range(d):
            base = r * size
            for lo, hi, g, m, v in updates:
                a, b = max(lo, base), min(hi, base + size)
                if a < b:
                    self._adam(main[a:b], g[a - lo:b - lo], m[a - lo:b - lo],
                               v[a - lo:b - lo])
        full = all_gather(self.group,
                          [main[r * size:(r + 1) * size] for r in range(d)],
                          tag="zero1:ag")[0]
        for p, lo, hi in zip(self.params, offsets, offsets[1:]):
            p.data = full[lo:hi].reshape(p.shape).astype(p.data.dtype)

    def zero_grad(self) -> None:
        """Clear every parameter's gradient."""
        for p in self.params:
            p.zero_grad()

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copies of the step count and both moments, keyed
        ``opt/step_count``, ``opt/m/<i>``, ``opt/v/<i>`` so they merge
        into a trainer state or a checkpoint payload.  The keys and
        shapes do not depend on the DP degree."""
        state = {"opt/step_count": np.asarray(self.step_count)}
        for i, (m, v) in enumerate(zip(self.m, self.v)):
            state[f"opt/m/{i}"] = m.copy()
            state[f"opt/v/{i}"] = v.copy()
        return state

    def load_state_dict(self, state: Mapping[str, np.ndarray]) -> None:
        """Restore what :meth:`state_dict` saved, at any DP degree
        (other keys are ignored).  Each moment is copied and cast once
        to its parameter's dtype, so a checkpoint written when the
        moments were float64 loads into a float32 model as float32."""
        self.step_count = int(state["opt/step_count"])
        for i, p in enumerate(self.params):
            self.m[i] = np.array(state[f"opt/m/{i}"], dtype=p.data.dtype)
            self.v[i] = np.array(state[f"opt/v/{i}"], dtype=p.data.dtype)

    def state_nbytes(self) -> int:
        """Bytes of both moments one rank holds: all of them without a
        group, one shard's under ZeRO-1."""
        if self.group is None:
            return sum(m.nbytes + v.nbytes for m, v in zip(self.m, self.v))
        size = zero1_shard_size(int(self.offsets[-1]), self.group.size)
        return 2 * size * np.result_type(*self.m).itemsize
