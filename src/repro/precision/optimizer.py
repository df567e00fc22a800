"""Optimizers: AdamW and the multi-precision variant of §7.

Every optimizer in the repo (``AdamW``, ``MultiPrecisionAdamW`` here,
``Zero1AdamW`` in :mod:`repro.parallel.zero`) is a caller of one
in-place kernel, :func:`adam_update_`, and keeps its state — both
moments, and the main copy where there is one — **in the parameter's
dtype**: FP32 for the default float32 model, as in §7 ("main parameters
in FP32") and the 12 B/param of :func:`~repro.core.analysis
.param_memory_per_gpu`; float64 for the float64 conformance models.
``AdamW.state_dict``'s per-parameter ``opt/...`` keys are the one
optimizer-state checkpoint format: ``Zero1AdamW`` saves and loads them
too.
Nothing in the update phase widens (docs/INTERNALS.md §17).

``MultiPrecisionAdamW`` implements the paper's FP8-training optimizer
("we use a multi-precision optimizer to store model parameters directly
in FP8, while keeping main parameters in FP32 with separate buffers for
different data types"): the *main* parameters and Adam moments stay in
FP32, while the *model* parameters handed to forward passes are stored
rounded to a low-precision format.  This halves parameter all-gather
communication in data parallelism and removes the per-step cast/transpose
overhead of BF16-stored implementations.
"""

from __future__ import annotations

from typing import (
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..tensor import Tensor
from .formats import FloatFormat, round_to_format

__all__ = ["AdamW", "MultiPrecisionAdamW", "adam_update_", "clip_grad_norm"]

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


class AdamW:
    """Decoupled-weight-decay Adam over a parameter list.

    ``m[i]`` / ``v[i]`` have the shape and dtype of parameter ``i``,
    and ``step`` updates ``p.data`` in place.
    """

    def __init__(self, params: Sequence[Tensor], lr: float = 3e-4,
                 betas: tuple = (0.9, 0.95), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
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

    def _adam(self, i: int, target: np.ndarray, grad: np.ndarray) -> None:
        """Run the kernel on parameter ``i``'s state and ``target``."""
        adam_update_(
            target.reshape(-1), np.asarray(grad).reshape(-1),
            self.m[i].reshape(-1), self.v[i].reshape(-1), self._scratch,
            step=self.step_count, lr=self.lr, beta1=self.beta1,
            beta2=self.beta2, eps=self.eps,
            weight_decay=self.weight_decay)

    def step(self, grads: Optional[Sequence[np.ndarray]] = None) -> None:
        """Apply one update from ``p.grad`` (or explicit ``grads``)."""
        for i, p, g in self._begin_step(grads):
            if not (p.data.flags.c_contiguous and p.data.flags.writeable):
                p.data = np.array(p.data, order="C")
            self._adam(i, p.data, g)

    def zero_grad(self) -> None:
        """Clear every parameter's gradient."""
        for p in self.params:
            p.zero_grad()

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copies of the step count and both moments, keyed
        ``opt/step_count``, ``opt/m/<i>``, ``opt/v/<i>`` so they merge
        into a trainer state or a checkpoint payload."""
        state = {"opt/step_count": np.asarray(self.step_count)}
        for i, (m, v) in enumerate(zip(self.m, self.v)):
            state[f"opt/m/{i}"] = m.copy()
            state[f"opt/v/{i}"] = v.copy()
        return state

    def load_state_dict(self, state: Mapping[str, np.ndarray]) -> None:
        """Restore what :meth:`state_dict` saved (other keys are
        ignored).  Each moment is copied and cast once to its
        parameter's dtype, so a checkpoint written when the moments
        were float64 loads into a float32 model as float32."""
        self.step_count = int(state["opt/step_count"])
        for i, p in enumerate(self.params):
            self.m[i] = np.array(state[f"opt/m/{i}"], dtype=p.data.dtype)
            self.v[i] = np.array(state[f"opt/v/{i}"], dtype=p.data.dtype)

    def state_nbytes(self) -> int:
        """Bytes held by the optimizer states (both moments)."""
        return sum(m.nbytes + v.nbytes for m, v in zip(self.m, self.v))


class MultiPrecisionAdamW(AdamW):
    """AdamW with FP32 main params and low-precision model params.

    After every step the updated main copy (FP32 for a float32 model:
    it has the parameter's dtype, like the moments) is rounded into the
    ``model_format`` and written back into the Tensors the model computes
    with.  ``p.data`` therefore always holds format-representable values,
    emulating parameters *stored* in FP8/BF16.
    """

    def __init__(self, params: Sequence[Tensor],
                 model_format: FloatFormat, **kwargs):
        super().__init__(params, **kwargs)
        self.model_format = model_format
        # Main copy, seeded from the (already-rounded) model params.
        self.main_params: List[np.ndarray] = [
            np.array(p.data, order="C") for p in self.params
        ]
        for p, main in zip(self.params, self.main_params):
            p.data = round_to_format(main, model_format).astype(p.data.dtype)

    def step(self, grads: Optional[Sequence[np.ndarray]] = None) -> None:
        """Update the main copy, then round into model params."""
        for i, p, g in self._begin_step(grads):
            main = self.main_params[i]
            self._adam(i, main, g)
            p.data = round_to_format(
                main, self.model_format).astype(p.data.dtype)

    def state_nbytes(self) -> int:
        """Bytes of the main copy plus both moments (12 B/param in
        FP32, :func:`~repro.core.analysis.param_memory_per_gpu`)."""
        return super().state_nbytes() + sum(
            main.nbytes for main in self.main_params)

    def model_param_nbytes(self) -> float:
        """Wire/storage bytes of the low-precision model copy."""
        return sum(p.size * self.model_format.bytes_per_element
                   for p in self.params)
