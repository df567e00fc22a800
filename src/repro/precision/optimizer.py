"""Optimizers: AdamW and the multi-precision variant of §7.

``AdamW`` keeps FP32 states and is the reference optimizer.

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

from typing import List, Optional, Sequence

import numpy as np

from ..tensor import Tensor
from .formats import FloatFormat, round_to_format

__all__ = ["AdamW", "MultiPrecisionAdamW", "clip_grad_norm"]


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
    """Decoupled-weight-decay Adam over a parameter list."""

    def __init__(self, params: Sequence[Tensor], lr: float = 3e-4,
                 betas: tuple = (0.9, 0.95), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = [np.zeros(p.shape, dtype=np.float64) for p in self.params]
        self.v = [np.zeros(p.shape, dtype=np.float64) for p in self.params]

    def _updates(self, grads: Optional[Sequence[np.ndarray]]):
        """Advance the step count and both moments; yield
        ``(i, param, update)`` for every parameter with a gradient.

        ``update = (m / bc1) / (sqrt(v / bc2) + eps)`` is the same
        sequence of float64 operations as the textbook expression, run
        with ``out=``: the moments are updated in their own buffers and
        the yielded array is scratch the caller may overwrite.
        """
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for i, p in enumerate(self.params):
            g = grads[i] if grads is not None else p.grad
            if g is None:
                continue
            g = g.astype(np.float64)  # a private copy: reused below
            m, v = self.m[i], self.v[i]
            scratch = np.multiply(g, 1 - self.beta1)
            m *= self.beta1
            m += scratch
            np.multiply(g, 1 - self.beta2, out=scratch)
            scratch *= g
            v *= self.beta2
            v += scratch
            np.divide(v, bc2, out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += self.eps
            np.divide(m, bc1, out=g)
            g /= scratch
            yield i, p, g

    def step(self, grads: Optional[Sequence[np.ndarray]] = None) -> None:
        """Apply one update from ``p.grad`` (or explicit ``grads``)."""
        for _, p, update in self._updates(grads):
            if self.weight_decay:
                update += self.weight_decay * p.data
            update *= self.lr
            np.subtract(p.data, update, out=update)
            p.data = update.astype(p.data.dtype, copy=False)

    def zero_grad(self) -> None:
        """Clear every parameter's gradient."""
        for p in self.params:
            p.zero_grad()

    def state_nbytes(self) -> float:
        """Bytes held by the optimizer states (m, v in FP64 here)."""
        return sum(m.nbytes + v.nbytes for m, v in zip(self.m, self.v))


class MultiPrecisionAdamW(AdamW):
    """AdamW with FP32 main params and low-precision model params.

    After every step the updated FP32 main copy is rounded into the
    ``model_format`` and written back into the Tensors the model computes
    with.  ``p.data`` therefore always holds format-representable values,
    emulating parameters *stored* in FP8/BF16.
    """

    def __init__(self, params: Sequence[Tensor],
                 model_format: FloatFormat, **kwargs):
        super().__init__(params, **kwargs)
        self.model_format = model_format
        # FP32 main copy, seeded from the (already-rounded) model params.
        self.main_params: List[np.ndarray] = [
            p.data.astype(np.float64).copy() for p in self.params
        ]
        for p, main in zip(self.params, self.main_params):
            p.data = round_to_format(main, model_format).astype(p.data.dtype)

    def step(self, grads: Optional[Sequence[np.ndarray]] = None) -> None:
        """Update the FP32 master copy, then round into model params."""
        for i, p, update in self._updates(grads):
            main = self.main_params[i]
            if self.weight_decay:
                update += self.weight_decay * main
            update *= self.lr
            main -= update
            p.data = round_to_format(
                main, self.model_format).astype(p.data.dtype)

    def model_param_nbytes(self) -> float:
        """Wire/storage bytes of the low-precision model copy."""
        return sum(p.size * self.model_format.bytes_per_element
                   for p in self.params)
