"""Gradient checkpointing (activation rematerialization) for the tape.

The numerical counterpart of §4.1: a checkpointed segment stores only
its *inputs* during the forward pass and re-runs the segment under grad
mode when the backward sweep reaches it.  Combined with
:func:`tape_live_bytes` (which measures what the tape actually retains),
this lets tests verify the Appendix A.2 memory claims on real tensors
instead of formulas.

Semantics match ``torch.utils.checkpoint``: the recomputation must be
deterministic (our engine has no hidden RNG state inside segments), and
gradients are exact because the same operations are replayed.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Set, Tuple

import numpy as np

from .tensor import Node, Tensor, no_grad

__all__ = ["checkpoint_segment", "tape_live_bytes", "tape_saved_arrays"]


def checkpoint_segment(fn: Callable[..., Tensor],
                       *inputs: Tensor) -> Tensor:
    """Run ``fn(*inputs)`` storing only the inputs for backward.

    Forward executes under ``no_grad`` — no intermediate tape nodes (or
    the arrays their closures capture) survive.  Backward re-executes
    ``fn`` with gradients enabled on fresh leaves over the saved input
    arrays, back-propagates through the new subgraph, and returns the
    input gradients; parameter gradients produced inside the segment
    accumulate on the parameters as usual during the replay.
    """
    with no_grad():
        out_value = fn(*inputs)
    if not isinstance(out_value, Tensor):
        raise TypeError("checkpoint_segment expects fn to return a Tensor")
    saved = [(t.data, t.requires_grad) for t in inputs]

    def backward(grad_out: np.ndarray) -> Tuple:
        replay_inputs = [Tensor(data, requires_grad=requires)
                         for data, requires in saved]
        out = fn(*replay_inputs)
        out.backward(grad_out)
        return tuple(
            t.grad if t.requires_grad else None for t in replay_inputs
        )

    return Tensor.from_op(out_value.data, list(inputs), backward,
                          "checkpoint")


def _buffer(a: np.ndarray) -> np.ndarray:
    """The array owning ``a``'s memory (``a`` itself unless a view)."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _closure_arrays(value, out: dict) -> None:
    """Add every ndarray ``value`` holds (through nested tuples, lists
    and Tensors) to ``out``, keyed by owning buffer."""
    if isinstance(value, np.ndarray):
        buf = _buffer(value)
        out[id(buf)] = buf
    elif isinstance(value, Tensor):
        _closure_arrays(value.data, out)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _closure_arrays(item, out)


def tape_saved_arrays(root: Tensor,
                      exclude: Sequence[np.ndarray] = ()
                      ) -> List[np.ndarray]:
    """Distinct buffers the tape reachable from ``root`` keeps alive.

    Walks the nodes over their edges and collects the arrays captured
    in each backward closure or held as its default arguments — the
    live set that must stay in memory between forward and backward.
    Views count as the buffer they view, once.  ``exclude`` removes
    buffers that would be resident anyway (model parameters), so the
    result measures *activation* memory as Appendix A.2 counts it.  A
    consumed node (one a ``backward()`` already swept) holds nothing.
    """
    excluded = {id(_buffer(a)) for a in exclude}
    arrays: dict = {}
    seen: Set[int] = set()
    stack = [] if root.node is None else [root.node]
    while stack:
        node = stack.pop()
        if id(node) in seen or node.backward_fn is None:
            continue
        seen.add(id(node))
        fn = node.backward_fn
        for cell in fn.__closure__ or ():
            _closure_arrays(cell.cell_contents, arrays)
        _closure_arrays(fn.__defaults__ or (), arrays)
        _closure_arrays(list((fn.__kwdefaults__ or {}).values()), arrays)
        stack.extend(e for e in node.edges if type(e) is Node)
    return [a for key, a in arrays.items() if key not in excluded]


def tape_live_bytes(root: Tensor,
                    exclude: Sequence[np.ndarray] = ()) -> float:
    """Bytes retained by the tape reachable from ``root``."""
    return float(sum(a.nbytes
                     for a in tape_saved_arrays(root, exclude)))
