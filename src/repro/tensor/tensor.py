"""A small tape-based reverse-mode autodiff engine over numpy.

MegaScale-MoE's key scheduling idea is that an MoE layer is *decomposed
into operators* whose forward and backward passes can be reordered and
overlapped (Section 4).  Reproducing the numerical experiments therefore
needs an autograd substrate where each operator's backward is an explicit,
schedulable unit — exactly what a tape of :class:`Node` records provides.

The engine is deliberately minimal: dense numpy arrays, float32/float64,
reverse-mode only.  Operator definitions live in :mod:`repro.tensor.ops`;
this module provides the :class:`Tensor` wrapper, broadcasting-aware
arithmetic, and the topological-sort backward pass.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["Tensor", "Node", "ConsumedGraphError", "graph_order",
           "no_grad", "is_grad_enabled"]

ArrayLike = Union[np.ndarray, float, int, list, tuple, "Tensor"]

#: The dtypes a Tensor keeps as given; anything else becomes float32.
#: dtype instances, not scalar types: ``in`` then matches by identity.
_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class _GradMode(threading.local):
    """Per-thread recording switch: caller-owned threads enter and
    leave ``no_grad`` independently, so a process-wide flag would be
    restored in the wrong order."""

    enabled = True


_GRAD_MODE = _GradMode()


class no_grad:
    """Context manager disabling tape recording on the calling thread
    (for eval / inference / optimizers)."""

    def __enter__(self):
        self._prev = _GRAD_MODE.enabled
        _GRAD_MODE.enabled = False
        return self

    def __exit__(self, *exc):
        _GRAD_MODE.enabled = self._prev
        return False


def is_grad_enabled() -> bool:
    """True when operations on this thread record tape nodes."""
    return _GRAD_MODE.enabled


class Node:
    """A tape record: an op's backward function and its graph edges.

    ``backward_fn(grad_out) -> tuple[grad_in, ...]`` must return one
    gradient array (or None) per entry of ``edges``.  ``edges[i]`` is
    where input ``i``'s gradient goes: the :class:`Node` that produced
    that input, the leaf :class:`Tensor` that accumulates it, or None
    when the input needs no gradient.  The node never holds its input
    Tensors, so an intermediate array lives only as long as some
    ``backward_fn`` saved it (PyTorch's ``grad_fn.next_functions``).
    ``shape`` and ``dtype`` describe the op's output ``out`` (the node
    does not keep the array): the gradient handed back to this node is
    cast and reduced to them.

    :meth:`Tensor.backward` consumes the nodes it sweeps: it drops each
    node's ``backward_fn`` and ``edges`` right after the vjp runs.
    """

    __slots__ = ("edges", "backward_fn", "op_name", "shape", "dtype")

    def __init__(self, edges: Sequence[Union["Node", "Tensor", None]],
                 backward_fn: Callable[[np.ndarray], Tuple],
                 out: np.ndarray, op_name: str):
        self.edges: Optional[tuple] = tuple(edges)
        self.backward_fn: Optional[Callable] = backward_fn
        self.shape = out.shape
        self.dtype = out.dtype
        self.op_name = op_name


class ConsumedGraphError(RuntimeError):
    """``backward()`` reached a node an earlier sweep already freed."""


def graph_order(root: "Tensor") -> List[Union["Node", "Tensor"]]:
    """The nodes and grad-requiring leaves reachable from ``root``,
    inputs before consumers.

    Raises :class:`ConsumedGraphError` if the walk meets a node whose
    graph an earlier ``backward()`` consumed.
    """
    start = root if root.node is None else root.node
    visited = set()
    order: List[Union[Node, Tensor]] = []
    stack: List[Tuple[Union[Node, Tensor], bool]] = [(start, False)]
    while stack:
        v, processed = stack.pop()
        if processed:
            order.append(v)
            continue
        if id(v) in visited:
            continue
        visited.add(id(v))
        stack.append((v, True))
        if not isinstance(v, Tensor):  # a node
            if v.edges is None:
                raise ConsumedGraphError(
                    f"backward() reached op {v.op_name!r}, whose graph "
                    "an earlier backward() already consumed; sum the "
                    "roots and sweep once")
            for edge in v.edges:
                if edge is not None and id(edge) not in visited:
                    stack.append((edge, False))
    return order


def _is_basic_index(index) -> bool:
    """True for slice/int/Ellipsis/None indices (no target repeats)."""
    items = index if isinstance(index, tuple) else (index,)
    return all(i is None or i is Ellipsis
               or isinstance(i, (slice, int, np.integer)) for i in items)


def _as_grad_of(g, edge: Union[Node, "Tensor"]) -> np.ndarray:
    """``g`` as an ndarray with the dtype and shape of the value
    ``edge`` stands for; returned untouched in the common case that it
    already is one."""
    if isinstance(edge, Tensor):  # a leaf
        shape, dtype = edge.data.shape, edge.data.dtype
    else:
        shape, dtype = edge.shape, edge.dtype
    if type(g) is np.ndarray and g.dtype == dtype and g.shape == shape:
        return g
    return _unbroadcast(np.asarray(g, dtype=dtype), shape)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading dims numpy added.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over dims that were broadcast from 1.
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """An array with an optional gradient and a tape pointer."""

    __slots__ = ("data", "grad", "requires_grad", "node", "name")

    def __init__(self, data: ArrayLike, requires_grad: bool = False,
                 name: str = ""):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data: np.ndarray = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self.node: Optional[Node] = None
        self.name = name

    # -- construction helper ---------------------------------------------

    @staticmethod
    def from_op(data: np.ndarray, inputs: Sequence["Tensor"],
                backward_fn: Callable, op_name: str) -> "Tensor":
        """Create an op output, recording a tape node if needed."""
        requires = is_grad_enabled() and any(t.requires_grad for t in inputs)
        out = Tensor(data, requires_grad=requires)
        if requires:
            # Each input's gradient goes to its producer node, to the
            # input itself when it is a leaf, or nowhere.
            edges = [(t if t.node is None else t.node)
                     if t.requires_grad else None for t in inputs]
            out.node = Node(edges, backward_fn, out.data, op_name)
        return out

    # -- basic properties -------------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        """The scalar value of a 1-element tensor."""
        return float(self.data)

    # -- autograd ----------------------------------------------------------

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Reverse-mode sweep from this tensor through the tape.

        The sweep consumes the graph it runs: each node drops its
        saved arrays and edges right after its vjp, so a second
        ``backward()`` through any of those nodes raises
        :class:`ConsumedGraphError`.  Several roots that share a graph
        therefore back-propagate as one sum, in one sweep.
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a non-grad tensor")
        if grad is None:
            if self.size != 1:
                raise RuntimeError(
                    "backward() without an explicit gradient requires a "
                    f"scalar output, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        order = graph_order(self)
        grads = {id(order[-1]): grad}
        # Vertices whose ``grads`` entry is a buffer this sweep allocated
        # (by a first ``a + b``): safe to accumulate into in place.
        owned = set()
        while order:
            v = order.pop()
            g_out = grads.pop(id(v), None)
            if isinstance(v, Tensor):  # a leaf
                if g_out is not None:
                    v.grad = g_out if v.grad is None else v.grad + g_out
                continue
            edges = v.edges
            in_grads = None if g_out is None else v.backward_fn(g_out)
            # Consume the node: its closure's saved arrays go now.
            v.backward_fn = v.edges = None
            if in_grads is None:
                continue
            if len(in_grads) != len(edges):
                raise RuntimeError(
                    f"op {v.op_name!r} returned {len(in_grads)} "
                    f"gradients for {len(edges)} inputs"
                )
            for edge, g in zip(edges, in_grads):
                if g is None or edge is None:
                    continue
                g = _as_grad_of(g, edge)
                key = id(edge)
                prev = grads.get(key)
                if prev is None:
                    grads[key] = g
                elif key in owned:
                    np.add(prev, g, out=prev)
                else:
                    grads[key] = total = prev + g
                    if type(total) is np.ndarray:
                        owned.add(key)

    def zero_grad(self) -> None:
        """Clear the accumulated gradient."""
        self.grad = None

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other: ArrayLike) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(
            np.asarray(other, dtype=self.data.dtype))

    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out = self.data + other.data
        return Tensor.from_op(
            out, [self, other],
            lambda g: (g, g),
            "add",
        )

    __radd__ = __add__

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        a, b = self.data, other.data
        # Each factor is saved only for the other's gradient.
        keep_a = a if other.requires_grad else None
        keep_b = b if self.requires_grad else None
        return Tensor.from_op(
            a * b, [self, other],
            lambda g: (None if keep_b is None else g * keep_b,
                       None if keep_a is None else g * keep_a),
            "mul",
        )

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        a, b = self.data, other.data
        need_a, need_b = self.requires_grad, other.requires_grad
        keep_a = a if need_b else None
        return Tensor.from_op(
            a / b, [self, other],
            lambda g: (g / b if need_a else None,
                       -g * keep_a / (b * b) if need_b else None),
            "div",
        )

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = self._coerce(other)
        a, b = self.data, other.data
        need_a, need_b = self.requires_grad, other.requires_grad
        out = a @ b
        a_ndim, b_ndim = a.ndim, b.ndim
        # ``dA`` reads only ``b`` and ``dB`` only ``a``.
        if not need_b:
            a = None
        if not need_a:
            b = None

        def backward(g):
            ga = gb = None
            if b_ndim == 1:
                if need_a:
                    ga = np.outer(g, b) if a_ndim > 1 else g * b
                if need_b:
                    gb = a.T @ g if a_ndim > 1 else a * g
            elif a_ndim == 1:
                if need_a:
                    ga = g @ b.swapaxes(-1, -2)
                if need_b:
                    gb = np.outer(a, g)
            else:
                if need_a:
                    ga = g @ b.swapaxes(-1, -2)
                if need_b:
                    gb = a.swapaxes(-1, -2) @ g
            return ga, gb

        return Tensor.from_op(out, [self, other], backward, "matmul")

    # -- reductions / shaping ---------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Sum over the given axes."""
        out = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.shape

        def backward(g):
            g = np.asarray(g)
            if axis is None:
                return (np.broadcast_to(g, shape).copy(),)
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            if not keepdims:
                for ax in sorted(a % len(shape) for a in axes):
                    g = np.expand_dims(g, ax)
            return (np.broadcast_to(g, shape).copy(),)

        return Tensor.from_op(out, [self], backward, "sum")

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Mean over the given axes."""
        if axis is None:
            count = self.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape: int) -> "Tensor":
        """View with a new shape (same element count)."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.shape
        return Tensor.from_op(
            self.data.reshape(shape), [self],
            lambda g: (g.reshape(old),),
            "reshape",
        )

    def transpose(self, *axes: int) -> "Tensor":
        """Permute axes (reversed by default)."""
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        # The inverse permutation, as np.argsort(axes) would give it.
        inverse = sorted(range(len(axes)), key=axes.__getitem__)
        return Tensor.from_op(
            self.data.transpose(axes), [self],
            lambda g: (g.transpose(inverse),),
            "transpose",
        )

    def __getitem__(self, index) -> "Tensor":
        out = self.data[index]
        shape = self.shape

        basic = _is_basic_index(index)

        def backward(g):
            full = np.zeros(shape, dtype=g.dtype)
            if basic:  # no repeated targets: a plain assignment
                full[index] = g
            else:
                np.add.at(full, index, g)
            return (full,)

        return Tensor.from_op(out, [self], backward, "getitem")

    # -- elementwise nonlinearity (the rest live in ops.py) --------------

    def silu(self) -> "Tensor":
        """SiLU / swish: ``x * sigmoid(x)`` (the SwiGLU building block)."""
        x = self.data
        sig = 1.0 / (1.0 + np.exp(-x))
        out = x * sig

        def backward(g):
            return (g * (sig * (1 + x * (1 - sig))),)

        return Tensor.from_op(out, [self], backward, "silu")
