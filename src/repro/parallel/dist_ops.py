"""Differentiable collectives over per-rank Tensors.

The strategy bindings (:mod:`repro.parallel`) express sharded forward
passes as ordinary autograd code; the collectives here are the seams
between ranks.  Each takes one :class:`~repro.tensor.Tensor` per rank and
returns per-rank output Tensors wired into the tape so that backward
automatically performs the *dual* collective:

=================  =======================
forward            backward
=================  =======================
all-gather         reduce-scatter
reduce-scatter     all-gather
all-to-all         all-to-all (reversed)
=================  =======================

This module only wires the tape.  Each forward calls the numpy
collective of :mod:`repro.comm.collectives` on the inputs' ``.data``
and wraps its outputs with :meth:`~repro.tensor.Tensor.from_op`; each
backward slices its output's gradient into one piece per rank and
hands the pieces to :func:`~repro.comm.collectives.send_leg` under the
``<tag>:bwd`` tag.  So data movement, fault hooks (crash/timeout
before, corruption after) and ledger records — activations forward,
gradients backward, checked against Eqs. 1–4 in both directions — all
live in that one module.  A corrupted backward leg lands in the
gradient of the rank it was delivered to.

Backward runs as a *single* sweep (one ``backward()`` call from a
combined scalar, as a real loss produces): per-rank outputs share their
ancestors, and a sweep consumes the graph, so sweeping them one by one
raises :class:`~repro.tensor.ConsumedGraphError` at the first shared
node.  Each backward closure keeps only shapes, Python-int sizes and
the group — never an input array; offsets are computed when the
backward runs.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..comm.collectives import (all_gather, all_to_all, all_to_all_uneven,
                                reduce_scatter, send_leg)
from ..comm.group import ProcessGroup
from ..tensor import Tensor

__all__ = [
    "dist_all_gather",
    "dist_reduce_scatter",
    "dist_all_to_all",
    "dist_all_to_all_uneven",
]


def split_at(a: np.ndarray, axis: int,
             sizes: Sequence[int]) -> List[np.ndarray]:
    """Consecutive views of ``a`` along ``axis``, ``sizes[i]`` wide."""
    index = [slice(None)] * a.ndim
    pieces = []
    start = 0
    for size in sizes:
        index[axis] = slice(start, start + size)
        pieces.append(a[tuple(index)])
        start += size
    return pieces


def placed(shape: Tuple[int, ...], axis: int, start: int,
           piece: np.ndarray) -> np.ndarray:
    """Zeros of ``shape`` holding ``piece`` from ``start`` on ``axis``."""
    out = np.zeros(shape, dtype=piece.dtype)
    index = [slice(None)] * len(shape)
    index[axis] = slice(start, start + piece.shape[axis])
    out[tuple(index)] = piece
    return out


def per_delivery(delivered: Sequence[np.ndarray], fn) -> Tuple:
    """``fn`` of each delivered piece, computed once per distinct buffer
    (zero-copy legs deliver one shared array to every rank)."""
    results = {}
    for p in delivered:
        if id(p) not in results:
            results[id(p)] = fn(p)
    return tuple(results[id(p)] for p in delivered)


def dist_all_gather(
    group: ProcessGroup,
    shards: Sequence[Tensor],
    axis: int = 0,
    tag: str = "",
    tiled: bool = False,
    tile_label: str = "",
) -> List[Tensor]:
    """All-gather per-rank shards; every rank receives the concatenation.

    Backward is a reduce-scatter: rank ``i``'s gradient is the sum over
    output ranks of the ``i``-th slice of each output gradient.
    ``tiled``/``tile_label`` chunk the gather per source rank (§4.2),
    as in :func:`~repro.comm.collectives.all_gather`.
    """
    fulls = all_gather(group, [s.data for s in shards], axis, tag,
                       tiled, tile_label)
    sizes = [s.shape[axis] for s in shards]
    outs = []
    for j, full in enumerate(fulls):
        def backward(g, j=j):
            # Output j's grad is scattered back: slice i goes to rank i.
            return tuple(send_leg(group, "reduce_scatter", j,
                                  split_at(g, axis, sizes), tag + ":bwd"))

        outs.append(Tensor.from_op(full, list(shards), backward,
                                   "dist_all_gather"))
    return outs


def dist_reduce_scatter(
    group: ProcessGroup,
    tensors: Sequence[Tensor],
    axis: int = 0,
    tag: str = "",
    tiled: bool = False,
    tile_label: str = "",
) -> List[Tensor]:
    """Sum all ranks' tensors; rank ``j`` receives the ``j``-th slice.

    Backward is an all-gather: every input receives the concatenation of
    the per-rank output gradients.  ``tiled``/``tile_label`` chunk the
    reduction per destination rank (§4.2), as in
    :func:`~repro.comm.collectives.reduce_scatter`.
    """
    pieces = reduce_scatter(group, [t.data for t in tensors], axis, tag,
                            tiled, tile_label)
    n = group.size
    full_shape = tensors[0].shape
    outs = []
    for j, piece in enumerate(pieces):
        def backward(g, j=j):
            # d(out_j)/d(in_i) is 1 on slice j for every i: each input
            # rank receives g_j placed at slice j (the all-gather dual).
            start = j * (full_shape[axis] // n)
            return per_delivery(
                send_leg(group, "all_gather", j, [g] * n, tag + ":bwd"),
                lambda p: placed(full_shape, axis, start, p))

        outs.append(Tensor.from_op(piece, list(tensors), backward,
                                   "dist_reduce_scatter"))
    return outs


def dist_all_to_all(
    group: ProcessGroup,
    tensors: Sequence[Tensor],
    split_axis: int,
    concat_axis: int,
    tag: str = "",
    tiles: int = 1,
    tile_label: str = "",
) -> List[Tensor]:
    """Balanced all-to-all: split each rank's tensor into ``n`` chunks on
    ``split_axis``, exchange, concatenate received chunks on
    ``concat_axis``.

    This is the Ulysses primitive (§3.1): e.g. split heads / gather
    sequence on the way in, split sequence / gather heads on the way out.
    Backward is the reverse all-to-all.  ``tiles > 1`` chunks the
    exchange along the sequence axis (token chunks, §4.2), as in
    :func:`~repro.comm.collectives.all_to_all`.
    """
    group.check_shards(tensors)
    n = group.size
    for t in tensors:
        if t.shape[split_axis] % n != 0:
            raise ValueError(
                f"split axis {split_axis} of size {t.shape[split_axis]} "
                f"not divisible by {n}"
            )
    chunks = [np.split(t.data, n, axis=split_axis) for t in tensors]
    received = all_to_all(group, chunks, tag, concat_axis=concat_axis,
                          tiles=tiles, tile_label=tile_label)
    widths = [c[0].shape[concat_axis] for c in chunks]
    in_shapes = [t.shape for t in tensors]
    outs = []
    for j, recv in enumerate(received):
        def backward(g, j=j):
            # The chunk received from rank i returns to rank i, back at
            # split-position j.
            delivered = send_leg(group, "all_to_all", j,
                                 split_at(g, concat_axis, widths),
                                 tag + ":bwd")
            return tuple(
                placed(shape, split_axis,
                       j * (shape[split_axis] // n), piece)
                for shape, piece in zip(in_shapes, delivered))

        outs.append(Tensor.from_op(recv, list(tensors), backward,
                                   "dist_all_to_all"))
    return outs


def dist_all_to_all_uneven(
    group: ProcessGroup,
    tensors: Sequence[Tensor],
    send_splits: Sequence[Sequence[int]],
    tag: str = "",
    tiled: bool = False,
    tile_label: str = "",
) -> List[Tensor]:
    """Row-wise all-to-all with per-destination row counts.

    Rank ``i`` sends ``send_splits[i][j]`` rows to rank ``j``; rank ``j``
    receives the chunks concatenated in source-rank order.  This is MoE
    token dispatch (§3.2): the splits come from the routing result.
    Backward routes gradient rows back to their source ranks.
    ``tiled``/``tile_label`` chunk delivery per source rank (§4.2), as
    in :func:`~repro.comm.collectives.all_to_all_uneven`.
    """
    received = all_to_all_uneven(group, [t.data for t in tensors],
                                 send_splits, tag, tiled, tile_label)
    in_shapes = [t.shape for t in tensors]
    outs = []
    for j, recv in enumerate(received):
        def backward(g, j=j):
            # Rows received from rank i return to rank i, at the offset
            # rank i sent them from.
            counts = [int(splits[j]) for splits in send_splits]
            delivered = send_leg(group, "all_to_all", j,
                                 split_at(g, 0, counts), tag + ":bwd")
            return tuple(
                placed(shape, 0, int(sum(splits[:j])), piece)
                for shape, splits, piece in zip(in_shapes, send_splits,
                                                delivered))

        outs.append(Tensor.from_op(recv, list(tensors), backward,
                                   "dist_all_to_all_uneven"))
    return outs

