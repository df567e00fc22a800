"""Differentiable collectives over per-rank Tensors.

The parallel engines (:mod:`repro.parallel`) express sharded forward
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
all-reduce         all-reduce
=================  =======================

Bytes are recorded in the world's ledger for the forward collective at
call time and for the backward collective as its gradients flow —
tagged ``<tag>`` and ``<tag>:bwd`` respectively — so tests can check the
paper's per-pass volume formulas (Eqs. 1–4) in both directions.  Like
:mod:`repro.comm.collectives`, each record is the ``nbytes`` of the
arrays that move: activations forward, gradients backward.

Backward runs as a *single* sweep (one ``backward()`` call from a
combined scalar, as a real loss produces): per-rank outputs share their
ancestors, and a sweep consumes the graph, so sweeping them one by one
raises :class:`~repro.tensor.ConsumedGraphError` at the first shared
node.  Each backward closure keeps only shapes, offsets and the group —
never an input array.

Fault injection: every forward collective consults the world's fault
plan via :meth:`~repro.comm.group.ProcessGroup.pre_collective` before
moving data (crash/timeout) and
:meth:`~repro.comm.group.ProcessGroup.post_collective` on its delivered
outputs (payload corruption — a silent bit-flip into the training
numerics unless the plan verifies checksums); backward collectives
consult ``pre_collective`` under the ``:bwd`` tag.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..comm.collectives import rank_ordered_sum
from ..comm.group import ProcessGroup, tile_span
from ..tensor import Tensor

__all__ = [
    "dist_all_gather",
    "dist_reduce_scatter",
    "dist_all_to_all",
    "dist_all_to_all_uneven",
    "dist_all_reduce",
]


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

    With ``tiled=True`` the gather is chunked per source rank (§4.2's
    swizzled order): shard ``i`` is copied into the gathered buffer and
    ledger-recorded as tile ``(i, n)`` — one tile's bytes at a time,
    attributed one-hot to its source rank, summing exactly to the
    untiled record.  The delivered values are bitwise-identical.
    ``tile_label`` names the graph op for ``dag.tile:*`` spans.
    """
    group.check_shards(shards)
    n = group.size
    datas = [s.data for s in shards]
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)
    group.pre_collective("all_gather", tag)
    if tiled and n >= 2:
        shape = list(datas[0].shape)
        shape[axis] = int(offsets[-1])
        full = np.empty(shape, dtype=np.result_type(*datas))
        slicer = [slice(None)] * full.ndim
        for i in range(n):
            with tile_span(group, tile_label, i, n):
                slicer[axis] = slice(offsets[i], offsets[i + 1])
                full[tuple(slicer)] = datas[i]
                group.record(
                    "all_gather",
                    _one_hot(n, i, float(datas[i].nbytes * (n - 1))),
                    tag, tile=(i, n))
    else:
        full = np.concatenate(datas, axis=axis)
        group.record("all_gather",
                     [float(d.nbytes * (n - 1)) for d in datas], tag)

    # Zero-copy: with no fault plan the delivered buffers are read-only,
    # so every rank can share the single gathered array.
    plan_free = group.world.fault_plan is None
    outs = []
    for j in range(n):
        def backward(g, j=j):
            # Output j's grad is scattered back: slice i goes to rank i.
            slicer = [slice(None)] * g.ndim
            grads = []
            wire = 0.0
            for i in range(n):
                slicer[axis] = slice(offsets[i], offsets[i + 1])
                piece = g[tuple(slicer)]
                grads.append(piece)
                if i != j:
                    wire += piece.nbytes
            group.pre_collective("reduce_scatter", tag + ":bwd")
            group.record("reduce_scatter", _one_hot(n, j, wire),
                         tag + ":bwd")
            return tuple(grads)

        outs.append(Tensor.from_op(full if plan_free else full.copy(),
                                   list(shards), backward,
                                   "dist_all_gather"))
    group.post_collective("all_gather", [o.data for o in outs], tag)
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
    the per-rank output gradients.

    With ``tiled=True`` the reduction is chunked per destination rank:
    tile ``j`` reduces only slice ``j`` (elementwise over ranks, so the
    result is bitwise-identical to slicing the whole-tensor reduction)
    and ledger-records its traffic one-hot at rank ``j`` as tile
    ``(j, n)``; tile bytes sum exactly to the untiled record.
    """
    group.check_shards(tensors)
    n = group.size
    first = tensors[0].data
    for t in tensors[1:]:
        if t.data.shape != first.shape:
            raise ValueError("dist_reduce_scatter requires equal shapes")
    if first.shape[axis] % n != 0:
        raise ValueError(
            f"axis {axis} of size {first.shape[axis]} not divisible by {n}"
        )
    shard_bytes = float(first.nbytes // n * (n - 1))
    width = first.shape[axis] // n
    full_shape = first.shape
    group.pre_collective("reduce_scatter", tag)
    if tiled and n >= 2:
        pieces = []
        slicer = [slice(None)] * first.ndim
        for j in range(n):
            with tile_span(group, tile_label, j, n):
                slicer[axis] = slice(j * width, (j + 1) * width)
                pieces.append(rank_ordered_sum(
                    [t.data[tuple(slicer)] for t in tensors]))
                group.record(
                    "reduce_scatter",
                    _one_hot(n, j, shard_bytes),
                    tag, tile=(j, n))
    else:
        pieces = np.split(rank_ordered_sum([t.data for t in tensors]),
                          n, axis=axis)
        group.record("reduce_scatter",
                     [shard_bytes] * n, tag)
    outs = []
    for j in range(n):
        def backward(g, j=j):
            # d(out_j)/d(in_i) is 1 on slice j for every i: each input
            # rank receives g_j placed at slice j (the all-gather dual).
            grad = np.zeros(full_shape, dtype=g.dtype)
            slicer = [slice(None)] * len(full_shape)
            slicer[axis] = slice(j * width, (j + 1) * width)
            grad[tuple(slicer)] = g
            group.pre_collective("all_gather", tag + ":bwd")
            group.record("all_gather", _one_hot(n, j, float(g.nbytes * (n - 1))),
                         tag + ":bwd")
            if group.world.fault_plan is None:
                # Zero-copy dual: grads accumulate out-of-place, so all
                # input ranks may share the one gathered gradient.
                return (grad,) * n
            return tuple(grad.copy() for _ in range(n))

        outs.append(Tensor.from_op(
            pieces[j].astype(first.dtype,
                             copy=group.world.fault_plan is not None),
            list(tensors), backward, "dist_reduce_scatter"))
    group.post_collective("reduce_scatter", [o.data for o in outs], tag)
    return outs


def dist_all_to_all(
    group: ProcessGroup,
    tensors: Sequence[Tensor],
    split_axis: int,
    concat_axis: int,
    tag: str = "",
    tiles: int = 1,
    tile_axis: int = 0,
    tile_label: str = "",
) -> List[Tensor]:
    """Balanced all-to-all: split each rank's tensor into ``n`` chunks on
    ``split_axis``, exchange, concatenate received chunks on
    ``concat_axis``.

    This is the Ulysses primitive (§3.1): e.g. split heads / gather
    sequence on the way in, split sequence / gather heads on the way out.
    Backward is the reverse all-to-all.

    With ``tiles > 1`` the exchange is chunked along ``tile_axis``
    (token chunks, §4.2): each of every (source, dest) chunk's
    ``tile_axis`` extents is split into ``tiles`` equal sub-chunks, and
    tile ``t`` copies sub-chunk ``t`` of every pair into the delivered
    buffers and ledger-records ``1/tiles`` of each rank's bytes as tile
    ``(t, tiles)`` — exact, since the extent must divide evenly.
    Delivered values are bitwise-identical to the untiled exchange.
    """
    group.check_shards(tensors)
    n = group.size
    datas = [t.data for t in tensors]
    for d in datas:
        if d.shape[split_axis] % n != 0:
            raise ValueError(
                f"split axis {split_axis} of size {d.shape[split_axis]} "
                f"not divisible by {n}"
            )
    chunks = [np.split(d, n, axis=split_axis) for d in datas]
    per_rank = [float(sum(chunks[i][j].nbytes for j in range(n) if j != i))
                for i in range(n)]
    group.pre_collective("all_to_all", tag)
    if tiles > 1:
        received_list = _a2a_tiled_delivery(
            group, chunks, per_rank, concat_axis, tile_axis, tiles,
            tag, tile_label)
    else:
        group.record("all_to_all", per_rank, tag)
        received_list = None

    chunk_split = datas[0].shape[split_axis] // n
    in_shapes = [d.shape for d in datas]
    outs = []
    for j in range(n):
        if received_list is not None:
            received = received_list[j]
        else:
            received = np.concatenate([chunks[i][j] for i in range(n)],
                                      axis=concat_axis)
        recv_width = [chunks[i][j].shape[concat_axis] for i in range(n)]
        recv_offsets = np.cumsum([0] + recv_width)

        def backward(g, j=j, recv_offsets=recv_offsets):
            # Chunk received from rank i returns to rank i, back at
            # split-position j.
            grads = []
            wire = 0.0
            slicer = [slice(None)] * g.ndim
            for i in range(n):
                slicer[concat_axis] = slice(recv_offsets[i],
                                            recv_offsets[i + 1])
                piece = g[tuple(slicer)]
                grad = np.zeros(in_shapes[i], dtype=g.dtype)
                gslicer = [slice(None)] * grad.ndim
                gslicer[split_axis] = slice(j * chunk_split,
                                            (j + 1) * chunk_split)
                grad[tuple(gslicer)] = piece
                grads.append(grad)
                if i != j:
                    wire += piece.nbytes
            group.pre_collective("all_to_all", tag + ":bwd")
            group.record("all_to_all", _one_hot(n, j, wire),
                         tag + ":bwd")
            return tuple(grads)

        outs.append(Tensor.from_op(received, list(tensors), backward,
                                   "dist_all_to_all"))
    group.post_collective("all_to_all", [o.data for o in outs], tag)
    return outs


def _a2a_tiled_delivery(group, chunks, per_rank, concat_axis, tile_axis,
                        tiles, tag, tile_label):
    """Token-chunked delivery for a balanced all-to-all.

    Preallocates each destination's buffer and copies one tile of every
    (source, dest) chunk per pass, recording that tile's exact bytes.
    The filled buffers hold exactly the values ``np.concatenate`` over
    whole chunks would produce.
    """
    n = len(chunks)
    for i in range(n):
        for j in range(n):
            extent = chunks[i][j].shape[tile_axis]
            if extent % tiles != 0:
                raise ValueError(
                    f"tile axis {tile_axis} extent {extent} not "
                    f"divisible by {tiles} tiles")
    received = []
    dtype = np.result_type(*[chunks[i][0] for i in range(n)])
    for j in range(n):
        shape = list(chunks[0][j].shape)
        shape[concat_axis] = sum(chunks[i][j].shape[concat_axis]
                                 for i in range(n))
        received.append(np.empty(shape, dtype=dtype))
    for t in range(tiles):
        with tile_span(group, tile_label, t, tiles):
            for j in range(n):
                offset = 0
                for i in range(n):
                    chunk = chunks[i][j]
                    width = chunk.shape[tile_axis] // tiles
                    src = [slice(None)] * chunk.ndim
                    src[tile_axis] = slice(t * width, (t + 1) * width)
                    dst = [slice(None)] * chunk.ndim
                    extent = chunk.shape[concat_axis]
                    if tile_axis == concat_axis:
                        dst[concat_axis] = slice(offset + t * width,
                                                 offset + (t + 1) * width)
                    else:
                        dst[concat_axis] = slice(offset, offset + extent)
                        dst[tile_axis] = src[tile_axis]
                    received[j][tuple(dst)] = chunk[tuple(src)]
                    offset += extent
            group.record("all_to_all", [pr / tiles for pr in per_rank],
                         tag, tile=(t, tiles))
    return received


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

    With ``tiled=True`` delivery is chunked per *source* rank (tile
    sizes are ragged — routing decides the row counts): tile ``i``
    copies rank ``i``'s rows into every destination's buffer and
    ledger-records rank ``i``'s wire bytes one-hot as tile ``(i, n)``.
    Delivered rows land at the same source-rank-sorted offsets as the
    untiled concatenation, so values are bitwise-identical.
    """
    group.check_shards(tensors)
    n = group.size
    offsets = []
    for i, (t, splits) in enumerate(zip(tensors, send_splits)):
        if len(splits) != n:
            raise ValueError(
                f"rank {i}: {len(splits)} splits for group size {n}"
            )
        if sum(splits) != t.data.shape[0]:
            raise ValueError(
                f"rank {i}: splits {list(splits)} do not cover "
                f"{t.data.shape[0]} rows"
            )
        offsets.append(np.cumsum([0] + list(splits)))

    per_rank = [
        sum(send_splits[i][j] for j in range(n) if j != i)
        * int(np.prod(tensors[i].data.shape[1:]))
        * float(tensors[i].data.itemsize)
        for i in range(n)
    ]
    group.pre_collective("all_to_all", tag)
    recv_offsets_all = []
    for j in range(n):
        recv_counts = [send_splits[i][j] for i in range(n)]
        recv_offsets_all.append(np.cumsum([0] + recv_counts))
    in_shapes = [t.data.shape for t in tensors]
    if tiled and n >= 2:
        tail = tensors[0].data.shape[1:]
        dtype = np.result_type(*[t.data for t in tensors])
        received_list = [
            np.empty((int(recv_offsets_all[j][-1]),) + tail, dtype=dtype)
            for j in range(n)
        ]
        for i in range(n):
            with tile_span(group, tile_label, i, n):
                for j in range(n):
                    lo, hi = recv_offsets_all[j][i], recv_offsets_all[j][i + 1]
                    received_list[j][lo:hi] = \
                        tensors[i].data[offsets[i][j]:offsets[i][j + 1]]
                group.record("all_to_all", _one_hot(n, i, per_rank[i]),
                             tag, tile=(i, n))
    else:
        group.record("all_to_all", per_rank, tag)
        received_list = None

    outs = []
    for j in range(n):
        if received_list is not None:
            received = received_list[j]
        else:
            pieces = [tensors[i].data[offsets[i][j]:offsets[i][j + 1]]
                      for i in range(n)]
            received = (np.concatenate(pieces, axis=0) if pieces else
                        np.zeros((0,) + tensors[0].data.shape[1:]))
        recv_offsets = recv_offsets_all[j]

        def backward(g, j=j, recv_offsets=recv_offsets):
            grads = []
            wire = 0.0
            for i in range(n):
                piece = g[recv_offsets[i]:recv_offsets[i + 1]]
                grad = np.zeros(in_shapes[i], dtype=g.dtype)
                grad[offsets[i][j]:offsets[i][j + 1]] = piece
                grads.append(grad)
                if i != j:
                    wire += piece.nbytes
            group.pre_collective("all_to_all", tag + ":bwd")
            group.record("all_to_all", _one_hot(n, j, wire),
                         tag + ":bwd")
            return tuple(grads)

        outs.append(Tensor.from_op(received, list(tensors), backward,
                                   "dist_all_to_all_uneven"))
    group.post_collective("all_to_all", [o.data for o in outs], tag)
    return outs


def dist_all_reduce(
    group: ProcessGroup,
    tensors: Sequence[Tensor],
    tag: str = "",
) -> List[Tensor]:
    """Sum all ranks' tensors; every rank receives the total.

    Backward is itself an all-reduce of the output gradients.
    """
    group.check_shards(tensors)
    n = group.size
    first = tensors[0].data
    total = rank_ordered_sum([t.data for t in tensors])
    group.pre_collective("all_reduce", tag)
    group.record("all_reduce",
                 [2.0 * first.size / n * first.itemsize * (n - 1)] * n,
                 tag)

    plan_free = group.world.fault_plan is None
    shared = total.astype(first.dtype, copy=False) if plan_free else None
    outs = []
    for j in range(n):
        def backward(g, j=j):
            group.pre_collective("all_reduce", tag + ":bwd")
            group.record(
                "all_reduce",
                _one_hot(n, j, 2.0 * g.size / n * g.itemsize * (n - 1)),
                tag + ":bwd",
            )
            if group.world.fault_plan is None:
                return (g,) * n  # zero-copy dual (see reduce_scatter)
            return tuple(g.copy() for _ in range(n))

        outs.append(Tensor.from_op(
            shared if plan_free else total.astype(first.dtype),
            list(tensors), backward, "dist_all_reduce"))
    group.post_collective("all_reduce", [o.data for o in outs], tag)
    return outs


def _one_hot(n: int, j: int, value: float) -> List[float]:
    out = [0.0] * n
    out[j] = value
    return out
