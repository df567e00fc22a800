"""Data-moving collective operations over simulated ranks.

Each function takes a :class:`~repro.comm.group.ProcessGroup` and a list of
numpy arrays — one per rank, ordered like ``group.ranks`` — and returns the
per-rank results, exactly as NCCL would deliver them.  Because the "wire"
is a numpy copy, semantics are bit-exact; tests build every parallelism
engine on top of these primitives and compare against single-rank math.

This is the only module that moves collective data, runs the fault
hooks and writes the ledger.  The differentiable collectives of
:mod:`repro.parallel.dist_ops` call these functions forward and
:func:`send_leg` for each backward leg; the hierarchical sync and the
FP8 ops call them with encoded payloads.

Byte accounting
---------------
Every collective records the bytes each rank *sends* into the world's
:class:`~repro.comm.group.CommLedger`, assuming NCCL's standard algorithms:

* ring all-gather / reduce-scatter: each rank sends ``(n-1)`` shard-sizes;
* ring all-reduce: ``2 (n-1)`` shard-sizes (reduce-scatter + all-gather);
* all-to-all: each rank sends its ``n-1`` off-diagonal chunks.

A shard's size is the ``nbytes`` of the array that moves; no caller can
override it.  A compressed payload is therefore a narrower array: BF16
travels as ``uint16`` words and FP8 as ``uint8`` codes (see
:func:`repro.precision.formats.encode`), and the receiver decodes them.
Chunked (``tiled=`` / ``tiles=``) collectives record one
:class:`~repro.comm.group.CommRecord` per tile; a call's tile records
sum exactly to its untiled record.

Fault injection
---------------
Every collective, and every backward leg, brackets its transfer with
:meth:`~repro.comm.group.ProcessGroup.pre_collective` (which may raise
an injected crash or timeout before any data moves) and
:meth:`~repro.comm.group.ProcessGroup.post_collective` (which may
bit-flip a delivered buffer, or raise a checksum fault).  Both are
no-ops unless a fault plan is attached to the world; see
:mod:`repro.ft.faults`.

Zero-copy fast paths
--------------------
When **no fault plan** is attached, the delivery buffers are never
mutated after the fact, so the per-rank "private copies" are pure
overhead.  ``all_gather`` then returns the *same*
array object to every rank, and ``reduce_scatter`` / ``all_to_all``
return slice views.  Consumers must treat delivered buffers as
read-only (all engine code does — see ``docs/INTERNALS.md`` §2).  With
a plan attached the private-copy path is kept, because
``FaultPlan.corrupt`` bit-flips one delivered buffer in place and each
rank must observe its own payload.  ``all_to_all_uneven`` and
``all_to_all(concat_axis=...)`` always assemble one fresh buffer per
destination, so they need no plan-dependent path.  **Ledger byte
accounting is identical on every path** — bytes model the wire, not
the allocator.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence

import numpy as np

from .group import ProcessGroup, tile_span

__all__ = [
    "all_gather",
    "reduce_scatter",
    "all_to_all",
    "all_to_all_uneven",
    "rank_ordered_sum",
    "send_leg",
]


def _one_hot(n: int, rank: int, value: float) -> List[float]:
    """A per-rank byte list with ``value`` at ``rank`` and 0 elsewhere."""
    return [value if k == rank else 0.0 for k in range(n)]


def rank_ordered_sum(tensors: Iterable[np.ndarray]) -> np.ndarray:
    """Float64 sum of per-rank arrays, folded in ascending rank order.

    The one cross-rank accumulator (the paper's higher-precision local
    reduction, §5): rank 0's array is widened once into the result and
    every later rank is added into it in place, each element widened
    as it is read — no stacked float64 copy per rank.  ``tensors``
    yields equal-shape arrays in rank order (a list, a generator, or
    one rank-stacked array); the result is a fresh float64 array.
    Bit-identical to ``np.sum`` of the stacked float64 copies over the
    rank axis, which is this left fold, except where that sum reduces
    8+ single-element arrays (numpy then sums pairwise).
    """
    ranks = iter(tensors)
    acc = np.asarray(next(ranks)).astype(np.float64)
    for t in ranks:
        acc += t
    return acc


def all_gather(
    group: ProcessGroup,
    shards: Sequence[np.ndarray],
    axis: int = 0,
    tag: str = "",
    tiled: bool = False,
    tile_label: str = "",
) -> List[np.ndarray]:
    """Gather every rank's shard onto all ranks, concatenated along ``axis``.

    Returns ``n`` identical full tensors (independent copies, as each rank
    holds its own buffer).

    With ``tiled=True`` the gather is chunked per source rank (§4.2):
    shard ``i`` is copied into a preallocated full buffer and its wire
    bytes ledger-recorded one-hot as tile ``(i, n)``; tile bytes sum
    exactly to the untiled record and values are bitwise-identical.
    """
    group.check_shards(shards)
    group.pre_collective("all_gather", tag)
    n = group.size
    datas = [np.asarray(s) for s in shards]
    per_rank = [float(d.nbytes * (n - 1)) for d in datas]
    if tiled and n >= 2:
        sizes = [d.shape[axis] for d in datas]
        offsets = np.cumsum([0] + sizes)
        shape = list(datas[0].shape)
        shape[axis] = int(offsets[-1])
        full = np.empty(shape, dtype=np.result_type(*datas))
        slicer = [slice(None)] * full.ndim
        for i in range(n):
            with tile_span(group, tile_label, i, n):
                slicer[axis] = slice(offsets[i], offsets[i + 1])
                full[tuple(slicer)] = datas[i]
                group.record("all_gather", _one_hot(n, i, per_rank[i]),
                             tag, tile=(i, n))
    else:
        full = np.concatenate(datas, axis=axis)
        group.record("all_gather", per_rank, tag)
    if group.world.fault_plan is None:
        out = [full] * n  # zero-copy: one shared read-only delivery
    else:
        out = [full.copy() for _ in range(n)]
    group.post_collective("all_gather", out, tag)
    return out


def reduce_scatter(
    group: ProcessGroup,
    tensors: Sequence[np.ndarray],
    axis: int = 0,
    tag: str = "",
    tiled: bool = False,
    tile_label: str = "",
) -> List[np.ndarray]:
    """Element-wise sum of all ranks' tensors, scattered along ``axis``.

    Rank ``i`` receives the ``i``-th equal slice of the reduced tensor.
    The sliced dimension must be divisible by the group size.

    With ``tiled=True`` the reduction is chunked per destination rank
    (§4.2): tile ``j`` reduces only slice ``j`` — elementwise over
    ranks, so bitwise-identical to slicing the whole reduction — and
    ledger-records its traffic one-hot as tile ``(j, n)``.
    """
    group.check_shards(tensors)
    n = group.size
    first = np.asarray(tensors[0])
    for t in tensors[1:]:
        if np.asarray(t).shape != first.shape:
            raise ValueError("reduce_scatter requires equal shapes per rank")
    dim = first.shape[axis]
    if dim % n != 0:
        raise ValueError(
            f"axis {axis} of size {dim} not divisible by group size {n}"
        )
    group.pre_collective("reduce_scatter", tag)
    shard_bytes = float(first.nbytes // n * (n - 1))
    if tiled and n >= 2:
        width = dim // n
        pieces = []
        slicer = [slice(None)] * first.ndim
        for j in range(n):
            with tile_span(group, tile_label, j, n):
                slicer[axis] = slice(j * width, (j + 1) * width)
                pieces.append(rank_ordered_sum(
                    [np.asarray(t)[tuple(slicer)] for t in tensors]))
                group.record("reduce_scatter",
                             _one_hot(n, j, shard_bytes), tag, tile=(j, n))
    else:
        pieces = np.split(rank_ordered_sum(tensors), n, axis=axis)
        group.record("reduce_scatter", [shard_bytes] * n, tag)
    if group.world.fault_plan is None:
        # Zero-copy: np.split pieces are views of the reduced tensor.
        out = [p.astype(first.dtype, copy=False) for p in pieces]
    else:
        out = [p.astype(first.dtype).copy() for p in pieces]
    group.post_collective("reduce_scatter", out, tag)
    return out


#: The axis a token-chunked all-to-all tiles: the sequence axis of the
#: ``[b, s, heads, head_dim]`` Ulysses chunks (§3.1, §4.2).
TILE_AXIS = 1


def all_to_all(
    group: ProcessGroup,
    chunk_lists: Sequence[Sequence[np.ndarray]],
    tag: str = "",
    concat_axis: Optional[int] = None,
    tiles: int = 1,
    tile_label: str = "",
) -> List:
    """General all-to-all: ``chunk_lists[i][j]`` goes from rank i to rank j.

    Returns ``received`` with ``received[j][i] == chunk_lists[i][j]``.
    Chunks may have arbitrary (even differing) shapes; only the self-chunk
    ``[i][i]`` stays local and costs no communication.  With ``tiles ==
    n`` the exchange is chunked per *destination* rank (§4.2): tile
    ``j`` delivers every source's chunk ``j`` and records each source's
    bytes to ``j`` as tile ``(j, n)``.

    With ``concat_axis`` set, rank ``j`` instead receives one fresh
    array: its chunks concatenated on ``concat_axis`` in source-rank
    order (the Ulysses exchange, §3.1).  With ``tiles > 1`` that
    exchange is chunked along :data:`TILE_AXIS` (token chunks, §4.2):
    each chunk's sequence extent is split into ``tiles`` equal
    sub-chunks, and tile ``t`` copies sub-chunk ``t`` of every
    (source, dest) pair and records ``1/tiles`` of each rank's bytes
    as tile ``(t, tiles)`` — exact, since the extent must divide
    evenly.  Delivered values are bitwise-identical to the untiled
    exchange either way.
    """
    group.check_shards(chunk_lists)
    n = group.size
    for i, row in enumerate(chunk_lists):
        if len(row) != n:
            raise ValueError(
                f"rank {i} provided {len(row)} chunks, expected {n}"
            )
    if tiles > 1 and concat_axis is None and tiles != n:
        raise ValueError(
            f"an all_to_all without a concat_axis tiles per destination "
            f"rank: {tiles} tiles for a group of {n}")
    if tiles > 1 and concat_axis is not None:
        for row in chunk_lists:
            for chunk in row:
                extent = np.shape(chunk)[TILE_AXIS]
                if extent % tiles != 0:
                    raise ValueError(
                        f"tile axis {TILE_AXIS} extent {extent} not "
                        f"divisible by {tiles} tiles")
    group.pre_collective("all_to_all", tag)
    per_rank = [
        float(sum(np.asarray(chunk_lists[i][j]).nbytes
                  for j in range(n) if j != i))
        for i in range(n)
    ]
    received: List
    if tiles > 1 and concat_axis is not None:
        received = _a2a_tiled_delivery(group, chunk_lists, per_rank,
                                       concat_axis, tiles, tag,
                                       tile_label)
    elif concat_axis is not None:
        group.record("all_to_all", per_rank, tag)
        received = [
            np.concatenate([chunk_lists[i][j] for i in range(n)],
                           axis=concat_axis)
            for j in range(n)
        ]
    else:
        copy = group.world.fault_plan is not None
        if tiles == 1:
            group.record("all_to_all", per_rank, tag)
        # Zero-copy without a fault plan: deliver the sender's chunks
        # (usually slice views).
        received = []
        for j in range(n):
            with tile_span(group, tile_label if tiles > 1 else "", j, n):
                received.append([
                    np.asarray(chunk_lists[i][j]).copy() if copy
                    else np.asarray(chunk_lists[i][j]) for i in range(n)])
                if tiles > 1:
                    group.record("all_to_all", [
                        float(np.asarray(chunk_lists[i][j]).nbytes)
                        if i != j else 0.0 for i in range(n)],
                        tag, tile=(j, n))
    group.post_collective("all_to_all", received, tag)
    return received


def _a2a_tiled_delivery(group, chunks, per_rank, concat_axis, tiles,
                        tag, tile_label):
    """Token-chunked delivery for a balanced all-to-all.

    Preallocates each destination's buffer and copies one tile of every
    (source, dest) chunk per pass, recording that tile's exact bytes.
    The filled buffers hold exactly the values ``np.concatenate`` over
    whole chunks would produce.
    """
    n = len(chunks)
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
                    width = chunk.shape[TILE_AXIS] // tiles
                    src = [slice(None)] * chunk.ndim
                    src[TILE_AXIS] = slice(t * width, (t + 1) * width)
                    dst = [slice(None)] * chunk.ndim
                    extent = chunk.shape[concat_axis]
                    if TILE_AXIS == concat_axis:
                        dst[concat_axis] = slice(offset + t * width,
                                                 offset + (t + 1) * width)
                    else:
                        dst[concat_axis] = slice(offset, offset + extent)
                        dst[TILE_AXIS] = src[TILE_AXIS]
                    received[j][tuple(dst)] = chunk[tuple(src)]
                    offset += extent
            group.record("all_to_all", [pr / tiles for pr in per_rank],
                         tag, tile=(t, tiles))
    return received


def all_to_all_uneven(
    group: ProcessGroup,
    tensors: Sequence[np.ndarray],
    send_splits: Sequence[Sequence[int]],
    tag: str = "",
    tiled: bool = False,
    tile_label: str = "",
) -> List[np.ndarray]:
    """All-to-all over row-split tensors (``torch.distributed.all_to_all_single``
    with uneven splits).

    Rank ``i`` sends ``send_splits[i][j]`` rows of ``tensors[i]`` to rank
    ``j``; rank ``j`` receives the chunks concatenated in rank order, in
    one fresh buffer.  This is the primitive behind MoE token dispatch.

    With ``tiled=True`` delivery is chunked per *source* rank (tile
    sizes are ragged — routing decides the row counts): tile ``i``
    copies rank ``i``'s rows into every destination's buffer and
    records rank ``i``'s wire bytes one-hot as tile ``(i, n)``.
    """
    group.check_shards(tensors)
    n = group.size
    arrays = [np.asarray(t) for t in tensors]
    for i, (a, splits) in enumerate(zip(arrays, send_splits)):
        if len(splits) != n:
            raise ValueError(
                f"rank {i}: {len(splits)} splits for group of size {n}"
            )
        if sum(splits) != a.shape[0]:
            raise ValueError(
                f"rank {i}: splits {list(splits)} do not cover "
                f"{a.shape[0]} rows"
            )
    group.pre_collective("all_to_all", tag)
    per_rank = [
        float(a.shape[0] - send_splits[i][i])
        * math.prod(a.shape[1:]) * a.itemsize
        for i, a in enumerate(arrays)
    ]
    tiled = tiled and n >= 2
    if not tiled:
        group.record("all_to_all", per_rank, tag)
    dtype = np.result_type(*[a.dtype for a in arrays])
    trailing = arrays[0].shape[1:]
    out = [np.empty((int(sum(column)),) + trailing, dtype=dtype)
           for column in zip(*send_splits)]
    filled = [0] * n
    for i, a in enumerate(arrays):
        with tile_span(group, tile_label if tiled else "", i, n):
            row = 0
            for j in range(n):
                cnt = int(send_splits[i][j])
                if cnt:
                    out[j][filled[j]:filled[j] + cnt] = a[row:row + cnt]
                    filled[j] += cnt
                    row += cnt
            if tiled:
                group.record("all_to_all", _one_hot(n, i, per_rank[i]),
                             tag, tile=(i, n))
    group.post_collective("all_to_all", out, tag)
    return out


def send_leg(
    group: ProcessGroup,
    op: str,
    rank: int,
    pieces: Sequence[np.ndarray],
    tag: str = "",
) -> List[np.ndarray]:
    """Rank ``rank``'s share of one collective: ``pieces[i]`` goes to
    rank ``i``.

    The backward duals of :mod:`repro.parallel.dist_ops` run one leg
    per output gradient.  The ledger records the leg one-hot at
    ``rank``: the off-rank pieces' ``nbytes`` — so the ``n`` legs of
    one call sum exactly to the whole collective's record.  Returns
    the delivered pieces (private copies under a fault plan, which may
    corrupt one of them).
    """
    n = group.size
    group.pre_collective(op, tag)
    wire = float(sum(p.nbytes for i, p in enumerate(pieces) if i != rank))
    group.record(op, _one_hot(n, rank, wire), tag)
    if group.world.fault_plan is not None:
        pieces = [p.copy() for p in pieces]
    group.post_collective(op, pieces, tag)
    return pieces
