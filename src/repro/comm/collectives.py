"""Data-moving collective operations over simulated ranks.

Each function takes a :class:`~repro.comm.group.ProcessGroup` and a list of
numpy arrays — one per rank, ordered like ``group.ranks`` — and returns the
per-rank results, exactly as NCCL would deliver them.  Because the "wire"
is a numpy copy, semantics are bit-exact; tests build every parallelism
engine on top of these primitives and compare against single-rank math.

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

Fault injection
---------------
Every collective brackets its transfer with
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
overhead.  ``all_gather`` / ``all_reduce`` then return the *same*
array object to every rank, ``reduce_scatter`` / ``all_to_all`` return
slice views, and ``all_to_all_uneven`` assembles each destination into
one preallocated buffer.  Consumers must treat delivered buffers as
read-only (all engine code does — see ``docs/INTERNALS.md`` §2).  With
a plan attached the private-copy path is kept, because
``FaultPlan.corrupt`` bit-flips one delivered buffer in place and each
rank must observe its own payload.  **Ledger byte accounting is
identical on both paths** — bytes model the wire, not the allocator.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

from .group import ProcessGroup, tile_span

__all__ = [
    "all_gather",
    "reduce_scatter",
    "all_reduce",
    "all_to_all",
    "all_to_all_uneven",
    "broadcast",
    "gather",
    "scatter",
    "rank_ordered_sum",
]


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
                group.record("all_gather",
                             [per_rank[i] if k == i else 0.0
                              for k in range(n)],
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
                             [shard_bytes if k == j else 0.0
                              for k in range(n)],
                             tag, tile=(j, n))
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


def all_reduce(
    group: ProcessGroup,
    tensors: Sequence[np.ndarray],
    tag: str = "",
) -> List[np.ndarray]:
    """Element-wise sum of all ranks' tensors, delivered to every rank."""
    group.check_shards(tensors)
    group.pre_collective("all_reduce", tag)
    n = group.size
    first = np.asarray(tensors[0])
    total = rank_ordered_sum(tensors)
    # Ring all-reduce = reduce-scatter + all-gather on 1/n shards.
    group.record("all_reduce", [2.0 * first.size / n * first.itemsize * (n - 1)] * n, tag)
    if group.world.fault_plan is None:
        shared = total.astype(first.dtype, copy=False)
        out = [shared] * n  # zero-copy: one shared read-only delivery
    else:
        out = [total.astype(first.dtype).copy() for _ in range(n)]
    group.post_collective("all_reduce", out, tag)
    return out


def all_to_all(
    group: ProcessGroup,
    chunk_lists: Sequence[Sequence[np.ndarray]],
    tag: str = "",
    tiled: bool = False,
    tile_label: str = "",
) -> List[List[np.ndarray]]:
    """General all-to-all: ``chunk_lists[i][j]`` goes from rank i to rank j.

    Returns ``received`` with ``received[j][i] == chunk_lists[i][j]``.
    Chunks may have arbitrary (even differing) shapes; only the self-chunk
    ``[i][i]`` stays local and costs no communication.

    With ``tiled=True`` delivery is chunked per *source* rank (chunk
    shapes may be ragged): tile ``i`` delivers rank ``i``'s chunks to
    every destination and ledger-records rank ``i``'s wire bytes
    one-hot as tile ``(i, n)``.
    """
    group.check_shards(chunk_lists)
    n = group.size
    for i, row in enumerate(chunk_lists):
        if len(row) != n:
            raise ValueError(
                f"rank {i} provided {len(row)} chunks, expected {n}"
            )
    group.pre_collective("all_to_all", tag)
    copy = group.world.fault_plan is not None
    per_rank = [
        float(sum(np.asarray(chunk_lists[i][j]).nbytes
                  for j in range(n) if j != i))
        for i in range(n)
    ]
    received: List[List[np.ndarray]]
    if tiled and n >= 2:
        received = [[None] * n for _ in range(n)]
        for i in range(n):
            with tile_span(group, tile_label, i, n):
                for j in range(n):
                    chunk = np.asarray(chunk_lists[i][j])
                    received[j][i] = chunk.copy() if copy else chunk
                group.record("all_to_all",
                             [per_rank[i] if k == i else 0.0
                              for k in range(n)],
                             tag, tile=(i, n))
    elif copy:
        received = [
            [np.asarray(chunk_lists[i][j]).copy() for i in range(n)]
            for j in range(n)
        ]
        group.record("all_to_all", per_rank, tag)
    else:
        # Zero-copy: deliver the sender's chunks (usually slice views).
        received = [
            [np.asarray(chunk_lists[i][j]) for i in range(n)]
            for j in range(n)
        ]
        group.record("all_to_all", per_rank, tag)
    group.post_collective("all_to_all", received, tag)
    return received


def all_to_all_uneven(
    group: ProcessGroup,
    tensors: Sequence[np.ndarray],
    send_splits: Sequence[Sequence[int]],
    tag: str = "",
) -> List[np.ndarray]:
    """All-to-all over row-split tensors (``torch.distributed.all_to_all_single``
    with uneven splits).

    Rank ``i`` sends ``send_splits[i][j]`` rows of ``tensors[i]`` to rank
    ``j``; rank ``j`` receives the chunks concatenated in rank order.  This
    is the primitive behind MoE token dispatch.
    """
    group.check_shards(tensors)
    n = group.size
    arrays: List[np.ndarray] = []
    offset_table: List[np.ndarray] = []
    for i, (t, splits) in enumerate(zip(tensors, send_splits)):
        t = np.asarray(t)
        if len(splits) != n:
            raise ValueError(
                f"rank {i}: {len(splits)} splits for group of size {n}"
            )
        if sum(splits) != t.shape[0]:
            raise ValueError(
                f"rank {i}: splits {list(splits)} do not cover "
                f"{t.shape[0]} rows"
            )
        arrays.append(t)
        offset_table.append(np.cumsum([0] + list(splits)))

    if group.world.fault_plan is None:
        # Fast path: assemble each destination into one preallocated
        # buffer — no intermediate per-chunk copies, no np.concatenate
        # temporaries.  Wire bytes recorded exactly as the general path.
        group.pre_collective("all_to_all", tag)
        per_rank = [
            float(arrays[i].shape[0] - send_splits[i][i])
            * int(np.prod(a.shape[1:], dtype=np.int64)) * a.itemsize
            for i, a in enumerate(arrays)
        ]
        group.record("all_to_all", per_rank, tag)
        dtype = np.result_type(*[a.dtype for a in arrays])
        trailing = arrays[0].shape[1:]
        out: List[np.ndarray] = []
        for j in range(n):
            rows = int(sum(send_splits[i][j] for i in range(n)))
            buf = np.empty((rows,) + trailing, dtype=dtype)
            cursor = 0
            for i in range(n):
                cnt = int(send_splits[i][j])
                off = offset_table[i]
                buf[cursor:cursor + cnt] = arrays[i][off[j]:off[j + 1]]
                cursor += cnt
            out.append(buf)
        group.post_collective("all_to_all", out, tag)
        return out

    chunk_lists: List[List[np.ndarray]] = [
        [arrays[i][offset_table[i][j]:offset_table[i][j + 1]]
         for j in range(n)]
        for i in range(n)
    ]
    received = all_to_all(group, chunk_lists, tag=tag)
    return [
        np.concatenate(chunks, axis=0) if chunks else np.empty((0,))
        for chunks in received
    ]


def broadcast(
    group: ProcessGroup,
    tensor: np.ndarray,
    root: int = 0,
    tag: str = "",
) -> List[np.ndarray]:
    """Send ``tensor`` from local rank ``root`` to all ranks in the group."""
    n = group.size
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range for group of size {n}")
    group.pre_collective("broadcast", tag)
    t = np.asarray(tensor)
    per_rank = [0.0] * n
    per_rank[root] = float(t.nbytes * (n - 1))
    group.record("broadcast", per_rank, tag)
    out = [t.copy() for _ in range(n)]
    group.post_collective("broadcast", out, tag)
    return out


def gather(
    group: ProcessGroup,
    shards: Sequence[np.ndarray],
    root: int = 0,
    axis: int = 0,
    tag: str = "",
) -> np.ndarray:
    """Collect all shards onto local rank ``root``, concatenated on ``axis``."""
    group.check_shards(shards)
    group.pre_collective("gather", tag)
    per_rank = [float(np.asarray(s).nbytes) if i != root else 0.0
                for i, s in enumerate(shards)]
    group.record("gather", per_rank, tag)
    out = np.concatenate([np.asarray(s) for s in shards], axis=axis)
    group.post_collective("gather", out, tag)
    return out


def scatter(
    group: ProcessGroup,
    tensor: np.ndarray,
    root: int = 0,
    axis: int = 0,
    tag: str = "",
) -> List[np.ndarray]:
    """Split ``tensor`` held by local rank ``root`` equally across ranks."""
    n = group.size
    t = np.asarray(tensor)
    if t.shape[axis] % n != 0:
        raise ValueError(
            f"axis {axis} of size {t.shape[axis]} not divisible by {n}"
        )
    group.pre_collective("scatter", tag)
    pieces = np.split(t, n, axis=axis)
    per_rank = [0.0] * n
    per_rank[root] = float(t.nbytes - pieces[root].nbytes)
    group.record("scatter", per_rank, tag)
    out = [p.copy() for p in pieces]
    group.post_collective("scatter", out, tag)
    return out
