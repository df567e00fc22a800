"""Communication compression (§5 of the paper).

Two families:

**DP gradient compression** (BF16 mixed-precision training, Fig. 10):
instead of an FP32 reduce-scatter, the *accumulated* FP32 gradients are
cast to BF16 once, exchanged with an all-to-all inside the DP group, and
summed locally in FP32.  This halves wire bytes while avoiding the
repeated BF16 accumulation a ring reduce would perform.  The
risky ring-style BF16 reduce is also provided for comparison
(:func:`sync_gradients` with ``method="bf16_ring_rs"``).

**FP8 communication compression** (FP8 training): BF16 reduce-scatters
are replaced by FP8(E4M3) all-to-alls with FP32 reduction — per-token
quantization for forward activations, per-channel (optionally grouped
along tokens) for backward gradients.

The in-place buffer trick ("we develop a memory-efficient operator that
in-places BF16 gradients into half of the FP32 input buffer...") is
modelled by :class:`InPlaceCastBuffer`, which tracks peak bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..comm.collectives import (
    all_gather,
    all_to_all,
    rank_ordered_sum,
    reduce_scatter,
)
from ..comm.group import ProcessGroup
from .formats import FP8_E4M3, FloatFormat, round_bf16
from .quantize import (
    dequantize,
    quantize_grouped,
    quantize_per_channel,
    quantize_per_token,
)

__all__ = [
    "sync_gradients",
    "fp8_compressed_reduce_scatter",
    "fp8_compressed_all_gather",
    "InPlaceCastBuffer",
    "GRAD_SYNC_METHODS",
]

GRAD_SYNC_METHODS = ("fp32_rs", "bf16_a2a", "bf16_ring_rs")


def _pad_to(flat: np.ndarray, multiple: int) -> np.ndarray:
    if flat.size % multiple == 0:
        return flat
    pad = multiple - flat.size % multiple
    return np.concatenate([flat, np.zeros(pad, dtype=flat.dtype)])


def sync_gradients(
    group: ProcessGroup,
    grads: Sequence[np.ndarray],
    method: str = "bf16_a2a",
    average: bool = True,
    tag: str = "dp_sync:",
) -> List[np.ndarray]:
    """Synchronize per-rank accumulated gradients across a DP group.

    Args:
        group: The data-parallel process group.
        grads: One gradient array per rank (same shape and dtype).
        method: ``"fp32_rs"`` — exact FP32 reduce-scatter + all-gather
            (the baseline of Fig. 17); ``"bf16_a2a"`` — MegaScale's
            compression: one BF16 cast, all-to-all, FP32 local sum;
            ``"bf16_ring_rs"`` — the rejected design: ring reduce with
            BF16 accumulation at every hop.
        average: Divide by the group size (DP averages gradients).
        tag: Ledger-tag prefix; each collective appends its step
            (``fp32_rs``, ``bf16_a2a``, ``bf16_ag``, ...).

    Returns:
        Per-rank synchronized gradients with the input shape and dtype
        (only the cross-rank accumulation widens, docs/INTERNALS.md
        §17).
    """
    if method not in GRAD_SYNC_METHODS:
        raise ValueError(
            f"unknown method {method!r}; choose from {GRAD_SYNC_METHODS}"
        )
    n = group.size
    first = np.asarray(grads[0])
    shape, dtype = first.shape, first.dtype
    flats = [_pad_to(np.asarray(g, dtype=dtype).reshape(-1), n)
             for g in grads]
    numel = int(np.prod(shape))

    if method == "fp32_rs":
        shards = reduce_scatter(group, flats, elem_bytes=4.0,
                                tag=tag + "fp32_rs")
        fulls = all_gather(group, shards, elem_bytes=4.0,
                           tag=tag + "fp32_ag")
    elif method == "bf16_a2a":
        # One-time BF16 cast of the accumulated gradient...
        casted = [round_bf16(f) for f in flats]
        chunk_lists = [np.split(c, n) for c in casted]
        # ...all-to-all exchange of the shards (2 bytes each)...
        received = all_to_all(group, chunk_lists, elem_bytes=2.0,
                              tag=tag + "bf16_a2a")
        # ...and FP32 local aggregation: no repeated BF16 accumulation.
        shards = [rank_ordered_sum(chunks) for chunks in received]
        # Parameter/gradient shard redistribution in BF16 as well.
        fulls = all_gather(
            group,
            [round_bf16(s).astype(dtype, copy=False) for s in shards],
            elem_bytes=2.0, tag=tag + "bf16_ag")
    else:  # bf16_ring_rs — rounds the partial sum at every ring hop.
        shards = []
        for j in range(n):
            chunk_size = flats[0].size // n
            lo, hi = j * chunk_size, (j + 1) * chunk_size
            acc = round_bf16(flats[j][lo:hi]).astype(np.float64)
            for step in range(1, n):
                src = (j - step) % n
                incoming = round_bf16(flats[src][lo:hi]).astype(np.float64)
                acc = round_bf16(acc + incoming).astype(np.float64)
            shards.append(acc)
        group.record("reduce_scatter",
                     [flats[0].size / n * 2.0 * (n - 1)] * n,
                     tag + "bf16_ring_rs")
        fulls = all_gather(
            group,
            [round_bf16(s).astype(dtype, copy=False) for s in shards],
            elem_bytes=2.0, tag=tag + "bf16_ag")

    scale = 1.0 / n if average else 1.0
    return [(f[:numel] * scale).reshape(shape) for f in fulls]


def fp8_compressed_reduce_scatter(
    group: ProcessGroup,
    tensors: Sequence[np.ndarray],
    fmt: FloatFormat = FP8_E4M3,
    tag: str = "fp8_rs",
) -> List[np.ndarray]:
    """FP8 replacement for a forward-pass BF16 reduce-scatter (§5).

    Each rank's ``[T, h]`` tensor is split into ``n`` row chunks; each
    chunk is quantized **per token** (SwiGLU widens the per-token dynamic
    range, §7), exchanged via all-to-all at 1 byte/element, dequantized,
    and reduced in FP32.
    """
    n = group.size
    first = np.asarray(tensors[0])
    if first.shape[0] % n != 0:
        raise ValueError(
            f"token dim {first.shape[0]} not divisible by group size {n}"
        )
    chunk_lists = []
    quant_meta = []
    for t in tensors:
        chunks = np.split(np.asarray(t), n, axis=0)
        quants = [quantize_per_token(c, fmt) for c in chunks]
        chunk_lists.append([q.payload for q in quants])
        quant_meta.append(quants)
    received = all_to_all(group, chunk_lists,
                          elem_bytes=fmt.bytes_per_element, tag=tag)
    outs = []
    for j, payloads in enumerate(received):
        metas = [quant_meta[i][j] for i in range(n)]
        outs.append(rank_ordered_sum(
            dequantize(type(q)(payload, q.scales, q.fmt, q.scheme,
                               q.group_size))
            for q, payload in zip(metas, payloads)))
    return outs


def fp8_compressed_all_gather(
    group: ProcessGroup,
    shards: Sequence[np.ndarray],
    fmt: FloatFormat = FP8_E4M3,
    group_size: int = 128,
    tag: str = "fp8_ag",
) -> List[np.ndarray]:
    """FP8 all-gather for backward gradients (§5).

    Gradients are quantized **per channel**, grouped along the token
    dimension with a small ``group_size`` (e.g. 128) to bound each
    scale's dynamic range, gathered at 1 byte/element, and dequantized.
    """
    quants = [
        quantize_grouped(np.asarray(s), group_size, fmt)
        if group_size else quantize_per_channel(np.asarray(s), fmt)
        for s in shards
    ]
    gathered = all_gather(group, [q.payload for q in quants],
                          elem_bytes=fmt.bytes_per_element, tag=tag)
    # Every rank reconstructs the full tensor from the shard metadata.
    restored = [dequantize(q) for q in quants]
    full = np.concatenate(restored, axis=0)
    return [full.copy() for _ in range(group.size)]


@dataclass
class InPlaceCastBuffer:
    """Peak-memory model of the in-place BF16 cast (§5).

    A naive implementation allocates a BF16 send buffer (0.5×) and a
    BF16 receive buffer (0.5×) next to the FP32 gradients (1×), peaking
    at 2× the FP32 bytes.  The paper's operator writes BF16 values into
    the first half of the FP32 buffer and receives into the second half,
    keeping the peak at exactly 1×.
    """

    fp32_bytes: float

    @property
    def naive_peak_bytes(self) -> float:
        return 2.0 * self.fp32_bytes

    @property
    def inplace_peak_bytes(self) -> float:
        return self.fp32_bytes

    @property
    def savings_fraction(self) -> float:
        return 1.0 - self.inplace_peak_bytes / self.naive_peak_bytes
