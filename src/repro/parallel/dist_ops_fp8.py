"""FP8-compressed differentiable collectives (§5).

In FP8 training MegaScale-MoE "replace[s] BF16 TP reduce-scatter with
FP8 all-to-all in forward propagation and perform[s] reduction in FP32.
In the corresponding backward propagation, we apply FP8 all-gather for
gradients" with per-token quantization forward and per-channel (grouped
along tokens) quantization backward.

These ops mirror :mod:`repro.parallel.dist_ops` but quantize what goes
on the wire: forward payloads are per-token FP8-E4M3; the backward
collective quantizes gradients per-channel with a small token group.
The quantization error is *real* (values pass through
quantize→dequantize), so training curves measure genuine compression
effects; the ledger records 1 byte/element plus FP32 scales.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..comm.collectives import rank_ordered_sum
from ..comm.group import ProcessGroup
from ..precision.formats import FP8_E4M3, FloatFormat
from ..precision.quantize import (
    dequantize,
    quantize_grouped,
    quantize_per_token,
)
from ..tensor import Tensor

__all__ = ["dist_reduce_scatter_fp8", "dist_all_gather_fp8"]


def _fake_quant_rows(x: np.ndarray, fmt: FloatFormat) -> tuple:
    """Quantize-dequantize per token; returns (values, wire_bytes)."""
    flat = x.reshape(-1, x.shape[-1])
    q = quantize_per_token(flat, fmt)
    return dequantize(q).reshape(x.shape).astype(np.float64), \
        q.nbytes_on_wire


def _fake_quant_grouped(x: np.ndarray, fmt: FloatFormat,
                        group_size: int) -> tuple:
    flat = x.reshape(-1, x.shape[-1])
    q = quantize_grouped(flat, group_size, fmt)
    return dequantize(q).reshape(x.shape).astype(np.float64), \
        q.nbytes_on_wire


def dist_reduce_scatter_fp8(
    group: ProcessGroup,
    tensors: Sequence[Tensor],
    axis: int = 0,
    fmt: FloatFormat = FP8_E4M3,
    grad_group_size: int = 128,
    tag: str = "fp8_rs",
) -> List[Tensor]:
    """FP8-compressed reduce-scatter of ``[T, ...]`` tensors.

    Forward: each rank's n chunks are quantized **per token**, exchanged
    at 1 byte/element (all-to-all pattern), dequantized, and summed in
    FP32/FP64 — overflow-free reduction (§5).  Backward: the gradient
    all-gather is quantized **per channel, grouped** along tokens.
    """
    group.check_shards(tensors)
    n = group.size
    first = tensors[0].data
    if first.shape[axis] % n != 0:
        raise ValueError(
            f"axis {axis} of size {first.shape[axis]} not divisible "
            f"by {n}"
        )
    if axis != 0:
        raise ValueError("fp8 reduce-scatter supports axis 0 (tokens)")

    quantized = []       # [rank][chunk] fake-quantized values
    wire_per_rank = []   # off-diagonal chunks travel at FP8 width
    for i, t in enumerate(tensors):
        chunks = np.split(np.asarray(t.data, dtype=np.float64), n,
                          axis=0)
        q_chunks = []
        wire = 0.0
        for j, chunk in enumerate(chunks):
            values, nbytes = _fake_quant_rows(chunk, fmt)
            q_chunks.append(values)
            if j != i:
                wire += nbytes
        quantized.append(q_chunks)
        wire_per_rank.append(wire)
    group.record("all_to_all", wire_per_rank, tag)

    width = first.shape[0] // n
    outs = []
    for j in range(n):
        total = rank_ordered_sum([quantized[i][j] for i in range(n)])

        def backward(g, j=j):
            # Gradient of the sum w.r.t. every input's chunk j; the
            # gradient itself ships in grouped per-channel FP8.
            g2 = np.asarray(g, dtype=np.float64)
            values, nbytes = _fake_quant_grouped(
                g2.reshape(-1, g2.shape[-1]), fmt, grad_group_size)
            values = values.reshape(g2.shape)
            per_rank = [0.0] * n
            per_rank[j] = nbytes * (n - 1)
            group.record("all_gather", per_rank, tag + ":bwd")
            grads = []
            for i in range(n):
                grad = np.zeros(first.shape, dtype=np.float64)
                grad[j * width:(j + 1) * width] = values
                grads.append(grad)
            return tuple(grads)

        outs.append(Tensor.from_op(total.astype(first.dtype),
                                   list(tensors), backward,
                                   "dist_reduce_scatter_fp8"))
    return outs


def dist_all_gather_fp8(
    group: ProcessGroup,
    shards: Sequence[Tensor],
    fmt: FloatFormat = FP8_E4M3,
    grad_group_size: int = 128,
    tag: str = "fp8_ag",
) -> List[Tensor]:
    """FP8-compressed all-gather of token shards (axis 0).

    Forward payloads are per-token FP8; the backward reduce-scatter of
    gradients ships grouped per-channel FP8 (then reduces in FP32).
    """
    group.check_shards(shards)
    n = group.size
    values = []
    wire_per_rank = []
    for s in shards:
        v, nbytes = _fake_quant_rows(
            np.asarray(s.data, dtype=np.float64), fmt)
        values.append(v)
        wire_per_rank.append(nbytes * (n - 1))
    group.record("all_gather", wire_per_rank, tag)

    full = np.concatenate(values, axis=0)
    sizes = [v.shape[0] for v in values]
    offsets = np.cumsum([0] + sizes)

    outs = []
    for j in range(n):
        def backward(g, j=j):
            grads = []
            wire = 0.0
            for i in range(n):
                piece = np.asarray(
                    g[offsets[i]:offsets[i + 1]], dtype=np.float64)
                quantized, nbytes = _fake_quant_grouped(
                    piece.reshape(-1, piece.shape[-1]), fmt,
                    grad_group_size)
                grads.append(quantized.reshape(piece.shape))
                if i != j:
                    wire += nbytes
            per_rank = [0.0] * n
            per_rank[j] = wire
            group.record("reduce_scatter", per_rank, tag + ":bwd")
            return tuple(grads)

        outs.append(Tensor.from_op(
            full.astype(shards[0].dtype).copy(), list(shards), backward,
            "dist_all_gather_fp8"))
    return outs
