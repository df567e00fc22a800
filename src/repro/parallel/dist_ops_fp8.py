"""FP8-compressed differentiable collectives (§5).

In FP8 training MegaScale-MoE "replace[s] BF16 TP reduce-scatter with
FP8 all-to-all in forward propagation and perform[s] reduction in FP32.
In the corresponding backward propagation, we apply FP8 all-gather for
gradients" with per-token quantization forward and per-channel (grouped
along tokens) quantization backward.

These ops mirror :mod:`repro.parallel.dist_ops` but ship FP8 on the
wire: each payload is one ``uint8`` buffer holding the E4M3 codes and
then the FP32 scales' bytes, and the receiver decodes it.  Forward
payloads are quantized per token and move through
:mod:`repro.comm.collectives` (fault plan and tracer included); the
backward duals quantize gradients per channel with a small token
group.  The ledger records each buffer's ``nbytes``, and the
quantization error is real, so training curves measure genuine
compression effects.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..comm.collectives import all_gather, all_to_all, rank_ordered_sum
from ..comm.group import ProcessGroup
from ..precision.formats import FP8_E4M3, FloatFormat
from ..precision.quantize import (
    QuantizedTensor,
    dequantize,
    quantize_grouped,
    quantize_per_token,
)
from ..tensor import Tensor
from .dist_ops import _one_hot

__all__ = ["dist_reduce_scatter_fp8", "dist_all_gather_fp8"]


def _pack(x: np.ndarray, fmt: FloatFormat,
          group_size: Optional[int] = None) -> np.ndarray:
    """``x`` quantized per token (or per channel in token groups of
    ``group_size``) as one ``uint8`` buffer: codes, then scale bytes."""
    flat = x.reshape(-1, x.shape[-1])
    q = (quantize_per_token(flat, fmt) if group_size is None
         else quantize_grouped(flat, group_size, fmt))
    return np.concatenate([q.payload.reshape(-1),
                           q.scales.reshape(-1).view(np.uint8)])


def _unpack(buf: np.ndarray, shape: Tuple[int, ...], fmt: FloatFormat,
            group_size: Optional[int] = None) -> np.ndarray:
    """The float32 values a :func:`_pack` buffer of ``shape`` carries."""
    cols = shape[-1]
    rows = int(np.prod(shape[:-1], dtype=np.int64))
    codes = buf[:rows * cols].reshape(rows, cols)
    scales = buf[rows * cols:].view(np.float32)
    if group_size is None:
        q = QuantizedTensor(codes, scales.reshape(rows, 1), fmt,
                            "per_token")
    else:
        q = QuantizedTensor(codes, scales.reshape(-1, cols), fmt,
                            "grouped", group_size)
    return dequantize(q).reshape(shape)


def dist_reduce_scatter_fp8(
    group: ProcessGroup,
    tensors: Sequence[Tensor],
    fmt: FloatFormat = FP8_E4M3,
    grad_group_size: int = 128,
    tag: str = "fp8_rs",
) -> List[Tensor]:
    """FP8-compressed reduce-scatter of ``[T, ...]`` tensors on axis 0.

    Forward: each rank's n chunks are quantized **per token**, exchanged
    as FP8 buffers (all-to-all pattern), decoded, and summed in
    FP32/FP64 — overflow-free reduction (§5).  Backward: the gradient
    all-gather is quantized **per channel, grouped** along tokens.
    """
    group.check_shards(tensors)
    n = group.size
    first = tensors[0].data
    if first.shape[0] % n != 0:
        raise ValueError(
            f"axis 0 of size {first.shape[0]} not divisible by {n}")
    received = all_to_all(
        group, [[_pack(c, fmt) for c in np.split(t.data, n)]
                for t in tensors], tag=tag)

    width = first.shape[0] // n
    chunk = (width,) + first.shape[1:]
    full_shape = first.shape
    outs = []
    for j in range(n):
        total = rank_ordered_sum(_unpack(buf, chunk, fmt)
                                 for buf in received[j])

        def backward(g, j=j):
            # Gradient of the sum w.r.t. every input's chunk j; the
            # gradient itself ships in grouped per-channel FP8.
            buf = _pack(g, fmt, grad_group_size)
            group.pre_collective("all_gather", tag + ":bwd")
            group.record("all_gather", _one_hot(n, j, buf.nbytes * (n - 1)),
                         tag + ":bwd")
            grad = np.zeros(full_shape, dtype=np.float64)
            grad[j * width:(j + 1) * width] = _unpack(
                buf, g.shape, fmt, grad_group_size)
            return (grad,) * n

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
    bufs = [_pack(s.data, fmt) for s in shards]
    shapes = [s.data.shape for s in shards]
    bounds = np.cumsum([0] + [b.size for b in bufs])
    offsets = np.cumsum([0] + [shape[0] for shape in shapes])
    delivered = all_gather(group, bufs, tag=tag)
    outs = []
    for j in range(n):
        full = np.concatenate([
            _unpack(delivered[j][bounds[i]:bounds[i + 1]], shapes[i], fmt)
            for i in range(n)]).astype(shards[0].dtype)

        def backward(g, j=j):
            grads = []
            wire = 0
            for i in range(n):
                piece = g[offsets[i]:offsets[i + 1]]
                buf = _pack(piece, fmt, grad_group_size)
                grads.append(_unpack(buf, piece.shape, fmt,
                                     grad_group_size).astype(np.float64))
                if i != j:
                    wire += buf.nbytes
            group.pre_collective("reduce_scatter", tag + ":bwd")
            group.record("reduce_scatter", _one_hot(n, j, wire),
                         tag + ":bwd")
            return tuple(grads)

        outs.append(Tensor.from_op(full, list(shards), backward,
                                   "dist_all_gather_fp8"))
    return outs
