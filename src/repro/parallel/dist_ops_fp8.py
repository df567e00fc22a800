"""FP8-compressed differentiable collectives (§5).

In FP8 training MegaScale-MoE "replace[s] BF16 TP reduce-scatter with
FP8 all-to-all in forward propagation and perform[s] reduction in FP32.
In the corresponding backward propagation, we apply FP8 all-gather for
gradients" with per-token quantization forward and per-channel (grouped
along tokens) quantization backward.

These ops are the :mod:`repro.parallel.dist_ops` calls with encoded
payloads: each payload is one ``uint8`` buffer holding the E4M3 codes
and then the FP32 scales' bytes, and the receiver decodes it.  Forward
payloads are quantized per token and move through
:func:`~repro.comm.collectives.all_to_all` /
:func:`~repro.comm.collectives.all_gather`; each backward leg
quantizes its gradient per channel with a small token group and moves
it through :func:`~repro.comm.collectives.send_leg`, and every
receiving rank decodes the buffer it was delivered.  The ledger
records each buffer's ``nbytes``, and the quantization error is real,
so training curves measure genuine compression effects.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..comm.collectives import (all_gather, all_to_all, rank_ordered_sum,
                                send_leg)
from ..comm.group import ProcessGroup
from ..precision.formats import FP8_E4M3
from ..precision.quantize import (
    QuantizedTensor,
    dequantize,
    quantize_grouped,
    quantize_per_token,
)
from ..tensor import Tensor
from .dist_ops import per_delivery, placed, split_at

__all__ = ["dist_reduce_scatter_fp8", "dist_all_gather_fp8"]

#: Token rows per per-channel scale of a backward (gradient) payload.
GRAD_GROUP_SIZE = 128


def _pack(x: np.ndarray, group_size: Optional[int] = None) -> np.ndarray:
    """``x`` quantized to E4M3 per token (or per channel in token
    groups of ``group_size``) as one ``uint8`` buffer: codes, then
    scale bytes."""
    flat = x.reshape(-1, x.shape[-1])
    q = (quantize_per_token(flat, FP8_E4M3) if group_size is None
         else quantize_grouped(flat, group_size, FP8_E4M3))
    return np.concatenate([q.payload.reshape(-1),
                           q.scales.reshape(-1).view(np.uint8)])


def _unpack(buf: np.ndarray, shape: Tuple[int, ...],
            group_size: Optional[int] = None) -> np.ndarray:
    """The float32 values a :func:`_pack` buffer of ``shape`` carries."""
    cols = shape[-1]
    rows = int(np.prod(shape[:-1], dtype=np.int64))
    codes = buf[:rows * cols].reshape(rows, cols)
    scales = buf[rows * cols:].view(np.float32)
    if group_size is None:
        q = QuantizedTensor(codes, scales.reshape(rows, 1), FP8_E4M3,
                            "per_token")
    else:
        q = QuantizedTensor(codes, scales.reshape(-1, cols), FP8_E4M3,
                            "grouped", group_size)
    return dequantize(q).reshape(shape)


def dist_reduce_scatter_fp8(
    group: ProcessGroup,
    tensors: Sequence[Tensor],
    tag: str = "fp8_rs",
    tiled: bool = False,
    tile_label: str = "",
) -> List[Tensor]:
    """FP8-compressed reduce-scatter of ``[T, ...]`` tensors on axis 0.

    Forward: each rank's n chunks are quantized **per token**, exchanged
    as FP8 buffers (all-to-all pattern), decoded, and summed in
    FP32/FP64 — overflow-free reduction (§5).  Backward: the gradient
    all-gather is quantized **per channel, grouped** along tokens.
    ``tiled``/``tile_label`` chunk the exchange per destination rank
    (§4.2), as :func:`~repro.parallel.dist_ops.dist_reduce_scatter`
    does: tile ``j`` moves every source's packed chunk ``j``.  Scales
    are per token, so a chunk's buffer is the same either way.
    """
    group.check_shards(tensors)
    n = group.size
    first = tensors[0].data
    if first.shape[0] % n != 0:
        raise ValueError(
            f"axis 0 of size {first.shape[0]} not divisible by {n}")
    received = all_to_all(
        group, [[_pack(c) for c in np.split(t.data, n)]
                for t in tensors], tag=tag,
        tiles=n if tiled else 1, tile_label=tile_label)

    width = first.shape[0] // n
    chunk = (width,) + first.shape[1:]
    full_shape = first.shape
    outs = []
    for j in range(n):
        total = rank_ordered_sum(_unpack(buf, chunk)
                                 for buf in received[j])

        def backward(g, j=j):
            # Gradient of the sum w.r.t. every input's chunk j; the
            # gradient itself ships in grouped per-channel FP8.
            return per_delivery(
                send_leg(group, "all_gather", j,
                         [_pack(g, GRAD_GROUP_SIZE)] * n,
                         tag + ":bwd"),
                lambda buf: placed(
                    full_shape, 0, j * width,
                    _unpack(buf, g.shape,
                            GRAD_GROUP_SIZE).astype(np.float64)))

        outs.append(Tensor.from_op(total.astype(first.dtype),
                                   list(tensors), backward,
                                   "dist_reduce_scatter_fp8"))
    return outs


def dist_all_gather_fp8(
    group: ProcessGroup,
    shards: Sequence[Tensor],
    tag: str = "fp8_ag",
    tiled: bool = False,
    tile_label: str = "",
) -> List[Tensor]:
    """FP8-compressed all-gather of token shards (axis 0).

    Forward payloads are per-token FP8; the backward reduce-scatter of
    gradients ships grouped per-channel FP8 (then reduces in FP32).
    ``tiled``/``tile_label`` chunk the gather of the packed buffers per
    source rank (§4.2), as :func:`~repro.parallel.dist_ops.
    dist_all_gather` does.
    """
    group.check_shards(shards)
    n = group.size
    bufs = [_pack(s.data) for s in shards]
    shapes = [s.data.shape for s in shards]
    bounds = np.cumsum([0] + [b.size for b in bufs])
    delivered = all_gather(group, bufs, tag=tag, tiled=tiled,
                           tile_label=tile_label)
    sizes = [shape[0] for shape in shapes]
    outs = []
    for j in range(n):
        full = np.concatenate([
            _unpack(delivered[j][bounds[i]:bounds[i + 1]], shapes[i])
            for i in range(n)]).astype(shards[0].dtype)

        def backward(g, j=j):
            pieces = split_at(g, 0, sizes)
            wire = send_leg(group, "reduce_scatter", j,
                            [_pack(p, GRAD_GROUP_SIZE)
                             for p in pieces], tag + ":bwd")
            return tuple(
                _unpack(buf, p.shape, GRAD_GROUP_SIZE).astype(np.float64)
                for buf, p in zip(wire, pieces))

        outs.append(Tensor.from_op(full, list(shards), backward,
                                   "dist_all_gather_fp8"))
    return outs
