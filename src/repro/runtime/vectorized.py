"""All-ranks-at-once vectorized kernels for the DAG backend.

The second execution mode,
``TrainConfig(execution="vectorized")`` / ``REPRO_EXECUTION=vectorized``,
removes the sequential driver's per-rank loop: every rank's shard is
stacked on a leading *rank axis* and each
:class:`~repro.core.operators.OpGraph` op runs as **one** batched numpy
kernel for all ranks at once.

Numerics contract (enforced by the ``dag_bitwise`` invariant and
``tests/test_vectorized_engine.py``):

* Batched ``np.matmul`` over leading axes is bitwise-identical per
  slice to the per-rank 2-D/3-D GEMMs (``np.einsum`` is *not*, which is
  why every kernel here uses ``@``).
* Elementwise and row-local ops (RMSNorm, RoPE, softmax, residual adds,
  dropout masks) are trivially slice-identical under a leading axis.
* The balanced all-to-all collective is a pure axis permutation —
  ``reshape``/``transpose``/``reshape`` — of the stacked array: no
  arithmetic at all, so forward values are exact (see
  :func:`vec_all_to_all`).
* Shared-weight gradients accumulate in **increasing-rank order**, the
  same left-associated order the legacy engine's tape produces (one
  contribution per rank, rank 0 first), via :func:`_rank_sum`.
* Every collective still books the identical
  :class:`~repro.comm.group.CommLedger` records — one forward record
  per whole-world call and one one-hot dual record per rank on the
  backward pass — so the Eq. 1-4 comm auditor stays exact.

* The all-gather and reduce-scatter collectives reduce to rank-axis
  data movement: AG is a ``moveaxis``/``reshape`` merge of the rank
  axis (plus a broadcast view for the replicated outputs), RS a single
  ``np.sum`` over the rank axis — the very reduction the per-rank path
  computes — followed by the inverse split.

Scope: the SP and TP attention chains, the per-token norms/residuals,
and the linear projections are vectorized; bindings without a ``vec``
handler (the ragged EP token dispatch and the TP/AG-RS FFN, whose
per-expert row counts differ across ranks) fall back to their
whole-world ``seq`` handlers inside the same run —
:class:`VecEnv` materializes per-rank views of stacked values on demand
so the two handler families compose on one tape.  A world carrying a
fault plan falls back to the sequential backend entirely (fault
injection addresses per-rank transfers, which a permutation does not
model).
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

import numpy as np

from ..tensor import Tensor
from ..tensor import ops as tops
from ..tensor.tensor import _fold_grads, _unbroadcast

__all__ = [
    "VecCtx",
    "VecEnv",
    "stack_shards",
    "vec_all_gather",
    "vec_all_to_all",
    "vec_dropout",
    "vec_linear",
    "vec_reduce_scatter",
    "vec_rmsnorm",
    "vec_shard_matmul",
]


# ---------------------------------------------------------------------------
# Environment: stacked values coexisting with per-rank fallback values
# ---------------------------------------------------------------------------

def stack_shards(shards: Sequence[Tensor]) -> Tensor:
    """Stack per-rank shard Tensors on a new leading rank axis."""
    return tops.stack(list(shards), axis=0)


class _Stacked:
    """A stacked anchor value: a Tensor (or tuple of Tensors) whose
    leading axis is the rank axis, plus lazily-built per-rank views."""

    __slots__ = ("value", "shards")

    def __init__(self, value: Any, shards: Optional[List[Any]] = None):
        self.value = value
        self.shards = shards


class VecEnv(dict):
    """Anchor environment for a vectorized DAG run.

    Vectorized handlers store stacked values via :meth:`set_stacked`
    and read them via :meth:`stacked`; sequential fallback handlers
    (and :meth:`~repro.runtime.dag_executor.DagRunResult.per_rank`)
    read ``env[name]``, which materializes per-rank views of a stacked
    value on first access — each view is ``stacked[r]``, a real tape
    op, so gradients flow back into the stacked graph.  Stacking a
    per-rank list for a vectorized consumer likewise happens at most
    once per anchor.
    """

    def __init__(self, size: int):
        super().__init__()
        self.size = int(size)

    def set_stacked(self, name: str, value: Any) -> None:
        """Store a vec handler's rank-stacked result for ``name``."""
        dict.__setitem__(self, name, _Stacked(value))

    def stacked(self, name: str) -> Any:
        """The stacked form of an anchor (tuple-valued anchors give a
        tuple of stacked Tensors)."""
        v = dict.__getitem__(self, name)
        if isinstance(v, _Stacked):
            return v.value
        stacked = stack_shards(v)
        dict.__setitem__(self, name, _Stacked(stacked, shards=list(v)))
        return stacked

    def __getitem__(self, name: str) -> Any:
        v = dict.__getitem__(self, name)
        if not isinstance(v, _Stacked):
            return v
        if v.shards is None:
            if isinstance(v.value, tuple):
                parts = [[t[r] for t in v.value]
                         for r in range(self.size)]
                v.shards = [tuple(p) for p in parts]
            else:
                v.shards = [v.value[r] for r in range(self.size)]
        return v.shards


class VecCtx:
    """Whole-world stacked view handed to ``vec`` binding handlers."""

    __slots__ = ("group", "env")

    def __init__(self, group: Any, env: VecEnv):
        self.group = group
        self.env = env

    @property
    def size(self) -> int:
        return int(self.group.size)

    def stacked(self, name: str) -> Any:
        """The rank-stacked value of anchor ``name`` (stacking a
        per-rank list from a fallback handler at most once)."""
        return self.env.stacked(name)


# ---------------------------------------------------------------------------
# Gradient accumulation helper
# ---------------------------------------------------------------------------

def _rank_sum(parts: np.ndarray, shape: tuple, dtype) -> np.ndarray:
    """Left-associated sum of per-rank weight-gradient partials.

    The legacy engine builds one tape node per rank per shared weight;
    the tape casts each rank's gradient to the weight dtype, reduces it
    with :func:`~repro.tensor.tensor._unbroadcast`, and accumulates in
    increasing-rank order.  Replaying exactly that sequence keeps the
    single vectorized node bitwise-identical to the per-rank chain.
    """
    return _fold_grads([_unbroadcast(np.asarray(part, dtype=dtype), shape)
                        for part in parts])


# ---------------------------------------------------------------------------
# Batched kernels
# ---------------------------------------------------------------------------

def vec_linear(x: Tensor, linear: Any) -> Tensor:
    """``[n, ..., in] @ [in, out]`` for all ranks in one batched GEMM.

    Matches :class:`repro.model.layers.Linear` under the active
    precision policy: activations are fake-quantized per rank slice
    (per-tensor activation scales are *per-rank* scales in the engine,
    so the policy must see one rank at a time), the weight once.
    """
    from ..precision.policy import current_policy
    policy = current_policy()
    n = x.shape[0]
    weight = linear.weight
    bias = linear.bias
    if policy is not None:
        xa = np.stack([policy.activation_fn(x.data[r])
                       for r in range(n)])
        wq = policy.weight_fn(weight.data)
    else:
        xa, wq = x.data, weight.data
    out = xa @ wq
    if bias is not None:
        out = out + bias.data
    inputs = [x, weight] if bias is None else [x, weight, bias]

    def backward(g):
        gx = g @ wq.swapaxes(-1, -2)
        gw = _rank_sum(xa.swapaxes(-1, -2) @ g, weight.data.shape,
                       weight.data.dtype)
        if bias is None:
            return gx, gw
        gb = _rank_sum(g, bias.data.shape, bias.data.dtype)
        return gx, gw, gb

    return Tensor.from_op(out, inputs, backward, "vec_linear")


def vec_rmsnorm(x: Tensor, weight: Tensor, eps: float = 1e-6) -> Tensor:
    """RMSNorm over the last axis of a rank-stacked activation."""
    xd, w = x.data, weight.data
    ms = (xd * xd).mean(axis=-1, keepdims=True)
    inv_rms = 1.0 / np.sqrt(ms + eps)
    normed = xd * inv_rms
    out = normed * w

    def backward(g):
        h = xd.shape[-1]
        partials = np.stack([
            (g[r] * normed[r]).reshape(-1, h).sum(axis=0)
            for r in range(xd.shape[0])
        ])
        gw = _rank_sum(partials, w.shape, w.dtype)
        gx_normed = g * w
        dot = (gx_normed * xd).sum(axis=-1, keepdims=True)
        gx = inv_rms * gx_normed - xd * (inv_rms ** 3) * dot / h
        return gx, gw

    return Tensor.from_op(out, [x, weight], backward, "vec_rmsnorm")


def vec_shard_matmul(x: Tensor, weights: Sequence[Tensor]) -> Tensor:
    """``x[r] @ weights[r]`` for all ranks in one broadcast GEMM.

    The TP engines pair every rank's activation with that rank's own
    weight *shard* (a distinct leaf Tensor), so unlike
    :func:`vec_linear` there is no cross-rank gradient sum: each shard
    receives exactly its rank's raw ``xᵀ·g`` partial and the tape's
    own unbroadcast reduces the batch axis — the identical node the
    per-rank ``@`` builds.
    """
    n = x.shape[0]
    xd = x.data
    w = np.stack([t.data for t in weights])
    wb = w.reshape((n,) + (1,) * (xd.ndim - 3) + w.shape[1:])
    out = xd @ wb

    def backward(g):
        gx = g @ wb.swapaxes(-1, -2)
        gw = xd.swapaxes(-1, -2) @ g
        return (gx, *(gw[r] for r in range(n)))

    return Tensor.from_op(out, [x] + list(weights), backward,
                          "vec_shard_matmul")


def vec_dropout(t: Tensor, p: float, rng_pool: Any) -> Tensor:
    """Inverted dropout drawing each rank's mask from its private
    stream in increasing-rank order — the identical generator calls the
    per-rank engines make, so all execution modes see the same masks."""
    keep = 1.0 - p
    n = t.shape[0]
    mask = np.stack([
        (rng_pool[r].random(t.shape[1:]) < keep) / keep
        for r in range(n)
    ])

    def backward(g):
        return (g * mask,)

    return Tensor.from_op(t.data * mask, [t], backward, "vec_dropout")


# ---------------------------------------------------------------------------
# Collectives as axis permutations
# ---------------------------------------------------------------------------

def _a2a_permute(data: np.ndarray, n: int, split_axis: int,
                 concat_axis: int) -> np.ndarray:
    """The balanced all-to-all as a pure axis permutation.

    ``data`` is rank-stacked: axis 0 is the source rank, the remaining
    axes one rank's tensor.  Destination ``j`` receives every source's
    ``j``-th chunk of ``split_axis``, concatenated along
    ``concat_axis`` in source-rank order — which is exactly: expand the
    split axis into ``(n_dst, w)``, move ``n_dst`` to the front and the
    old rank axis to just before the concat axis, and re-merge.
    """
    sa, ca = split_axis + 1, concat_axis + 1
    shape = data.shape
    w = shape[sa] // n
    expanded = data.reshape(shape[:sa] + (n, w) + shape[sa + 1:])
    axes = list(range(expanded.ndim))
    axes.remove(sa)   # n_dst, promoted to the new leading axis
    axes.remove(0)    # n_src, re-inserted before the concat axis
    ca_expanded = ca + 1 if ca > sa else ca
    axes.insert(axes.index(ca_expanded), 0)
    permuted = expanded.transpose([sa] + axes)
    out_shape = list(shape)
    out_shape[sa] = w
    out_shape[ca] = shape[ca] * n
    return permuted.reshape(out_shape)


def vec_all_to_all(x: Tensor, split_axis: int, concat_axis: int,
                   group: Any, elem_bytes: Optional[float] = None,
                   tag: str = "", tiles: int = 1,
                   tile_label: str = "") -> Tensor:
    """Balanced all-to-all over the rank axis of a stacked Tensor.

    Zero arithmetic — forward and backward are inverse
    :func:`_a2a_permute` calls — but the ledger sees precisely what the
    per-rank path books: one whole-world ``all_to_all`` record forward
    (each rank sending ``n-1`` chunks) and ``n`` one-hot dual records
    backward, matching :func:`repro.parallel.dist_ops.dist_all_to_all`
    output-by-output.

    With ``tiles > 1`` the forward record is split into per-tile
    records of ``1/tiles`` of each rank's bytes (tile ``(t, tiles)``),
    mirroring the chunked per-rank path; the data movement itself stays
    the one fused permutation — the vectorized analog of the §4.2 fused
    kernel, whose tiles live inside a single launch.
    """
    from ..comm.group import tile_span
    from ..parallel.dist_ops import _one_hot
    n = int(group.size)
    data = x.data
    if data.shape[split_axis + 1] % n != 0:
        raise ValueError(
            f"split axis {split_axis} of size "
            f"{data.shape[split_axis + 1]} not divisible by {n}"
        )
    eb = (float(elem_bytes) if elem_bytes is not None
          else float(data.itemsize))
    chunk = data.size // (n * n)
    wire = (n - 1) * chunk * eb
    group.pre_collective("all_to_all", tag)
    if tiles > 1:
        for t in range(tiles):
            with tile_span(group, tile_label, t, tiles):
                group.record("all_to_all", [wire / tiles] * n, tag,
                             tile=(t, tiles))
    else:
        group.record("all_to_all", [wire] * n, tag)
    out = _a2a_permute(data, n, split_axis, concat_axis)
    group.post_collective("all_to_all", [out[j] for j in range(n)], tag)

    def backward(g):
        for j in range(n):
            group.pre_collective("all_to_all", tag + ":bwd")
            group.record("all_to_all", _one_hot(n, j, wire),
                         tag + ":bwd")
        return (_a2a_permute(g, n, concat_axis, split_axis),)

    return Tensor.from_op(out, [x], backward, "vec_all_to_all")


def vec_all_gather(x: Tensor, axis: int, group: Any,
                   elem_bytes: Optional[float] = None,
                   tag: str = "", tiled: bool = False,
                   tile_label: str = "") -> Tensor:
    """All-gather over the rank axis of a stacked Tensor.

    Forward merges the rank axis into ``axis`` (the concatenation every
    rank receives) and broadcasts the one gathered array across the
    rank axis — the stacked mirror of
    :func:`repro.parallel.dist_ops.dist_all_gather`'s zero-copy path.
    Backward replays the engine's accumulation exactly: output grads
    sum in *ascending*-rank order (the DFS tape order visits the
    per-rank outputs rank 0 first), then scatter back to shards.

    With ``tiled=True`` the forward record is split per source rank
    (one-hot, tile ``(i, n)``) while the movement stays the one fused
    ``moveaxis`` — mirroring the chunked per-rank path's ledger.
    """
    from ..comm.group import tile_span
    from ..parallel.dist_ops import _one_hot
    n = int(group.size)
    data = x.data
    shard_size = data.size // n
    eb = (float(elem_bytes) if elem_bytes is not None
          else float(data.itemsize))
    group.pre_collective("all_gather", tag)
    if tiled and n >= 2:
        for i in range(n):
            with tile_span(group, tile_label, i, n):
                group.record("all_gather",
                             _one_hot(n, i, shard_size * eb * (n - 1)),
                             tag, tile=(i, n))
    else:
        group.record("all_gather", [shard_size * eb * (n - 1)] * n, tag)
    full_shape = list(data.shape[1:])
    full_shape[axis] *= n
    full = np.moveaxis(data, 0, axis).reshape(full_shape)
    group.post_collective("all_gather", [full] * n, tag)
    out = np.broadcast_to(full, (n,) + full.shape)

    def backward(g):
        total = None
        for j in range(n):
            group.pre_collective("reduce_scatter", tag + ":bwd")
            group.record("reduce_scatter",
                         _one_hot(n, j, (n - 1) * shard_size * eb),
                         tag + ":bwd")
            total = g[j] if total is None else total + g[j]
        split = list(total.shape)
        width = split[axis] // n
        split[axis:axis + 1] = [n, width]
        return (np.moveaxis(total.reshape(split), axis, 0),)

    return Tensor.from_op(out, [x], backward, "vec_all_gather")


def vec_reduce_scatter(x: Tensor, axis: int, group: Any,
                       elem_bytes: Optional[float] = None,
                       tag: str = "", tiled: bool = False,
                       tile_label: str = "") -> Tensor:
    """Reduce-scatter over the rank axis of a stacked Tensor.

    Forward is the *same* rank-ordered float64 accumulation the
    per-rank path computes (``rank_ordered_sum`` walks the rank axis),
    split back into per-rank slices.  Backward places each output grad
    at its slice of a zero full-shape array and folds in
    ascending-rank order — including the engine's ``+0.0`` additions,
    so even signed zeros match — then broadcasts to every rank.

    With ``tiled=True`` the forward record is split per destination
    rank (one-hot, tile ``(j, n)``) while the reduction stays the one
    whole-tensor accumulation — mirroring the chunked per-rank path's
    ledger.
    """
    from ..comm.collectives import rank_ordered_sum
    from ..comm.group import tile_span
    from ..parallel.dist_ops import _one_hot
    n = int(group.size)
    data = x.data
    if data.shape[axis + 1] % n != 0:
        raise ValueError(
            f"axis {axis} of size {data.shape[axis + 1]} "
            f"not divisible by {n}"
        )
    eb = (float(elem_bytes) if elem_bytes is not None
          else float(data.itemsize))
    shard_elems = data[0].size // n
    total = rank_ordered_sum(data)
    group.pre_collective("reduce_scatter", tag)
    if tiled and n >= 2:
        for j in range(n):
            with tile_span(group, tile_label, j, n):
                group.record("reduce_scatter",
                             _one_hot(n, j, shard_elems * eb * (n - 1)),
                             tag, tile=(j, n))
    else:
        group.record("reduce_scatter",
                     [shard_elems * eb * (n - 1)] * n, tag)
    width = total.shape[axis] // n
    split = list(total.shape)
    split[axis:axis + 1] = [n, width]
    out = np.moveaxis(total.reshape(split), axis, 0).astype(
        data.dtype, copy=False)
    group.post_collective("reduce_scatter", [out[j] for j in range(n)],
                          tag)

    def backward(g):
        full_shape = list(data.shape[1:])
        slicer = [slice(None)] * len(full_shape)
        folded = None
        for j in range(n):
            grad = np.zeros(full_shape, dtype=g[j].dtype)
            slicer[axis] = slice(j * width, (j + 1) * width)
            grad[tuple(slicer)] = g[j]
            group.pre_collective("all_gather", tag + ":bwd")
            group.record("all_gather",
                         _one_hot(n, j, g[j].size * eb * (n - 1)),
                         tag + ":bwd")
            folded = grad if folded is None else folded + grad
        return (np.broadcast_to(folded, data.shape),)

    return Tensor.from_op(out, [x], backward, "vec_reduce_scatter")
