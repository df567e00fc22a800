"""Neural-network operators on :class:`~repro.tensor.tensor.Tensor`.

These are the operator-level building blocks that Figure 20 of the paper
enumerates for one MoE layer — RMSNorm, matmul projections, RoPE,
self-attention, SwiGLU, token scatter/gather — plus the loss functions and
the precision-cast op used to emulate BF16/FP8 mixed-precision training.
Each operator has an explicit backward so schedulers can treat forward and
backward as separately reorderable units.
"""

from __future__ import annotations

import functools
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .tensor import Tensor

__all__ = [
    "concat",
    "shard",
    "softmax",
    "rmsnorm",
    "embedding",
    "cross_entropy",
    "take_rows",
    "put_rows",
    "rope_rotate",
    "scaled_dot_product_attention",
    "grouped_swiglu",
    "scatter_add_rows",
    "precision_cast",
]


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis``."""
    arrays = [t.data for t in tensors]
    out = np.concatenate(arrays, axis=axis)
    sizes = [a.shape[axis] for a in arrays]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        slicer = [slice(None)] * g.ndim
        grads = []
        for i in range(len(sizes)):
            slicer[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(g[tuple(slicer)])
        return tuple(grads)

    return Tensor.from_op(out, list(tensors), backward, "concat")


def shard(t: Tensor, n: int, r: int, axis: int = 0) -> Tensor:
    """Piece ``r`` of ``t`` split into ``n`` equal parts along ``axis``.

    A contiguous copy of that one piece whose backward writes its
    gradient into that part of ``t``: how a tensor-parallel rank takes
    its shard of a weight, so the shard GEMM reads a dense operand and
    its gradient lands on the parameter.
    """
    if t.shape[axis] % n != 0:
        raise ValueError(
            f"axis {axis} of size {t.shape[axis]} not divisible by {n}"
        )
    width = t.shape[axis] // n
    slicer = [slice(None)] * t.ndim
    slicer[axis] = slice(r * width, (r + 1) * width)
    index = tuple(slicer)
    shape = t.shape

    def backward(g):
        full = np.zeros(shape, dtype=g.dtype)
        full[index] = g
        return (full,)

    return Tensor.from_op(t.data[index].copy(), [t], backward, "shard")


def softmax(t: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax along ``axis``."""
    x = t.data
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return Tensor.from_op(out, [t], backward, "softmax")


def rmsnorm(t: Tensor, weight: Tensor, eps: float = 1e-6) -> Tensor:
    """Root-mean-square layer norm: ``x / rms(x) * weight``.

    The paper's MoE layer uses RMSNorm before attention and before the
    FFN (Fig. 20: ``ln1_out``, ``ln2_out``).
    """
    x = t.data
    w = weight.data
    ms = (x * x).mean(axis=-1, keepdims=True)
    inv_rms = 1.0 / np.sqrt(ms + eps)
    out = (x * inv_rms) * w

    def backward(g):
        # Saves x and 1/rms; the normalised activation is recomputed.
        h = x.shape[-1]
        gw = (g * (x * inv_rms)).reshape(-1, h).sum(axis=0)
        gx_normed = g * w
        # d/dx of x * (mean(x^2)+eps)^-1/2
        dot = (gx_normed * x).sum(axis=-1, keepdims=True)
        gx = inv_rms * gx_normed - x * (inv_rms ** 3) * dot / h
        return gx, gw

    return Tensor.from_op(out, [t, weight], backward, "rmsnorm")


#: Above this many rows aimed at one target, the level-by-level sweep
#: of :func:`scatter_add_rows` degenerates into many tiny fancy-index
#: passes and ``np.add.at`` wins (Zipf-heavy embedding gradients).
_SCATTER_MAX_LEVELS = 8


def scatter_add_rows(out: np.ndarray, index: np.ndarray,
                     rows: np.ndarray) -> np.ndarray:
    """``np.add.at(out, index, rows)`` along axis 0, bit for bit, faster.

    ``np.add.at`` adds ``rows[i]`` into ``out[index[i]]`` for
    ``i = 0, 1, ...``; what fixes every output bit is only the order in
    which the rows aimed at one target arrive.  A stable sort by target
    numbers each row with its *occurrence level* (0 for the first row
    of a target, 1 for the second, ...); within one level all targets
    are distinct, so ``out[idx] += rows`` is exact there, and sweeping
    the levels in ascending order replays the per-target addition
    order.  Falls back to ``np.add.at`` when one target collects more
    than ``_SCATTER_MAX_LEVELS`` rows (or for negative indices, whose
    aliasing the sort cannot see).  Returns ``out``.
    """
    if index.ndim != 1:  # e.g. [batch, seq] token ids
        index = index.reshape(-1)
        rows = rows.reshape((index.shape[0],) + out.shape[1:])
    n = index.shape[0]
    if n == 0:
        return out
    order = np.argsort(index, kind="stable")
    sorted_index = index[order]
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(sorted_index[1:], sorted_index[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    counts = np.append(starts[1:], n) - starts  # np.diff: 5x the cost
    levels = int(counts.max())
    if levels > _SCATTER_MAX_LEVELS or sorted_index[0] < 0:
        np.add.at(out, index, rows)
        return out
    if levels == 1:
        out[index] += rows
        return out
    level_of = np.arange(n) - np.repeat(starts, counts)
    for level in range(levels):
        sel = order[level_of == level]
        out[index[sel]] += rows[sel]
    return out


def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup ``weight[ids]`` with sparse-gradient accumulation."""
    ids = np.asarray(ids)
    out = weight.data[ids]
    shape, dtype = weight.shape, weight.dtype

    def backward(g):
        return (scatter_add_rows(np.zeros(shape, dtype), ids, g),)

    return Tensor.from_op(out, [weight], backward, "embedding")


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean token-level cross-entropy over the last axis.

    ``logits`` is ``[..., vocab]``; ``targets`` holds integer class ids
    with shape ``logits.shape[:-1]``.
    """
    targets = np.asarray(targets)
    x = logits.data
    vocab = x.shape[-1]
    flat = x.reshape(-1, vocab)
    tgt = targets.reshape(-1)
    if tgt.shape[0] != flat.shape[0]:
        raise ValueError(
            f"targets shape {targets.shape} does not match logits "
            f"{logits.shape}"
        )
    shifted = flat - flat.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_probs = shifted - lse
    n = flat.shape[0]
    loss = -log_probs[np.arange(n), tgt].mean()
    probs = np.exp(log_probs)
    shape = x.shape

    def backward(g):
        grad = probs.copy()
        grad[np.arange(n), tgt] -= 1.0
        grad *= np.asarray(g) / n
        return (grad.reshape(shape),)

    return Tensor.from_op(np.asarray(loss, dtype=x.dtype), [logits],
                          backward, "cross_entropy")


def take_rows(t: Tensor, index: np.ndarray) -> Tensor:
    """Gather rows ``t[index]`` along axis 0 (indices may repeat).

    This is MegaScale-MoE's efficient *gather* operator (§3.2): the
    row-index mapping is precomputed from the routing result, and the op
    is a pure data movement whose backward is an index-add.
    """
    index = np.asarray(index)
    out = t.data[index]
    shape, dtype = t.shape, t.dtype

    def backward(g):
        return (scatter_add_rows(np.zeros(shape, dtype), index, g),)

    return Tensor.from_op(out, [t], backward, "take_rows")


def put_rows(t: Tensor, index: np.ndarray, out_rows: int) -> Tensor:
    """Scatter rows of ``t`` to positions ``index`` of a fresh tensor.

    ``index`` must be a permutation-like assignment (duplicate targets
    accumulate).  This is the *scatter* counterpart of :func:`take_rows`.
    """
    index = np.asarray(index)
    out = scatter_add_rows(
        np.zeros((out_rows,) + t.shape[1:], dtype=t.dtype), index, t.data)

    def backward(g):
        return (g[index],)

    return Tensor.from_op(out, [t], backward, "put_rows")


@functools.lru_cache(maxsize=256)
def _rope_tables(pos_bytes: bytes, pos_shape: Tuple[int, ...],
                 head_dim: int, base: float, dtype: np.dtype
                 ) -> Tuple[np.ndarray, np.ndarray]:
    half = head_dim // 2
    inv_freq = base ** (-np.arange(0, half, dtype=np.float64) / half)
    positions = np.frombuffer(pos_bytes, dtype=np.float64)
    angles = positions.reshape(pos_shape)[..., None] * inv_freq
    cos, sin = np.cos(angles).astype(dtype), np.sin(angles).astype(dtype)
    cos.setflags(write=False)
    sin.setflags(write=False)
    return cos, sin


def rope_tables(positions: np.ndarray, head_dim: int, base: float,
                dtype) -> Tuple[np.ndarray, np.ndarray]:
    """Memoised cos/sin tables, ``positions.shape + (head_dim // 2,)``.

    The angles are derived in float64 and cast **once** to ``dtype``
    (the operand's), so rotating never widens the activation stream
    (docs/INTERNALS.md §17).  Every layer and step asks for the same
    few position sets — ``0..s-1``, one SP shard's global positions —
    so each is computed once per ``(positions, head_dim, base, dtype)``.  The cached arrays are
    read-only: callers broadcast against them but must never write.
    Thread-safe (``lru_cache`` takes its own lock).
    """
    pos = np.ascontiguousarray(positions, dtype=np.float64)
    return _rope_tables(pos.tobytes(), pos.shape, int(head_dim),
                        float(base), np.dtype(dtype))


def rope_rotate(t: Tensor, base: float = 10000.0,
                positions: Optional[np.ndarray] = None) -> Tensor:
    """Rotary position embedding over the last axis, in ``t``'s dtype.

    ``t`` is ``[..., seq, heads, head_dim]``; pairs ``(x_i, x_{i+half})``
    are rotated by position-dependent angles.  ``positions`` (``[seq]``)
    overrides the default ``0..seq-1`` (needed when the sequence is
    SP-sharded).
    """
    s, _, hd = t.shape[-3:]
    if hd % 2 != 0:
        raise ValueError(f"head_dim must be even for RoPE, got {hd}")
    if positions is None:
        positions = np.arange(s)
    half = hd // 2
    cos, sin = rope_tables(positions, hd, base, t.dtype)
    cos, sin = cos.reshape(s, 1, half), sin.reshape(s, 1, half)
    x1 = t.data[..., :half]
    x2 = t.data[..., half:]
    out = np.concatenate([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1)

    def backward(g):
        g1 = g[..., :half]
        g2 = g[..., half:]
        gx1 = g1 * cos + g2 * sin
        gx2 = -g1 * sin + g2 * cos
        return (np.concatenate([gx1, gx2], axis=-1),)

    return Tensor.from_op(out, [t], backward, "rope")


@functools.lru_cache(maxsize=64)
def _causal_mask(s_q: int, s_k: int) -> np.ndarray:
    """Read-only ``[s_q, s_k]`` mask, True where a query may *not* look.

    Bottom-right aligned: the last query row sees every key, so the
    same mask serves full-sequence training (``s_q == s_k``), one-token
    decode over a KV cache (``s_q == 1``: nothing masked) and chunked
    prefill (``1 < s_q < s_k``).
    """
    mask = np.triu(np.ones((s_q, s_k), dtype=bool), k=1 + s_k - s_q)
    mask.setflags(write=False)
    return mask


def scaled_dot_product_attention(
    q: Tensor, k: Tensor, v: Tensor, causal: bool = True,
) -> Tensor:
    """Multi-head attention core on ``[..., heads, seq, head_dim]``.

    One fused tape node (the FlashAttention slot of Fig. 20): scale,
    mask, max-shift, ``exp`` and normalisation all run in place on a
    single ``[..., s_q, s_k]`` buffer ``P``.  The backward keeps ``P``
    and the operands as they came in — ``q``, and ``k``/``v`` with
    their ``hk`` heads, repeated to ``hq`` again when it runs.  Axes
    are counted from the end, so
    any leading batch axes run slice-for-slice identical.
    ``q``, ``k`` and ``v`` share one dtype (docs/INTERNALS.md §17);
    the score buffer, the output and all three gradients are in it.

    Supports grouped-query attention: if ``k``/``v`` have fewer heads
    than ``q`` (by an integer factor ``m``), they are shared across
    groups of ``m`` query heads — the GQA pattern the paper's
    SP-communication formula (Eq. 2) exploits.

    Backward, with ``P`` the saved probabilities and ``G`` the output
    gradient: ``dV = Pᵀ G``, ``dP = G Vᵀ``,
    ``dS = scale · P ∘ (dP - rowsum(dP ∘ P))`` (zero under the mask),
    ``dQ = dS K``, ``dK = (Qᵀ dS)ᵀ``; GQA sums ``dK``/``dV`` over each
    group of ``m`` query heads.
    """
    hq, sq, dq = q.shape[-3:]
    hk, sk = k.shape[-3:-1]
    if hq % hk != 0:
        raise ValueError(f"query heads {hq} not a multiple of kv heads {hk}")
    m = hq // hk
    mask = _causal_mask(sq, sk) if causal and sq > 1 else None
    qd, k_saved, v_saved = q.data, k.data, v.data
    need_q, need_k, need_v = (q.requires_grad, k.requires_grad,
                              v.requires_grad)

    def repeat_heads(a: np.ndarray) -> np.ndarray:
        """GQA: materialise the shared heads, so the GEMMs see the same
        operand layout for every group size."""
        return np.repeat(a, m, axis=-3) if m > 1 else a

    kd, vd = repeat_heads(k_saved), repeat_heads(v_saved)
    probs = qd @ kd.swapaxes(-1, -2)
    scale = np.asarray(1.0 / np.sqrt(dq), dtype=probs.dtype)
    probs *= scale
    if mask is not None:
        np.copyto(probs, np.asarray(-1e30, dtype=probs.dtype), where=mask)
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    out = probs @ vd

    def ungroup(g_rep: np.ndarray) -> np.ndarray:
        """Gradient of the GQA repeat: sum each group of ``m`` heads."""
        if m == 1:
            return g_rep
        lead, (s, d) = g_rep.shape[:-3], g_rep.shape[-2:]
        return g_rep.reshape(lead + (hk, m, s, d)).sum(axis=-3)

    def backward(g):
        gv = ungroup(probs.swapaxes(-1, -2) @ g) if need_v else None
        if not (need_q or need_k):
            return None, None, gv
        ds = g @ repeat_heads(v_saved).swapaxes(-1, -2)
        dot = (ds * probs).sum(axis=-1, keepdims=True)
        ds -= dot
        ds *= probs
        if mask is not None:
            np.copyto(ds, np.asarray(0.0, dtype=ds.dtype), where=mask)
        ds *= scale
        gq = ds @ repeat_heads(k_saved) if need_q else None
        gk = (ungroup((qd.swapaxes(-1, -2) @ ds).swapaxes(-1, -2))
              if need_k else None)
        return gq, gk, gv

    return Tensor.from_op(out, [q, k, v], backward, "sdpa")


def _swiglu_activation(gate: np.ndarray, lin: np.ndarray
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(sigmoid(gate), silu(gate), silu(gate) * lin)``, the SwiGLU
    element-wise chain (the same ops forward and in the backward's
    recompute, so both see the same bits)."""
    sig = np.negative(gate)
    np.exp(sig, out=sig)
    sig += 1.0
    np.divide(1.0, sig, out=sig)
    act = gate * sig
    return sig, act, act * lin


def grouped_swiglu(rows: Tensor,
                   experts: Sequence[Tuple[Tensor, Tensor, Tensor]],
                   row_blocks: Sequence[Tuple[int, int, int]]) -> Tensor:
    """GroupedGEMM SwiGLU FFN as one tape node (Fig. 20 ``fc1``–``fc2``).

    ``experts[e]`` is that expert's ``(fc1, fc3, fc2)`` weight triple
    and each ``(e, start, end)`` of ``row_blocks`` sends the contiguous
    block ``rows[start:end]`` through it:
    ``fc2_e(silu(x fc1_e) * (x fc3_e))``.  The per-block GEMMs write
    straight into shared ``[n_rows, ·]`` buffers and the SwiGLU
    element-wise work runs once over all rows; empty blocks are
    skipped and rows outside every block stay zero.

    Backward, per block with ``G`` the output gradient:
    ``dH = G fc2ᵀ``, ``dfc2 = Hᵀ G``; over all rows
    ``dlin = dH ∘ act``, ``dgate = dH ∘ lin ∘ silu'(gate)``; per block
    ``dX = dgate fc1ᵀ + dlin fc3ᵀ``, ``dfc1 = Xᵀ dgate``,
    ``dfc3 = Xᵀ dlin`` — each weight gradient goes to its own leaf.
    The backward saves ``X``, ``gate`` and ``lin`` and recomputes the
    SwiGLU chain (``sig``, ``act`` and ``H``) from them.
    """
    x = rows.data
    n = x.shape[0]
    blocks = [(e, a, b) for e, a, b in row_blocks if b > a]
    fc1_0, _, fc2_0 = experts[0]  # every expert has the same shapes
    dtype = np.result_type(x.dtype, fc1_0.dtype)
    out = np.zeros((n, fc2_0.shape[1]), dtype=dtype)
    if not blocks:
        return Tensor(out)
    ffn = fc1_0.shape[1]
    gate = np.zeros((n, ffn), dtype=dtype)
    lin = np.zeros((n, ffn), dtype=dtype)
    for e, a, b in blocks:
        fc1, fc3, _ = experts[e]
        np.matmul(x[a:b], fc1.data, out=gate[a:b])
        np.matmul(x[a:b], fc3.data, out=lin[a:b])
    sig, act, hidden = _swiglu_activation(gate, lin)
    for e, a, b in blocks:
        np.matmul(hidden[a:b], experts[e][2].data, out=out[a:b])
    weights = [w for e, _, _ in blocks for w in experts[e]]
    need_x = rows.requires_grad

    def backward(g):
        sig, act, hidden = _swiglu_activation(gate, lin)
        d_hidden = np.zeros_like(hidden)
        for e, a, b in blocks:
            np.matmul(g[a:b], experts[e][2].data.T, out=d_hidden[a:b])
        d_lin = d_hidden * act
        d_gate = d_hidden
        d_gate *= lin
        slope = 1 - sig  # silu'(gate) = sig * (1 + gate * (1 - sig))
        slope *= gate
        slope += 1
        slope *= sig
        d_gate *= slope
        gx = np.zeros_like(x, dtype=dtype) if need_x else None
        gw: List[Optional[np.ndarray]] = []
        for e, a, b in blocks:
            fc1, fc3, fc2 = experts[e]
            xt = x[a:b].T
            gw.append(xt @ d_gate[a:b] if fc1.requires_grad else None)
            gw.append(xt @ d_lin[a:b] if fc3.requires_grad else None)
            gw.append(hidden[a:b].T @ g[a:b] if fc2.requires_grad
                      else None)
            if gx is not None:
                np.matmul(d_gate[a:b], fc1.data.T, out=gx[a:b])
                gx[a:b] += d_lin[a:b] @ fc3.data.T
        return (gx, *gw)

    return Tensor.from_op(out, [rows] + weights, backward,
                          "grouped_swiglu")


def precision_cast(t: Tensor, round_fn) -> Tensor:
    """Emulate a storage cast: round forward values, pass the gradient
    through unrounded.

    ``round_fn`` maps an ndarray to its low-precision-rounded values (see
    :mod:`repro.precision.formats`).
    """
    return Tensor.from_op(round_fn(t.data), [t], lambda g: (g,),
                          "precision_cast")
