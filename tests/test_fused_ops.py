"""Fused operator kernels: one tape node per Fig. 20 operator.

Every fused kernel is checked against the *composed* spelling it
replaced, kept here (and only here) as the oracle: the five-node SDPA
chain, the per-expert ``Expert.__call__`` loop, ``np.add.at``, and the
textbook AdamW expressions.  The contract is bitwise equality wherever
the GEMM operand layout is preserved, ≤ 1e-6 relative otherwise.
"""

import numpy as np
import pytest

from repro.core.config import ModelConfig, ServeConfig
from repro.model import MoETransformer
from repro.model.moe import Expert, grouped_expert_blocks
from repro.precision import optimizer as optimizer_mod
from repro.precision.optimizer import AdamW, clip_grad_norm
from repro.precision.policy import bf16_policy
from repro.serve import Request, ServeEngine, golden_decode
from repro.tensor import Tensor, ops
from repro.tensor import tensor as tensor_mod

from conftest import gradcheck


# ---------------------------------------------------------------------------
# Oracles: the composed chains the fused kernels replaced
# ---------------------------------------------------------------------------

def _repeat_heads(t: Tensor, m: int) -> Tensor:
    b, h, s, d = t.shape
    return Tensor.from_op(
        np.repeat(t.data, m, axis=1), [t],
        lambda g: (g.reshape(b, h, m, s, d).sum(axis=2),), "repeat_heads")


def chain_sdpa(q: Tensor, k: Tensor, v: Tensor, mask=None) -> Tensor:
    """``matmul · mul · masked_fill · softmax · matmul`` on 4-D inputs;
    ``mask`` is boolean ``[s_q, s_k]``, True = hidden."""
    m = q.shape[1] // k.shape[1]
    if m > 1:
        k = _repeat_heads(k, m)
        v = _repeat_heads(v, m)
    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(q.shape[-1]))
    if mask is not None:
        scores = ops.masked_fill(scores, mask[None, None], -1e30)
    return ops.softmax(scores, axis=-1) @ v


def causal_mask(s_q: int, s_k: int) -> np.ndarray:
    """Query ``i`` of the last ``s_q`` positions sees keys ``<= i``."""
    q_pos = np.arange(s_k - s_q, s_k)
    return np.arange(s_k)[None, :] > q_pos[:, None]


def qkv_arrays(rng, dtype, m, s_q, s_k, b=2, hq=4, d=8):
    """Head-major ``[b, h, s, d]`` *views* of seq-major arrays — the
    operand layout every engine hands the kernel."""
    hk = hq // m
    return [rng.standard_normal(shape).astype(dtype)
            for shape in ((b, s_q, hq, d), (b, s_k, hk, d),
                          (b, s_k, hk, d))]


def run_sdpa(fn, arrays, g_out):
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = fn(*(t.transpose(0, 2, 1, 3) for t in tensors))
    out.backward(g_out)
    return [out.data] + [t.grad for t in tensors]


def rel_err(a, b):
    return float(np.abs(a - b).max() / (np.abs(b).max() + 1e-30))


# ---------------------------------------------------------------------------
# scaled_dot_product_attention
# ---------------------------------------------------------------------------

class TestFusedSDPA:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("m", [1, 2, 4])
    @pytest.mark.parametrize("causal", [True, False])
    @pytest.mark.parametrize("s_q,s_k", [(12, 12), (1, 12), (5, 12)])
    def test_matches_chain(self, rng, dtype, m, causal, s_q, s_k):
        arrays = qkv_arrays(rng, dtype, m, s_q, s_k)
        g_out = rng.standard_normal((2, 4, s_q, 8)).astype(dtype)
        mask = causal_mask(s_q, s_k) if causal else None
        want = run_sdpa(lambda q, k, v: chain_sdpa(q, k, v, mask),
                        arrays, g_out)
        got = run_sdpa(
            lambda q, k, v: ops.scaled_dot_product_attention(
                q, k, v, causal=causal), arrays, g_out)
        np.testing.assert_array_equal(got[0], want[0])
        for g, w in zip(got[1:], want[1:]):
            assert g.dtype == w.dtype
            assert rel_err(g, w) <= 1e-6

    @pytest.mark.parametrize("m", [1, 2])
    def test_float32_inputs_keep_a_float32_score_buffer(self, rng, m):
        """The one saved ``[.., s_q, s_k]`` activation is in the
        operands' dtype — a float64 q/k would double it and every
        collective after it."""
        tensors = [Tensor(a, requires_grad=True).transpose(0, 2, 1, 3)
                   for a in qkv_arrays(rng, np.float32, m, 12, 12)]
        out = ops.scaled_dot_product_attention(*tensors)
        fn = out.node.backward_fn
        saved = dict(zip(fn.__code__.co_freevars,
                         (c.cell_contents for c in fn.__closure__)))
        assert saved["probs"].shape == (2, 4, 12, 12)
        assert saved["probs"].dtype == np.float32
        assert out.dtype == np.float32
        grads = fn(np.ones_like(out.data))
        assert all(g.dtype == np.float32 for g in grads)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("s_q,s_k", [(6, 6), (1, 6), (3, 6)])
    def test_finite_differences(self, rng, m, s_q, s_k):
        gradcheck(
            lambda q, k, v: ops.scaled_dot_product_attention(q, k, v),
            [rng.standard_normal((1, 2, s_q, 4)),
             rng.standard_normal((1, 2 // m, s_k, 4)),
             rng.standard_normal((1, 2 // m, s_k, 4))], rng)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rank_stacked_slices_bitwise_equal(self, rng, dtype):
        """A 5-D ``[n, b, h, s, d]`` call (one more batch axis) is the
        per-rank 4-D call, slice for slice (forward and backward)."""
        n = 3
        stacks = [np.stack(parts) for parts in zip(*(
            qkv_arrays(rng, dtype, 2, 10, 10) for _ in range(n)))]
        g_out = rng.standard_normal((n, 2, 4, 10, 8)).astype(dtype)
        tensors = [Tensor(a, requires_grad=True) for a in stacks]
        out = ops.scaled_dot_product_attention(
            *(t.transpose(0, 1, 3, 2, 4) for t in tensors))
        out.backward(g_out)
        for r in range(n):
            want = run_sdpa(ops.scaled_dot_product_attention,
                            [a[r] for a in stacks], g_out[r])
            np.testing.assert_array_equal(out.data[r], want[0])
            for t, w in zip(tensors, want[1:]):
                np.testing.assert_array_equal(t.grad[r], w)

    def test_is_one_tape_node_with_one_saved_score_buffer(self, rng):
        q, k, v = (Tensor(a, requires_grad=True).transpose(0, 2, 1, 3)
                   for a in qkv_arrays(rng, np.float64, 2, 16, 16))
        out = ops.scaled_dot_product_attention(q, k, v)
        assert out.node.op_name == "sdpa"
        assert [id(e) for e in out.node.edges] == [
            id(q.node), id(k.node), id(v.node)]
        saved = [c.cell_contents for c in out.node.backward_fn.__closure__
                 if isinstance(c.cell_contents, np.ndarray)
                 and c.cell_contents.shape[-2:] == (16, 16)
                 and c.cell_contents.dtype != bool]
        assert len(saved) == 1

    def test_only_requested_gradients_are_computed(self, rng):
        q, k, v = (Tensor(a).transpose(0, 2, 1, 3)
                   for a in qkv_arrays(rng, np.float64, 1, 4, 4))
        v.requires_grad = True
        out = ops.scaled_dot_product_attention(q, k, v)
        gq, gk, gv = out.node.backward_fn(np.ones(out.shape))
        assert gq is None and gk is None and gv is not None

    def test_head_mismatch_rejected(self, rng):
        q = Tensor(rng.standard_normal((1, 3, 4, 2)))
        kv = Tensor(rng.standard_normal((1, 2, 4, 2)))
        with pytest.raises(ValueError, match="not a multiple"):
            ops.scaled_dot_product_attention(q, kv, kv)


# ---------------------------------------------------------------------------
# grouped_swiglu
# ---------------------------------------------------------------------------

def make_experts(n=4, h=8, f=12, dtype=np.float64):
    rng = np.random.default_rng(1)
    return [Expert(rng, h, f, dtype=dtype) for _ in range(n)]


def chain_experts(experts, rows, blocks):
    pieces = [experts[e](rows[a:b]) for e, a, b in blocks if b > a]
    return ops.concat(pieces, axis=0)


def blocks_from_counts(counts):
    ends = np.cumsum(counts)
    return [(e, int(end - c), int(end))
            for e, (c, end) in enumerate(zip(counts, ends))]


def run_experts(fn, experts, x, blocks, g_out):
    for ex in experts:
        ex.zero_grad()
    rows = Tensor(x, requires_grad=True)
    out = fn(experts, rows, blocks)
    out.backward(g_out)
    grads = [None if p.grad is None else p.grad.copy()
             for ex in experts for p in (ex.fc1, ex.fc3, ex.fc2)]
    return out.data, rows.grad, grads


class TestGroupedSwiGLU:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("counts", [
        [3, 2, 4, 1],      # every expert busy
        [5, 0, 0, 5],      # zero-token experts in the middle
        [0, 0, 10, 0],     # all rows to one expert
    ])
    def test_matches_per_expert_chain(self, rng, dtype, counts):
        experts = make_experts(dtype=dtype)
        x = rng.standard_normal((10, 8)).astype(dtype)
        g_out = rng.standard_normal((10, 8)).astype(dtype)
        blocks = blocks_from_counts(counts)
        want = run_experts(chain_experts, experts, x, blocks, g_out)
        got = run_experts(grouped_expert_blocks, experts, x, blocks,
                          g_out)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        for g, w in zip(got[2], want[2]):
            assert (g is None) == (w is None)  # idle experts: no grad
            if g is not None:
                np.testing.assert_array_equal(g, w)

    def test_is_one_node_over_the_busy_experts(self, rng):
        experts = make_experts()
        rows = Tensor(rng.standard_normal((6, 8)), requires_grad=True)
        out = grouped_expert_blocks(experts, rows,
                                    blocks_from_counts([2, 0, 4, 0]))
        assert out.node.op_name == "grouped_swiglu"
        busy = [experts[0], experts[2]]
        assert [id(t) for t in out.node.edges] == [id(rows)] + [
            id(w) for ex in busy for w in (ex.fc1, ex.fc3, ex.fc2)]

    def test_empty_input(self):
        experts = make_experts()
        out = grouped_expert_blocks(
            experts, Tensor(np.zeros((0, 8)), requires_grad=True),
            blocks_from_counts([0, 0, 0, 0]))
        assert out.shape == (0, 8) and out.node is None

    def test_finite_differences(self, rng):
        gradcheck(
            lambda x, a1, a3, a2, b1, b3, b2: ops.grouped_swiglu(
                x, [(a1, a3, a2), (b1, b3, b2)], [(0, 0, 2), (1, 2, 5)]),
            [rng.standard_normal((5, 4))]
            + [rng.standard_normal(s) * 0.5
               for s in ((4, 6), (4, 6), (6, 4)) * 2], rng)

    def test_precision_policy_keeps_the_per_expert_chain(self, rng):
        experts = make_experts()
        rows = Tensor(rng.standard_normal((6, 8)), requires_grad=True)
        blocks = blocks_from_counts([2, 1, 3, 0])
        with bf16_policy():
            out = grouped_expert_blocks(experts, rows, blocks)
            want = chain_experts(experts, rows, blocks)
        assert out.node.op_name == "concat"
        np.testing.assert_array_equal(out.data, want.data)


# ---------------------------------------------------------------------------
# scatter_add_rows
# ---------------------------------------------------------------------------

class TestScatterAddRows:
    def check(self, rng, index, n_out, dtype=np.float32):
        rows = rng.standard_normal((len(index), 5)).astype(dtype)
        base = rng.standard_normal((n_out, 5)).astype(dtype)
        want = base.copy()
        np.add.at(want, index, rows)
        got = ops.scatter_add_rows(base.copy(), np.asarray(index), rows)
        np.testing.assert_array_equal(got, want)

    def test_permutation(self, rng):
        self.check(rng, rng.permutation(40), 40)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_top_k_duplicates(self, rng, dtype):
        # Each of 30 tokens appears exactly k=3 times, shuffled.
        self.check(rng, rng.permutation(np.repeat(np.arange(30), 3)), 30,
                   dtype)

    def test_zipf_heavy_duplicates_take_the_fallback(self, rng):
        index = np.minimum(rng.zipf(1.5, size=400) - 1, 49)
        assert np.bincount(index).max() > ops._SCATTER_MAX_LEVELS
        self.check(rng, index, 50)

    def test_multiplicity_at_the_level_limit(self, rng):
        index = rng.permutation(
            np.repeat(np.arange(6), ops._SCATTER_MAX_LEVELS))
        self.check(rng, index, 6)

    def test_empty_index(self, rng):
        self.check(rng, np.zeros(0, dtype=np.int64), 7)

    def test_negative_indices_alias_like_add_at(self, rng):
        self.check(rng, np.array([0, -1, 9, -10, 3]), 10)

    def test_row_ops_route_through_it(self, rng):
        """take_rows backward, put_rows, index_add_rows and embedding
        backward equal their ``np.add.at`` definitions bit for bit."""
        index = rng.permutation(np.repeat(np.arange(12), 2))
        x = rng.standard_normal((12, 4)).astype(np.float32)
        g = rng.standard_normal((24, 4)).astype(np.float32)

        t = Tensor(x, requires_grad=True)
        ops.take_rows(t, index).backward(g)
        want = np.zeros_like(x)
        np.add.at(want, index, g)
        np.testing.assert_array_equal(t.grad, want)

        np.testing.assert_array_equal(
            ops.put_rows(Tensor(g), index, 12).data, want)

        want_base = x.copy()
        np.add.at(want_base, index, g)
        np.testing.assert_array_equal(
            ops.index_add_rows(Tensor(x), index, Tensor(g)).data,
            want_base)

        w = Tensor(x, requires_grad=True)
        ids = index.reshape(4, 6)
        ops.embedding(w, ids).backward(g.reshape(4, 6, 4))
        np.testing.assert_array_equal(w.grad, want)


# ---------------------------------------------------------------------------
# Backward drivers
# ---------------------------------------------------------------------------

def fan_in_graph(rng, dtype=np.float32):
    """A leaf consumed five times plus a diamond — several tensors
    accumulate three or more contributions."""
    w = Tensor(rng.standard_normal((6, 6)).astype(dtype),
               requires_grad=True)
    x = Tensor(rng.standard_normal((4, 6)).astype(dtype),
               requires_grad=True)
    h = x @ w
    h = h + (h @ w).tanh() + (h * h) @ w
    h = h + h.sigmoid() @ w + h[:, :3].sum() + (h @ w)[1:3].mean()
    return (h * h).mean(), (w, x)


class TestBackwardDrivers:
    def test_in_place_accumulation_matches_out_of_place(self, rng):
        """The sweep's ``np.add(.., out=)`` fold has the operand order
        of ``grads = grads + g``: replaying every contribution out of
        place gives the same bits."""
        loss, leaves = fan_in_graph(rng)
        loss.backward()
        got = [t.grad.copy() for t in leaves]

        rng = np.random.default_rng(0)
        loss, leaves = fan_in_graph(rng)
        order = tensor_mod.graph_order(loss)[::-1]
        grads = {id(loss.node): np.ones_like(loss.data)}
        for v in order:
            g_out = grads.pop(id(v), None)
            if g_out is None or type(v) is not tensor_mod.Node:
                continue
            for edge, g in zip(v.edges, v.backward_fn(g_out)):
                if g is None or edge is None:
                    continue
                leaf = type(edge) is not tensor_mod.Node
                shape, dtype = ((edge.shape, edge.dtype) if not leaf
                                else (edge.data.shape, edge.data.dtype))
                g = tensor_mod._unbroadcast(
                    np.asarray(g, dtype=dtype), shape)
                grads[id(edge)] = (grads[id(edge)] + g
                                   if id(edge) in grads else g)
                if leaf:
                    edge.grad = grads[id(edge)]
        for t, g in zip(leaves, got):
            np.testing.assert_array_equal(t.grad, g)

    def test_contributions_are_never_modified_in_place(self, rng):
        """``add`` hands the *same* array to both inputs; accumulating
        into it would corrupt the sibling."""
        a = Tensor(rng.standard_normal(5), requires_grad=True)
        b = Tensor(rng.standard_normal(5), requires_grad=True)
        s = a + b
        (s + s + s).backward(np.ones(5))
        np.testing.assert_array_equal(a.grad, np.full(5, 3.0))
        np.testing.assert_array_equal(b.grad, np.full(5, 3.0))

    def test_constant_operands_get_no_gradient_work(self, rng):
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        c = Tensor(rng.standard_normal((4, 4)))
        for out in (x * 2.0, x / c[0], x @ c):
            gx, gc = out.node.backward_fn(np.ones(out.shape))
            assert gx is not None and gc is None

    def test_basic_index_backward_assigns(self, rng):
        x = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
        g = rng.standard_normal((4, 2))
        x[:, 1:3].backward(g)
        want = np.zeros((4, 6))
        want[:, 1:3] = g
        np.testing.assert_array_equal(x.grad, want)
        # advanced indices may repeat a target and still accumulate
        y = Tensor(rng.standard_normal(3), requires_grad=True)
        y[np.array([0, 0, 2])].backward(np.array([1.0, 2.0, 4.0]))
        np.testing.assert_array_equal(y.grad, [3.0, 0.0, 4.0])


# ---------------------------------------------------------------------------
# In-place optimizer
# ---------------------------------------------------------------------------

def textbook_adamw_step(p, g, m, v, t, lr, b1, b2, eps, wd):
    """The expressions ``AdamW.step`` was written as before it became
    one in-place kernel, evaluated in the dtype of ``p`` — the state
    dtype; returns the new ``(param, m, v)``."""
    g = g.astype(p.dtype)
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * g * g
    update = (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
    if wd:
        update = update + wd * p
    return p - lr * update, m, v


class TestInPlaceOptimizer:
    @pytest.mark.parametrize("wd", [0.0, 0.1])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_adamw_state_bitwise_equal_to_textbook(self, rng, wd, dtype):
        # one parameter spans three kernel chunks, the last one partial
        shapes = [(5, 3), (7,), (2, 2, 2), (2 * optimizer_mod._CHUNK + 9,)]
        params = [Tensor(rng.standard_normal(s).astype(dtype),
                         requires_grad=True) for s in shapes]
        opt = AdamW(params, lr=1e-2, weight_decay=wd)
        ref = [(p.data.copy(), np.zeros(s, dtype), np.zeros(s, dtype))
               for p, s in zip(params, shapes)]
        for t in range(1, 6):
            for i, p in enumerate(params):
                # the third parameter sits one step out
                p.grad = (None if i == 2 and t == 3 else
                          rng.standard_normal(p.shape).astype(dtype))
            grads = [p.grad for p in params]
            opt.step()
            for i, g in enumerate(grads):
                if g is not None:
                    ref[i] = textbook_adamw_step(
                        *ref[i][:1], g, *ref[i][1:], t, 1e-2, 0.9, 0.95,
                        1e-8, wd)
            for p, m, v, (rp, rm, rv) in zip(params, opt.m, opt.v, ref):
                assert p.data.dtype == m.dtype == v.dtype == dtype
                assert rp.dtype == rm.dtype == rv.dtype == dtype
                np.testing.assert_array_equal(p.data, rp)
                np.testing.assert_array_equal(m, rm)
                np.testing.assert_array_equal(v, rv)

    def test_step_does_not_touch_the_gradients(self, rng):
        p = Tensor(rng.standard_normal(6), requires_grad=True)
        p.grad = rng.standard_normal(6)
        before = p.grad.copy()
        AdamW([p]).step()
        np.testing.assert_array_equal(p.grad, before)

    def test_gradient_is_cast_to_the_state_dtype_once(self, rng):
        """A float64 gradient handed to a float32 parameter is rounded
        to float32 on the way in; nothing else about the update sees
        its width, and no float64 state appears."""
        data = rng.standard_normal(9).astype(np.float32)
        wide = rng.standard_normal(9)
        a, b = Tensor(data.copy()), Tensor(data.copy())
        opt_a, opt_b = AdamW([a], lr=1e-2), AdamW([b], lr=1e-2)
        opt_a.step([wide])
        opt_b.step([wide.astype(np.float32)])
        np.testing.assert_array_equal(a.data, b.data)
        assert a.data.dtype == opt_a.m[0].dtype == np.float32

    def test_read_only_and_strided_parameters_are_adopted(self, rng):
        base = rng.standard_normal((4, 6))
        strided = Tensor(base.T)                       # not C-contiguous
        frozen = Tensor(np.broadcast_to(base[0], (4, 6)))  # read-only
        twin_s, twin_f = Tensor(base.T.copy()), Tensor(frozen.data.copy())
        g = rng.standard_normal((6, 4)), rng.standard_normal((4, 6))
        AdamW([strided, frozen], lr=1e-2).step(list(g))
        AdamW([twin_s, twin_f], lr=1e-2).step(list(g))
        np.testing.assert_array_equal(strided.data, twin_s.data)
        np.testing.assert_array_equal(frozen.data, twin_f.data)

    def test_foreign_state_dtype_is_a_typed_error(self, rng):
        p = Tensor(rng.standard_normal(4).astype(np.float32))
        opt = AdamW([p])
        opt.m[0] = opt.m[0].astype(np.float64)   # not via load_state_dict
        with pytest.raises(TypeError, match="load_state_dict"):
            opt.step([np.ones(4, dtype=np.float32)])

    def test_clip_grad_norm_bitwise_and_alias_safe(self, rng):
        grads = [rng.standard_normal(s).astype(np.float32) * 10
                 for s in ((4, 3), (5,), (6,))]
        params = [Tensor(np.zeros(g.shape), requires_grad=True)
                  for g in grads]
        params.append(Tensor(np.zeros(6), requires_grad=True))
        for p, g in zip(params, grads):
            p.grad = g.copy()
        params[3].grad = params[2].grad          # one array, two owners
        read_only = np.broadcast_to(grads[1], (5,))
        params[1].grad = read_only               # not ours to write
        want_norm = float(np.sqrt(sum(
            float(np.sum(p.grad.astype(np.float64) ** 2))
            for p in params)))
        scale = 1.0 / (want_norm + 1e-12)
        want = [p.grad * scale for p in params]
        norm = clip_grad_norm(params, 1.0)
        assert norm == want_norm
        for p, w in zip(params, want):
            np.testing.assert_array_equal(p.grad, w)
        assert params[3].grad is params[2].grad
        np.testing.assert_array_equal(read_only, grads[1])


# ---------------------------------------------------------------------------
# Serving records no tape
# ---------------------------------------------------------------------------

class TestServeRecordsNoTape:
    def test_no_node_is_created_and_tokens_match_golden(self,
                                                        monkeypatch):
        config = ModelConfig("serve-notape", 2, 32, 8, 2, 48, 8, 2,
                             vocab_size=64, seq_len=64)
        model = MoETransformer(config, seed=0, dtype=np.float64)
        serve = ServeConfig(attention_ranks=2, expert_ranks=2,
                            kv_block_size=4, kv_blocks=64,
                            max_batch_size=3)
        rng = np.random.default_rng(3)
        requests = [Request(i, tuple(rng.integers(0, 64, size=n).tolist()), 4,
                            arrival_time=0.1 * i)
                    for i, n in enumerate((5, 9, 3, 7))]

        created = []

        class CountingNode(tensor_mod.Node):
            def __init__(self, *args):
                created.append(args[-1])
                super().__init__(*args)

        monkeypatch.setattr(tensor_mod, "Node", CountingNode)
        engine = ServeEngine(model, serve)
        try:
            result = engine.run(requests)
        finally:
            engine.shutdown()
        golden = golden_decode(model, serve, requests)
        assert created == []
        for rid, got in result.results.items():
            assert got.generated == golden.results[rid].generated
        # parameters still record a tape outside the engine
        assert (model.embedding * 1.0).node is not None
        assert created == ["mul"]

    def test_grad_mode_is_per_thread(self):
        """Interleaved ``no_grad`` exits on two threads must not leave
        recording off."""
        import threading

        from repro.tensor import is_grad_enabled, no_grad

        inside = threading.Barrier(2)
        seen = {}

        def other():
            with no_grad():
                inside.wait()   # both threads are now inside no_grad
                inside.wait()   # main has left; this thread has not
                seen["other_inside"] = is_grad_enabled()
            seen["other_after"] = is_grad_enabled()

        t = threading.Thread(target=other)
        t.start()
        with no_grad():
            inside.wait()
        seen["main_after"] = is_grad_enabled()
        inside.wait()
        t.join()
        assert seen == {"other_inside": False, "other_after": True,
                        "main_after": True}

    def test_chunked_prefill_attends_its_own_prefix(self, rng):
        """``1 < s_q < T``: rows of the bottom-right-aligned mask."""
        model = MoETransformer(
            ModelConfig("chunk", 1, 16, 4, 2, 24, 4, 2, vocab_size=32,
                        seq_len=16), seed=0, dtype=np.float64)
        attn = model.blocks[0].attn
        q = Tensor(rng.standard_normal((1, 8, 4, 4)))
        k = Tensor(rng.standard_normal((1, 8, 2, 4)))
        v = Tensor(rng.standard_normal((1, 8, 2, 4)))
        full = attn.decode_attend(q, k, v).data
        chunk = attn.decode_attend(Tensor(q.data[:, 5:]), k, v).data
        np.testing.assert_array_equal(chunk, full[:, 5:])
