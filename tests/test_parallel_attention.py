"""Equivalence tests: SP and TP attention engines vs. the reference.

The central correctness property of §3.1: both parallel attention
implementations must produce *exactly* the reference module's outputs
and gradients, while moving the Eq. 1 / Eq. 2 communication volumes.
"""

import numpy as np
import pytest

from conftest import attention_half, clear_ledger, forward_bytes
from repro.comm import World
from repro.core.analysis import (
    sp_attention_comm_volume,
    tp_attention_comm_volume,
)
from repro.model.layers import SelfAttention
from repro.model.transformer import TransformerBlock
from repro.parallel.block import ParallelBlockEngine, shard_sequence
from repro.parallel.sp_attention import SPAttentionEngine
from repro.parallel.tp_attention import TPAttentionEngine
from repro.tensor import Tensor


def run_reference(rng, attn, x):
    xt = Tensor(x, requires_grad=True)
    out = attn(xt)
    g = rng.standard_normal(out.shape)
    out.backward(g)
    result = {
        "out": out.data.copy(),
        "dx": xt.grad.copy(),
        "d_qkv": attn.qkv_proj.weight.grad.copy(),
        "d_out": attn.out_proj.weight.grad.copy(),
        "g": g,
    }
    attn.zero_grad()
    return result


def shard_seq(x, n):
    return shard_sequence(x, n, requires_grad=True)


def backward_once(outs, g, w):
    """Back-propagate ``g``'s width-``w`` sequence slice into each
    rank's output in one sweep: the ranks share one graph, which a
    ``backward()`` consumes."""
    total = None
    for r, out in enumerate(outs):
        piece = (out * g[:, r * w:(r + 1) * w]).sum()
        total = piece if total is None else total + piece
    total.backward()


CONFIGS = [
    # (batch, seq, hidden, heads, gqa_ratio, n_ranks)
    (2, 8, 16, 8, 2, 4),
    (1, 16, 32, 8, 4, 2),
    (3, 12, 24, 4, 1, 2),
    (1, 8, 32, 8, 1, 8),
]


class TestSPAttention:
    @pytest.mark.parametrize("b,s,h,nh,m,n", CONFIGS)
    def test_matches_reference(self, b, s, h, nh, m, n):
        rng = np.random.default_rng(b * 100 + s)
        attn = SelfAttention(rng, h, nh, m, dtype=np.float64)
        x = rng.standard_normal((b, s, h))
        ref = run_reference(rng, attn, x)

        world = World(n, n)
        engine = SPAttentionEngine(world.full_group(), attn)
        shards = shard_seq(x, n)
        outs = attention_half(engine, shards, s)
        full = np.concatenate([o.data for o in outs], axis=1)
        np.testing.assert_allclose(full, ref["out"], atol=1e-10)

        backward_once(outs, ref["g"], s // n)
        dx = np.concatenate([sh.grad for sh in shards], axis=1)
        np.testing.assert_allclose(dx, ref["dx"], atol=1e-10)
        np.testing.assert_allclose(attn.qkv_proj.weight.grad,
                                   ref["d_qkv"], atol=1e-10)
        np.testing.assert_allclose(attn.out_proj.weight.grad,
                                   ref["d_out"], atol=1e-10)

    def test_head_divisibility_required(self, rng):
        attn = SelfAttention(rng, 16, 8, 2)  # 4 kv heads
        world = World(8, 8)
        with pytest.raises(ValueError, match="kv_heads"):
            SPAttentionEngine(world.full_group(), attn)

    def test_forward_volume_is_half_eq2(self, rng):
        """The measured per-pass A2A volume equals Eq. 2 / 2: the
        paper's Eq. 2 counts both directions of each all-to-all."""
        b, s, h, nh, m, n = 2, 8, 16, 8, 2, 4
        attn = SelfAttention(rng, h, nh, m, dtype=np.float64)
        world = World(n, n)
        engine = SPAttentionEngine(world.full_group(), attn)
        clear_ledger(world.ledger)
        attention_half(engine, shard_seq(rng.standard_normal((b, s, h)), n), s)
        measured = forward_bytes(world, "sp_attn") / 8.0  # float64 elements
        formula_total = sp_attention_comm_volume(b, s, h, n, m) * n
        assert measured == pytest.approx(formula_total / 2.0)

    def test_backward_volume_equals_forward(self, rng):
        b, s, h, nh, m, n = 2, 8, 16, 8, 2, 4
        attn = SelfAttention(rng, h, nh, m, dtype=np.float64)
        world = World(n, n)
        engine = SPAttentionEngine(world.full_group(), attn)
        x = rng.standard_normal((b, s, h))
        shards = shard_seq(x, n)
        outs = attention_half(engine, shards, s)
        # Single backward sweep (as a real combined loss would produce);
        # per-shard sweeps would re-traverse shared ancestors and
        # multiply the ledger's :bwd entries.
        total = outs[0].sum()
        for out in outs[1:]:
            total = total + out.sum()
        total.backward()
        fwd = forward_bytes(world, "sp_attn")
        bwd = world.ledger.total_bytes() - fwd
        assert fwd == pytest.approx(bwd)

    def test_sp_volume_below_tp(self, rng):
        """Eq. 2 < Eq. 1 whenever n > (2 + 2/m)."""
        for m in (1, 2, 4, 8):
            sp = sp_attention_comm_volume(1, 64, 128, 8, m)
            tp = tp_attention_comm_volume(1, 64, 128, 8)
            assert sp < tp

    def test_bad_shard_seq(self, rng, tiny_config):
        block = TransformerBlock(rng, tiny_config, dtype=np.float64)
        engine = ParallelBlockEngine(World(4, 4).full_group(), block)
        shards = shard_seq(rng.standard_normal((1, 8, 32)), 4)
        with pytest.raises(ValueError, match="expected"):
            engine.forward(shards, 16)  # wrong full seq length


class TestTPAttention:
    @pytest.mark.parametrize("b,s,h,nh,m,n", CONFIGS)
    def test_matches_reference(self, b, s, h, nh, m, n):
        rng = np.random.default_rng(b * 100 + s + 7)
        attn = SelfAttention(rng, h, nh, m, dtype=np.float64)
        x = rng.standard_normal((b, s, h))
        ref = run_reference(rng, attn, x)

        world = World(n, n)
        engine = TPAttentionEngine(world.full_group(), attn)
        shards = shard_seq(x, n)
        outs = attention_half(engine, shards, s)
        full = np.concatenate([o.data for o in outs], axis=1)
        np.testing.assert_allclose(full, ref["out"], atol=1e-10)

        backward_once(outs, ref["g"], s // n)
        dx = np.concatenate([sh.grad for sh in shards], axis=1)
        np.testing.assert_allclose(dx, ref["dx"], atol=1e-10)
        # The shard GEMMs read tape slices of the module's weights, so
        # the full gradients land on the parameters themselves.
        np.testing.assert_allclose(attn.qkv_proj.weight.grad,
                                   ref["d_qkv"], atol=1e-10)
        np.testing.assert_allclose(attn.out_proj.weight.grad,
                                   ref["d_out"], atol=1e-10)

    def test_forward_volume_matches_eq1(self, rng):
        b, s, h, nh, m, n = 2, 8, 16, 8, 2, 4
        attn = SelfAttention(rng, h, nh, m, dtype=np.float64)
        world = World(n, n)
        engine = TPAttentionEngine(world.full_group(), attn)
        clear_ledger(world.ledger)
        attention_half(engine, shard_seq(rng.standard_normal((b, s, h)), n), s)
        measured = forward_bytes(world, "tp_attn") / 8.0
        assert measured == pytest.approx(
            tp_attention_comm_volume(b, s, h, n) * n)

    def test_tp_volume_constant_in_n(self, rng):
        """Eq. 1's (n-1)/n barely changes with n — TP's scalability
        limitation (§7)."""
        v8 = tp_attention_comm_volume(1, 64, 128, 8)
        v64 = tp_attention_comm_volume(1, 64, 128, 64)
        assert v64 / v8 < 1.15
