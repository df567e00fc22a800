"""Equivalence tests: EP (both dispatch modes) and TP FFN engines."""

import numpy as np
import pytest

from conftest import clear_ledger, ffn_half, forward_bytes
from repro.comm import World
from repro.core.analysis import ep_ffn_comm_volume, tp_ffn_comm_volume
from repro.model.moe import MoELayer
from repro.parallel.block import shard_sequence
from repro.parallel.ep_ffn import (
    EPFFNEngine,
    choose_dispatch_mode,
)
from repro.parallel.tp_ffn import TPFFNEngine
from repro.tensor import Tensor


def run_reference(rng, moe, x):
    xt = Tensor(x, requires_grad=True)
    out = moe(xt)
    g = rng.standard_normal(out.hidden.shape)
    scalar = (out.hidden * Tensor(g)).sum() + out.aux_loss
    scalar.backward()
    ref = {
        "out": out.hidden.data.copy(),
        "aux": out.aux_loss.item(),
        "dx": xt.grad.copy(),
        "d_gate": moe.router.gate.weight.grad.copy(),
        "d_experts": [
            {key: getattr(e, key).grad for key in ("fc1", "fc3", "fc2")}
            for e in moe.experts
        ],
        "g": g,
    }
    moe.zero_grad()
    return ref


def shard_seq(x, n):
    return shard_sequence(x, n, requires_grad=True)


CONFIGS = [
    # (batch, seq, hidden, ffn_hidden, experts, top_k, n_ranks)
    (2, 8, 16, 24, 8, 2, 4),
    (1, 16, 8, 12, 4, 1, 2),
    (2, 8, 16, 24, 8, 6, 4),   # top_k > 0.75n: AG/RS territory
    (1, 8, 8, 16, 8, 3, 8),
]


def check_engine_matches(rng, moe, x, engine_factory, n):
    ref = run_reference(rng, moe, x)
    world = World(n, n)
    engine = engine_factory(world.full_group(), moe)
    shards = shard_seq(x, n)
    outs, aux = ffn_half(engine, shards)
    full = np.concatenate([o.data for o in outs], axis=1)
    np.testing.assert_allclose(full, ref["out"], atol=1e-9)
    assert aux.item() == pytest.approx(ref["aux"], abs=1e-10)

    w = x.shape[1] // n
    scalar = None
    for r, out in enumerate(outs):
        piece = (out * Tensor(ref["g"][:, r * w:(r + 1) * w])).sum()
        scalar = piece if scalar is None else scalar + piece
    scalar = scalar + aux
    scalar.backward()

    dx = np.concatenate([sh.grad for sh in shards], axis=1)
    np.testing.assert_allclose(dx, ref["dx"], atol=1e-9)
    np.testing.assert_allclose(moe.router.gate.weight.grad,
                               ref["d_gate"], atol=1e-9)
    return world, engine, ref


def assert_expert_grads(moe, ref):
    """Every expert's gradients match the reference's, and an expert
    the reference left idle has none."""
    for e, expert in enumerate(moe.experts):
        for key in ("fc1", "fc3", "fc2"):
            grad, want = getattr(expert, key).grad, ref["d_experts"][e][key]
            assert (grad is None) == (want is None), f"{e}:{key}"
            if want is not None:
                np.testing.assert_allclose(grad, want, atol=1e-9,
                                           err_msg=f"{e}:{key}")


class TestEPA2A:
    @pytest.mark.parametrize("b,s,h,fh,E,k,n", CONFIGS)
    def test_matches_reference(self, b, s, h, fh, E, k, n):
        rng = np.random.default_rng(b * 10 + s + k)
        moe = MoELayer(rng, h, fh, E, k, dtype=np.float64)
        x = rng.standard_normal((b, s, h))
        world, engine, ref = check_engine_matches(
            rng, moe, x,
            lambda g, m: EPFFNEngine(g, m, mode="a2a"), n)
        assert_expert_grads(moe, ref)

    def test_forward_volume_within_hard_bound(self, rng):
        """A2A dispatch volume never exceeds the all-remote hard bound
        (every routed row leaving its rank); Eq. 3 is the expectation
        under uniform routing, approached on average."""
        b, s, h, fh, E, k, n = 2, 16, 16, 24, 8, 2, 4
        moe = MoELayer(rng, h, fh, E, k, dtype=np.float64)
        world = World(n, n)
        engine = EPFFNEngine(world.full_group(), moe, mode="a2a")
        clear_ledger(world.ledger)
        ffn_half(engine, shard_seq(rng.standard_normal((b, s, h)), n))
        measured = forward_bytes(world, "ep_ffn") / 8.0
        hard_bound = 2 * k * b * s * h  # all rows remote, both passes
        assert measured <= hard_bound + 1e-9

    def test_expected_volume_close_to_eq3(self):
        """Averaged over random routing, the A2A volume approaches Eq. 3."""
        rng = np.random.default_rng(0)
        b, s, h, fh, E, k, n = 4, 32, 16, 24, 8, 2, 4
        moe = MoELayer(rng, h, fh, E, k, dtype=np.float64)
        world = World(n, n)
        engine = EPFFNEngine(world.full_group(), moe, mode="a2a")
        clear_ledger(world.ledger)
        ffn_half(engine, shard_seq(rng.standard_normal((b, s, h)), n))
        measured = forward_bytes(world, "ep_ffn") / 8.0
        bound = ep_ffn_comm_volume(b, s, h, n, k) * n
        assert measured == pytest.approx(bound, rel=0.25)


class TestEPAgRs:
    @pytest.mark.parametrize("b,s,h,fh,E,k,n", CONFIGS)
    def test_matches_reference(self, b, s, h, fh, E, k, n):
        rng = np.random.default_rng(b * 10 + s + k + 1)
        moe = MoELayer(rng, h, fh, E, k, dtype=np.float64)
        x = rng.standard_normal((b, s, h))
        check_engine_matches(
            rng, moe, x,
            lambda g, m: EPFFNEngine(g, m, mode="ag_rs"), n)

    def test_volume_equals_eq4_regardless_of_k(self, rng):
        """AG/RS dispatch volume equals TP's Eq. 4 and is independent of
        top-k — the §3.2 guarantee."""
        b, s, h, n = 2, 8, 16, 4
        volumes = []
        for k in (1, 3, 6):
            moe = MoELayer(np.random.default_rng(k), h, 24, 8, k,
                           dtype=np.float64)
            world = World(n, n)
            engine = EPFFNEngine(world.full_group(), moe, mode="ag_rs")
            clear_ledger(world.ledger)
            ffn_half(engine, shard_seq(
                np.random.default_rng(k).standard_normal((b, s, h)), n))
            volumes.append(forward_bytes(world, "ep_ffn") / 8.0)
        expected = tp_ffn_comm_volume(b, s, h, n) * n
        for v in volumes:
            assert v == pytest.approx(expected)

    def test_expert_divisibility_required(self, rng):
        moe = MoELayer(rng, 8, 12, 6, 2)
        world = World(4, 4)
        with pytest.raises(ValueError, match="not divisible"):
            EPFFNEngine(world.full_group(), moe)


class TestAdaptiveMode:
    def test_small_k_uses_a2a(self):
        assert choose_dispatch_mode(top_k=2, ep_size=8) == "a2a"

    def test_large_k_uses_ag_rs(self):
        assert choose_dispatch_mode(top_k=6, ep_size=8) == "ag_rs"
        assert choose_dispatch_mode(top_k=8, ep_size=8) == "ag_rs"

    def test_engine_adopts_adaptive_choice(self, rng):
        moe = MoELayer(rng, 8, 12, 8, 6)
        world = World(8, 8)
        engine = EPFFNEngine(world.full_group(), moe, mode="adaptive")
        assert engine.mode == "ag_rs"

    def test_invalid_mode(self, rng):
        moe = MoELayer(rng, 8, 12, 8, 2)
        world = World(4, 4)
        with pytest.raises(ValueError, match="dispatch mode"):
            EPFFNEngine(world.full_group(), moe, mode="ring")


class TestTPFFN:
    @pytest.mark.parametrize("b,s,h,fh,E,k,n", CONFIGS)
    def test_matches_reference(self, b, s, h, fh, E, k, n):
        rng = np.random.default_rng(b * 10 + s + k + 2)
        moe = MoELayer(rng, h, fh, E, k, dtype=np.float64)
        x = rng.standard_normal((b, s, h))
        world, engine, ref = check_engine_matches(
            rng, moe, x, TPFFNEngine, n)
        assert_expert_grads(moe, ref)

    def test_volume_matches_eq4(self, rng):
        b, s, h, fh, E, k, n = 2, 8, 16, 24, 8, 2, 4
        moe = MoELayer(rng, h, fh, E, k, dtype=np.float64)
        world = World(n, n)
        engine = TPFFNEngine(world.full_group(), moe)
        clear_ledger(world.ledger)
        ffn_half(engine, shard_seq(rng.standard_normal((b, s, h)), n))
        measured = forward_bytes(world, "tp_ffn") / 8.0
        assert measured == pytest.approx(tp_ffn_comm_volume(b, s, h, n) * n)

    def test_ffn_divisibility_required(self, rng):
        moe = MoELayer(rng, 8, 10, 4, 2)
        world = World(4, 4)
        with pytest.raises(ValueError, match="not divisible"):
            TPFFNEngine(world.full_group(), moe)
