"""The one all-to-all wire (``repro.model.routing.a2a_wire``).

Training's EP dispatch and the serving bridge send a token to each rank
holding any of its experts once, plus one gate weight per (token,
expert).  These tests pin what that buys and what it must not change:
the cell counts and the pre-sum rule, bit-identity with a sender that
ships every (token, expert) pair, the exact Eq. 1-4 audit recount (and
that it catches that sender), one router gate GEMM per layer per rank,
top_k = 3 through the golden invariants, and the serving bridge's bytes
and outputs — including that each serve row crosses it once, and that
the check catches an eviction that replays its victim.
"""

import dataclasses

import numpy as np
import pytest

from repro.comm import World
from repro.core import MegaScaleTrainer
from repro.model import MoETransformer
from repro.model.layers import Linear
from repro.model.routing import a2a_wire
from repro.parallel import ep_ffn
from repro.serve import ServeEngine
from repro.verify import ServeCase, VerifyCase, run_case, run_serve_case
from repro.verify.engine import _run_parallel

GOLDEN = ("golden_loss", "golden_grads", "golden_params")


def per_pair_wire(dest, src, token, a, e, t):
    """A sender that ships every (token, expert) pair as its own row
    each way — one row per pair, as Eq. 3 counts them."""
    wire = a2a_wire(dest, src, token, a, e, t)
    cell = wire.keys[wire.sent_of_pair]
    by_cell = np.argsort(cell, kind="stable")
    row_of_pair = np.empty_like(by_cell)
    row_of_pair[by_cell] = np.arange(by_cell.shape[0])
    return dataclasses.replace(
        wire, keys=cell[by_cell], back_keys=cell[by_cell],
        sent_of_pair=row_of_pair, back_of_pair=row_of_pair,
        sent=wire.pairs, back=wire.pairs)


def replay_evict(self, item, waiting):
    """An eviction that drops the victim's KV, so it replays from
    scratch on re-admission — every row it had computed crosses the
    bridge again."""
    item.reset()
    self.active.remove(item)
    self._park(item, waiting, [])
    self.n_evictions += 1


class TestCells:
    def test_one_row_per_token_and_rank(self):
        # Token 0 -> experts on ranks 0, 0 (one cell); token 1 -> ranks
        # 0, 1 (two cells); token 2 -> rank 1 three times (top_k = 3).
        dest = np.array([0, 0, 0, 1, 1, 1, 1])
        token = np.array([0, 0, 1, 1, 2, 2, 2])
        wire = a2a_wire(dest, np.zeros(7, dtype=np.int64), token, 1, 2, 3)
        assert wire.sent.reshape(-1).tolist() == [2, 2]
        assert wire.pairs.reshape(-1).tolist() == [3, 4]
        # A token's first rank pre-sums its terms; every cell here is
        # its token's first rank, so each returns one row.
        assert wire.back.reshape(-1).tolist() == [2, 2]

    def test_later_rank_returns_each_term(self):
        # Token 0's experts sit on ranks 0, 1, 1: rank 1 is not its
        # first rank, so its two terms come back as two rows.
        dest = np.array([0, 1, 1])
        wire = a2a_wire(dest, np.zeros(3, dtype=np.int64),
                        np.zeros(3, dtype=np.int64), 1, 2, 1)
        assert wire.sent.reshape(-1).tolist() == [1, 1]
        assert wire.back.reshape(-1).tolist() == [1, 2]
        assert wire.back_of_pair.tolist() == [0, 1, 2]

    def test_layouts_interleave_rows_and_weights(self):
        dest = np.array([0, 1, 1])
        wire = a2a_wire(dest, np.zeros(3, dtype=np.int64),
                        np.array([0, 0, 1]), 1, 2, 2)
        weight_at, is_row = wire.send_layout(4)
        # Link (0, 0): one 4-wide row, one weight; link (0, 1): two
        # rows, two weights.
        assert weight_at.tolist() == [4, 13, 14]
        assert is_row.sum() == 12 and is_row.shape == (15,)


class TestTrainingWire:
    # Two of eight experts per rank: a token's two experts share a rank
    # often enough that the cell wire moves visibly fewer rows.
    CASE = VerifyCase(layers=2, steps=3, seed=4)

    def test_bit_identical_to_one_row_per_pair(self, monkeypatch):
        """Dropping the duplicate rows changes no loss and no parameter
        bit, and moves fewer bytes."""
        cells = _run_parallel(self.CASE)
        shared = sum(
            int((np.sort(x // t["experts_per_rank"], axis=1)[:, 1:]
                 == np.sort(x // t["experts_per_rank"], axis=1)[:, :-1])
                .sum())
            for t in cells.a2a_telemetry for x in t["experts"])
        assert shared > 0
        monkeypatch.setattr(ep_ffn, "a2a_wire", per_pair_wire)
        pairs = _run_parallel(self.CASE)
        assert cells.losses == pairs.losses
        for name, want in pairs.params.items():
            assert np.array_equal(cells.params[name], want), name
        assert cells.ledger_total_bytes < pairs.ledger_total_bytes

    def test_audit_catches_a_sender_that_ships_every_pair(
            self, monkeypatch):
        """The comm audit recounts cells from the captured routing, so
        a sender that re-sends shared rows fails it."""
        result = run_case(self.CASE)
        assert result.outcome("comm_audit").status == "pass"
        monkeypatch.setattr(ep_ffn, "a2a_wire", per_pair_wire)
        result = run_case(self.CASE)
        assert result.outcome("comm_audit").status == "fail"
        assert result.outcome("golden_loss").status == "pass"

    def test_one_gate_gemm_per_layer_per_rank(self, monkeypatch):
        """The balance loss reads the probabilities routing computed:
        one forward runs each layer's router gate once per EP rank."""
        case = self.CASE
        model = MoETransformer(case.model_config(), seed=case.seed)
        gates = {id(block.moe.router.gate) for block in model.blocks}
        calls = []
        call = Linear.__call__

        def counting(linear, x):
            if id(linear) in gates:
                calls.append(id(linear))
            return call(linear, x)

        monkeypatch.setattr(Linear, "__call__", counting)
        trainer = MegaScaleTrainer(model, World(case.ranks, case.ranks),
                                   case.parallel_config(),
                                   case.train_config())
        trainer.loss(np.random.default_rng(0).integers(
            0, case.vocab, (case.batch, case.seq + 1)))
        assert sorted(calls) == sorted(list(gates) * case.ranks)

    @pytest.mark.parametrize("tile_tokens", [None, 2])
    def test_top3_passes_golden_invariants(self, tile_tokens):
        """At top_k = 3 a later rank may hold two of a token's terms;
        they return as two rows, so forward stays in expert order and
        the golden invariants hold, tiled and untiled."""
        result = run_case(VerifyCase(top_k=3, tile_tokens=tile_tokens,
                                     seed=1))
        assert result.ok, result.failures()
        for name in GOLDEN + ("comm_audit",):
            assert result.outcome(name).status == "pass", name


class TestServeBridge:
    """Moving the cell logic into model/routing.py changed neither the
    bridge's bytes nor a generated token (values from before the
    move)."""

    @pytest.mark.parametrize("case,dispatch,combine,generated", [
        (ServeCase(seed=1), 27392.0, 26368.0,
         {0: [25, 15, 18], 1: [17, 55, 37, 8, 40], 2: [23, 22, 47, 17, 46],
          3: [36, 58], 4: [61, 16, 58], 5: [23, 16]}),
        (ServeCase(top_k=3, seed=2), 39504.0, 45056.0,
         {0: [61, 28], 1: [57, 20, 20, 11], 2: [2, 3, 3, 49],
          3: [42, 6, 41, 23, 42], 4: [49, 9], 5: [39, 49, 61, 50]}),
    ])
    def test_pinned(self, case, dispatch, combine, generated):
        model = MoETransformer(case.model_config(), seed=case.seed,
                               dtype=np.dtype(case.dtype))
        config = case.serve_config()
        world = World(config.world_size)
        engine = ServeEngine(model, config, world=world)
        try:
            result = engine.run(case.requests())
        finally:
            engine.shutdown()
        tags = world.ledger.bytes_by_tag()
        assert tags["serve:dispatch_a2a"] == dispatch
        assert tags["serve:combine_a2a"] == combine
        assert {rid: list(r.generated) for rid, r
                in result.results.items()} == generated

    def test_rows_once_catches_an_eviction_that_replays(self, monkeypatch):
        """On the tight-KV leg evictions swap KV out and back and every
        row crosses once; an eviction that drops the KV and replays the
        victim still matches the golden, and serve_rows_once fails it."""
        case = ServeCase(kv_blocks=5, max_batch_size=4)
        result = run_serve_case(case)
        assert result.ok, result.failures()
        monkeypatch.setattr(ServeEngine, "_evict", replay_evict)
        result = run_serve_case(case)
        assert result.outcome("serve_rows_once").status == "fail"
        assert result.outcome("serve_golden").status == "pass"
