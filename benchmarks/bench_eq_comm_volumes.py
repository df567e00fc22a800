"""Eqs. 1–4 — analytic communication volumes vs bytes actually moved.

Cross-validates the paper's closed-form volume formulas against the
byte ledger of the *data-moving* simulated collectives, running each
parallel engine on real tensors.  This is the ground truth behind every
"communication-efficient" claim in §3.
"""

import numpy as np
import pytest

from conftest import report
from repro.comm import World
from repro.core.analysis import (
    ep_ffn_comm_volume,
    sp_attention_comm_volume,
    tp_attention_comm_volume,
    tp_ffn_comm_volume,
)
from repro.core.config import ModelConfig
from repro.model.transformer import TransformerBlock
from repro.parallel import ParallelBlockEngine, shard_sequence

B, S, H, FH, E, K, N, M = 2, 16, 32, 48, 8, 2, 4, 2

#: engine name -> (attention, ffn, EP dispatch) of the block that runs
#: it, and the ledger-tag prefix that selects its half of the layer.
ENGINES = {
    "tp_attn": (("tp", "ep", "a2a"), "tp_attn"),
    "sp_attn": (("sp", "ep", "a2a"), "sp_attn"),
    "ep_a2a": (("sp", "ep", "a2a"), "ep_ffn"),
    "ep_agrs": (("sp", "ep", "ag_rs"), "ep_ffn"),
    "tp_ffn": (("sp", "tp", "a2a"), "tp_ffn"),
}


def measure(engine_name):
    (attention, ffn, dispatch), tag = ENGINES[engine_name]
    rng = np.random.default_rng(0)
    world = World(N, N)
    config = ModelConfig("eq-volumes", 1, H, 8, M, FH, E, K)
    block = TransformerBlock(rng, config, dtype=np.float64)
    engine = ParallelBlockEngine(world.full_group(), block, attention,
                                 ffn, ep_mode=dispatch)
    x = rng.standard_normal((B, S, H))
    engine.forward(shard_sequence(x, N), S)
    return sum(r.total_bytes for r in world.ledger.records
               if r.tag.startswith(tag)) / 8.0  # fp64 elements


def run_volumes():
    formulas = {
        "tp_attn": ("Eq. 1", tp_attention_comm_volume(B, S, H, N) * N),
        "sp_attn": ("Eq. 2 / 2",
                    sp_attention_comm_volume(B, S, H, N, M) * N / 2),
        "ep_a2a": ("Eq. 3 (bound)",
                   ep_ffn_comm_volume(B, S, H, N, K) * N),
        "ep_agrs": ("Eq. 4", tp_ffn_comm_volume(B, S, H, N) * N),
        "tp_ffn": ("Eq. 4", tp_ffn_comm_volume(B, S, H, N) * N),
    }
    rows = []
    for name, (eq, formula) in formulas.items():
        measured = measure(name)
        rows.append({"engine": name, "eq": eq, "formula": formula,
                     "measured": measured})
    return rows


@pytest.mark.benchmark(group="eq-volumes")
def test_eq_comm_volumes(benchmark):
    rows = benchmark(run_volumes)
    report(
        "Eqs. 1-4: analytic vs measured per-pass comm volume (elements,"
        " all ranks)",
        ["engine", "formula", "analytic", "measured", "measured/analytic"],
        [[r["engine"], r["eq"], r["formula"], r["measured"],
          f"{r['measured'] / r['formula']:.3f}"] for r in rows],
        notes="Eq. 2 as printed counts both A2A directions; the per-pass"
              " volume is exactly half. Eq. 3 is an upper bound for"
              " random routing (self-destined tokens stay local).",
    )

    by_name = {r["engine"]: r for r in rows}
    # Exact identities.
    for exact in ("tp_attn", "sp_attn", "ep_agrs", "tp_ffn"):
        r = by_name[exact]
        assert r["measured"] == pytest.approx(r["formula"], rel=1e-9), \
            exact
    # A2A dispatch: Eq. 3 is the uniform-routing *expectation*; the
    # realized volume fluctuates around it but never exceeds the
    # all-remote hard bound 2k·bsh/n per rank.
    a2a = by_name["ep_a2a"]
    assert a2a["measured"] == pytest.approx(a2a["formula"], rel=0.25)
    hard_bound = 2 * K * B * S * H / N * N  # every routed row remote
    assert a2a["measured"] <= hard_bound
    # The §3 ordering: SP < TP for attention, EP(A2A, k<n) < TP for FFN.
    assert by_name["sp_attn"]["measured"] < \
        by_name["tp_attn"]["measured"]
    assert by_name["ep_a2a"]["measured"] < by_name["tp_ffn"]["measured"]
