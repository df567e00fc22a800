"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm import World
from repro.core.config import ModelConfig
from repro.core.executor_bindings import (
    _SeqCtx,
    attention_bindings,
    ffn_bindings,
)
from repro.tensor import Tensor


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def tiny_config():
    """A model small enough for exhaustive numerical tests."""
    return ModelConfig("tiny", n_layers=2, hidden_size=32, n_heads=8,
                       gqa_ratio=2, ffn_hidden_size=48, n_experts=8,
                       top_k=2, vocab_size=64, seq_len=16)


@pytest.fixture
def world4():
    """A 4-rank single-node world."""
    return World(4, ranks_per_node=4)


@pytest.fixture
def world8():
    """An 8-rank world split over two 4-rank nodes."""
    return World(8, ranks_per_node=4)


def run_bindings(group, bindings, **inputs):
    """Drive one half of a layer on its own: the attention or FFN
    bindings in list order (a valid order — each factory lists its ops
    producer first) over a whole-world context.  Returns the output
    shards (the last binding's values) and the env."""
    env = dict(inputs)
    ctx = _SeqCtx(group, env)
    for binding in bindings:
        env[binding.op] = binding.seq(ctx)
    return env[bindings[-1].op], env


def attention_half(engine, shards, seq_len):
    """An SP/TP attention engine's half of a layer on ``ln1`` shards:
    the attention output shards."""
    return run_bindings(engine.group, attention_bindings(engine, seq_len),
                        ln1=shards)[0]


def ffn_half(engine, shards):
    """An EP/TP FFN engine's half of a layer on ``ln2`` shards:
    (output shards, aux loss)."""
    outs, env = run_bindings(engine.group, ffn_bindings(engine),
                             ln2=shards)
    return outs, env["router"][0][-1]


def forward_bytes(world, prefix=""):
    """Ledger bytes of the forward collectives whose tag starts with
    ``prefix`` (backward duals are tagged ``:bwd``)."""
    return sum(r.total_bytes for r in world.ledger.records
               if r.tag.startswith(prefix) and not r.tag.endswith(":bwd"))


def gradcheck(fn, arrays, rng, eps=1e-5, tol=1e-4):
    """Central-difference gradient check of ``fn(*tensors) -> Tensor``.

    ``arrays`` are float64 numpy inputs; every entry is treated as
    requiring grad.  Returns the max absolute error across all inputs.
    """
    tensors = [Tensor(a.astype(np.float64), requires_grad=True)
               for a in arrays]
    out = fn(*tensors)
    g_out = rng.standard_normal(out.shape)
    out.backward(g_out)

    worst = 0.0
    for which, base in enumerate(arrays):
        analytic = tensors[which].grad
        assert analytic is not None, f"input {which} got no gradient"
        numeric = np.zeros_like(base, dtype=np.float64)
        for i in range(base.size):
            def value(shift):
                probes = [Tensor(a.astype(np.float64)) for a in arrays]
                probes[which].data.flat[i] += shift
                return float((fn(*probes).data * g_out).sum())
            numeric.flat[i] = (value(eps) - value(-eps)) / (2 * eps)
        worst = max(worst, float(np.abs(numeric - analytic).max()))
    assert worst < tol, f"gradcheck failed: max error {worst}"
    return worst


def assert_allclose(a, b, tol=1e-10, msg=""):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    err = np.abs(a - b).max() if a.size else 0.0
    assert err <= tol, f"{msg} max err {err} > {tol}"


def clear_ledger(ledger):
    """Drop every record and total a ledger holds."""
    ledger.records.clear()
    ledger.cumulative.clear()


def unshard_sequence(shards):
    """Concatenate per-rank shard values back to ``[b, s, h]``."""
    return np.concatenate([s.data for s in shards], axis=1)


def eval_loss(trainer, token_ids):
    """A trainer's LM loss without gradient tracking or updates."""
    from contextlib import nullcontext

    from repro.tensor import no_grad

    with no_grad(), (trainer.policy if trainer.policy is not None
                     else nullcontext()):
        _, lm, _ = trainer.loss(token_ids)
    return lm.item()


def base_op_name(name):
    """The whole-op name a (possibly tiled) op name refers to."""
    from repro.core.operators import TILE_SEP

    head, sep, tail = name.rpartition(TILE_SEP)
    return head if sep and tail.isdigit() else name


def task_order(timeline, comm=None):
    """A simulated timeline's task names in start order, optionally only
    the comm (``comm=True``) or compute (``comm=False``) tasks."""
    records = sorted(timeline.records, key=lambda r: (r.start, r.task.stream))
    return [r.task.name for r in records
            if comm is None or r.task.is_comm == comm]


def record_of(timeline, name):
    """The execution record of one simulated task by name."""
    return next(r for r in timeline.records if r.task.name == name)


def enumerate_plans(model, cluster, train=None):
    """Every plan candidate that fits the cluster's memory."""
    from repro.core.config import TrainConfig
    from repro.core.planner import _raw_candidates, _within_memory

    train = train or TrainConfig()
    return _within_memory(model, cluster,
                          _raw_candidates(model, cluster, train),
                          train.micro_batch_size)


def optimizer_state_nbytes(opt):
    """Bytes of both AdamW moments one rank holds: all of them without
    a DP group, one ZeRO-1 shard's with one."""
    from repro.precision.optimizer import zero1_shard_size

    if opt.group is None:
        return sum(m.nbytes + v.nbytes for m, v in zip(opt.m, opt.v))
    size = zero1_shard_size(int(opt.offsets[-1]), opt.group.size)
    return 2 * size * np.result_type(*opt.m).itemsize


def audit_entry(report, mechanism):
    """The audit report's entry for one mechanism name."""
    return next(e for e in report.entries if e.mechanism == mechanism)


def children_of(tracer, span):
    """Direct children of ``span`` (by parent link)."""
    return [s for s in tracer.spans if s.parent_id == span.span_id]
