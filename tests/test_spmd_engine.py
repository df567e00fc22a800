"""Contracts of the simulated SPMD world.

A (passive) slow-link fault plan, which disables the zero-copy
collective fast paths, changes neither results nor ledger bytes; and
the ledger, fault plan and metrics stay exact when a caller issues
collectives on one world from several threads.
"""

import threading

import numpy as np
import pytest

from conftest import attention_half, clear_ledger, forward_bytes
from repro.comm import World, reduce_scatter
from repro.core.analysis import sp_attention_comm_volume
from repro.core.config import ModelConfig, ParallelConfig, TrainConfig
from repro.core.trainer import MegaScaleTrainer
from repro.ft import FaultPlan
from repro.model import MoETransformer
from repro.model.layers import SelfAttention
from repro.obs.metrics import Counter
from repro.parallel.sp_attention import sp_attention_bindings
from repro.tensor import Tensor

CONFIG = ModelConfig("spmd", n_layers=2, hidden_size=32, n_heads=8,
                     gqa_ratio=2, ffn_hidden_size=48, n_experts=8,
                     top_k=2, vocab_size=64, seq_len=16)


def make_train(**kw):
    return TrainConfig(global_batch_size=2, micro_batch_size=2,
                       seq_len=16, learning_rate=1e-2,
                       aux_loss_coeff=0.01, **kw)


def slow_link_plan():
    """A passive fault plan: rank 1's link is 3x slow, nothing fires."""
    return FaultPlan(slow_ranks={1: 3.0})


# -- end-to-end bitwise identity ---------------------------------------------


def run_trainer(ep_mode, plan=None, steps=2, **train_kw):
    model = MoETransformer(CONFIG, seed=0, dtype=np.float64)
    world = World(4, ranks_per_node=4)
    if plan is not None:
        world.attach_fault_plan(plan)
    parallel = ParallelConfig(model_parallel_size=4, attention="sp",
                              ffn="ep", ep_dispatch=ep_mode)
    trainer = MegaScaleTrainer(model, world, parallel,
                               make_train(**train_kw))
    rng = np.random.default_rng(7)
    results = []
    for _ in range(steps):
        tokens = rng.integers(0, CONFIG.vocab_size, size=(2, 17))
        r = trainer.train_step(tokens)
        results.append((r.loss, r.lm_loss, r.aux_loss, r.grad_norm))
    params = {name: p.data.copy()
              for name, p in model.named_parameters()}
    return results, params, world.ledger


class TestBitwiseIdentity:
    @pytest.mark.parametrize("ep_mode", ["a2a", "ag_rs"])
    def test_sp_ep_trainer_with_slow_link_plan(self, ep_mode):
        """The fault plan disables zero-copy; results must not move."""
        fast, p_fast, led_fast = run_trainer(ep_mode, steps=1)
        slow, p_slow, led_slow = run_trainer(
            ep_mode, plan=slow_link_plan(), steps=1)
        assert fast == slow
        for name in p_fast:
            np.testing.assert_array_equal(p_fast[name], p_slow[name],
                                          err_msg=name)
        assert led_fast.total_bytes() == led_slow.total_bytes()

    def test_plan_sees_every_collective(self):
        plan = slow_link_plan()
        _, _, ledger = run_trainer("a2a", plan=plan, steps=1)
        assert plan.calls == sum(ledger.counts().values()) > 0


# -- zero-copy byte accounting -------------------------------------------------


class TestZeroCopyLedgerAudit:
    """Zero-copy delivery must not change what the ledger models: the
    wire bytes of the Eq. 1-4 audit, with or without a fault plan (the
    plan forces the private-copy path)."""

    def eq2_measured(self, plan=None):
        rng = np.random.default_rng(0)
        b, s, h, nh, m, n = 2, 8, 16, 8, 2, 4
        attn = SelfAttention(rng, h, nh, m, dtype=np.float64)
        world = World(n, n)
        if plan is not None:
            world.attach_fault_plan(plan)
        group = world.full_group()
        shards = [Tensor(rng.standard_normal((b, s // n, h)),
                         requires_grad=True) for _ in range(n)]
        clear_ledger(world.ledger)
        attention_half(group, sp_attention_bindings(group, attn, None),
                       shards)
        measured = forward_bytes(world, "sp_attn") / 8.0
        formula = sp_attention_comm_volume(b, s, h, n, m) * n
        return measured, formula

    def test_eq2_zero_copy_path(self):
        measured, formula = self.eq2_measured()
        assert measured == pytest.approx(formula / 2.0)

    def test_eq2_private_copy_path_identical(self):
        fast, _ = self.eq2_measured()
        slow, formula = self.eq2_measured(plan=slow_link_plan())
        assert fast == slow == pytest.approx(formula / 2.0)

    @pytest.mark.parametrize("ep_mode", ["a2a", "ag_rs"])
    def test_ep_bytes_plan_independent(self, ep_mode):
        """Eq. 3/4 FFN volumes: the zero-copy fast path (no plan) and
        the private-copy path (plan attached) record identical bytes."""
        _, _, led_fast = run_trainer(ep_mode, steps=1)
        _, _, led_slow = run_trainer(ep_mode, plan=slow_link_plan(),
                                     steps=1)
        for op in ("all_gather", "reduce_scatter", "all_to_all"):
            assert led_fast.total_bytes(op=op) == \
                led_slow.total_bytes(op=op), op
        assert led_fast.counts() == led_slow.counts()


# -- re-entrancy -----------------------------------------------------------


class TestReentrancy:
    def test_collectives_and_counter_are_reentrant(self):
        """The one concurrency check the library keeps: caller threads
        issuing collectives on disjoint groups of one world, and
        bumping one counter, leave the ledger and the counter exactly
        where the serial run does."""
        n_threads, rounds = 4, 50

        def run(concurrent):
            world = World(2 * n_threads, 2)
            world.attach_fault_plan(slow_link_plan())
            counter = Counter()
            start = threading.Barrier(n_threads)

            def work(i):
                if concurrent:
                    start.wait()
                group = world.group([2 * i, 2 * i + 1])
                for _ in range(rounds):
                    reduce_scatter(group, [np.ones(8), np.ones(8)], tag="t")
                    counter.inc(1.0)

            if concurrent:
                threads = [threading.Thread(target=work, args=(i,))
                           for i in range(n_threads)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
            else:
                for i in range(n_threads):
                    work(i)
            return (world.ledger.total_bytes(), world.ledger.counts(),
                    world.fault_plan.calls, counter.value)

        serial = run(concurrent=False)
        assert run(concurrent=True) == serial
        assert serial[2:] == (n_threads * rounds, n_threads * rounds)
