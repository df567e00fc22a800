"""Tests for comm-layer fault injection (repro.ft.faults)."""

import numpy as np
import pytest

from repro.comm import World, all_gather, all_reduce
from repro.ft import (
    CommTimeout,
    FaultPlan,
    FaultSpec,
    PayloadCorruption,
    RankCrash,
)
from repro.parallel.dist_ops import dist_all_gather
from repro.tensor import Tensor


def make_group(n=2):
    return World(n, n).full_group()


class TestFaultSpec:
    def test_kind_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("meteor", at_call=0)
        with pytest.raises(ValueError, match="at_call"):
            FaultSpec("crash", at_call=-1)

    def test_plan_validation(self):
        with pytest.raises(ValueError, match="rate"):
            FaultPlan(rate=1.5)
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan(rate=0.1, kinds=("gremlin",))
        with pytest.raises(ValueError, match="slow factor"):
            FaultPlan(slow_ranks={0: 0.5})


class TestScheduledFaults:
    def test_timeout_fires_once_at_call(self):
        group = make_group()
        group.world.attach_fault_plan(
            FaultPlan([FaultSpec("timeout", at_call=1)]))
        shards = [np.ones(4), np.ones(4)]
        all_gather(group, shards)  # call 0: clean
        with pytest.raises(CommTimeout):
            all_gather(group, shards)  # call 1: faults
        all_gather(group, shards)  # call 2 (replay analogue): clean
        assert [e.kind for e in group.world.fault_plan.fired] == \
            ["timeout"]

    def test_crash_is_not_transient(self):
        group = make_group()
        group.world.attach_fault_plan(
            FaultPlan([FaultSpec("crash", at_call=0)]))
        with pytest.raises(RankCrash):
            all_reduce(group, [np.ones(4), np.ones(4)])

    def test_op_filter_defers_to_matching_op(self):
        group = make_group()
        group.world.attach_fault_plan(FaultPlan(
            [FaultSpec("timeout", at_call=0, op="all_reduce")]))
        # Wrong op at the scheduled index: the spec stays pending.
        all_gather(group, [np.ones(4), np.ones(4)])
        assert group.world.fault_plan.pending
        all_reduce(group, [np.ones(4), np.ones(4)])  # index moved past
        assert group.world.fault_plan.pending  # never matches again

    def test_corruption_caught_by_checksum(self):
        group = make_group()
        group.world.attach_fault_plan(
            FaultPlan([FaultSpec("corrupt", at_call=0)]))
        with pytest.raises(PayloadCorruption):
            all_gather(group, [np.ones(4), np.ones(4)])

    def test_silent_corruption_flips_exactly_one_bit(self):
        group = make_group()
        group.world.attach_fault_plan(FaultPlan(
            [FaultSpec("corrupt", at_call=0)], verify_checksums=False))
        outs = all_gather(group, [np.zeros(8), np.zeros(8)])
        raw = np.concatenate([o.view(np.uint8) for o in outs])
        assert bin(int.from_bytes(raw.tobytes(), "little")).count("1") \
            == 1

    def test_clean_collectives_unaffected(self):
        group = make_group()
        group.world.attach_fault_plan(
            FaultPlan([FaultSpec("timeout", at_call=99)]))
        outs = all_gather(group, [np.arange(4.0), np.arange(4.0) + 4])
        np.testing.assert_array_equal(outs[0], np.arange(8.0))


class TestProbabilisticFaults:
    def test_same_seed_same_fault_sequence(self):
        def run(seed):
            group = make_group()
            plan = FaultPlan(rate=0.3, seed=seed,
                             kinds=("timeout", "corrupt"))
            group.world.attach_fault_plan(plan)
            for _ in range(40):
                try:
                    all_reduce(group, [np.ones(2), np.ones(2)])
                except (CommTimeout, PayloadCorruption):
                    pass
            return [(e.kind, e.call_index) for e in plan.fired]

        assert run(7) == run(7)
        assert run(7) != run(8)
        assert run(7)  # rate 0.3 over 40 calls: some faults fired

    def test_zero_rate_never_fires(self):
        group = make_group()
        plan = FaultPlan(seed=0)
        group.world.attach_fault_plan(plan)
        for _ in range(20):
            all_reduce(group, [np.ones(2), np.ones(2)])
        assert plan.fired == []
        assert plan.calls == 20


class TestSlowLinks:
    def test_slow_factor(self):
        plan = FaultPlan(slow_ranks={2: 2.0})
        assert plan.slow_factor(2) == 2.0
        assert plan.slow_factor(0) == 1.0


class TestDistOpsIntegration:
    def test_timeout_during_autograd_collective(self):
        world = World(2, 2)
        world.attach_fault_plan(
            FaultPlan([FaultSpec("timeout", at_call=0)]))
        group = world.full_group()
        shards = [Tensor(np.ones((2, 2)), requires_grad=True)
                  for _ in range(2)]
        with pytest.raises(CommTimeout):
            dist_all_gather(group, shards)

    def test_backward_collectives_consult_plan(self):
        world = World(2, 2)
        # Forward all_gather is call 0; its two backward
        # reduce-scatters are calls 1 and 2.
        world.attach_fault_plan(
            FaultPlan([FaultSpec("timeout", at_call=1)]))
        group = world.full_group()
        shards = [Tensor(np.ones((2, 2)), requires_grad=True)
                  for _ in range(2)]
        outs = dist_all_gather(group, shards)
        total = outs[0].sum() + outs[1].sum()
        with pytest.raises(CommTimeout):
            total.backward()

    def test_backward_corruption_fires_on_its_own_leg(self):
        """A corruption scheduled on the first ``:bwd`` reduce-scatter
        (call 1) is caught in backward; the next forward is clean."""
        world = World(2, 2)
        plan = FaultPlan([FaultSpec("corrupt", at_call=1)])
        world.attach_fault_plan(plan)
        group = world.full_group()
        shards = [Tensor(np.ones((2, 2)), requires_grad=True)
                  for _ in range(2)]
        outs = dist_all_gather(group, shards)
        with pytest.raises(PayloadCorruption, match="reduce_scatter"):
            (outs[0].sum() + outs[1].sum()).backward()
        outs = dist_all_gather(group, shards)
        np.testing.assert_array_equal(outs[0].data, np.ones((4, 2)))
        assert [(e.kind, e.op, e.call_index) for e in plan.fired] == \
            [("corrupt", "reduce_scatter", 1)]

    def test_silent_backward_corruption_lands_in_a_gradient(self):
        world = World(2, 2)
        world.attach_fault_plan(FaultPlan(
            [FaultSpec("corrupt", at_call=1)], verify_checksums=False))
        group = world.full_group()
        shards = [Tensor(np.ones((2, 2)), requires_grad=True)
                  for _ in range(2)]
        outs = dist_all_gather(group, shards)
        (outs[0].sum() + outs[1].sum()).backward()
        # Clean, every gradient element is 2 (two outputs, each 1).
        flipped = sum(int(np.sum(s.grad != 2.0)) for s in shards)
        assert flipped == 1
        outs = dist_all_gather(group, shards)
        for out in outs:
            np.testing.assert_array_equal(out.data, np.ones((4, 2)))

    def test_trainer_step_survives_without_plan(self):
        # No plan attached: hooks must be pure no-ops.
        world = World(2, 2)
        group = world.full_group()
        shards = [Tensor(np.ones((2, 2)), requires_grad=True)
                  for _ in range(2)]
        outs = dist_all_gather(group, shards)
        (outs[0].sum() + outs[1].sum()).backward()
        assert shards[0].grad is not None
