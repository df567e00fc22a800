"""Serving subsystem (repro.serve) tests.

Coverage in five layers: the paged-KV plumbing (allocator accounting,
GQA-shaped pool, block-table reads/writes), the determinism contract
(continuous-batched output bitwise vs the unbatched sequential golden,
across GQA ratios, ragged lengths, staggered admission, KV-swap
eviction, and mid-stream rank crashes, also of a swapped-out request),
the leak/trace/swap contracts at shutdown, the row-array layout
(per-segment GEMMs, one grouped expert call per expert rank,
per-request capacity masks), and the serve verify
registry — including proof that each ``serve_*`` invariant catches a
hand-tampered artifact of its bug class, that ``serve_reference``
catches a bug the batched run and its golden share, and that the
verify-telemetry fix fails loudly when an EP engine stops exposing
dispatch telemetry.
"""

import numpy as np
import pytest

from repro.comm import World
from repro.core.config import ModelConfig, ServeConfig
from repro.ft import FaultPlan, FaultSpec
from repro.model import DispatchPlan, MoETransformer
from repro.obs import Tracer
from repro.serve import (
    BlockAllocator,
    KVLeakError,
    KVPool,
    OutOfKVBlocks,
    PagedKVCache,
    Request,
    ServeEngine,
    VirtualClock,
    bursty_trace,
    golden_decode,
    latency_summary,
    poisson_trace,
)
from repro.verify import (
    ServeCase,
    run_serve_case,
    serve_matrix,
)
from repro.verify.engine import ServeArtifacts
from repro.verify.invariants import (
    _check_serve_comm_balance,
    _check_serve_golden,
    _check_serve_leaks,
    _check_serve_rows_once,
)


def tiny_model(gqa_ratio=2, n_layers=2, seed=0, dtype=np.float64,
               capacity_factor=0.0, top_k=2):
    config = ModelConfig("serve-test", n_layers, 32, 8, gqa_ratio, 48,
                         8, top_k, vocab_size=64, seq_len=64)
    return MoETransformer(config, seed=seed, dtype=dtype,
                          capacity_factor=capacity_factor)


def serve_config(**kw):
    base = dict(attention_ranks=2, expert_ranks=2, kv_block_size=4,
                kv_blocks=64, max_batch_size=3)
    base.update(kw)
    return ServeConfig(**base)


def run_engine(model, config, requests, fault_plan=None,
               with_tracer=True):
    world = World(config.world_size)
    if fault_plan is not None:
        world.attach_fault_plan(fault_plan)
    clock = VirtualClock()
    tracer = Tracer(clock=clock) if with_tracer else None
    engine = ServeEngine(model, config, world=world, tracer=tracer,
                         clock=clock)
    try:
        result = engine.run(requests)
    finally:
        engine.shutdown()
    return result, engine, world


def capture_bridge(engine):
    """Record each bridge crossing's dispatch plan and combined rows."""
    crossings = []
    bridge = engine.placement.moe_forward

    def capture(moe, plan, *rest):
        combined = bridge(moe, plan, *rest)
        crossings.append((plan, combined))
        return combined

    engine.placement.moe_forward = capture
    return crossings


def expert_ranks_of(plan, token, experts_per_rank):
    """The expert rank of each of ``token``'s plan rows, in plan order."""
    expert = np.repeat(np.arange(plan.expert_counts.shape[0]),
                       plan.expert_counts)
    return (expert[plan.token_of_row == token] // experts_per_rank).tolist()


def assert_bitwise(result, golden):
    assert set(result.results) == set(golden.results)
    for rid, got in result.results.items():
        want = golden.results[rid]
        assert got.generated == want.generated, f"request {rid} tokens"
        assert len(got.logits) == len(want.logits)
        for step, (a, b) in enumerate(zip(got.logits, want.logits)):
            assert np.array_equal(a, b), f"request {rid} step {step}"


class TestBlockAllocator:
    def test_accounting(self):
        alloc = BlockAllocator(4)
        a = alloc.allocate(3)
        assert alloc.in_use == 3
        assert alloc.allocated_total == 3
        alloc.free(a)
        assert alloc.in_use == 0
        assert alloc.freed_total == 3
        alloc.assert_no_leaks()

    def test_all_or_nothing(self):
        alloc = BlockAllocator(2)
        with pytest.raises(OutOfKVBlocks):
            alloc.allocate(3)
        assert alloc.in_use == 0  # failed allocation takes nothing

    def test_double_free_rejected(self):
        alloc = BlockAllocator(2)
        blocks = alloc.allocate(1)
        alloc.free(blocks)
        with pytest.raises(ValueError, match="double free"):
            alloc.free(blocks)

    def test_leak_detected(self):
        alloc = BlockAllocator(2)
        alloc.allocate(1)
        with pytest.raises(KVLeakError, match="1 blocks still held"):
            alloc.assert_no_leaks()


class TestKVPool:
    def test_gqa_head_axis(self):
        # The pool stores n_kv_heads = n_heads / gqa_ratio heads, not
        # n_heads — the structural GQA memory saving.
        pool = KVPool(n_layers=2, n_kv_heads=2, head_dim=4,
                      n_blocks=8, block_size=4)
        assert pool.k.shape == (2, 8, 4, 2, 4)
        assert pool.v.shape == pool.k.shape

    def test_put_gather_roundtrip_across_blocks(self):
        rng = np.random.default_rng(0)
        pool = KVPool(n_layers=1, n_kv_heads=2, head_dim=3,
                      n_blocks=8, block_size=4)
        cache = PagedKVCache(pool)
        k = rng.standard_normal((10, 2, 3))
        v = rng.standard_normal((10, 2, 3))
        cache.ensure_capacity(10)
        cache.put(0, k[:6], v[:6], start=0)
        cache.put(0, k[6:], v[6:], start=6)
        cache.advance(10)
        k_got, v_got = cache.gather(0, 10)
        assert np.array_equal(k_got, k)
        assert np.array_equal(v_got, v)
        cache.release()
        pool.allocator.assert_no_leaks()

    def test_put_past_capacity_rejected(self):
        pool = KVPool(1, 2, 3, n_blocks=2, block_size=4)
        cache = PagedKVCache(pool)
        cache.ensure_capacity(4)
        with pytest.raises(OutOfKVBlocks, match="capacity"):
            cache.put(0, np.zeros((5, 2, 3)), np.zeros((5, 2, 3)), 0)
        cache.release()

    def test_put_rejects_rows_of_another_dtype(self):
        # An assignment would cast silently and attention would then
        # mix widths; the error names the knob (the pool's dtype).
        pool = KVPool(1, 2, 3, n_blocks=2, block_size=4,
                      dtype=np.float32)
        cache = PagedKVCache(pool)
        cache.ensure_capacity(2)
        rows32 = np.zeros((2, 2, 3), dtype=np.float32)
        with pytest.raises(TypeError, match="k_rows dtype float64.*"
                                            "pool dtype float32"):
            cache.put(0, rows32.astype(np.float64), rows32, 0)
        with pytest.raises(TypeError, match="v_rows dtype float64.*"
                                            "pool dtype float32"):
            cache.put(0, rows32, rows32.astype(np.float64), 0)
        cache.put(0, rows32, rows32, 0)
        cache.release()

    def test_release_is_idempotent_and_resets(self):
        pool = KVPool(1, 2, 3, n_blocks=4, block_size=4)
        cache = PagedKVCache(pool)
        cache.ensure_capacity(6)
        cache.advance(6)
        cache.release()
        cache.release()
        assert cache.length == 0 and cache.blocks == []
        pool.allocator.assert_no_leaks()


class TestArrivals:
    def test_poisson_seeded_and_sorted(self):
        a = poisson_trace(8, rate=1.0, vocab=32, seed=3)
        b = poisson_trace(8, rate=1.0, vocab=32, seed=3)
        assert a == b
        times = [r.arrival_time for r in a]
        assert times == sorted(times)
        assert all(1 <= len(r.prompt) for r in a)

    def test_bursty_groups(self):
        trace = bursty_trace(6, burst_size=3, burst_gap=2.0, vocab=32)
        times = [r.arrival_time for r in trace]
        assert times == [0.0, 0.0, 0.0, 2.0, 2.0, 2.0]

    def test_request_validation(self):
        with pytest.raises(ValueError):
            Request(0, prompt=(), max_new_tokens=1)
        with pytest.raises(ValueError):
            Request(0, prompt=(1,), max_new_tokens=0)
        with pytest.raises(ValueError):
            Request(0, prompt=(1,), max_new_tokens=1, arrival_time=-1)

    def test_virtual_clock(self):
        clock = VirtualClock()
        clock.advance(2.5)
        clock.advance_to(1.0)  # no-op backwards
        assert clock() == 2.5
        with pytest.raises(ValueError):
            clock.advance(-1)

    def test_latency_summary_deterministic(self):
        clock = VirtualClock()
        tracer = Tracer(clock=clock)
        for i, dur in enumerate([1.0, 2.0, 3.0, 4.0]):
            tracer.record_span(f"request-{i}", start=float(i),
                               end=float(i) + dur, cat="serve.request",
                               pid="serve", new_tokens=2)
        lat = latency_summary(tracer)
        assert lat["count"] == 4.0
        assert lat["p50"] == pytest.approx(2.5)
        assert lat["mean"] == pytest.approx(2.5)
        assert lat["throughput_tokens"] == pytest.approx(8.0 / 7.0)

    def test_latency_summary_empty(self):
        lat = latency_summary(Tracer(clock=VirtualClock()))
        assert lat["count"] == 0.0 and lat["p50"] == 0.0


class TestPrefillExactness:
    def test_prefill_logits_match_model_forward(self):
        """The prefill step of the serving engine runs the reference
        RoPE/attention code path, so its first-token logits are
        bitwise-equal to a whole-prompt model forward."""
        model = tiny_model()
        config = serve_config(max_batch_size=1)
        prompt = (5, 17, 30, 2)
        req = Request(0, prompt=prompt, max_new_tokens=1)
        result, _, _ = run_engine(model, config, [req])
        ref = model(np.asarray([prompt]))
        assert np.array_equal(
            result.results[0].logits[0],
            np.ascontiguousarray(ref.logits.data[0, -1]))


class TestCapacityFactor:
    def test_capacity_mask_counts_each_request_alone(self):
        """A capacity-limited router drops tokens first-come-first-
        served over a request's own tokens: batched output equals the
        golden bitwise, and every prefill row equals model(prompt)'s
        last row — which a mask over a rank's concatenated rows breaks."""
        model = tiny_model(capacity_factor=0.5)
        serve = serve_config()
        requests = poisson_trace(6, rate=0.5, vocab=64, seed=1)
        result, _, _ = run_engine(model, serve, requests)
        assert_bitwise(result, golden_decode(model, serve, requests))
        for request in requests:
            ref = model(np.asarray([request.prompt]))
            assert np.array_equal(
                result.results[request.request_id].logits[0],
                ref.logits.data[0, -1]), request.request_id


class TestRowLayout:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_segment_linear_matches_per_segment_products(self, dtype):
        """Each request segment of a ragged row array is bitwise its
        own product — a one-row segment (a gemv) between GEMM segments
        included."""
        from repro.model.layers import Linear
        from repro.serve.decode import segment_linear
        rng = np.random.default_rng(0)
        linear = Linear(rng, 64, 48, dtype=dtype)
        x = rng.standard_normal((12, 64)).astype(dtype)
        bounds = ((0, 5), (5, 6), (6, 12))
        out = segment_linear(linear, x, bounds)
        assert out.dtype == dtype
        for a, b in bounds:
            assert np.array_equal(out[a:b], x[a:b] @ linear.weight.data)

    def test_one_grouped_expert_call_per_expert_rank(self, monkeypatch):
        """With no precision policy and no remat the bridge runs one
        GroupedGEMM per (expert rank, layer, iteration) and never an
        expert's own forward."""
        from repro.model import moe
        from repro.serve import placement
        calls = {"grouped": 0, "expert": 0}
        grouped = placement.grouped_expert_blocks
        expert_call = moe.Expert.__call__

        def count_grouped(*args):
            calls["grouped"] += 1
            return grouped(*args)

        def count_expert(self, x):
            calls["expert"] += 1
            return expert_call(self, x)

        monkeypatch.setattr(placement, "grouped_expert_blocks",
                            count_grouped)
        monkeypatch.setattr(moe.Expert, "__call__", count_expert)
        model = tiny_model()
        config = serve_config()
        requests = poisson_trace(6, rate=0.5, vocab=64, seed=1)
        result, _, _ = run_engine(model, config, requests)
        assert calls["expert"] == 0
        assert calls["grouped"] == (config.expert_ranks
                                    * model.config.n_layers
                                    * result.n_iterations)


class TestGoldenBitwise:
    @pytest.mark.parametrize("gqa_ratio", [1, 2, 4])
    def test_batched_matches_golden(self, gqa_ratio):
        model = tiny_model(gqa_ratio=gqa_ratio)
        config = serve_config()
        requests = poisson_trace(6, rate=0.5, vocab=64, seed=1)
        result, _, _ = run_engine(model, config, requests)
        assert_bitwise(result, golden_decode(model, config, requests))

    def test_float32_model_stays_float32_and_matches_golden(self):
        """The KV pool follows the model's dtype and post-RoPE keys,
        the bridge payloads and the logits all stay in it; batched
        decode is still bitwise-equal to the golden."""
        model = tiny_model(dtype=np.float32)
        config = serve_config()
        requests = poisson_trace(6, rate=0.5, vocab=64, seed=1)
        result, engine, _ = run_engine(model, config, requests)
        assert engine.pool.k.dtype == engine.pool.v.dtype == np.float32
        for got in result.results.values():
            assert all(row.dtype == np.float32 for row in got.logits)
        assert_bitwise(result, golden_decode(model, config, requests))

    def test_ragged_lengths_and_simultaneous_admission(self):
        model = tiny_model()
        config = serve_config(max_batch_size=4)
        requests = [
            Request(0, prompt=(1,), max_new_tokens=6),
            Request(1, prompt=tuple(range(9)), max_new_tokens=2),
            Request(2, prompt=(3, 4), max_new_tokens=4),
            Request(3, prompt=(60, 61, 62), max_new_tokens=1),
        ]
        result, _, _ = run_engine(model, config, requests)
        assert_bitwise(result, golden_decode(model, config, requests))

    def test_staggered_admission_mid_stream(self):
        # Request 2 arrives while 0 and 1 are mid-decode; batch
        # composition changes every few iterations.
        model = tiny_model()
        config = serve_config(max_batch_size=2)
        requests = [
            Request(0, prompt=(1, 2), max_new_tokens=5,
                    arrival_time=0.0),
            Request(1, prompt=(3, 4, 5), max_new_tokens=5,
                    arrival_time=0.5),
            Request(2, prompt=(6,), max_new_tokens=3,
                    arrival_time=2.0),
        ]
        result, _, _ = run_engine(model, config, requests)
        assert result.n_iterations > 5
        assert_bitwise(result, golden_decode(model, config, requests))

    def test_eviction_swaps_bitwise(self):
        # A pool too small for the batch forces mid-stream evictions;
        # victims swap their KV out to host and back, resume where they
        # stopped (no restart), and still match the golden.
        model = tiny_model()
        config = serve_config(kv_blocks=5, max_batch_size=4)
        requests = poisson_trace(6, rate=1.0, vocab=64, seed=0)
        result, engine, _ = run_engine(model, config, requests)
        assert result.n_evictions > 0
        assert all(r.restarts == 0 for r in result.results.values())
        assert result.swapped_kv_bytes > 0
        assert engine.swapped_out_bytes == engine.swapped_in_bytes
        assert result.swapped_kv_bytes == 2 * engine.swapped_out_bytes
        assert_bitwise(result, golden_decode(model, config, requests))

    def test_tight_pool_ships_the_bytes_of_a_roomy_one(self):
        """An evicted request's rows cross the bridge once: a pool tight
        enough to evict ships exactly the bridge bytes of one that never
        does, on the same trace."""
        model = tiny_model()
        requests = bursty_trace(12, burst_size=3, burst_gap=2.0, vocab=64,
                                seed=0)
        tags = {}
        for kv_blocks in (8, 64):
            config = serve_config(kv_blocks=kv_blocks, max_batch_size=8)
            result, _, world = run_engine(model, config, requests)
            tags[kv_blocks] = world.ledger.bytes_by_tag()
            assert (result.n_evictions > 0) == (kv_blocks == 8)
        assert tags[8] == tags[64]

    def test_oversized_request_rejected_upfront(self):
        model = tiny_model()
        config = serve_config(kv_blocks=2, kv_block_size=4)
        req = Request(0, prompt=tuple(range(7)), max_new_tokens=4)
        world = World(config.world_size)
        engine = ServeEngine(model, config, world=world)
        with pytest.raises(OutOfKVBlocks, match="request 0"):
            engine.run([req])
        engine._requeue_all(__import__("collections").deque())
        engine.shutdown()

    def test_duplicate_request_ids_rejected(self):
        model = tiny_model(n_layers=1)
        engine = ServeEngine(model, serve_config())
        reqs = [Request(0, prompt=(1,), max_new_tokens=1),
                Request(0, prompt=(2,), max_new_tokens=1)]
        with pytest.raises(ValueError, match="duplicate"):
            engine.run(reqs)
        engine.shutdown()


class TestCrashRecovery:
    def test_crash_requeues_and_completes_bitwise(self):
        model = tiny_model()
        config = serve_config()
        requests = poisson_trace(6, rate=0.5, vocab=64, seed=0)
        plan = FaultPlan([FaultSpec(kind="crash", at_call=5)])
        result, _, world = run_engine(model, config, requests,
                                      fault_plan=plan)
        assert result.n_crashes == 1
        assert [e.kind for e in plan.fired] == ["crash"]
        assert len(result.results) == len(requests)
        assert_bitwise(result, golden_decode(model, config, requests))

    def test_crash_while_swapped_out_replays_from_scratch(self):
        """A crash drops the host KV of a request that is swapped out:
        it replays from scratch, counts a restart, and still matches the
        golden; every swapped-out byte is swapped in or dropped."""
        model = tiny_model()
        config = serve_config(kv_blocks=5, max_batch_size=4)
        requests = poisson_trace(6, rate=1.0, vocab=64, seed=0)
        world = World(config.world_size)
        engine = ServeEngine(model, config, world=world)
        evict = engine._evict
        swapped = []

        def evict_then_crash(item, waiting):
            evict(item, waiting)
            if not swapped and item.pos:
                swapped.append(item.request.request_id)
                # A fresh plan counts calls from 0: this iteration's
                # first bridge crossing raises RankCrash.
                world.attach_fault_plan(FaultPlan([FaultSpec(
                    kind="crash", at_call=0)]))

        engine._evict = evict_then_crash
        try:
            result = engine.run(requests)
        finally:
            engine.shutdown()
        assert result.n_crashes == 1 and swapped
        assert result.results[swapped[0]].restarts == 1
        assert engine.swap_dropped_bytes > 0
        assert engine.swapped_out_bytes == (engine.swapped_in_bytes
                                            + engine.swap_dropped_bytes)
        assert_bitwise(result, golden_decode(model, config, requests))

    def test_restart_counts_survive_readmission(self):
        model = tiny_model()
        config = serve_config()
        requests = poisson_trace(6, rate=0.5, vocab=64, seed=0)
        plan = FaultPlan([FaultSpec(kind="crash", at_call=5)])
        result, _, _ = run_engine(model, config, requests,
                                  fault_plan=plan)
        assert sum(r.restarts for r in result.results.values()) >= 1


class TestLeakContract:
    def test_shutdown_flags_leaked_block(self):
        model = tiny_model(n_layers=1)
        engine = ServeEngine(model, serve_config())
        engine.pool.allocator.allocate(1)  # simulate a lost block
        with pytest.raises(KVLeakError):
            engine.shutdown()

    def test_shutdown_flags_open_span_stack(self):
        model = tiny_model(n_layers=1)
        clock = VirtualClock()
        tracer = Tracer(clock=clock)
        engine = ServeEngine(model, serve_config(), tracer=tracer,
                             clock=clock)
        tracer.begin("dangling", cat="test")
        with pytest.raises(KVLeakError, match="span stacks"):
            engine.shutdown()

    def test_shutdown_flags_swapped_kv_left_on_host(self):
        model = tiny_model(n_layers=1)
        requests = poisson_trace(6, rate=1.0, vocab=64, seed=0)
        engine = ServeEngine(model, serve_config(kv_blocks=5,
                                                 max_batch_size=4))
        evict = engine._evict

        def evict_and_stop(item, waiting):
            evict(item, waiting)
            raise RuntimeError("stop with a request swapped out")

        engine._evict = evict_and_stop
        with pytest.raises(RuntimeError, match="swapped out"):
            engine.run(requests)
        for item in engine.active:
            item.cache.release()
        with pytest.raises(KVLeakError, match="still on host"):
            engine.shutdown()

    def test_clean_run_leaks_nothing(self):
        model = tiny_model(n_layers=1)
        requests = poisson_trace(4, rate=1.0, vocab=64, seed=0)
        _, engine, _ = run_engine(model, serve_config(), requests)
        assert engine.pool.allocator.in_use == 0
        assert (engine.pool.allocator.allocated_total
                == engine.pool.allocator.freed_total > 0)

    def test_run_after_shutdown_rejected(self):
        model = tiny_model(n_layers=1)
        engine = ServeEngine(model, serve_config())
        engine.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            engine.run([Request(0, prompt=(1,), max_new_tokens=1)])


class TestBridgeLedger:
    def test_dispatch_combine_balanced_and_tagged(self):
        """With top_k = 2 every token row that crosses to an expert rank
        comes back as one row: the legs differ by exactly one gate
        weight per (token, expert) plan row."""
        model = tiny_model()
        requests = poisson_trace(4, rate=1.0, vocab=64, seed=0)
        engine = ServeEngine(model, serve_config())
        crossings = capture_bridge(engine)
        engine.run(requests)
        engine.shutdown()
        tags = engine.placement.world.ledger.bytes_by_tag()
        assert set(tags) == {"serve:dispatch_a2a", "serve:combine_a2a"}
        pairs = sum(plan.n_rows for plan, _ in crossings)
        assert tags["serve:dispatch_a2a"] == (tags["serve:combine_a2a"]
                                              + pairs * 8)
        assert tags["serve:combine_a2a"] > 0
        assert tags["serve:combine_a2a"] % (32 * 8) == 0

    def test_one_dispatch_plan_per_layer_crossing(self, monkeypatch):
        """Every attention rank's rows of one MoE layer share one
        dispatch plan: the bridge builds one per crossing, not one per
        attention rank."""
        from repro.serve import decode
        build = decode.build_dispatch_plan
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(decode, "build_dispatch_plan", counting)
        engine = ServeEngine(tiny_model(), serve_config(attention_ranks=3))
        crossings = capture_bridge(engine)
        engine.run(poisson_trace(6, rate=1.0, vocab=64, seed=0))
        engine.shutdown()
        assert len(crossings) > 0
        assert len(calls) == len(crossings)

    def test_latency_percentiles_from_virtual_clock(self):
        model = tiny_model(n_layers=1)
        requests = poisson_trace(5, rate=1.0, vocab=64, seed=0)
        r1, _, _ = run_engine(model, serve_config(), requests)
        r2, _, _ = run_engine(model, serve_config(), requests)
        assert r1.latency == r2.latency  # exact, CI-stable numbers
        assert r1.latency["count"] == 5.0
        assert r1.latency["p99"] >= r1.latency["p95"] >= \
            r1.latency["p50"] > 0

    def test_eight_request_run_pinned(self):
        """A seeded trace on the virtual clock: latencies, throughput,
        iterations and bridge bytes are exact numbers, pinned."""
        requests = poisson_trace(8, rate=0.8, vocab=64, seed=0)
        result, _, world = run_engine(
            tiny_model(), serve_config(max_batch_size=4), requests)
        tags = world.ledger.bytes_by_tag()
        assert result.n_iterations == 11
        # 180 (token, expert) pairs in 147 (token, expert rank) cells:
        # 147 rows x 256 B back, the same rows + 180 x 8 B gate weights
        # out.
        assert tags["serve:dispatch_a2a"] == 147 * 256 + 180 * 8 == 39072.0
        assert tags["serve:combine_a2a"] == 147 * 256 == 37632.0
        for key, want in (("p50", 5.467741834474337),
                          ("p99", 7.88044984698348),
                          ("mean", 5.715464628610511),
                          ("throughput_tokens", 1.9708029197080292)):
            assert result.latency[key] == pytest.approx(want, rel=1e-12)


class TestBridgeCrossesOnce:
    """A token crosses to each of its expert ranks once, and comes back
    as one partial row from its first expert rank plus one row per
    expert on a later rank — with bits equal to the reference combine."""

    def _probe(self, model, config, want):
        """A one-token prompt whose layer-0 expert ranks, in plan
        order, satisfy ``want``; with its lone run's first dispatch and
        combine records and its layer-0 combined row."""
        pe = model.config.n_experts // config.expert_ranks
        for token in range(model.config.vocab_size):
            engine = ServeEngine(model, config)
            crossings = capture_bridge(engine)
            engine.run([Request(0, prompt=(token,), max_new_tokens=1)])
            engine.shutdown()
            plan, combined = crossings[0]
            if want(expert_ranks_of(plan, 0, pe)):
                dispatch, combine = engine.placement.world.ledger.records[:2]
                assert dispatch.tag == "serve:dispatch_a2a"
                assert combine.tag == "serve:combine_a2a"
                return token, dispatch, combine, combined[0][0]
        pytest.fail("no token routes that way")

    def _check_batched(self, model, config, token, alone_row):
        """In a batch of three the probe's combined row is its lone
        run's, bit for bit; its prefill row is model(prompt)'s last."""
        requests = [Request(0, prompt=(token,), max_new_tokens=2),
                    Request(1, prompt=(3, 9, 27), max_new_tokens=2),
                    Request(2, prompt=(5, 11), max_new_tokens=2)]
        engine = ServeEngine(model, config)
        crossings = capture_bridge(engine)
        result = engine.run(requests)
        engine.shutdown()
        assert np.array_equal(crossings[0][1][0][0], alone_row)
        assert np.array_equal(result.results[0].logits[0],
                              model(np.asarray([[token]])).logits.data[0, -1])
        assert_bitwise(result, golden_decode(model, config, requests))

    def test_shared_expert_rank_crosses_once(self):
        model, config = tiny_model(), serve_config()
        token, dispatch, combine, row = self._probe(
            model, config, lambda ranks: ranks[0] == ranks[1])
        assert dispatch.total_bytes == (32 + 2) * 8   # 1 row, 2 weights
        assert combine.total_bytes == 32 * 8          # 1 partial row
        self._check_batched(model, config, token, row)

    def test_split_expert_ranks_combine_in_expert_order(self):
        model, config = tiny_model(), serve_config()
        token, dispatch, combine, row = self._probe(
            model, config, lambda ranks: ranks[0] != ranks[1])
        assert dispatch.total_bytes == (2 * 32 + 2) * 8
        assert combine.total_bytes == 2 * 32 * 8
        self._check_batched(model, config, token, row)

    @pytest.mark.parametrize("pattern", [(0, 0, 1), (0, 1, 1)])
    def test_later_expert_rank_returns_each_pair(self, pattern):
        """top_k = 3: only the first expert rank may pre-sum a token's
        terms — a later rank's two terms summed there would add
        ``a + (b + c)``, not the reference's ``(a + b) + c``."""
        model, config = tiny_model(top_k=3), serve_config()
        token, dispatch, combine, row = self._probe(
            model, config,
            lambda ranks: [r - ranks[0] for r in ranks] == list(pattern))
        assert dispatch.total_bytes == (2 * 32 + 3) * 8
        back = 2 if pattern == (0, 0, 1) else 3
        assert combine.total_bytes == back * 32 * 8
        self._check_batched(model, config, token, row)


class TestServeCase:
    def test_defaults_and_case_id(self):
        case = ServeCase()
        assert case.case_id == "serve-poisson-a2-x2-b3-n6-g2"
        assert ServeCase(crash_at_call=5).case_id.endswith("-cr5")

    @pytest.mark.parametrize("changes", [
        dict(attention_ranks=0),
        dict(experts=6, expert_ranks=4),   # not divisible
        dict(heads=6, gqa_ratio=4),        # not divisible
        dict(trace="uniform"),
        dict(n_requests=0),
        dict(max_batch_size=0),
    ])
    def test_validation_rejects(self, changes):
        with pytest.raises(ValueError):
            ServeCase(**changes)

    def test_execution_knob_is_gone(self):
        """One value was left, so the field went; an old call site gets
        the dataclass's own TypeError."""
        with pytest.raises(TypeError, match="execution"):
            serve_config(execution="threaded")
        with pytest.raises(TypeError, match="execution"):
            ServeCase(execution="threaded")

    def test_matrix_covers_required_legs(self):
        cases = serve_matrix()
        ids = [c.case_id for c in cases]
        assert len(ids) == len(set(ids))
        assert len(ids) == 8
        assert any("-cr" in i for i in ids)
        assert any("bursty" in i for i in ids)
        assert any(c.gqa_ratio > 2 for c in cases)
        assert any(c.top_k > 2 and "-k3" in c.case_id for c in cases)

    def test_run_serve_case_conformant(self):
        case = ServeCase(n_requests=3, layers=1)
        result = run_serve_case(case)
        assert result.ok, result.render_line()


def _artifacts(**overrides):
    """A minimal healthy ServeArtifacts for tamper tests."""
    from repro.serve.scheduler import RequestResult, ServeResult

    def res(gen, logits):
        return ServeResult(
            results={0: RequestResult(0, (1,), list(gen),
                                      [np.asarray(l) for l in logits],
                                      0.0, 1.0, 0)},
            n_iterations=2, n_crashes=0, n_evictions=0)

    base = dict(
        case=ServeCase(),
        requests=[Request(0, prompt=(1,), max_new_tokens=2)],
        result=res([3, 4], [[0.0, 1.0], [1.0, 0.0]]),
        golden=res([3, 4], [[0.0, 1.0], [1.0, 0.0]]),
        # One crossing: token 0 to experts 1 and 2, both on expert rank
        # 0 — one 32 x 8 B row each way, plus two 8 B gate weights out.
        ledger_by_tag={"serve:dispatch_a2a": 272.0,
                       "serve:combine_a2a": 256.0},
        ledger_counts={"all_to_all": 2},
        allocator={"in_use": 0, "allocated_total": 3,
                   "freed_total": 3},
        thread_stacks={},
        shutdown_error="",
        plans=[DispatchPlan(token_of_row=np.array([0, 0]),
                            slot_of_row=np.array([0, 1]),
                            expert_counts=np.array([0, 1, 1, 0, 0, 0, 0, 0]))],
    )
    base.update(overrides)
    return ServeArtifacts(**base)


def _served_artifacts(monkeypatch, case):
    """The ServeArtifacts of a real ``run_serve_case(case)``."""
    from repro.verify import engine
    captured = []
    evaluate = engine._evaluate

    def capture(case, artifacts, invariants):
        captured.append(artifacts)
        return evaluate(case, artifacts, invariants)

    monkeypatch.setattr(engine, "_evaluate", capture)
    assert run_serve_case(case).ok
    return captured[0]


class TestServeInvariantsCatchBugs:
    def test_healthy_artifacts_pass(self):
        art = _artifacts()
        assert not _check_serve_golden(art)
        assert not _check_serve_comm_balance(art)
        assert not _check_serve_leaks(art)

    def test_golden_catches_token_divergence(self):
        from repro.serve.scheduler import RequestResult, ServeResult
        bad = ServeResult(
            results={0: RequestResult(0, (1,), [3, 5],
                                      [np.asarray([0.0, 1.0]),
                                       np.asarray([1.0, 0.0])],
                                      0.0, 1.0, 0)},
            n_iterations=2, n_crashes=0, n_evictions=0)
        violations = _check_serve_golden(_artifacts(result=bad))
        assert violations and "request 0" in violations[0]

    def test_golden_catches_logit_bitflip(self):
        art = _artifacts()
        art.result.results[0].logits[1] = np.asarray([1.0, 1e-16])
        assert _check_serve_golden(art)

    def test_golden_catches_dropped_request(self):
        from repro.serve.scheduler import ServeResult
        empty = ServeResult(results={}, n_iterations=2, n_crashes=0,
                            n_evictions=0)
        violations = _check_serve_golden(_artifacts(result=empty))
        assert violations

    def test_comm_balance_catches_imbalance(self):
        art = _artifacts(ledger_by_tag={"serve:dispatch_a2a": 64.0,
                                        "serve:combine_a2a": 32.0})
        assert _check_serve_comm_balance(art)

    def test_comm_balance_catches_untagged_traffic(self):
        art = _artifacts(ledger_by_tag={"serve:dispatch_a2a": 272.0,
                                        "serve:combine_a2a": 256.0,
                                        "": 8.0})
        violations = _check_serve_comm_balance(art)
        assert violations and "non-serve tags" in violations[0]

    def test_comm_balance_catches_a_duplicate_row(self):
        """A bridge that re-sends one row on both legs still balances
        dispatch against combine; the plans say one row was enough."""
        art = _artifacts(ledger_by_tag={"serve:dispatch_a2a": 528.0,
                                        "serve:combine_a2a": 512.0})
        violations = _check_serve_comm_balance(art)
        assert len(violations) == 2
        assert "1 (token, expert rank) rows" in violations[0]
        assert "1 partial rows" in violations[1]

    def test_comm_balance_catches_a_missing_combine(self):
        art = _artifacts(ledger_counts={"all_to_all": 1})
        violations = _check_serve_comm_balance(art)
        assert violations and "1 bridge crossings" in violations[0]

    def test_comm_balance_fails_a_bridge_that_sends_every_pair(
            self, monkeypatch):
        """On a real run's plans: the exact bytes pass; one row per
        (token, expert) pair on both legs — the bridge that ships a
        token twice when its experts share an expert rank — fails, and
        so does one duplicated row."""
        art = _served_artifacts(monkeypatch, ServeCase(n_requests=3))
        assert not _check_serve_comm_balance(art)
        by_tag = art.ledger_by_tag
        pairs = sum(plan.n_rows for plan in art.plans)
        per_pair = float(pairs * 32 * 8)
        assert by_tag["serve:combine_a2a"] < per_pair
        art.ledger_by_tag = {"serve:dispatch_a2a": per_pair,
                             "serve:combine_a2a": per_pair}
        assert _check_serve_comm_balance(art)
        art.ledger_by_tag = {tag: b + 32 * 8 for tag, b in by_tag.items()}
        assert _check_serve_comm_balance(art)

    def test_leaks_catches_lost_swapped_kv(self):
        art = _artifacts(swap={"out": 4096, "in": 2048, "dropped": 1024})
        violations = _check_serve_leaks(art)
        assert violations and "swapped out 4096" in violations[0]
        art.swap["dropped"] = 2048
        assert not _check_serve_leaks(art)

    def test_rows_once_catches_a_replayed_row(self, monkeypatch):
        """On a real run's plans the rows add up; a crossing that also
        carried one replayed row does not."""
        art = _served_artifacts(monkeypatch, ServeCase(n_requests=3))
        assert not _check_serve_rows_once(art)
        plan = art.plans[0]
        extra = plan.token_of_row.max() + 1
        art.plans[0] = DispatchPlan(
            token_of_row=np.append(plan.token_of_row, extra),
            slot_of_row=np.append(plan.slot_of_row, 0),
            expert_counts=plan.expert_counts + np.eye(
                plan.expert_counts.shape[0], dtype=np.int64)[-1])
        violations = _check_serve_rows_once(art)
        assert violations and "rows crossed the bridge" in violations[0]

    def test_leaks_catches_held_blocks(self):
        art = _artifacts(allocator={"in_use": 1, "allocated_total": 3,
                                    "freed_total": 2})
        assert _check_serve_leaks(art)

    def test_leaks_catches_open_spans(self):
        assert _check_serve_leaks(_artifacts(thread_stacks={123: 2}))

    def test_leaks_catches_shutdown_error(self):
        assert _check_serve_leaks(
            _artifacts(shutdown_error="KVLeakError: boom"))

    def test_reference_catches_a_bug_golden_shares(self, monkeypatch):
        """Caching every key rotated one position too far changes the
        attention scores of the batched run and of the golden alike:
        serve_golden passes, serve_reference — the model run outside
        the engine — fails."""
        from repro.tensor import Tensor, ops
        put = PagedKVCache.put

        def shifted_put(self, layer, k, v, pos):
            k = ops.rope_rotate(Tensor(k), positions=np.ones(k.shape[0]))
            return put(self, layer, k.data, v, pos)

        monkeypatch.setattr(PagedKVCache, "put", shifted_put)
        result = run_serve_case(ServeCase(n_requests=3, layers=1))
        status = {o.name: o.status for o in result.outcomes}
        assert status["serve_golden"] == "pass"
        assert status["serve_reference"] == "fail"


class TestTelemetrySoundness:
    """The satellite fix: verify's telemetry invariants must fail
    loudly — naming the engine — when an EP FFN engine stops exposing
    dispatch telemetry, instead of passing vacuously."""

    def _case(self):
        from repro.verify import VerifyCase
        return VerifyCase(ranks=2, layers=1, hidden=16, heads=4,
                          gqa_ratio=2, ffn_hidden=16, experts=2,
                          top_k=1, vocab=32, batch=1, seq=4, steps=1)

    def test_normal_ep_case_reports_telemetry(self):
        from repro.verify import run_case
        result = run_case(self._case())
        by_name = {o.name: o.status for o in result.outcomes}
        assert by_name["token_conservation"] == "pass"
        assert by_name["router_mass"] == "pass"

    def test_missing_telemetry_fails_loudly(self, monkeypatch):
        from repro.parallel import ep_ffn
        from repro.verify import run_case

        monkeypatch.setattr(ep_ffn.EPFFNEngine, "record_telemetry",
                            lambda self, *args, **kwargs: None)
        result = run_case(self._case())
        by_name = {o.name: o for o in result.outcomes}
        for name in ("token_conservation", "router_mass"):
            assert by_name[name].status == "fail"
            assert "telemetry missing" in by_name[name].detail
            assert "EPFFNEngine" in by_name[name].detail


class TestDagExecutorRetain:
    def test_retain_releases_intermediates(self):
        """Forward-only mode drops every anchor after its last reader;
        only inputs and the retained set survive in the result env."""
        from repro.serve.decode import (DecodeState,
                                        build_decode_bindings,
                                        decode_program)
        from repro.serve.placement import DisaggregatedPlacement
        from repro.runtime.dag_executor import DagExecutor
        from repro.tensor import ops

        model = tiny_model(n_layers=1)
        config = serve_config()
        placement = DisaggregatedPlacement(model.config.n_experts,
                                           config)
        state = DecodeState(model=model, placement=placement)
        pool = KVPool(1, 4, 4, n_blocks=16, block_size=4)
        from repro.serve.decode import ActiveRequest
        req = Request(0, prompt=(1, 2, 3), max_new_tokens=1)
        item = ActiveRequest(req, PagedKVCache(pool))
        item.cache.ensure_capacity(3)
        state.batch = [[item], []]
        executor = DagExecutor(
            decode_program(), build_decode_bindings(state),
            placement.world.group(placement.attn_ranks),
            inputs=("hidden",))
        hidden = [ops.embedding(model.embedding, layout.ids).data
                  for layout in state.layouts]
        result = executor.run({"hidden": hidden},
                              retain=("ffn_residual",))
        assert "ffn_residual" in result.env
        assert "hidden" in result.env  # inputs always survive
        assert "qkv" not in result.env
        assert "moe_experts" not in result.env
        item.cache.release()
        pool.allocator.assert_no_leaks()
