"""The serve workload: timed pass and per-layer pass.

One operation is one request; one timing sample is one
``ServeEngine.run`` of the whole trace on a fresh engine (closed loop,
one client: the trace's arrivals are virtual-clock times, the run is
served as fast as the host allows).
"""

from __future__ import annotations

import gc
import time
from typing import Any, Dict, List, Tuple

import numpy as np

from harness import (LOW, NO_SPANS, SETUP_REPEATS, Report, Spans,
                     import_seconds, low, peak_rss_mb, percentile, sample, sym,
                     tail_percentile)
from workloads import ServeSpec

from repro.comm import World
from repro.model import MoETransformer
from repro.serve import Request, ServeEngine, golden_decode

IMPORTS = ("numpy", "repro.comm", "repro.model", "repro.serve")


def build_model(spec: ServeSpec, seed: int) -> MoETransformer:
    # float64 like the KV pool, the configuration the serve tests pin.
    return MoETransformer(spec.model_config(), seed=seed, dtype=np.float64)


def serve_once(spec: ServeSpec, model: MoETransformer,
               requests: List[Request],
               spans: Spans = NO_SPANS,
               op_id: int = 0) -> Tuple[Any, World, float]:
    """One trace on a fresh engine; returns (result, world, run wall)."""
    with spans.span("run_op", op_id):
        with spans.span("engine_init", op_id):
            world = World(spec.serve_config().world_size)
            engine = ServeEngine(model, spec.serve_config(), world=world)
        try:
            with spans.span("run", op_id):
                t0 = time.perf_counter()
                result = engine.run(requests)
                wall = time.perf_counter() - t0
        finally:
            with spans.span("shutdown", op_id):
                engine.shutdown()
    return result, world, wall


def count_requests(result: Any, golden: Any, requests: List[Request],
                   report: Report) -> None:
    """Every request is an operation; it fails if it did not complete
    or its tokens differ from the unbatched golden decode."""
    for request in requests:
        got = result.results.get(request.request_id)
        want = golden.results[request.request_id].generated
        report.operation(
            got is not None and got.generated == want,
            f"request {request.request_id}: "
            f"{'missing' if got is None else 'tokens != golden_decode'}")


def generated_tokens(requests: List[Request]) -> int:
    return sum(r.max_new_tokens for r in requests)


def end_to_end(spec: ServeSpec, seed: int, seconds: float,
               report: Report) -> None:
    requests = spec.requests(seed)
    tokens = generated_tokens(requests)

    model = None
    build_times = []
    for _ in range(SETUP_REPEATS):
        model = None
        gc.collect()
        t0 = time.perf_counter()
        model = build_model(spec, seed)
        for _ in range(spec.warmup):
            warm, _, _ = serve_once(spec, model, requests)
        build_times.append(time.perf_counter() - t0)
    golden = golden_decode(model, spec.serve_config(), requests)
    count_requests(warm, golden, requests, report)

    walls: List[float] = []
    fixed: Dict[str, float] = {}

    def op(i: int) -> None:
        result, world, wall = serve_once(spec, model, requests)
        walls.append(wall)
        count_requests(result, golden, requests, report)
        if i == spec.fixed_ops - 1:
            fixed.update(rss=peak_rss_mb(),
                         bytes=world.ledger.total_bytes())
            latency_metrics(result, report)

    runs = sample(op, seconds, min_ops=spec.fixed_ops)

    report.set("throughput_per_s", tokens / low(walls),
               f"generated tokens/s; q{LOW} of n={len(walls)} runs of "
               f"{len(requests)} requests")
    report.set_timing("op_cpu_ms", runs["cpu"], 1e3)
    report.set("comm_bytes_per_token", fixed["bytes"] / tokens,
               "ledger bytes of one run per generated token")
    report.set("peak_rss_mb", fixed["rss"],
               f"after the first {spec.fixed_ops} timed runs")
    report.set("setup_s",
               import_seconds(IMPORTS) + percentile(build_times, 50),
               f"imports + model + {spec.warmup} warm-up run; "
               f"median of {SETUP_REPEATS}")
    report.set_timing("serve.run_s_p50", walls, 1.0, "p50")


def latency_metrics(result: Any, report: Report) -> None:
    """Request latency on the engine's virtual clock: exact, and a
    property of the scheduling policy, not of the host."""
    latencies = [r.latency for r in result.results.values()]
    tail_p = tail_percentile(len(latencies))
    report.set("serve.latency_p50_vs", percentile(latencies, 50),
               f"p50 of n={len(latencies)} requests")
    report.set("serve.latency_tail_vs", percentile(latencies, tail_p),
               f"p{tail_p} of n={len(latencies)} requests")


def per_layer(spec: ServeSpec, seed: int, seconds: float, report: Report,
              spans: Spans) -> Dict[str, Any]:
    requests = spec.requests(seed)
    model = build_model(spec, seed)
    config = spec.serve_config()
    serve_once(spec, model, requests)  # warm-up

    t0 = time.perf_counter()
    golden = golden_decode(model, config, requests)
    golden_s = time.perf_counter() - t0

    walls: List[float] = []
    last: Dict[str, Any] = {}

    def op(i: int) -> None:
        result, world, wall = serve_once(spec, model, requests, spans, i)
        walls.append(wall)
        count_requests(result, golden, requests, report)
        last.update(result=result, world=world)

    sample(op, 0.6 * seconds, min_ops=spec.fixed_ops)
    result, ledger = last["result"], last["world"].ledger
    fast = low(walls)

    report.set_timing("serve.run_s_p50", walls, 1.0, "p50")
    report.set("serve.iter_ms", fast * 1e3 / result.n_iterations,
               f"q{LOW} run of n={len(walls)} / iterations")
    report.set("serve.iterations", result.n_iterations)
    report.set("serve.evictions", result.n_evictions)
    report.set("serve.golden_decode_s", golden_s, "n=1")
    report.set("serve.batching_speedup_x", golden_s / fast,
               f"golden_decode wall / q{LOW} run wall")
    latency_metrics(result, report)

    def bridge() -> None:
        dispatch_tag = sym("repro.serve", "DISPATCH_TAG")
        combine_tag = sym("repro.serve", "COMBINE_TAG")
        by_tag = ledger.bytes_by_tag()
        dispatched = by_tag[dispatch_tag]
        report.set("serve.bridge_bytes", dispatched + by_tag[combine_tag])
        # Every row an attention rank computes crosses the bridge top_k
        # times per layer; rows beyond prompt + generated - 1 per
        # request were computed twice, for an evicted request's replay.
        mc = spec.model_config()
        row_bytes = (mc.n_layers * mc.top_k * mc.hidden_size
                     * np.dtype(np.float64).itemsize)
        useful = sum(r.prompt_len + r.max_new_tokens - 1 for r in requests)
        report.set("serve.replayed_token_frac",
                   1.0 - useful / (dispatched / row_bytes),
                   "1 - useful rows / rows dispatched over the bridge")

    def kv_cache() -> None:
        pool_cls = sym("repro.serve", "KVPool")
        cache_cls = sym("repro.serve", "PagedKVCache")
        mc = spec.model_config()
        pool = pool_cls(n_layers=mc.n_layers, n_kv_heads=mc.n_kv_heads,
                        head_dim=mc.head_dim, n_blocks=config.kv_blocks,
                        block_size=config.kv_block_size, dtype=np.float64)
        cache = cache_cls(pool)
        # A decode step late in a prefill-heavy request: one new row
        # against a 64-token history.
        history = 64
        cache.ensure_capacity(history + 1)
        rows = np.random.default_rng([seed, 7]).standard_normal(
            (history, mc.n_kv_heads, mc.head_dim))
        cache.put(0, rows, rows, 0)
        cache.advance(history)
        put = sample(lambda i: cache.put(0, rows[:1], rows[:1], history),
                     0.01 * seconds, min_ops=50)["wall"]
        gather = sample(lambda i: cache.gather(0, history + 1),
                        0.01 * seconds, min_ops=50)["wall"]
        cache.release()
        report.set_timing("serve.kv_put_us", put, 1e6)
        report.set_timing("serve.kv_gather_us", gather, 1e6)

    report.section(["serve.bridge_bytes", "serve.replayed_token_frac"],
                   bridge)
    report.section(["serve.kv_put_us", "serve.kv_gather_us"], kv_cache)
    return {}
