"""Continuous-batching MoE serving engine.

Iteration-level scheduling in the vLLM/Orca style, on top of this
repo's own subsystems: the per-layer decode program runs through the
:class:`~repro.runtime.dag_executor.DagExecutor` (forward-only
``retain=`` mode), KV lives in the paged pool of
:mod:`repro.serve.kv_cache`, MoE crosses the disaggregated
attention/expert bridge of :mod:`repro.serve.placement`, request
latencies land in the :class:`~repro.obs.Tracer` as closed spans on the
injected clock, and a mid-stream :class:`~repro.ft.RankCrash` re-queues
the in-flight requests instead of failing the run.

When the pool runs out, eviction swaps the victim's committed K/V out
to host arrays and re-queues it; re-admission puts the copy back and
the request continues from the token where it stopped, so none of its
rows is computed — or crosses the bridge — twice.

Determinism contract: row-local ops run over each attention rank's
whole batch, while GEMMs, KV and attention never cross a request
(:mod:`repro.serve.decode`); greedy decode is a pure function of the
token prefix, a swapped-in KV copy is exact, and crash recovery replays
a request from scratch — so every admitted request's generated tokens
*and* per-step logits are bitwise-identical to an unbatched sequential
run of the same engine (the ``serve_golden`` invariant).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..comm import World
from ..core.config import ServeConfig
from ..ft import RankCrash
from ..runtime.dag_executor import DagExecutor
from ..tensor import Tensor, no_grad, ops
from .arrivals import Request, VirtualClock, latency_summary
from .decode import (ActiveRequest, DecodeState, build_decode_bindings,
                     decode_program, segment_linear)
from .kv_cache import KVLeakError, KVPool, OutOfKVBlocks, PagedKVCache
from .placement import DisaggregatedPlacement

__all__ = ["RequestResult", "ServeResult", "ServeEngine", "golden_decode"]

#: A swapped-out request's committed ``(k, v)`` of every layer, on host.
HostKV = List[Tuple[np.ndarray, np.ndarray]]


def _nbytes(kv: HostKV) -> int:
    return sum(k.nbytes + v.nbytes for k, v in kv)


@dataclass
class RequestResult:
    """One completed request's output + timing."""

    request_id: int
    prompt: tuple
    generated: List[int]
    logits: List[np.ndarray]
    arrival_time: float
    finish_time: float
    restarts: int

    @property
    def latency(self) -> float:
        return self.finish_time - self.arrival_time


@dataclass
class ServeResult:
    """Everything one engine run produced."""

    results: Dict[int, RequestResult]
    n_iterations: int
    n_crashes: int
    n_evictions: int
    latency: Dict[str, float] = field(default_factory=dict)
    #: K/V bytes evictions copied out of the pool plus those copied back
    #: in: the attention rank's host link, not the bridge, so not in the
    #: collective ledger.
    swapped_kv_bytes: int = 0


class ServeEngine:
    """Admits, batches, decodes, and completes inference requests."""

    def __init__(self, model, config: ServeConfig,
                 world: Optional[World] = None,
                 tracer: Optional[Any] = None,
                 clock: Optional[VirtualClock] = None):
        self.model = model
        self.config = config
        self.clock = clock if clock is not None else VirtualClock()
        self.tracer = tracer
        self.placement = DisaggregatedPlacement(
            model.config.n_experts, config, world=world)
        if tracer is not None:
            self.placement.world.attach_tracer(tracer)
        attn = model.blocks[0].attn
        self.pool = KVPool(
            n_layers=model.config.n_layers,
            n_kv_heads=attn.n_kv_heads,
            head_dim=attn.head_dim,
            n_blocks=config.kv_blocks,
            block_size=config.kv_block_size,
            dtype=attn.qkv_proj.weight.dtype,
        )
        self.state = DecodeState(model=model, placement=self.placement)
        #: All in-flight requests, in admission order.
        self.active: List[ActiveRequest] = []
        self._program = decode_program()
        self._executor = DagExecutor(
            self._program, build_decode_bindings(self.state),
            self.placement.bridge.world.group(self.placement.attn_ranks))
        #: Requests re-queued mid-stream, by id: the request's state and
        #: its swapped-out per-layer ``(k, v)`` host copies (none after
        #: a crash, which replays it from scratch).
        self._parked: Dict[int, Tuple[ActiveRequest, HostKV]] = {}
        self.n_iterations = 0
        self.n_crashes = 0
        self.n_evictions = 0
        #: Swap accounting: every byte swapped out is swapped back in or
        #: dropped by a crash (the leak contract).
        self.swapped_out_bytes = 0
        self.swapped_in_bytes = 0
        self.swap_dropped_bytes = 0
        self._shutdown = False

    # -- admission / eviction -------------------------------------------

    def _admit(self, waiting: Deque[Request]) -> None:
        while waiting and len(self.active) < self.config.max_batch_size:
            req = waiting[0]
            if req.arrival_time > self.clock():
                break
            worst = req.prompt_len + req.max_new_tokens
            if -(-worst // self.config.kv_block_size) > \
                    self.pool.allocator.n_blocks:
                raise OutOfKVBlocks(
                    f"request {req.request_id} needs more KV blocks "
                    f"than the pool holds ({self.pool.allocator.n_blocks})"
                )
            item, kv = self._parked.get(req.request_id) or (
                ActiveRequest(req, PagedKVCache(self.pool)), [])
            try:
                item.cache.ensure_capacity(item.pos + item.cur_len)
            except OutOfKVBlocks:
                break  # defer until completions free blocks
            waiting.popleft()
            self._parked.pop(req.request_id, None)
            for layer, (k, v) in enumerate(kv):
                item.cache.put(layer, k, v, 0)
            item.cache.advance(item.pos)
            self.swapped_in_bytes += _nbytes(kv)
            self.active.append(item)

    def _park(self, item: ActiveRequest, waiting: Deque[Request],
              kv: HostKV) -> None:
        """Re-queue ``item`` at the head of the queue with ``kv``."""
        self._parked[item.request.request_id] = (item, kv)
        waiting.appendleft(item.request)

    def _evict(self, item: ActiveRequest,
               waiting: Deque[Request]) -> None:
        """Swap a request out to host, freeing its blocks.

        Its committed K/V of every layer is copied out of the pool and
        its state (tokens, position, logits) is kept; on re-admission
        the copy goes back at positions ``0..pos`` and decoding resumes
        where it stopped.  The copy is exact, so eviction never perturbs
        outputs — only latency.
        """
        kv = [item.cache.gather(layer, item.pos)
              for layer in range(self.pool.n_layers)]
        self.swapped_out_bytes += _nbytes(kv)
        item.cache.release()
        self.active.remove(item)
        self._park(item, waiting, kv)
        self.n_evictions += 1

    def _grow_caches(self, waiting: Deque[Request]) -> None:
        """Reserve this iteration's KV before any compute; evict the
        newest-admitted victims when the pool is exhausted."""
        for item in list(self.active):
            if item not in self.active:  # evicted by a prior pass
                continue
            while True:
                try:
                    item.cache.ensure_capacity(item.cur_len)
                    break
                except OutOfKVBlocks:
                    victims = [v for v in self.active if v is not item]
                    if not victims:
                        self._evict(item, waiting)
                        break
                    self._evict(victims[-1], waiting)

    # -- the iteration ---------------------------------------------------

    def _iteration_cost(self) -> float:
        c = self.config
        prefill_tokens = sum(it.cur_len for it in self.active
                             if it.is_prefill)
        decode_requests = sum(1 for it in self.active
                              if not it.is_prefill)
        return (c.iteration_cost + c.prefill_token_cost * prefill_tokens
                + c.decode_token_cost * decode_requests)

    def _forward(self) -> None:
        """One mixed prefill+decode iteration over the active batch —
        inference, so no op records a tape node."""
        model = self.model
        batch: List[List[ActiveRequest]] = [
            [] for _ in self.placement.attn_ranks]
        for item in self.active:
            batch[self.placement.rank_of_request(
                item.request.request_id)].append(item)
        self.state.batch = batch
        with no_grad():
            hidden = [ops.embedding(model.embedding, layout.ids).data
                      for layout in self.state.layouts]
            for layer in range(model.config.n_layers):
                self.state.layer = layer
                result = self._executor.run({"hidden": hidden},
                                            tracer=self.tracer,
                                            retain=("ffn_residual",))
                hidden = result.env["ffn_residual"]
            # lm_head keeps every row of a prefill: its last row is
            # then bitwise the last row of a whole-prompt forward.
            for h, layout, items in zip(hidden, self.state.layouts, batch):
                logits = segment_linear(
                    model.lm_head, model.final_norm(Tensor(h)).data,
                    layout.bounds)
                for item, (_, end) in zip(items, layout.bounds):
                    row = logits[end - 1].copy()
                    item.commit(int(np.argmax(row)), row)

    def _requeue_all(self, waiting: Deque[Request]) -> None:
        """Crash recovery: every in-flight and swapped-out request
        replays from scratch — the in-flight ones go back at the head of
        the queue (admission order preserved) — and the swapped-out K/V
        is dropped."""
        for item, kv in list(self._parked.values()):
            self.swap_dropped_bytes += _nbytes(kv)
            item.reset()
            self._parked[item.request.request_id] = (item, [])
        for item in reversed(self.active):
            item.reset()
            self._park(item, waiting, [])
        self.active.clear()

    def _record_request_span(self, item: ActiveRequest) -> None:
        if self.tracer is None:
            return
        self.tracer.record_span(
            f"request-{item.request.request_id}",
            start=item.request.arrival_time,
            end=self.clock(),
            cat="serve.request",
            pid="serve",
            new_tokens=len(item.generated),
            prompt_tokens=item.request.prompt_len,
            restarts=item.restarts,
        )

    def run(self, requests: Sequence[Request]) -> ServeResult:
        """Serve a whole trace to completion."""
        if self._shutdown:
            raise RuntimeError("engine already shut down")
        ids = [r.request_id for r in requests]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate request ids in trace")
        waiting: Deque[Request] = deque(
            sorted(requests, key=lambda r: (r.arrival_time,
                                            r.request_id)))
        results: Dict[int, RequestResult] = {}
        while waiting or self.active:
            if not self.active and waiting:
                self.clock.advance_to(waiting[0].arrival_time)
            self._admit(waiting)
            if not self.active:
                raise RuntimeError(
                    "no request admissible despite an empty batch"
                )
            self._grow_caches(waiting)
            if not self.active:
                continue
            t0 = self.clock()
            try:
                self._forward()
            except RankCrash:
                self.n_crashes += 1
                self._requeue_all(waiting)
                self.clock.advance(self.config.iteration_cost)
                continue
            self.clock.advance(self._iteration_cost())
            self.n_iterations += 1
            if self.tracer is not None:
                self.tracer.record_span(
                    f"iteration-{self.n_iterations}", start=t0,
                    end=self.clock(), cat="serve.iteration",
                    pid="serve", batch=len(self.active))
            for item in list(self.active):
                if item.done:
                    item.cache.release()
                    self.active.remove(item)
                    self._record_request_span(item)
                    results[item.request.request_id] = RequestResult(
                        request_id=item.request.request_id,
                        prompt=item.request.prompt,
                        generated=list(item.generated),
                        logits=list(item.logits_log),
                        arrival_time=item.request.arrival_time,
                        finish_time=self.clock(),
                        restarts=item.restarts,
                    )
        latency = (latency_summary(self.tracer)
                   if self.tracer is not None else {})
        return ServeResult(results=results,
                           n_iterations=self.n_iterations,
                           n_crashes=self.n_crashes,
                           n_evictions=self.n_evictions,
                           latency=latency,
                           swapped_kv_bytes=(self.swapped_out_bytes
                                             + self.swapped_in_bytes))

    # -- teardown ---------------------------------------------------------

    def shutdown(self) -> None:
        """Release resources and enforce the leak contract: every KV
        block freed, no swapped-out K/V left on host, every tracer span
        stack empty."""
        if self._shutdown:
            return
        self._shutdown = True
        for item in self.active:
            item.cache.release()
        self.active.clear()
        self.pool.allocator.assert_no_leaks()
        held = [rid for rid, (_, kv) in self._parked.items() if kv]
        if held:
            raise KVLeakError(
                f"swapped-out K/V of requests {sorted(held)} still on "
                f"host at shutdown"
            )
        if self.tracer is not None:
            open_stacks = {tid: depth for tid, depth
                           in self.tracer.thread_stacks().items()
                           if depth}
            if open_stacks:
                raise KVLeakError(
                    f"tracer span stacks still open at shutdown: "
                    f"{open_stacks}"
                )


def golden_decode(model, config: ServeConfig,
                  requests: Sequence[Request],
                  tracer: Optional[Any] = None) -> ServeResult:
    """The unbatched sequential reference: the *same* engine code with
    ``max_batch_size=1`` and no faults — each request runs alone, so
    its output is the per-request ground truth the continuous batcher
    must match bitwise."""
    golden_cfg = replace(config, max_batch_size=1)
    engine = ServeEngine(model, golden_cfg, tracer=tracer)
    try:
        return engine.run(requests)
    finally:
        engine.shutdown()
