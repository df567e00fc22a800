"""Verification cases: one (model, plan, precision, tiling) tuple.

A :class:`VerifyCase` pins everything a differential run needs — model
dimensions, rank count, pipeline and data-parallel degrees, parallel
strategies, EP dispatch mode, comm precision, tile width, step
count, and the data seed — as a frozen, hashable value.  The
conformance engine (:mod:`repro.verify.engine`) turns a case into
several runs (the case itself, its single-rank golden reference, and
an untiled twin for tiled cases) and the fuzzer
(:mod:`repro.verify.fuzz`) samples and shrinks cases, which is why
immutability and cheap equality matter.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from ..core.config import ModelConfig, ParallelConfig, TrainConfig

__all__ = ["VerifyCase", "ServeCase", "smoke_matrix", "elastic_matrix",
           "serve_matrix", "plan_conformance_cases"]

#: EP dispatch × comm precision of the CI smoke grid.
SMOKE_DISPATCHES = ("a2a", "ag_rs")
SMOKE_PRECISIONS = ("fp32", "fp8")


@dataclass(frozen=True)
class VerifyCase:
    """One fully-specified differential verification run."""

    ranks: int = 4
    layers: int = 2
    hidden: int = 32
    heads: int = 8
    gqa_ratio: int = 2
    ffn_hidden: int = 48
    experts: int = 8
    top_k: int = 2
    vocab: int = 64
    batch: int = 2
    seq: int = 16
    attention: str = "sp"
    ffn: str = "ep"
    ep_dispatch: str = "a2a"
    precision: str = "fp32"
    #: §4.2 tile-granular execution: token-chunk width for fused-group
    #: tile decomposition (None = untiled).  Must divide the per-rank
    #: sequence shard ``seq // ranks``.
    tile_tokens: Optional[int] = None
    steps: int = 2
    seed: int = 0
    #: Model (parameter and activation-stream) dtype: "float64" keeps
    #: the near-machine-precision golden bands; "float32" is the
    #: production default of :class:`~repro.model.MoETransformer`.
    dtype: str = "float64"
    #: Cluster resize schedule: ``((step, new_ranks[, new_dp]), ...)``
    #: — at each listed step the injected
    #: :class:`~repro.ft.faults.ResizeEvent` re-forms the world at
    #: ``new_ranks`` per node and ``new_dp`` replicas (default: the
    #: case's ``dp``) before the step trains.  Empty = fixed-size run.
    #: When set, the engine additionally runs the case through an
    #: :class:`~repro.elastic.runner.ElasticRunner` and the
    #: ``elastic_resume`` invariant compares trajectories.
    resize: Tuple[Tuple[int, ...], ...] = ()
    #: Pipeline stages and data-parallel replicas: the world is
    #: ``ranks · pp · dp`` ranks, ``ranks`` per node.  Each replica's
    #: share of the batch runs as ``pp`` micro-batches.
    pp: int = 1
    dp: int = 1

    def __post_init__(self):
        for name in ("ranks", "pp", "dp"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be >= 1, got {getattr(self, name)}")
        if self.batch % (self.pp * self.dp) != 0:
            raise ValueError(
                f"batch={self.batch} not divisible by pp·dp="
                f"{self.pp * self.dp}"
            )
        if self.layers < self.pp:
            raise ValueError(
                f"layers={self.layers} < pp={self.pp} stages")
        if self.heads % self.ranks != 0:
            raise ValueError(
                f"heads={self.heads} not divisible by ranks={self.ranks}"
            )
        if self.heads % self.gqa_ratio != 0:
            raise ValueError(
                f"heads={self.heads} not divisible by "
                f"gqa_ratio={self.gqa_ratio}"
            )
        if (self.heads // self.gqa_ratio) % self.ranks != 0:
            raise ValueError(
                f"kv heads={self.heads // self.gqa_ratio} not divisible "
                f"by ranks={self.ranks}"
            )
        if self.hidden % self.heads != 0:
            raise ValueError(
                f"hidden={self.hidden} not divisible by "
                f"heads={self.heads}"
            )
        if self.ffn == "ep" and self.experts % self.ranks != 0:
            raise ValueError(
                f"experts={self.experts} not divisible by "
                f"ranks={self.ranks}"
            )
        if self.top_k > self.experts:
            raise ValueError(
                f"top_k={self.top_k} > experts={self.experts}"
            )
        if self.seq % self.ranks != 0:
            raise ValueError(
                f"seq={self.seq} not divisible by ranks={self.ranks}"
            )
        if self.ep_dispatch not in ("a2a", "ag_rs", "adaptive"):
            raise ValueError(f"unknown ep_dispatch {self.ep_dispatch!r}")
        if self.precision not in ("fp32", "bf16", "fp8"):
            raise ValueError(f"unknown precision {self.precision!r}")
        if self.tile_tokens is not None:
            local = self.seq // self.ranks
            if self.tile_tokens < 1 or local % self.tile_tokens != 0:
                raise ValueError(
                    f"tile_tokens={self.tile_tokens} must divide the "
                    f"per-rank shard seq//ranks={local}"
                )
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"unknown dtype {self.dtype!r}")
        if self.resize:
            if self.pp != 1:
                raise ValueError("resize requires pp == 1")
            normalized = []
            last_step = 0
            for entry in self.resize:
                try:
                    step, new_ranks, *new_dp = (int(x) for x in entry)
                    if len(new_dp) > 1:
                        raise ValueError
                except (TypeError, ValueError):
                    raise ValueError(
                        f"resize entries must be (step, new_ranks"
                        f"[, new_dp]), got {entry!r}"
                    ) from None
                if not 1 <= step < self.steps:
                    raise ValueError(
                        f"resize step {step} outside [1, "
                        f"{self.steps - 1}]"
                    )
                if step <= last_step:
                    raise ValueError(
                        "resize steps must be strictly increasing"
                    )
                last_step = step
                # The target world must satisfy every divisibility
                # constraint this case imposes at its own rank count.
                dp = new_dp[0] if new_dp else self.dp
                try:
                    dataclasses.replace(self, ranks=new_ranks, dp=dp,
                                        resize=())
                except ValueError as exc:
                    raise ValueError(
                        f"resize target ranks={new_ranks} dp={dp} "
                        f"invalid: {exc}"
                    ) from None
                normalized.append((step, new_ranks, *new_dp))
            object.__setattr__(self, "resize", tuple(normalized))

    @property
    def case_id(self) -> str:
        """Compact stable identifier used in the conformance matrix."""
        parts = [
            self.attention, self.ffn, self.ep_dispatch, self.precision,
            f"r{self.ranks}", f"l{self.layers}", f"b{self.batch}",
            f"s{self.seq}", f"e{self.experts}", f"k{self.top_k}",
            f"st{self.steps}",
        ]
        if self.pp != 1:
            parts.append(f"pp{self.pp}")
        if self.dp != 1:
            parts.append(f"dp{self.dp}")
        if self.tile_tokens is not None:
            parts.append(f"tt{self.tile_tokens}")
        if self.dtype != "float64":
            parts.append(self.dtype.replace("float", "f"))
        for step, *world in self.resize:
            parts.append(f"rz{step}x" + "d".join(map(str, world)))
        if self.seed != 0:
            parts.append(f"sd{self.seed}")
        return "-".join(parts)

    # -- config builders -----------------------------------------------------

    def model_config(self) -> ModelConfig:
        """The case's model dimensions as a ModelConfig."""
        return ModelConfig(
            f"verify-{self.case_id}", self.layers, self.hidden,
            self.heads, self.gqa_ratio, self.ffn_hidden, self.experts,
            self.top_k, vocab_size=self.vocab, seq_len=self.seq,
        )

    def parallel_config(self) -> ParallelConfig:
        """The case's parallel plan as a ParallelConfig."""
        return ParallelConfig(
            self.ranks, attention=self.attention, ffn=self.ffn,
            ep_dispatch=self.ep_dispatch, pipeline_size=self.pp,
            data_parallel_size=self.dp,
        )

    def resize_schedule(self) -> List[Tuple[int, int, int]]:
        """``(step, new_ranks, new_dp)`` for each resize."""
        return [(step, ranks, dp[0] if dp else self.dp)
                for step, ranks, *dp in self.resize]

    @property
    def micro_batch(self) -> int:
        """Rows per micro-batch: ``pp`` micro-batches per replica."""
        return self.batch // (self.pp * self.dp)

    def train_config(self) -> TrainConfig:
        """The case's training schedule as a TrainConfig."""
        return TrainConfig(
            global_batch_size=self.batch,
            micro_batch_size=self.micro_batch,
            seq_len=self.seq, learning_rate=1e-2, weight_decay=0.0,
            aux_loss_coeff=0.01, precision=self.precision,
            tile_tokens=self.tile_tokens,
        )

    def replace(self, **changes) -> "VerifyCase":
        """A copy with fields replaced (validation re-runs)."""
        return dataclasses.replace(self, **changes)

    def untiled_twin(self) -> "VerifyCase":
        """The same case with fused groups whole (``tile_bitwise``)."""
        return self.replace(tile_tokens=None)


#: Token-chunk width of the tiled smoke cases (seq=16 / ranks=4 → the
#: per-rank shard is 4 tokens; width 2 gives two tiles per A2A group).
SMOKE_TILE_TOKENS = 2


def plan_conformance_cases(attention: str = "sp", ffn: str = "ep",
                           ep_dispatch: str = "a2a",
                           precision: str = "bf16", pp: int = 1,
                           dp: int = 1,
                           seed: int = 0) -> List[VerifyCase]:
    """Map a winning plan onto the small conformance shapes.

    The plan-space optimizer (:func:`repro.core.planner.plan_cluster`)
    emits a strategy tuple for a production-scale model; this projects
    that tuple onto the default shapes so ``repro plan --verify`` can
    prove the chosen configuration is numerically live.  A pipeline or
    data-parallel degree above 1 stays above 1 (as 2), and the node
    shrinks from 4 to 2 ranks when both do, so the world keeps at most
    8 ranks.  ``adaptive`` dispatch resolves to
    the concrete modes it can pick between.
    """
    pp, dp = min(pp, 2), min(dp, 2)
    ranks = min(4, 8 // (pp * dp))
    dispatches = (("a2a", "ag_rs") if ep_dispatch == "adaptive"
                  else (ep_dispatch,))
    return [
        VerifyCase(ranks=ranks, attention=attention, ffn=ffn,
                   ep_dispatch=dispatch, precision=precision, pp=pp,
                   dp=dp, batch=2 * pp * dp, seed=seed)
        for dispatch in dispatches
    ]


def smoke_matrix(seed: int = 0) -> List[VerifyCase]:
    """The seeded CI grid: EP dispatch × precision, a tiled (§4.2
    tile-granular) leg per dispatch, float32-model legs (the
    production default dtype) over both dispatches, one float32
    tiled case, the production layout (Fig. 4) at n=2 pp=2 dp=2 in
    float32 and with FP8 comm, and the Megatron TP+TP baseline — the
    one leg that trains the TP engines."""

    def cases() -> Iterator[VerifyCase]:
        for dispatch in SMOKE_DISPATCHES:
            for precision in SMOKE_PRECISIONS:
                yield VerifyCase(ep_dispatch=dispatch,
                                 precision=precision, seed=seed)
            yield VerifyCase(ep_dispatch=dispatch,
                             tile_tokens=SMOKE_TILE_TOKENS, seed=seed)
        for dispatch in SMOKE_DISPATCHES:
            yield VerifyCase(ep_dispatch=dispatch, dtype="float32",
                             seed=seed)
        yield VerifyCase(tile_tokens=SMOKE_TILE_TOKENS, dtype="float32",
                         seed=seed)
        for kw in (dict(dtype="float32"), dict(precision="fp8")):
            yield VerifyCase(ranks=2, pp=2, dp=2, batch=4, seed=seed,
                             **kw)
        yield VerifyCase(attention="tp", ffn="tp", seed=seed)

    return list(cases())


@dataclass(frozen=True)
class ServeCase:
    """One continuous-batching serving conformance run.

    The serve engine decodes a seeded arrival trace under a
    disaggregated attention/expert placement; the conformance engine
    replays the same trace through the unbatched sequential golden
    decoder and checks the ``serve_*`` invariants (bitwise per-request
    equality, dispatch/combine ledger balance, KV/span leak freedom).
    """

    attention_ranks: int = 2
    expert_ranks: int = 2
    layers: int = 2
    hidden: int = 32
    heads: int = 8
    gqa_ratio: int = 2
    ffn_hidden: int = 48
    experts: int = 8
    top_k: int = 2
    vocab: int = 64
    kv_block_size: int = 4
    kv_blocks: int = 64
    max_batch_size: int = 3
    #: Arrival process of the request trace.
    trace: str = "poisson"
    n_requests: int = 6
    #: Collective call index at which a scheduled RankCrash fires
    #: (None = fault-free run).
    crash_at_call: Optional[int] = None
    seed: int = 0
    #: Model dtype; the KV pool follows it.
    dtype: str = "float64"

    def __post_init__(self):
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"unknown dtype {self.dtype!r}")
        if self.attention_ranks < 1 or self.expert_ranks < 1:
            raise ValueError(
                "attention_ranks and expert_ranks must be >= 1"
            )
        if self.heads % self.gqa_ratio != 0:
            raise ValueError(
                f"heads={self.heads} not divisible by "
                f"gqa_ratio={self.gqa_ratio}"
            )
        if self.hidden % self.heads != 0:
            raise ValueError(
                f"hidden={self.hidden} not divisible by "
                f"heads={self.heads}"
            )
        if self.experts % self.expert_ranks != 0:
            raise ValueError(
                f"experts={self.experts} not divisible by "
                f"expert_ranks={self.expert_ranks}"
            )
        if self.top_k > self.experts:
            raise ValueError(
                f"top_k={self.top_k} > experts={self.experts}"
            )
        if self.trace not in ("poisson", "bursty"):
            raise ValueError(f"unknown trace kind {self.trace!r}")
        if self.n_requests < 1:
            raise ValueError(
                f"n_requests must be >= 1, got {self.n_requests}"
            )
        if self.max_batch_size < 1:
            raise ValueError(
                f"max_batch_size must be >= 1, got "
                f"{self.max_batch_size}"
            )
        if self.crash_at_call is not None and self.crash_at_call < 1:
            raise ValueError(
                f"crash_at_call must be >= 1, got {self.crash_at_call}"
            )

    @property
    def case_id(self) -> str:
        parts = [
            "serve", self.trace,
            f"a{self.attention_ranks}", f"x{self.expert_ranks}",
            f"b{self.max_batch_size}", f"n{self.n_requests}",
            f"g{self.gqa_ratio}",
        ]
        if self.top_k != 2:
            parts.append(f"k{self.top_k}")
        if self.crash_at_call is not None:
            parts.append(f"cr{self.crash_at_call}")
        if self.dtype != "float64":
            parts.append(self.dtype.replace("float", "f"))
        if self.seed != 0:
            parts.append(f"sd{self.seed}")
        return "-".join(parts)

    def model_config(self) -> ModelConfig:
        """The case's model dimensions as a ModelConfig."""
        return ModelConfig(
            f"serve-{self.case_id}", self.layers, self.hidden,
            self.heads, self.gqa_ratio, self.ffn_hidden, self.experts,
            self.top_k, vocab_size=self.vocab, seq_len=64,
        )

    def serve_config(self):
        """The case's placement/KV/batching knobs as a ServeConfig."""
        from ..core.config import ServeConfig
        return ServeConfig(
            attention_ranks=self.attention_ranks,
            expert_ranks=self.expert_ranks,
            kv_block_size=self.kv_block_size,
            kv_blocks=self.kv_blocks,
            max_batch_size=self.max_batch_size,
        )

    def requests(self):
        """The seeded request trace of the case's arrival process."""
        from ..serve.arrivals import bursty_trace, poisson_trace
        if self.trace == "bursty":
            return bursty_trace(self.n_requests, burst_size=3,
                                burst_gap=2.0, vocab=self.vocab,
                                seed=self.seed)
        return poisson_trace(self.n_requests, rate=2.0,
                             vocab=self.vocab, seed=self.seed)

    def replace(self, **changes) -> "ServeCase":
        """A copy of the case with ``changes`` applied."""
        return dataclasses.replace(self, **changes)


def serve_matrix(seed: int = 0) -> List[ServeCase]:
    """The serving conformance grid: both arrival processes, a
    wider-GQA leg, a mid-stream rank-crash leg, a tight-KV eviction
    leg, a float32-model leg (KV pool and cached post-RoPE keys in
    the model's dtype), a leg at the serving benchmark's batch width
    (8 requests in flight, with evictions), and a top_k = 3 leg, where
    a token can have two experts on a later expert rank."""
    return [
        ServeCase(trace="poisson", seed=seed),
        ServeCase(trace="bursty", seed=seed),
        ServeCase(gqa_ratio=4, seed=seed),
        ServeCase(crash_at_call=5, seed=seed),
        ServeCase(kv_blocks=5, max_batch_size=4, seed=seed),
        ServeCase(dtype="float32", seed=seed),
        ServeCase(max_batch_size=8, n_requests=16, kv_blocks=12,
                  seed=seed),
        ServeCase(top_k=3, seed=seed),
    ]


def elastic_matrix(seed: int = 0) -> List[VerifyCase]:
    """The resize conformance grid: shrink at 1, grow back at 2.

    Four cases start at 4 ranks, shrink the SP×EP world to 2 at step
    1, and grow back to 4 at step 2, across both EP dispatch modes and
    both smoke precisions.  One more keeps 2 ranks per node and goes
    from 2 DP replicas to 1 and back: the optimizer state crosses the
    ZeRO-1 shard grids and the unsharded update.
    """
    return [
        VerifyCase(ep_dispatch=dispatch, precision=precision, seed=seed,
                   steps=3, resize=((1, 2), (2, 4)))
        for dispatch in SMOKE_DISPATCHES
        for precision in SMOKE_PRECISIONS
    ] + [VerifyCase(ranks=2, dp=2, seed=seed, steps=3,
                    resize=((1, 2, 1), (2, 2, 2)))]
