"""Selective activation rematerialization (§4.1, Fig. 8, Appendix A.2).

MegaScale-MoE keeps only activations that are *computationally expensive*
to recreate and recomputes (or re-communicates) the rest during backward,
hiding the re-work under independent communication.  This module holds:

* the Fig. 20 activation table with exact element counts,
* :class:`RematPlan` — which activations to retain, with memory
  accounting that reproduces the Appendix A.2 formulas,
* the paper's default plan (retain ``hidden``, ``qkv_a2a``,
  ``attn_a2a``, ``ln2_in``, ``fc1_out``, ``fc3_out``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, FrozenSet, List, Optional

from .config import ModelConfig, ParallelConfig

if TYPE_CHECKING:  # lazy at runtime: operators lazily imports us back
    from .operators import Op, OpGraph

__all__ = [
    "ActivationSpec",
    "activation_table",
    "RematPlan",
    "default_remat_plan",
    "insert_remat_ops",
    "no_remat_plan",
]


@dataclass(frozen=True)
class ActivationSpec:
    """One row of Fig. 20.

    ``share`` is the element count in units of ``b·s·h/n`` as a function
    of (n, m, k, f); ``source`` documents the producing operator and
    ``recreate`` how the activation can be rebuilt in backward:
    ``"recompute"`` (cheap memory-bound op), ``"recommunicate"``
    (repeat a collective), or ``"expensive"`` (GEMM/attention output —
    these are the retention candidates).
    """

    name: str
    source: str
    recreate: str

    def share(self, n: int, m: int, k: int, f: float) -> float:
        """Element count in units of ``b·s·h/n`` for given (n, m, k, f)."""
        return _SHARES[self.name](n, m, k, f)


_SHARES = {
    "hidden":      lambda n, m, k, f: 1.0,
    "ln1_out":     lambda n, m, k, f: 1.0,
    "qkv":         lambda n, m, k, f: 1.0 + 2.0 / m,
    "q_rope":      lambda n, m, k, f: 1.0,
    "k_rope":      lambda n, m, k, f: 1.0 / m,
    "qkv_a2a":     lambda n, m, k, f: 1.0 + 2.0 / m,
    "attn":        lambda n, m, k, f: 1.0,
    "attn_a2a":    lambda n, m, k, f: 1.0,
    "attn_out":    lambda n, m, k, f: 1.0,
    "ln2_in":      lambda n, m, k, f: 1.0,
    "ln2_out":     lambda n, m, k, f: 1.0,
    "ln2_out_ag":  lambda n, m, k, f: float(n),
    "ffn_in":      lambda n, m, k, f: float(k),
    "fc1_out":     lambda n, m, k, f: k * f,
    "fc3_out":     lambda n, m, k, f: k * f,
    "fc2_in":      lambda n, m, k, f: k * f,
    "fc2_out":     lambda n, m, k, f: float(k),
    "fc2_out_rs":  lambda n, m, k, f: float(n),
    "ffn_out":     lambda n, m, k, f: 1.0,
    "hidden_next": lambda n, m, k, f: 1.0,
}


_ACTIVATION_TABLE = [ActivationSpec(*row) for row in [
    ("hidden",      "layer input",                    "expensive"),
    ("ln1_out",     "RMSNorm(hidden)",                "recompute"),
    ("qkv",         "MatMul(ln1_out, qkv_weight)",    "expensive"),
    ("q_rope",      "RopeEmbedding(q)",               "recompute"),
    ("k_rope",      "RopeEmbedding(k)",               "recompute"),
    ("qkv_a2a",     "All-to-All(q_rope, k_rope, v)",  "recommunicate"),
    ("attn",        "SelfAttention(qkv_a2a)",         "expensive"),
    ("attn_a2a",    "All-to-All(attn)",               "recommunicate"),
    ("attn_out",    "MatMul(attn_a2a, out_weight)",   "expensive"),
    ("ln2_in",      "Add(hidden, attn_out)",          "recompute"),
    ("ln2_out",     "RMSNorm(ln2_in)",                "recompute"),
    ("ln2_out_ag",  "All-Gather(ln2_out)",            "recommunicate"),
    ("ffn_in",      "Scatter(ln2_out_ag)",            "recompute"),
    ("fc1_out",     "GroupedGEMM(ffn_in, fc1_w)",     "expensive"),
    ("fc3_out",     "GroupedGEMM(ffn_in, fc3_w)",     "expensive"),
    ("fc2_in",      "SiLU(fc1_out, fc3_out)",         "recompute"),
    ("fc2_out",     "GroupedGEMM(fc2_in, fc2_w)",     "expensive"),
    ("fc2_out_rs",  "Gather(fc2_out)",                "recompute"),
    ("ffn_out",     "Reduce-Scatter(fc2_out_rs)",     "recommunicate"),
    ("hidden_next", "Add(ln2_in, ffn_out)",           "expensive"),
]]


def activation_table() -> List[ActivationSpec]:
    """The full Fig. 20 activation list for one MoE layer.

    One list, built at import and shared by every caller (its specs
    are frozen); callers must not mutate it.
    """
    return _ACTIVATION_TABLE


#: The paper's retained set: sums to ``(2kf + 4 + 2/m)·bsh/n``.
PAPER_RETAINED: FrozenSet[str] = frozenset(
    {"hidden", "qkv_a2a", "attn_a2a", "ln2_in", "fc1_out", "fc3_out"}
)



@dataclass(frozen=True)
class RematPlan:
    """A retention decision over the Fig. 20 activation set."""

    retained: FrozenSet[str]

    def __post_init__(self):
        unknown = self.retained - set(_SHARES)
        if unknown:
            raise ValueError(f"unknown activations: {sorted(unknown)}")

    def retained_elements(self, model: ModelConfig,
                          parallel: ParallelConfig,
                          micro_batch: int) -> float:
        """Elements stored between forward and backward per layer."""
        n, m, k = (parallel.model_parallel_size, model.gqa_ratio,
                   model.top_k)
        f = model.ffn_hidden_size / model.hidden_size
        unit = micro_batch * model.seq_len * model.hidden_size / n
        return unit * sum(
            spec.share(n, m, k, f) for spec in activation_table()
            if spec.name in self.retained
        )

def default_remat_plan() -> RematPlan:
    """The paper's plan: keep GEMM/attention-adjacent activations only.

    Retained shares sum to ``2kf + 4 + 2/m`` — the Appendix A.2 reduced
    formula.  Everything recomputed is memory-bound (RMSNorm, SwiGLU,
    scatter) or a repeatable collective (all-gather), so backward can
    hide the re-work under gradient communication (Fig. 8b).
    """
    return RematPlan(PAPER_RETAINED)


def no_remat_plan() -> RematPlan:
    """Store every Fig. 20 activation: the ``(2n+2k+3kf+12+5/m)`` total."""
    return RematPlan(frozenset(_SHARES))


# ---------------------------------------------------------------------------
# Graph transform
# ---------------------------------------------------------------------------

def insert_remat_ops(fwd: "OpGraph", bwd_ops: List["Op"],
                     plan: Optional[RematPlan] = None) -> List["Op"]:
    """Insert Fig. 8b rematerialization ops before their consumers.

    The one remat transform shared by the sim schedule
    (:func:`~repro.core.operators.build_backward_graph`) and the numeric
    DAG executor (:meth:`~repro.runtime.dag_executor.DagRunResult.apply_remat`):
    every activation the ``plan`` does *not* retain and that backward
    consumes shows up as a ``remat.*`` op — re-run RMSNorm1/RMSNorm2,
    re-all-gather the FFN input, re-apply SwiGLU to recover ``fc2_in``.
    Each carries no ordering dependency on the backward chain, so the
    scheduler is free to hide it under communication.  With the default
    (paper) plan this reproduces the Fig. 8b op set exactly; a plan that
    retains everything inserts nothing.
    """
    from .operators import Op

    if plan is None:
        plan = default_remat_plan()

    def recreates(name: str) -> bool:
        """Whether activation ``name`` must be rebuilt under ``plan``."""
        return name in _SHARES and name not in plan.retained

    out: List[Op] = []
    inserted = set()

    def remat_for(consumer: str) -> List[Op]:
        extra: List[Op] = []
        if consumer == "fc2.dgrad" and "swiglu" in fwd \
                and recreates("fc2_in"):
            src = fwd["swiglu"]
            extra.append(Op("remat.swiglu", "memory",
                            mem_bytes=src.mem_bytes,
                            produces=("fc2_in",), phase="remat"))
        if consumer in ("fc1.dgrad", "fc1.wgrad") and "ln2" in fwd:
            if recreates("ln2_out"):
                src = fwd["ln2"]
                extra.append(Op("remat.ln2", "memory",
                                mem_bytes=src.mem_bytes,
                                produces=("ln2_out",), phase="remat"))
            if "ffn_ag" in fwd and recreates("ln2_out_ag"):
                ag = fwd["ffn_ag"]
                extra.append(Op("remat.ffn_ag", "comm",
                                comm_bytes=ag.comm_bytes,
                                comm_pattern="ag",
                                comm_scope=ag.comm_scope,
                                deps=("remat.ln2",)
                                if recreates("ln2_out") else (),
                                produces=("ln2_out_ag",), phase="remat"))
            if "scatter" in fwd and recreates("ffn_in"):
                sc = fwd["scatter"]
                if "ffn_ag" in fwd and recreates("ln2_out_ag"):
                    deps = ("remat.ffn_ag",)
                elif recreates("ln2_out"):
                    deps = ("remat.ln2",)
                else:
                    deps = ()
                extra.append(Op("remat.scatter", "memory",
                                mem_bytes=sc.mem_bytes,
                                deps=deps,
                                produces=("ffn_in",), phase="remat"))
        if consumer == "qkv_proj.wgrad" and "ln1" in fwd \
                and recreates("ln1_out"):
            extra.append(Op("remat.ln1", "memory",
                            mem_bytes=fwd["ln1"].mem_bytes,
                            produces=("ln1_out",), phase="remat"))
        return [e for e in extra if e.name not in inserted]

    for op in bwd_ops:
        for extra in remat_for(op.name):
            out.append(extra)
            inserted.add(extra.name)
        if op.name in ("fc2.dgrad", "fc2.wgrad") and \
                "remat.swiglu" in inserted:
            op = replace(op, deps=op.deps + ("remat.swiglu",))
        if op.name in ("fc1.dgrad", "fc1.wgrad", "fc3.dgrad",
                       "fc3.wgrad") and "remat.scatter" in inserted:
            op = replace(op, deps=op.deps + ("remat.scatter",))
        elif op.name in ("fc1.dgrad", "fc1.wgrad", "fc3.dgrad",
                         "fc3.wgrad") and "remat.ln2" in inserted \
                and "remat.scatter" not in inserted:
            op = replace(op, deps=op.deps + ("remat.ln2",))
        # remat.ln1 recreates qkv_proj's GEMM input; wgrad is its one
        # consumer, so it needs the edge or the op dangles unconsumed.
        if op.name == "qkv_proj.wgrad" and "remat.ln1" in inserted:
            op = replace(op, deps=op.deps + ("remat.ln1",))
        out.append(op)
    return out
