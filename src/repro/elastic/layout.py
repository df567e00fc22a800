"""The parallel layout of a run: one hashable (world, DP, EP, TP, SP, PP).

A checkpoint is only restorable onto a cluster whose parallel degrees
it understands — the Megatron Core report treats resumable resharding
across layouts as table stakes for production MoE training.  This
module gives the repo a single value type for "which layout wrote this
state": recorded in every checkpoint meta sidecar
(:func:`~repro.ft.recovery.write_checkpoint_meta`), compared by
:meth:`~repro.core.runner.ProductionRunner._load` before arrays are
restored, and used as the (from, to) key of every
:func:`~repro.elastic.reshard.reshard_state` call.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Optional

__all__ = ["ParallelLayout"]


@dataclass(frozen=True)
class ParallelLayout:
    """The parallel degrees of one training run.

    ``world_size`` is the total rank count; the remaining fields are
    the per-dimension degrees (1 = that dimension is not used).  SP or
    TP attention and EP or TP FFN share the node's degree, and the
    trainer's ``pp`` stages and ``dp`` replicas multiply it.
    """

    world_size: int
    dp: int = 1
    ep: int = 1
    tp: int = 1
    sp: int = 1
    pp: int = 1

    def __post_init__(self):
        for name in ("world_size", "dp", "ep", "tp", "sp", "pp"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(
                    f"{name} must be an int >= 1, got {value!r}"
                )

    # -- construction --------------------------------------------------------

    @classmethod
    def from_parallel_config(cls, parallel,
                             ) -> "ParallelLayout":
        """Layout of a :class:`~repro.core.config.ParallelConfig`.

        The intra-node degree ``n`` is shared by the attention strategy
        (SP or TP) and the FFN strategy (EP or TP), exactly as §3 lays
        out the per-layer data flow.
        """
        n = parallel.model_parallel_size
        return cls(
            world_size=(n * parallel.pipeline_size
                        * parallel.data_parallel_size),
            dp=parallel.data_parallel_size,
            ep=n if parallel.ffn == "ep" else 1,
            tp=n if "tp" in (parallel.attention, parallel.ffn) else 1,
            sp=n if parallel.attention == "sp" else 1,
            pp=parallel.pipeline_size,
        )

    @classmethod
    def from_trainer(cls, trainer) -> Optional["ParallelLayout"]:
        """Layout of a live trainer, or None for layout-less trainers.

        Duck-typed: anything exposing ``parallel`` (a ParallelConfig)
        qualifies; toy trainers used in tests simply return None and
        opt out of layout checking.
        """
        parallel = getattr(trainer, "parallel", None)
        if parallel is None:
            return None
        try:
            return cls.from_parallel_config(parallel)
        except (AttributeError, TypeError, ValueError):
            return None

    @classmethod
    def from_dict(cls, data: Dict) -> "ParallelLayout":
        """Inverse of :meth:`to_dict` (checkpoint meta sidecars)."""
        return cls(**{k: int(data[k])
                      for k in ("world_size", "dp", "ep", "tp", "sp",
                                "pp") if k in data})

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, int]:
        """JSON-ready form for the checkpoint meta sidecar."""
        return asdict(self)

    def describe(self) -> str:
        """Compact human form, e.g. ``world=4 dp1 ep4 tp1 sp4 pp1``."""
        return (f"world={self.world_size} dp{self.dp} ep{self.ep} "
                f"tp{self.tp} sp{self.sp} pp{self.pp}")
