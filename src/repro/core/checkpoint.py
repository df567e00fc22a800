"""Checkpoint files: atomic writes and the model-config fingerprint.

The production runs of §7 span months and "different colors indicate
training restarts" (Fig. 19) — restartability is a first-class feature.
A checkpoint is one ``.npz`` of a trainer's ``state_dict()`` (model
parameters plus the optimizer's per-parameter Adam state) written by
:class:`~repro.core.runner.ProductionRunner` through
:func:`atomic_write`, with a sidecar (:mod:`repro.ft.recovery`) that
records its CRC, its parallel layout and :func:`config_fingerprint`,
so a checkpoint cannot silently restore into a mismatched model.
"""

from __future__ import annotations

import os
from typing import Dict

from ..core.config import ModelConfig

__all__ = [
    "atomic_write",
    "config_fingerprint",
]


def _fsync_directory(path: str) -> None:
    """Best-effort fsync of a file's parent directory.

    ``os.replace`` makes the rename atomic but not durable: on a crash
    the directory entry may still point at the old file.  Syncing the
    directory pins the rename; platforms that cannot fsync a directory
    (some network filesystems) degrade gracefully.
    """
    parent = os.path.dirname(os.path.abspath(path)) or "."
    try:
        dirfd = os.open(parent, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dirfd)
    except OSError:
        pass
    finally:
        os.close(dirfd)


def atomic_write(path: str, write_payload, text: bool = False) -> None:
    """Write ``path`` atomically: tmp file → flush → fsync → rename.

    ``write_payload(handle)`` receives the open tmp-file handle.  The
    data is fsynced *before* the rename, so a crash at any point leaves
    either the previous complete file or a stray ``*.tmp`` — never a
    truncated file at the final name (a truncated "latest" checkpoint
    would otherwise poison every recovery until swept by hand).
    """
    tmp = path + ".tmp"
    with open(tmp, "w" if text else "wb") as handle:
        write_payload(handle)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_directory(path)


def config_fingerprint(config: ModelConfig) -> Dict[str, int]:
    """The model-config fields that fix a checkpoint's array shapes
    (the name does not: a renamed config restores)."""
    return {
        "n_layers": config.n_layers,
        "hidden_size": config.hidden_size,
        "n_heads": config.n_heads,
        "gqa_ratio": config.gqa_ratio,
        "ffn_hidden_size": config.ffn_hidden_size,
        "n_experts": config.n_experts,
        "top_k": config.top_k,
        "vocab_size": config.vocab_size,
    }
