"""Checkpointing: save/restore model and optimizer state to disk.

The production runs of §7 span months and "different colors indicate
training restarts" (Fig. 19) — restartability is a first-class feature.
Checkpoints are single ``.npz`` files holding every named parameter,
the Adam moments, the step counter, and a config fingerprint that is
validated on load so a checkpoint cannot silently restore into a
mismatched model.
"""

from __future__ import annotations

import json
import os
from typing import Optional

import numpy as np

from ..core.config import ModelConfig
from ..model.layers import Module
from ..precision.optimizer import AdamW

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "atomic_write",
    "CheckpointError",
]

FORMAT_VERSION = 1


class CheckpointError(RuntimeError):
    """Raised when a checkpoint is missing, corrupt, or mismatched."""


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


def _fingerprint(config: ModelConfig) -> str:
    fields = {
        "n_layers": config.n_layers,
        "hidden_size": config.hidden_size,
        "n_heads": config.n_heads,
        "gqa_ratio": config.gqa_ratio,
        "ffn_hidden_size": config.ffn_hidden_size,
        "n_experts": config.n_experts,
        "top_k": config.top_k,
        "vocab_size": config.vocab_size,
    }
    return json.dumps(fields, sort_keys=True)


def save_checkpoint(path: str, model: Module, config: ModelConfig,
                    optimizer: Optional[AdamW] = None,
                    step: int = 0) -> None:
    """Write a checkpoint atomically (tmp file + fsync + rename)."""
    payload = {
        "__meta__": np.frombuffer(
            json.dumps({
                "version": FORMAT_VERSION,
                "fingerprint": _fingerprint(config),
                "step": step,
                "has_optimizer": optimizer is not None,
            }).encode(), dtype=np.uint8),
    }
    for name, param in model.named_parameters():
        payload[f"param/{name}"] = param.data
    if optimizer is not None:
        payload.update(optimizer.state_dict())

    atomic_write(path, lambda handle: np.savez(handle, **payload))


def load_checkpoint(path: str, model: Module, config: ModelConfig,
                    optimizer: Optional[AdamW] = None) -> int:
    """Restore a checkpoint; returns the saved step.

    Raises :class:`CheckpointError` on version or config mismatch, and
    when optimizer state is requested but absent from the file.
    """
    if not os.path.exists(path):
        raise CheckpointError(f"no checkpoint at {path}")
    with np.load(path) as data:
        try:
            meta = json.loads(bytes(data["__meta__"]).decode())
        except (KeyError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"corrupt checkpoint {path}") from exc
        if meta["version"] != FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint version {meta['version']} != "
                f"{FORMAT_VERSION}"
            )
        if meta["fingerprint"] != _fingerprint(config):
            raise CheckpointError(
                "checkpoint was written for a different model "
                "configuration"
            )

        state = {}
        for key in data.files:
            if key.startswith("param/"):
                state[key[len("param/"):]] = data[key]
        model.load_state_dict(state)

        if optimizer is not None:
            if not meta["has_optimizer"]:
                raise CheckpointError(
                    "checkpoint has no optimizer state"
                )
            optimizer.load_state_dict(data)
        return int(meta["step"])
