"""Durable checkpointing for streaming fleet runs.

A :class:`CheckpointStore` persists the streaming engine's state at tick
boundaries so a killed run can resume **bit-identical** to an uninterrupted
one.  The write protocol is write-ahead atomic:

1. the pickled payload is written to a ``.tmp`` file and fsynced;
2. the tmp file is renamed to ``ckpt-<tick>.pkl`` (atomic on POSIX);
3. ``manifest.json`` — also written tmp+rename — records the file name, the
   tick and the payload's SHA-256.

A crash at any point leaves either the previous manifest (pointing at the
previous, intact checkpoint) or the new one (pointing at the fully written
new checkpoint); :meth:`CheckpointStore.latest` verifies the manifest hash
and raises :class:`~repro.exceptions.SerializationError` on corruption
instead of resuming from a damaged snapshot.  The store keeps the last
``keep`` checkpoints (default 2: the newest plus its predecessor as the
crash-during-write fallback) and prunes older ones.

What goes *into* a checkpoint is the engine's business
(:meth:`~repro.fleet.engine.FleetEngine._checkpoint_payload`); this module
only guarantees durability and atomicity.  ``run.json`` helpers persist the
resolved experiment spec next to the checkpoints so ``repro resume <dir>``
can rebuild the whole run from the directory alone.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

from repro.exceptions import ConfigurationError, SerializationError

PathLike = Union[str, Path]

#: Bumped whenever the checkpoint payload layout changes; resume refuses to
#: load a payload written by a different format.
CHECKPOINT_FORMAT = 1

_CKPT_PATTERN = re.compile(r"^ckpt-(\d{8})\.pkl$")

#: The fields every ``manifest.json`` carries.
_MANIFEST_FIELDS = frozenset({"file", "tick", "sha256"})


def shard_checkpoint_dir(base: PathLike, shard_index: int) -> str:
    """The per-shard checkpoint directory under a sharded run's base dir."""
    if shard_index < 0:
        raise ConfigurationError(f"shard_index must be non-negative, got {shard_index}")
    return str(Path(base) / f"shard-{shard_index:02d}")


class CheckpointStore:
    """Atomic pickle checkpoints under one directory, newest-wins."""

    def __init__(self, directory: PathLike, keep: int = 2) -> None:
        if keep < 1:
            raise ConfigurationError(f"keep must be >= 1, got {keep}")
        self.directory = Path(directory)
        self.keep = int(keep)
        self.directory.mkdir(parents=True, exist_ok=True)

    @property
    def manifest_path(self) -> Path:
        return self.directory / "manifest.json"

    def _checkpoint_path(self, tick: int) -> Path:
        return self.directory / f"ckpt-{tick:08d}.pkl"

    def save(self, payload: Mapping[str, Any], tick: int) -> Path:
        """Durably write ``payload`` as the checkpoint for ``tick``."""
        if tick < 0:
            raise ConfigurationError(f"tick must be non-negative, got {tick}")
        data = pickle.dumps(dict(payload), protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(data).hexdigest()
        target = self._checkpoint_path(tick)
        tmp = target.with_suffix(".pkl.tmp")
        with tmp.open("wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
        manifest = {
            "format": CHECKPOINT_FORMAT,
            "file": target.name,
            "tick": int(tick),
            "sha256": digest,
        }
        manifest_tmp = self.manifest_path.with_suffix(".json.tmp")
        with manifest_tmp.open("w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(manifest_tmp, self.manifest_path)
        self._prune(current=target.name)
        return target

    def _prune(self, current: str) -> None:
        """Drop all but the newest ``keep`` checkpoints (never the current)."""
        entries = sorted(
            name for name in os.listdir(self.directory) if _CKPT_PATTERN.match(name)
        )
        for name in entries[: -self.keep] if len(entries) > self.keep else ():
            if name != current:
                (self.directory / name).unlink(missing_ok=True)

    def _manifest(self) -> Optional[Dict[str, Any]]:
        """The parsed manifest, ``None`` if none exists; raises
        :class:`SerializationError` on one that does not parse or lacks a field."""
        if not self.manifest_path.exists():
            return None
        try:
            with self.manifest_path.open("r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (json.JSONDecodeError, OSError) as exc:
            raise SerializationError(
                f"corrupt checkpoint manifest {self.manifest_path}: {exc}"
            ) from exc
        if not (isinstance(manifest, dict) and _MANIFEST_FIELDS <= manifest.keys()):
            raise SerializationError(
                f"corrupt checkpoint manifest {self.manifest_path}: expected the "
                f"fields {sorted(_MANIFEST_FIELDS)}, got {manifest!r}"
            )
        return manifest

    def latest(self) -> Optional[Dict[str, Any]]:
        """The newest checkpoint payload, hash-verified; ``None`` if none exists."""
        manifest = self._manifest()
        if manifest is None:
            return None
        target = self.directory / str(manifest["file"])
        if not target.is_file():
            raise SerializationError(
                f"checkpoint manifest points at missing file {target}"
            )
        data = target.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if digest != manifest["sha256"]:
            raise SerializationError(
                f"checkpoint {target} fails its manifest hash — the file is "
                "corrupt; delete it (and the manifest) to restart from scratch"
            )
        payload = pickle.loads(data)
        if payload.get("format") != CHECKPOINT_FORMAT:
            raise SerializationError(
                f"checkpoint {target} uses format {payload.get('format')!r}; "
                f"this build reads format {CHECKPOINT_FORMAT}"
            )
        return payload

    def latest_tick(self) -> Optional[int]:
        """The tick of the newest checkpoint without unpickling it."""
        manifest = self._manifest()
        return None if manifest is None else int(manifest["tick"])


# -- run descriptors -------------------------------------------------------------

#: File name of the run descriptor written next to the checkpoints.
RUN_FILE = "run.json"


def save_run_descriptor(directory: PathLike, descriptor: Mapping[str, Any]) -> Path:
    """Persist the resolved run configuration for standalone ``repro resume``."""
    from repro.utils.serialization import save_json

    return save_json(Path(directory) / RUN_FILE, descriptor)


def load_run_descriptor(directory: PathLike) -> Dict[str, Any]:
    """Load the run descriptor; wraps malformed JSON in a ``SerializationError``."""
    path = Path(directory) / RUN_FILE
    if not path.exists():
        raise SerializationError(
            f"no {RUN_FILE} in {directory} — was this directory written by "
            "'repro fleet --checkpoint-dir'?"
        )
    try:
        with path.open("r", encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"malformed {path}: {exc}") from exc
