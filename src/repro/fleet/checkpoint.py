"""Durable checkpointing for streaming fleet runs.

A :class:`CheckpointStore` persists the streaming engine's state at tick
boundaries so a killed run can resume **bit-identical** to an uninterrupted
one.  Each file describes itself: ``ckpt-<tick>.pkl`` is one header line,
``repro-ckpt <format> <SHA-256 of the pickle>``, then the pickled payload.
A save is one write cycle: ``.tmp`` file + fsync, ``os.replace`` into place
(atomic on POSIX), then a directory fsync so the rename is durable too.

The store keeps the newest two checkpoints: the newest plus its predecessor
as the crash-during-write fallback.  :meth:`CheckpointStore.latest` walks
the files newest-first, skips with a warning one that is truncated or fails
its hash, and raises :class:`~repro.exceptions.SerializationError` when none
verifies or a file has another format.  Newest by tick is newest written
because a run that does not resume first empties its store
(:meth:`CheckpointStore.discard`), so it can never resume another run's state.

What goes *into* a checkpoint is the engine's business
(:meth:`~repro.fleet.engine.FleetEngine._checkpoint_payload`); only this
module knows the on-disk format.  ``run.json`` helpers persist the resolved
experiment spec next to the checkpoints so ``repro resume <dir>`` can
rebuild the whole run from the directory alone.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
import warnings
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.exceptions import ConfigurationError, SerializationError

PathLike = Union[str, Path]

#: Bumped whenever the checkpoint file or payload layout changes; resume
#: refuses a file written in a different format.
CHECKPOINT_FORMAT = 4

#: The first word of every checkpoint file's header line.
_MAGIC = b"repro-ckpt"

#: Checkpoints kept after each save: the newest and its fallback.
_KEEP = 2

_CKPT_PATTERN = re.compile(r"^ckpt-(\d{8,})\.pkl$")


def shard_checkpoint_dir(base: PathLike, shard_index: int) -> str:
    """The per-shard checkpoint directory under a sharded run's base dir."""
    if shard_index < 0:
        raise ConfigurationError(f"shard_index must be non-negative, got {shard_index}")
    return str(Path(base) / f"shard-{shard_index:02d}")


class CheckpointStore:
    """Self-verifying pickle checkpoints under one directory, newest-wins."""

    def __init__(self, directory: PathLike) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _files(self) -> List[Path]:
        """The checkpoint files, oldest tick first (``.tmp`` files never match)."""
        matches = map(_CKPT_PATTERN.match, os.listdir(self.directory))
        found = sorted((int(match.group(1)), match.group(0)) for match in matches if match)
        return [self.directory / name for _, name in found]

    def save(self, payload: Mapping[str, Any], tick: int) -> Path:
        """Durably write ``payload`` as the checkpoint for ``tick``."""
        if tick < 0:
            raise ConfigurationError(f"tick must be non-negative, got {tick}")
        data = pickle.dumps(dict(payload), protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(data).hexdigest().encode()
        target = self.directory / f"ckpt-{tick:08d}.pkl"
        tmp = target.with_suffix(".pkl.tmp")
        with tmp.open("wb") as handle:
            handle.write(b"%s %d %s\n" % (_MAGIC, CHECKPOINT_FORMAT, digest))
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
        directory = os.open(self.directory, os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)
        for stale in self._files()[:-_KEEP]:
            if stale != target:
                stale.unlink(missing_ok=True)
        return target

    def discard(self) -> None:
        """Delete every checkpoint, so the next save is the newest."""
        for path in self._files():
            path.unlink(missing_ok=True)

    def _read(self, path: Path) -> Optional[Dict[str, Any]]:
        """The payload in ``path``; ``None`` if it is truncated or fails its hash."""
        data = path.read_bytes()
        header, newline, body = data.partition(b"\n")
        magic, _, fields = header.partition(b" ")
        version, _, digest = fields.partition(b" ")
        if not newline and _MAGIC.startswith(magic):
            return None  # cut off inside the header line
        if magic != _MAGIC:
            version = b"1 (a bare pickle with no header)"
        if version != b"%d" % CHECKPOINT_FORMAT:
            raise SerializationError(
                f"checkpoint {path} uses format {version.decode(errors='replace')}; "
                f"this build reads format {CHECKPOINT_FORMAT} — start the run afresh "
                "instead of resuming"
            )
        verified = hashlib.sha256(body).hexdigest().encode() == digest
        return pickle.loads(body) if verified else None

    def latest(self) -> Optional[Dict[str, Any]]:
        """The newest checkpoint payload that verifies; ``None`` if none exists."""
        files = self._files()
        for path in reversed(files):
            payload = self._read(path)
            if payload is not None:
                return payload
            warnings.warn(
                f"checkpoint {path} is truncated or fails its hash; "
                "falling back to the checkpoint before it",
                RuntimeWarning,
                stacklevel=2,
            )
        if files:
            raise SerializationError(
                f"no checkpoint in {self.directory} verifies "
                f"({', '.join(path.name for path in files)}); delete them to "
                "restart from scratch"
            )
        return None


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
