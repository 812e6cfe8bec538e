"""Serialization helpers for specs, reports and model weights.

Every spec and report is a frozen dataclass that inherits :class:`JsonRecord`,
the one JSON codec: ``to_dict``/``to_json`` write it, ``from_dict``/``from_json``
rebuild it by walking the dataclass's type hints, so a payload is checked
against the same annotations the code reads.

Models are stored as a pair of files: a JSON document describing the
architecture/configuration and an ``.npz`` archive holding the weight arrays.
Keeping the two separate makes the stored artefacts human-inspectable and
avoids pickling arbitrary objects.
"""

from __future__ import annotations

import dataclasses
import json
import re
import typing
from pathlib import Path
from typing import Any, Dict, Mapping, Union

import numpy as np

from repro.exceptions import ConfigurationError, SerializationError

PathLike = Union[str, Path]


def to_jsonable(value: Any) -> Any:
    """Recursively convert numpy scalars/arrays and tuples into plain JSON types.

    Arrays and tuples become lists, numpy scalars become Python scalars and
    mapping keys are stringified.  Used by :func:`save_json` and by
    :meth:`JsonRecord.to_dict`.
    """
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, Mapping):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    return value


#: JSON type names of the leaf annotations the decoder checks.
_LEAF_TYPES = {str: "string", bool: "boolean", int: "integer", float: "number"}


def _decode(hint: Any, value: Any, path: str) -> Any:
    """``value`` decoded as annotation ``hint``; errors name the dotted ``path``."""
    if dataclasses.is_dataclass(hint):
        if isinstance(value, hint):
            return value
        if not isinstance(value, Mapping):
            raise ConfigurationError(f"{path} must be a mapping, got {type(value).__name__}")
        fields = dataclasses.fields(hint)
        names = sorted(f.name for f in fields)
        unknown = sorted(set(value) - set(names))
        if unknown:
            raise ConfigurationError(f"unknown key(s) {unknown} in {path}; valid keys: {names}")
        for f in fields:
            required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
            if required and f.name not in value:
                raise ConfigurationError(f"{path}: missing required key {f.name!r}")
        hints = typing.get_type_hints(hint)
        return hint(**{k: _decode(hints[k], v, f"{path}.{k}") for k, v in value.items()})
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Union:
        members = [arg for arg in args if arg is not type(None)]
        if value is None and len(members) < len(args):
            return None
        return _decode(members[0], value, path) if len(members) == 1 else value
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        if not isinstance(value, (list, tuple)):
            raise ConfigurationError(f"{path}: expected array, got {type(value).__name__}")
        return tuple(_decode(args[0], item, f"{path}.{i}") for i, item in enumerate(value))
    if hint in _LEAF_TYPES:
        accepted = (int, float) if hint is float else hint
        if not isinstance(value, accepted) or (hint is not bool and isinstance(value, bool)):
            raise ConfigurationError(
                f"{path}: expected {_LEAF_TYPES[hint]}, got {type(value).__name__}"
            )
    return value


class JsonRecord:
    """JSON codec mixin for frozen dataclasses, driven by their type hints.

    ``from_dict`` accepts an instance unchanged; otherwise it needs a mapping
    with no unknown keys and every field without a default, and decodes each
    value by its annotation: nested dataclasses recurse, ``Optional[X]`` lets
    ``None`` through, ``Tuple[X, ...]`` decodes each item into a tuple, and
    ``str``/``bool``/``int``/``float`` are type-checked (an int is a valid
    float, a bool is no number).  Other annotations pass the value through.
    Every error is a :class:`ConfigurationError` naming the dotted path from
    the root, which is the class name in snake case without ``Spec``
    (``experiment.fleet.mutators.0``).
    """

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready nested dictionary (tuples become lists)."""
        return to_jsonable(dataclasses.asdict(self))

    @classmethod
    def from_dict(cls, payload: Any):
        """Rebuild a record from :meth:`to_dict` output (malformed input raises)."""
        root = re.sub(r"(?<=[a-z])(?=[A-Z])", "_", cls.__name__.strip("_").removesuffix("Spec"))
        return _decode(cls, payload, root.lower())

    def to_json(self, path: PathLike) -> Path:
        """Write the record as pretty-printed JSON; returns the path."""
        return save_json(path, self.to_dict())

    @classmethod
    def from_json(cls, path: PathLike):
        """Load a record written by :meth:`to_json`."""
        return cls.from_dict(load_json(path))


def save_json(path: PathLike, payload: Mapping[str, Any]) -> Path:
    """Write ``payload`` as pretty-printed JSON and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(to_jsonable(dict(payload)), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_json(path: PathLike) -> Dict[str, Any]:
    """Load a JSON document written by :func:`save_json`."""
    path = Path(path)
    if not path.exists():
        raise SerializationError(f"no such file: {path}")
    with path.open("r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise SerializationError(f"malformed JSON in {path}: {exc}") from exc


def save_arrays(path: PathLike, arrays: Mapping[str, np.ndarray]) -> Path:
    """Save a mapping of named arrays to a compressed ``.npz`` archive."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **{str(k): np.asarray(v) for k, v in arrays.items()})
    # np.savez appends .npz if missing; normalise the returned path.
    if not str(path).endswith(".npz"):
        path = Path(str(path) + ".npz")
    return path


def load_arrays(path: PathLike) -> Dict[str, np.ndarray]:
    """Load an ``.npz`` archive written by :func:`save_arrays` into a dict."""
    path = Path(path)
    if not path.exists():
        raise SerializationError(f"no such file: {path}")
    with np.load(path, allow_pickle=False) as archive:
        return {key: archive[key].copy() for key in archive.files}
