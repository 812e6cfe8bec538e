"""Versioned model registry: content-addressed detector checkpoints on disk.

The registry is the adaptation loop's persistence layer.  Every checkpoint is
a full detector snapshot — architecture config, weight arrays (dtype
preserved, so FP16-quantised checkpoints stay FP16 on disk) and the fitted
Gaussian scorer state — stored under a version id derived from the content
itself, plus lineage metadata (parent version, the training-window tick
range, the quantization report).  Committing identical content twice yields
the same version, which is what makes rollback and replay deterministic.

On-disk layout (deterministic; everything JSON or ``.npz``)::

    <root>/
      manifest.json                  # {"tiers": {tier: [v0, v1, ...]}} lineage
      versions/<version>/meta.json   # ModelVersion metadata
      versions/<version>/model.json  # architecture config
      versions/<version>/model.weights.npz
      versions/<version>/scorer.npz  # GaussianLogPDScorer state

The per-tier lineage in ``manifest.json`` is an ordered promotion history:
the last entry is the *current* version, :meth:`ModelRegistry.rollback` pops
it, and rolling back past the root raises.  Checkpoint I/O builds on
:mod:`repro.utils.serialization`; a missing or corrupt checkpoint surfaces as
:class:`~repro.exceptions.SerializationError`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.detectors.base import AnomalyDetector
from repro.exceptions import ConfigurationError, SerializationError
from repro.nn.quantization import QuantizationReport
from repro.utils.serialization import (
    JsonRecord,
    load_arrays,
    load_json,
    save_arrays,
    save_json,
)

PathLike = Union[str, Path]

#: Hex digits of the content hash used as the version id.
_VERSION_DIGEST_CHARS = 12

#: Joins the nested weight-dictionary path into one ``.npz`` key (``"encoder/kernel"``).
_SEPARATOR = "/"


def _flatten_weights(tree: dict, prefix: str = "") -> Dict[str, np.ndarray]:
    flat: Dict[str, np.ndarray] = {}
    for key, value in tree.items():
        path = f"{prefix}{_SEPARATOR}{key}" if prefix else str(key)
        if isinstance(value, dict):
            flat.update(_flatten_weights(value, path))
        else:
            # Preserve the stored dtype: coercing through ``dtype=float`` would
            # silently upcast FP16-quantised checkpoints to float64 on save,
            # breaking the registry's dtype round-trip guarantee.
            flat[path] = np.asarray(value)
    return flat


def _unflatten_weights(flat: Dict[str, np.ndarray]) -> dict:
    tree: dict = {}
    for path, value in flat.items():
        parts = path.split(_SEPARATOR)
        node = tree
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    return tree


def _detector_parts(detector: AnomalyDetector):
    """The (model, scorer) pair behind a detector, unwrapping window adapters."""
    target = getattr(detector, "inner", detector)
    model = getattr(target, "model", None)
    scorer = getattr(target, "scorer", None)
    if model is None or scorer is None:
        raise ConfigurationError(
            f"detector {detector.name!r} exposes no model/scorer to checkpoint"
        )
    return target, model, scorer


def _content_version(tier: str, config: Mapping[str, Any],
                     flat_weights: Mapping[str, np.ndarray],
                     scorer_state: Mapping[str, np.ndarray]) -> str:
    """Content-addressed version id: a digest over tier + config + weights + scorer.

    Hashes the tier, the canonical JSON of the config and, for every array
    (sorted by key), its key, dtype, shape and raw bytes — so the id is a
    pure function of the checkpoint content, independent of when or where it
    is written.  The tier is part of the content: two tiers deploying
    byte-identical models still get distinct versions, so each checkpoint's
    stored lineage metadata (tier, parent, training window) is unambiguous.
    """
    digest = hashlib.sha256()
    digest.update(f"tier:{tier}\n".encode("utf-8"))
    digest.update(json.dumps(config, sort_keys=True, default=str).encode("utf-8"))
    for name, arrays in (("weights", flat_weights), ("scorer", scorer_state)):
        for key in sorted(arrays):
            array = np.ascontiguousarray(np.asarray(arrays[key]))
            digest.update(f"{name}/{key}:{array.dtype.str}:{array.shape}".encode("utf-8"))
            digest.update(array.tobytes())
    return f"v-{digest.hexdigest()[:_VERSION_DIGEST_CHARS]}"


@dataclass(frozen=True)
class ModelVersion(JsonRecord):
    """Lineage metadata of one committed checkpoint."""

    version: str
    tier: str
    layer: int
    detector_name: str
    #: Parent version this checkpoint was fine-tuned from (``None`` = root).
    parent: Optional[str]
    #: Event-clock tick range ``[start, end]`` of the training windows
    #: (``None`` for offline-trained roots).
    training_window: Optional[Tuple[int, ...]]
    #: Number of windows the checkpoint was (re)trained on.
    n_train_windows: int
    parameter_count: int
    #: Weight dtypes present in the checkpoint, e.g. ``{"float64": 6}``.
    weight_dtypes: Dict[str, int]
    #: Quantization report of the deployed form (``None`` when unquantised).
    quantization: Optional[Dict[str, Any]]

    def quantization_report(self) -> Optional[QuantizationReport]:
        """The deployed form's :class:`QuantizationReport` (``None`` when
        unquantised), rebuilt from :attr:`quantization`."""
        if self.quantization is None:
            return None
        fields = QuantizationReport.__dataclass_fields__
        return QuantizationReport(**{name: self.quantization[name] for name in fields})


class ModelRegistry:
    """Content-addressed, versioned detector checkpoints with promote/rollback."""

    def __init__(self, root: PathLike) -> None:
        # The directory is created lazily on the first write (commit/promote),
        # so read-only operations against a mistyped path fail loudly instead
        # of conjuring an empty registry.
        self.root = Path(root)

    # -- paths -------------------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.root / "manifest.json"

    def _version_dir(self, version: str) -> Path:
        return self.root / "versions" / version

    def _manifest(self) -> Dict[str, Any]:
        if not self.manifest_path.exists():
            return {"tiers": {}}
        return load_json(self.manifest_path)

    def _write_manifest(self, manifest: Dict[str, Any]) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        save_json(self.manifest_path, manifest)

    # -- committing --------------------------------------------------------------

    def commit(
        self,
        detector: AnomalyDetector,
        tier: str,
        layer: int,
        parent: Optional[str] = None,
        training_window: Optional[tuple] = None,
        n_train_windows: int = 0,
        quantization: Optional[QuantizationReport] = None,
    ) -> ModelVersion:
        """Checkpoint ``detector`` and return its (content-addressed) version.

        Re-committing identical content returns the existing version without
        rewriting it.  The detector must be fitted (the scorer state is part
        of the checkpoint).
        """
        target, model, scorer = _detector_parts(detector)
        config = model.get_config() if hasattr(model, "get_config") else {}
        flat = _flatten_weights(model.get_weights())
        scorer_state = {k: np.asarray(v) for k, v in scorer.get_state().items()}
        version = _content_version(str(tier), config, flat, scorer_state)

        quant_payload = None
        if quantization is not None:
            quant_payload = {
                "parameter_count": quantization.parameter_count,
                "original_bytes": quantization.original_bytes,
                "quantized_bytes": quantization.quantized_bytes,
                "max_absolute_error": quantization.max_absolute_error,
                "compression_ratio": quantization.compression_ratio,
            }
        dtypes: Dict[str, int] = {}
        for array in flat.values():
            key = str(np.asarray(array).dtype)
            dtypes[key] = dtypes.get(key, 0) + 1

        meta = ModelVersion(
            version=version,
            tier=str(tier),
            layer=int(layer),
            detector_name=detector.name,
            parent=parent,
            training_window=(
                tuple(int(t) for t in training_window) if training_window else None
            ),
            n_train_windows=int(n_train_windows),
            parameter_count=int(detector.parameter_count()),
            weight_dtypes=dtypes,
            quantization=quant_payload,
        )

        directory = self._version_dir(version)
        if not directory.exists():
            directory.mkdir(parents=True)
            save_json(directory / "model.json", config)
            save_arrays(directory / "model.weights.npz", flat)
            save_arrays(directory / "scorer.npz", scorer_state)
            save_json(directory / "meta.json", meta.to_dict())
        return meta

    # -- reading -----------------------------------------------------------------

    def versions(self) -> List[ModelVersion]:
        """All committed versions, sorted by version id (deterministic)."""
        versions_dir = self.root / "versions"
        if not versions_dir.exists():
            return []
        return [self.show(path.name) for path in sorted(versions_dir.iterdir())]

    def show(self, version: str) -> ModelVersion:
        """The metadata of one committed version."""
        directory = self._version_dir(version)
        if not directory.exists():
            raise SerializationError(
                f"no checkpoint {version!r} in registry {self.root}"
            )
        return ModelVersion.from_json(directory / "meta.json")

    def restore(self, version: str, detector: AnomalyDetector) -> ModelVersion:
        """Load checkpoint ``version`` into an already-built ``detector``.

        Restores the weight arrays (dtype preserved) and the fitted scorer
        state, and marks the detector fitted.  A missing or structurally
        corrupt checkpoint raises :class:`SerializationError`.
        """
        meta = self.show(version)
        directory = self._version_dir(version)
        target, model, _scorer = _detector_parts(detector)
        try:
            flat = load_arrays(directory / "model.weights.npz")
            scorer_state = load_arrays(directory / "scorer.npz")
            model.set_weights(_unflatten_weights(flat))
            target.scorer = type(target.scorer).from_state(scorer_state)
        except SerializationError:
            raise
        except Exception as exc:
            raise SerializationError(
                f"checkpoint {version!r} in registry {self.root} is corrupt: {exc}"
            ) from exc
        target.fitted = True
        return meta

    # -- promotion ---------------------------------------------------------------

    def current(self, tier: str) -> Optional[str]:
        """The currently promoted version for ``tier`` (``None`` when empty)."""
        lineage = self._manifest()["tiers"].get(str(tier), [])
        return lineage[-1] if lineage else None

    def lineage(self, tier: str) -> List[str]:
        """The tier's promotion history, oldest first (last entry = current)."""
        return list(self._manifest()["tiers"].get(str(tier), []))

    def promote(self, version: str, tier: str) -> None:
        """Append ``version`` to the tier's promotion history (make it current).

        Promoting the already-current version raises — a duplicate promote is
        always a lifecycle bug (the swap would be a no-op that still pollutes
        the rollback history).
        """
        self.show(version)  # must exist
        manifest = self._manifest()
        lineage = manifest["tiers"].setdefault(str(tier), [])
        if lineage and lineage[-1] == version:
            raise ConfigurationError(
                f"version {version!r} is already current for tier {tier!r}"
            )
        lineage.append(version)
        self._write_manifest(manifest)

    def rollback(self, tier: str) -> str:
        """Demote the tier's current version; returns the new current version.

        Rolling back past the root (a tier with fewer than two promoted
        versions) raises.
        """
        manifest = self._manifest()
        lineage = manifest["tiers"].get(str(tier), [])
        if len(lineage) < 2:
            raise ConfigurationError(
                f"cannot roll back tier {tier!r}: "
                + ("it has no promoted versions" if not lineage
                   else f"{lineage[0]!r} is the root version")
            )
        lineage.pop()
        self._write_manifest(manifest)
        return lineage[-1]
