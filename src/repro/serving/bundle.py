"""Bundle discovery and loading for the serving layer.

An **export directory** (as written by
:class:`~repro.core.experiment.ExperimentRunner` with ``export_dir`` set)
holds one bundle sub-directory per trained model.  :func:`discover_bundles`
lists them, :func:`load_bundles` restores them, and :class:`ModelBundle`
pairs a restored model with its manifest metadata.  :func:`validate_manifest`
checks a bundle's manifest schema up front — before any array archive is
touched — so a malformed bundle fails with a message naming the offending
fields instead of a deep ``KeyError``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.models.artifacts import BUNDLE_FORMAT_VERSION, MANIFEST_NAME, is_bundle
from repro.models.base import CuisineModel

#: Fields every bundle manifest must carry.
REQUIRED_MANIFEST_FIELDS: frozenset[str] = frozenset(
    {"format_version", "model", "label_space", "feature_spec", "state"}
)

#: Fields a bundle manifest may carry (required ones included).  The dtype
#: trio is written by every current export (``exact`` true and
#: ``array_dtypes`` empty under the ``"exact"`` policy) and absent from
#: bundles written before dtype policies existed — both are valid.
KNOWN_MANIFEST_FIELDS: frozenset[str] = REQUIRED_MANIFEST_FIELDS | {
    "model_class",
    "corpus_fingerprint",
    "arrays",
    "exact",
    "dtype_policy",
    "array_dtypes",
}


def _read_manifest(path: Path) -> dict:
    """The raw manifest JSON of the bundle at *path* (no validation)."""
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.is_file():
        raise FileNotFoundError(f"no model bundle at {path} (missing {MANIFEST_NAME})")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"bundle manifest at {manifest_path} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ValueError(
            f"bundle manifest at {manifest_path} must be a JSON object, "
            f"got {type(manifest).__name__}"
        )
    return manifest


def validate_manifest(path: str | Path) -> dict:
    """Validate the manifest schema of the bundle at *path*.

    Runs entirely on ``manifest.json`` — the (potentially large)
    ``arrays-<digest>.npz`` archive is checked for existence but never read —
    and raises a single friendly error naming every missing / unknown field.

    Returns:
        The raw manifest dict (with ``format_version``/``state`` intact).

    Raises:
        FileNotFoundError: *path* is not a bundle directory, or the manifest
            references an array archive that does not exist.
        ValueError: Malformed JSON, missing/unknown manifest fields, or an
            unsupported format version.
    """
    path = Path(path)
    manifest = _read_manifest(path)
    missing = sorted(REQUIRED_MANIFEST_FIELDS - manifest.keys())
    unknown = sorted(manifest.keys() - KNOWN_MANIFEST_FIELDS)
    problems = []
    if missing:
        problems.append(f"missing required fields {missing}")
    if unknown:
        problems.append(f"unknown fields {unknown}")
    if problems:
        raise ValueError(
            f"invalid bundle manifest at {path / MANIFEST_NAME}: "
            + " and ".join(problems)
            + f"; a valid manifest has required fields "
            f"{sorted(REQUIRED_MANIFEST_FIELDS)} and optional fields "
            f"{sorted(KNOWN_MANIFEST_FIELDS - REQUIRED_MANIFEST_FIELDS)}"
        )
    version = manifest["format_version"]
    if version != BUNDLE_FORMAT_VERSION:
        raise ValueError(
            f"unsupported bundle format version {version!r} at {path}; "
            f"this build reads version {BUNDLE_FORMAT_VERSION}"
        )
    archive_name = manifest.get("arrays")
    if archive_name and not (path / archive_name).is_file():
        raise FileNotFoundError(
            f"bundle at {path} references array archive {archive_name!r}, "
            f"which does not exist"
        )
    return manifest


@dataclass(frozen=True)
class ModelBundle:
    """A model restored from disk together with its bundle metadata."""

    path: Path
    model: CuisineModel

    @property
    def manifest(self) -> dict:
        return self.model.bundle_manifest or {}

    @property
    def name(self) -> str:
        """Registry name of the bundled model."""
        return self.model.name

    @property
    def label_space(self) -> tuple[str, ...]:
        return self.model.label_space

    @property
    def corpus_fingerprint(self) -> str | None:
        """Fingerprint of the corpus the model was trained on."""
        return self.manifest.get("corpus_fingerprint")

    @classmethod
    def load(cls, path: str | Path, *, mmap: bool = False) -> "ModelBundle":
        """Load the bundle at *path*.

        The manifest schema is validated **up front** (see
        :func:`validate_manifest`) so malformed bundles fail with a clear
        message before ``arrays.npz`` is opened; loading then delegates to
        the registry-aware :meth:`~repro.models.base.CuisineModel.load_bundle`.

        Args:
            mmap: Memory-map the bundle's state arrays (read-only, page-
                shared across processes) instead of copying them into memory;
                ``predict_proba`` is bitwise-identical either way.
        """
        validate_manifest(path)
        return cls(path=Path(path), model=CuisineModel.load_bundle(path, mmap=mmap))


def bundle_name(path: str | Path) -> str:
    """The model name a bundle directory is keyed by.

    The manifest's ``model`` field when present (the authoritative registry
    name), the directory name otherwise.
    """
    path = Path(path)
    try:
        name = _read_manifest(path).get("model")
    except (OSError, ValueError):
        name = None
    return name if isinstance(name, str) and name else path.name


def discover_bundles(export_dir: str | Path) -> dict[str, Path]:
    """Map model name -> bundle path for every bundle under *export_dir*.

    A directory counts as a bundle when it contains a manifest; the model
    name comes from the manifest (falling back to the directory name).  The
    result is deterministic — entries are ordered by model name, independent
    of filesystem iteration order.

    Raises:
        FileNotFoundError: *export_dir* does not exist.
        ValueError: Two bundle directories carry the same model name (the
            error names both paths, instead of one silently shadowing the
            other).
    """
    export_dir = Path(export_dir)
    if not export_dir.is_dir():
        raise FileNotFoundError(f"no export directory at {export_dir}")
    found: dict[str, Path] = {}
    for entry in sorted(export_dir.iterdir()):
        if not (entry.is_dir() and is_bundle(entry)):
            continue
        name = bundle_name(entry)
        if name in found:
            raise ValueError(
                f"duplicate bundle name {name!r} under {export_dir}: "
                f"{found[name]} and {entry} both claim it; rename or remove one"
            )
        found[name] = entry
    return dict(sorted(found.items()))


def load_bundles(
    export_dir: str | Path,
    names: Sequence[str] | None = None,
    *,
    mmap: bool = False,
) -> dict[str, ModelBundle]:
    """Load (a subset of) the bundles under *export_dir*, keyed by model name.

    Args:
        export_dir: Directory of bundle sub-directories.
        names: Restrict loading to these model names (all when ``None``).
        mmap: Memory-map bundle arrays (see :meth:`ModelBundle.load`).

    Raises:
        KeyError: When a requested name has no bundle.
    """
    available = discover_bundles(export_dir)
    if names is None:
        selected = available
    else:
        missing = sorted(set(names) - set(available))
        if missing:
            raise KeyError(
                f"no bundles for {missing} under {export_dir}; "
                f"available: {sorted(available)}"
            )
        selected = {name: available[name] for name in names}
    return {name: ModelBundle.load(path, mmap=mmap) for name, path in selected.items()}
