"""Versioned on-disk bundles for fitted models (the artifact protocol).

A **bundle** is a directory that makes one fitted model self-contained:

``manifest.json``
    Format version, registry name, label space, serialized feature spec,
    training-corpus fingerprint and the model's state *tree* — a nested
    JSON structure in which every NumPy array has been replaced by a
    ``{"__array__": <key>}`` reference.
``arrays-<digest>.npz``
    One compressed archive holding every referenced array under its key,
    named by a content digest and referenced from the manifest.  Every file
    is written atomically and the archive before the manifest, so a reader
    racing a re-export always pairs a manifest with exactly the archive it
    references (superseded archives are left behind for in-flight readers).

The split keeps the manifest human-readable (configs, vocabularies, idf
weights live in JSON, where floats round-trip exactly) while large weight
matrices stay in binary form.  :func:`write_bundle` / :func:`read_bundle` are
the only functions that touch the layout; models interact through
:meth:`repro.models.base.CuisineModel.save_bundle` /
:meth:`~repro.models.base.CuisineModel.load_bundle`.
"""

from __future__ import annotations

import fnmatch
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.pipeline.store import atomic_replace

#: Bump when the bundle layout changes incompatibly.
BUNDLE_FORMAT_VERSION = 1

MANIFEST_NAME = "manifest.json"

#: Name of the per-array index written into an extracted-archive directory;
#: it is written last (atomically), so its presence marks a complete
#: extraction.
_EXTRACT_INDEX = "index.json"

_ARRAY_REF = "__array__"

#: Narrowing candidates for integer arrays, smallest first.
_INT_NARROWING: tuple[type, ...] = (np.int8, np.int16, np.int32)


@dataclass(frozen=True)
class DtypePolicy:
    """Storage dtype policy for bundle arrays.

    The default policy (``"exact"``) stores every array exactly as the model
    produced it; :meth:`~repro.models.base.CuisineModel.save_bundle` uses it
    for the statistical models and ``"float32"`` for the neural families.
    Slimmer policies downcast *where a recorded tolerance check
    passes*: a float array is stored as ``float_dtype`` only when the
    round-trip ``allclose(array, array.astype(f).astype(original))`` holds at
    (*rtol*, *atol*); integer arrays are narrowed to the smallest of
    int8/int16/int32 that holds their value range (always lossless).  Every
    conversion is recorded in the manifest (original dtype, stored dtype,
    measured ``max_abs_error``), and the manifest's ``exact`` flag is true
    only when **no** array was changed — a loader can tell at a glance
    whether bitwise-identical behaviour is guaranteed.

    Shorthands accepted by :meth:`resolve` (and thus by
    ``save_bundle``/``write_bundle``):

    * ``None`` / ``"exact"`` — store everything untouched;
    * ``"float32"`` — floats to float32 where the tolerance passes;
    * ``"slim"`` — ``"float32"`` plus lossless integer narrowing.
    """

    name: str = "exact"
    float_dtype: str | None = None
    narrow_ints: bool = False
    rtol: float = 1e-6
    atol: float = 1e-9

    @classmethod
    def resolve(cls, policy: "DtypePolicy | str | None") -> "DtypePolicy":
        """Normalise a policy argument (instance, shorthand, or ``None``)."""
        if policy is None:
            return cls()
        if isinstance(policy, DtypePolicy):
            return policy
        if policy == "exact":
            return cls()
        if policy == "float32":
            return cls(name="float32", float_dtype="float32")
        if policy == "slim":
            return cls(name="slim", float_dtype="float32", narrow_ints=True)
        raise ValueError(
            f"unknown dtype policy {policy!r}; expected a DtypePolicy, "
            "'exact', 'float32' or 'slim'"
        )

    # ------------------------------------------------------------------
    def apply(self, array: np.ndarray) -> tuple[np.ndarray, dict | None]:
        """``(stored_array, conversion_record)`` for one bundle array.

        The record is ``None`` when the array is stored untouched; otherwise
        it names the original/stored dtypes and the measured round-trip
        ``max_abs_error`` (0.0 for lossless integer narrowing).
        """
        if self.float_dtype is not None and np.issubdtype(array.dtype, np.floating):
            target = np.dtype(self.float_dtype)
            if target.itemsize < array.dtype.itemsize:
                with np.errstate(over="ignore"):  # overflow to inf fails allclose
                    stored = array.astype(target)
                round_trip = stored.astype(array.dtype)
                if np.allclose(array, round_trip, rtol=self.rtol, atol=self.atol, equal_nan=True):
                    error = (
                        float(np.max(np.abs(np.nan_to_num(array - round_trip))))
                        if array.size
                        else 0.0
                    )
                    return stored, {
                        "original": str(array.dtype),
                        "stored": str(target),
                        "max_abs_error": error,
                    }
        if self.narrow_ints and np.issubdtype(array.dtype, np.signedinteger):
            if array.size:
                low, high = int(array.min()), int(array.max())
                for candidate in _INT_NARROWING:
                    info = np.iinfo(candidate)
                    if np.dtype(candidate).itemsize >= array.dtype.itemsize:
                        break
                    if info.min <= low and high <= info.max:
                        return array.astype(candidate), {
                            "original": str(array.dtype),
                            "stored": str(np.dtype(candidate)),
                            "max_abs_error": 0.0,
                        }
        return array, None


def _flatten(value: Any, path: str, arrays: dict[str, np.ndarray]) -> Any:
    """Replace every array in a state tree by a reference into *arrays*."""
    if isinstance(value, np.ndarray):
        arrays[path] = value
        return {_ARRAY_REF: path}
    if isinstance(value, dict):
        if _ARRAY_REF in value:
            raise ValueError(
                f"state dict at {path!r} uses the reserved key {_ARRAY_REF!r}"
            )
        return {
            str(key): _flatten(item, f"{path}/{key}", arrays)
            for key, item in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [_flatten(item, f"{path}/{index}", arrays) for index, item in enumerate(value)]
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(
        f"state value at {path!r} is not bundle-serialisable: {type(value).__name__}"
    )


def _unflatten(tree: Any, arrays: dict[str, np.ndarray]) -> Any:
    """Inverse of :func:`_flatten`: resolve array references back to arrays."""
    if isinstance(tree, dict):
        if set(tree) == {_ARRAY_REF}:
            return arrays[tree[_ARRAY_REF]]
        return {key: _unflatten(item, arrays) for key, item in tree.items()}
    if isinstance(tree, list):
        return [_unflatten(item, arrays) for item in tree]
    return tree


def _state_digest(tree: Any, arrays: dict[str, np.ndarray]) -> str:
    """Content digest of a flattened state (tree structure + array bytes)."""
    digest = hashlib.blake2b(digest_size=8)
    digest.update(json.dumps(tree, sort_keys=True, separators=(",", ":")).encode("utf-8"))
    for key in sorted(arrays):
        array = np.ascontiguousarray(arrays[key])
        digest.update(key.encode("utf-8"))
        digest.update(str(array.dtype).encode("utf-8"))
        digest.update(str(array.shape).encode("utf-8"))
        digest.update(array.tobytes())
    return digest.hexdigest()


def write_bundle(
    path: str | Path,
    manifest: dict,
    state: dict,
    dtype_policy: DtypePolicy | str | None = None,
) -> Path:
    """Write a model bundle directory.

    Args:
        path: Bundle directory (created if needed; existing files are
            overwritten).
        manifest: Model metadata (name, label space, feature spec, ...).
            Must not contain the reserved keys ``format_version`` / ``state``
            / ``arrays`` / ``exact`` / ``dtype_policy`` / ``array_dtypes``.
        state: The model's :meth:`get_state` tree — nested dicts/lists with
            JSON-able leaves and NumPy arrays.
        dtype_policy: Storage dtype policy for the state arrays (a
            :class:`DtypePolicy`, the shorthands ``"exact"``/``"float32"``/
            ``"slim"``, or ``None`` for exact storage).  The written manifest
            carries the policy name, an ``exact`` flag (true only when no
            array was converted) and a per-array ``array_dtypes`` record of
            every conversion.

    Returns:
        The bundle directory path.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    reserved = {
        "format_version",
        "state",
        "arrays",
        "exact",
        "dtype_policy",
        "array_dtypes",
    } & set(manifest)
    if reserved:
        raise ValueError(f"manifest uses reserved keys: {sorted(reserved)}")
    policy = DtypePolicy.resolve(dtype_policy)
    arrays: dict[str, np.ndarray] = {}
    tree = _flatten(state, "state", arrays)
    conversions: dict[str, dict] = {}
    for key in sorted(arrays):
        stored, record = policy.apply(arrays[key])
        if record is not None:
            arrays[key] = stored
            conversions[key] = record

    def write_arrays(tmp: Path) -> None:
        with open(tmp, "wb") as stream:
            np.savez_compressed(stream, **arrays)

    # The archive carries a content digest in its name and is written
    # (atomically) before the manifest: a reader racing a re-export either
    # sees the old manifest + old archive or the new pair — never a mix.
    # Identical state re-exports to the same name; superseded archives are
    # left on disk for readers still holding the previous manifest.
    arrays_name = None
    if arrays:
        arrays_name = f"arrays-{_state_digest(tree, arrays)}.npz"
        atomic_replace(path / arrays_name, write_arrays)
    payload = {
        **manifest,
        "format_version": BUNDLE_FORMAT_VERSION,
        "arrays": arrays_name,
        "state": tree,
        #: True only when every array is stored bit-for-bit as produced;
        #: loaders use this to know whether bitwise-identical behaviour is
        #: guaranteed without inspecting array_dtypes.
        "exact": not conversions,
        "dtype_policy": policy.name,
        "array_dtypes": conversions,
    }
    atomic_replace(
        path / MANIFEST_NAME,
        lambda tmp: tmp.write_text(
            json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8"
        ),
    )
    return path


def extract_archive(path: str | Path, archive_name: str) -> Path:
    """Extract a bundle's ``arrays-<digest>.npz`` into mappable ``.npy`` files.

    The compressed npz archive cannot be memory-mapped (its members are
    deflated inside the zip), so the mmap loading path materialises a sibling
    directory ``arrays-<digest>.extracted/`` holding one plain ``.npy`` file
    per array plus an ``index.json`` mapping array keys to file names.  The
    archive is content-addressed and immutable, so the extraction is too:

    * every ``.npy`` is written through :func:`atomic_replace`, and the index
      is written last — a directory with an index is always complete;
    * concurrent extractors (N cluster workers cold-starting on one bundle)
      may duplicate work but land byte-identical files, never torn ones;
    * a finished extraction is reused for free by every later mmap load, and
      its pages are shared by every process that maps them.

    Returns the extraction directory.
    """
    path = Path(path)
    extract_dir = path / f"{Path(archive_name).stem}.extracted"
    index_path = extract_dir / _EXTRACT_INDEX
    if index_path.is_file():
        return extract_dir
    extract_dir.mkdir(parents=True, exist_ok=True)
    index: dict[str, str] = {}
    with np.load(path / archive_name) as archive:
        # Keys are state paths ("state/coef"); file names are positional so
        # no sanitisation can collide.
        for position, key in enumerate(sorted(archive.files)):
            file_name = f"a{position:05d}.npy"
            array = archive[key]

            def write(tmp: Path, array: np.ndarray = array) -> None:
                with open(tmp, "wb") as stream:
                    np.save(stream, array)

            atomic_replace(extract_dir / file_name, write)
            index[key] = file_name
    atomic_replace(
        index_path,
        lambda tmp: tmp.write_text(json.dumps(index, sort_keys=True), encoding="utf-8"),
    )
    return extract_dir


def _load_arrays_mmap(
    path: Path, archive_name: str, materialize: Sequence[str]
) -> dict[str, np.ndarray]:
    """Memory-mapped view of a bundle's arrays (see :func:`extract_archive`).

    Arrays whose key matches an fnmatch pattern of *materialize* are loaded
    as ordinary in-memory copies — the opt-out for arrays a model mutates in
    place (a mapped array is read-only; writing to it raises).
    """
    extract_dir = extract_archive(path, archive_name)
    index = json.loads((extract_dir / _EXTRACT_INDEX).read_text(encoding="utf-8"))
    arrays: dict[str, np.ndarray] = {}
    for key, file_name in index.items():
        if any(fnmatch.fnmatchcase(key, pattern) for pattern in materialize):
            arrays[key] = np.load(extract_dir / file_name)
        else:
            arrays[key] = np.load(extract_dir / file_name, mmap_mode="r")
    return arrays


def read_bundle(
    path: str | Path,
    *,
    mmap: bool = False,
    materialize: Sequence[str] = (),
) -> tuple[dict, dict]:
    """Read a bundle directory back into ``(manifest, state)``.

    The returned manifest no longer contains the ``state``/``arrays`` keys;
    the state tree has every array reference resolved.

    Args:
        mmap: Load state arrays as read-only memory maps over an extracted
            ``.npy`` sidecar of the content-addressed archive (see
            :func:`extract_archive`) instead of in-memory copies.  Mapped
            pages are shared between every process serving the same bundle,
            so N workers hold one physical copy; array *values* are
            bit-for-bit identical to a normal load.
        materialize: fnmatch patterns (against state-array keys such as
            ``state/coef``) that are loaded as plain in-memory arrays even
            under ``mmap=True`` — the opt-out for arrays a model mutates.

    Raises:
        FileNotFoundError: When *path* is not a bundle directory.
        ValueError: On a format-version mismatch.
    """
    path = Path(path)
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.exists():
        raise FileNotFoundError(f"no model bundle at {path} (missing {MANIFEST_NAME})")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    version = manifest.pop("format_version", None)
    if version != BUNDLE_FORMAT_VERSION:
        raise ValueError(
            f"unsupported bundle format version {version!r} at {path}; "
            f"this build reads version {BUNDLE_FORMAT_VERSION}"
        )
    arrays: dict[str, np.ndarray] = {}
    archive_name = manifest.pop("arrays", None)
    if archive_name:
        if mmap:
            arrays = _load_arrays_mmap(path, archive_name, materialize)
        else:
            with np.load(path / archive_name) as archive:
                arrays = {name: archive[name] for name in archive.files}
    state = _unflatten(manifest.pop("state"), arrays)
    return manifest, state


def is_bundle(path: str | Path) -> bool:
    """Whether *path* looks like a model bundle directory."""
    return (Path(path) / MANIFEST_NAME).is_file()
