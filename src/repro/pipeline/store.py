"""Content-addressed feature store: compute every corpus artifact once.

Every preprocessing product — token sequences, document strings, fitted
TF-IDF vectorizers, vocabulary objects, transformed matrices, encoded
batches — is keyed by the fingerprints of the corpus and configuration that
produce it.  Repeated requests (from other models in the same experiment,
from ablation reruns, from benchmarks) hit the in-memory LRU layer or, when a
cache directory is configured, reload the artifact from disk instead of
re-running the pure-Python pipeline.

The store is thread-safe: the experiment runner trains independent models
concurrently and hands them all the same store.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from collections import Counter, OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np
from scipy import sparse

from repro.data.recipedb import RecipeDB
from repro.features.tfidf import TfidfVectorizer
from repro.pipeline.fingerprint import artifact_key, config_key, sequence_key
from repro.pipeline.specs import (
    FeatureSpec,
    ModelInputs,
    SequenceSpec,
    TfidfSpec,
    pipeline_configs,
)
from repro.text.pipeline import PipelineConfig, PreprocessingPipeline
from repro.text.sequences import EncodedBatch, SequenceEncoder
from repro.text.vocabulary import Vocabulary


def atomic_replace(path: Path, write: Callable[[Path], None]) -> None:
    """Write through a sibling temp file + atomic rename.

    Concurrent processes may share a cache dir (or a bundle export dir); a
    reader that sees the file exist must never observe a half-written
    artifact.
    """
    handle, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    os.close(handle)
    tmp_path = Path(tmp_name)
    try:
        write(tmp_path)
        os.replace(tmp_path, path)
    except BaseException:
        tmp_path.unlink(missing_ok=True)
        raise


def _save_json(path: Path, value: Any) -> None:
    atomic_replace(path, lambda tmp: tmp.write_text(json.dumps(value), encoding="utf-8"))


def _load_json(path: Path) -> Any:
    return json.loads(path.read_text(encoding="utf-8"))


def _save_csr(path: Path, matrix: sparse.csr_matrix) -> None:
    def write(tmp: Path) -> None:
        with open(tmp, "wb") as stream:
            np.savez_compressed(
                stream,
                data=matrix.data,
                indices=matrix.indices,
                indptr=matrix.indptr,
                shape=np.asarray(matrix.shape, dtype=np.int64),
            )

    atomic_replace(path, write)


def _load_csr(path: Path) -> sparse.csr_matrix:
    with np.load(path) as payload:
        return sparse.csr_matrix(
            (payload["data"], payload["indices"], payload["indptr"]),
            shape=tuple(payload["shape"]),
        )


def _jsonable_state(value: Any) -> Any:
    """Recursively convert an artifact-protocol state to pure-JSON values.

    Arrays become lists; JSON float round-trips are exact, so states restored
    with ``np.asarray`` reproduce the original arrays bitwise.
    """
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: _jsonable_state(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable_state(item) for item in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


class FeatureStore:
    """Compute-once cache of corpus-derived artifacts.

    Args:
        cache_dir: Optional directory for on-disk persistence.  Token lists
            and documents are stored as JSON, TF-IDF matrices as ``.npz``;
            artifacts found on disk are loaded instead of recomputed (and
            still count as cache hits).
        max_entries: Bound on the in-memory LRU layer.  The least recently
            used artifact is evicted first; disk copies survive eviction.
    """

    def __init__(self, cache_dir: str | Path | None = None, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple[str, str], Any] = OrderedDict()
        self._lock = threading.RLock()
        #: Per-key locks serialize concurrent materialization of the *same*
        #: artifact (so exactly one writer computes and persists it) while
        #: letting distinct artifacts compute in parallel — the global lock
        #: is only ever held for bookkeeping, never across a computation.
        #: Entries are refcounted ``[lock, holders]`` pairs: the mapping
        #: lives exactly as long as some thread holds or waits on the lock,
        #: so same-key threads always share one lock (even across LRU
        #: eviction of the entry) and the dict stays bounded by concurrency.
        self._key_locks: dict[tuple[str, str], list] = {}
        self.hits: Counter = Counter()
        self.disk_hits: Counter = Counter()
        self.misses: Counter = Counter()
        self._pipelines: dict[str, PreprocessingPipeline] = {}

    # ------------------------------------------------------------------
    # cache machinery
    # ------------------------------------------------------------------
    def _disk_path(self, kind: str, key: str, suffix: str) -> Path | None:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{kind}-{key}{suffix}"

    def _memory_get(self, full_key: tuple[str, str]) -> tuple[bool, Any]:
        """(found, value) from the LRU layer, counting a hit when found."""
        with self._lock:
            if full_key in self._entries:
                self.hits[full_key[0]] += 1
                self._entries.move_to_end(full_key)
                return True, self._entries[full_key]
        return False, None

    def _memory_put(self, full_key: tuple[str, str], value: Any) -> None:
        with self._lock:
            self._entries[full_key] = value
            self._entries.move_to_end(full_key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    @contextmanager
    def _key_lock(self, full_key: tuple[str, str]):
        with self._lock:
            entry = self._key_locks.get(full_key)
            if entry is None:
                entry = [threading.RLock(), 0]
                self._key_locks[full_key] = entry
            entry[1] += 1
        try:
            with entry[0]:
                yield
        finally:
            with self._lock:
                entry[1] -= 1
                if entry[1] <= 0:
                    self._key_locks.pop(full_key, None)

    def _get_or_compute(
        self,
        kind: str,
        key: str,
        compute: Callable[[], Any],
        suffix: str | None = None,
        save: Callable[[Path, Any], None] | None = None,
        load: Callable[[Path], Any] | None = None,
    ) -> Any:
        full_key = (kind, key)
        found, value = self._memory_get(full_key)
        if found:
            return value
        with self._key_lock(full_key):
            # Re-check: another thread may have materialised the artifact
            # while this one waited on the key lock.
            found, value = self._memory_get(full_key)
            if found:
                return value
            path = self._disk_path(kind, key, suffix) if suffix else None
            if path is not None and load is not None and path.exists():
                value = load(path)
                with self._lock:
                    self.disk_hits[kind] += 1
            else:
                value = compute()
                with self._lock:
                    self.misses[kind] += 1
                if path is not None and save is not None:
                    save(path, value)
            self._memory_put(full_key, value)
            return value

    # ------------------------------------------------------------------
    # raw artifact access (the corpus engine's interface)
    # ------------------------------------------------------------------
    def lookup(
        self,
        kind: str,
        key: str,
        suffix: str | None = None,
        load: Callable[[Path], Any] | None = None,
    ) -> tuple[bool, Any]:
        """(found, value) for an artifact, without computing it.

        Checks the in-memory LRU first, then (when *suffix*/*load* are given
        and a cache directory is configured) the disk layer, promoting disk
        finds into memory.  Hits are counted; a miss counts nothing — the
        caller is expected to compute the artifact itself and record it via
        :meth:`insert`.
        """
        full_key = (kind, key)
        found, value = self._memory_get(full_key)
        if found:
            return True, value
        path = self._disk_path(kind, key, suffix) if suffix else None
        if path is not None and load is not None and path.exists():
            with self._key_lock(full_key):
                found, value = self._memory_get(full_key)
                if found:
                    return True, value
                value = load(path)
                with self._lock:
                    self.disk_hits[kind] += 1
                self._memory_put(full_key, value)
                return True, value
        return False, None

    def insert(
        self,
        kind: str,
        key: str,
        value: Any,
        suffix: str | None = None,
        save: Callable[[Path, Any], None] | None = None,
        count_miss: bool = True,
    ) -> Any:
        """Record an externally computed artifact.

        Counted as a miss by default (the artifact *was* computed, just not
        inside the store); pass ``count_miss=False`` for pure cache seeding
        (e.g. the serving layer republishing shard outputs under per-sequence
        keys).  Persists to disk when *suffix*/*save* are given.
        """
        full_key = (kind, key)
        with self._key_lock(full_key):
            if count_miss:
                with self._lock:
                    self.misses[kind] += 1
            path = self._disk_path(kind, key, suffix) if suffix else None
            if path is not None and save is not None:
                save(path, value)
            self._memory_put(full_key, value)
        return value

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Hit/miss counters and current residency, per artifact kind."""
        with self._lock:
            return {
                "hits": dict(self.hits),
                "disk_hits": dict(self.disk_hits),
                "misses": dict(self.misses),
                "entries": len(self._entries),
            }

    def hit_count(self, kind: str | None = None) -> int:
        """Total (memory + disk) hits, optionally for one artifact kind."""
        if kind is None:
            return sum(self.hits.values()) + sum(self.disk_hits.values())
        return self.hits[kind] + self.disk_hits[kind]

    def miss_count(self, kind: str | None = None) -> int:
        """Number of artifact computations, optionally for one kind."""
        if kind is None:
            return sum(self.misses.values())
        return self.misses[kind]

    def reset_stats(self) -> None:
        """Zero all counters (cached artifacts are kept)."""
        with self._lock:
            self.hits.clear()
            self.disk_hits.clear()
            self.misses.clear()

    def clear(self) -> None:
        """Drop every in-memory artifact (disk copies are kept)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    # preprocessing artifacts
    # ------------------------------------------------------------------
    def _pipeline_for(self, config: PipelineConfig) -> PreprocessingPipeline:
        key = config_key(config)
        pipeline = self._pipelines.get(key)
        if pipeline is None:
            with self._lock:
                pipeline = self._pipelines.setdefault(key, PreprocessingPipeline(config))
        return pipeline

    def tokens(self, corpus: RecipeDB, pipeline_config: PipelineConfig) -> list[list[str]]:
        """Preprocessed token sequences of *corpus* under *pipeline_config*."""
        key = artifact_key(corpus.fingerprint(), pipeline_config)
        return self._get_or_compute(
            "tokens",
            key,
            lambda: self._pipeline_for(pipeline_config).process_corpus(corpus),
            suffix=".json",
            save=_save_json,
            load=_load_json,
        )

    def sequence_tokens(
        self, sequence: Sequence[str], pipeline_config: PipelineConfig
    ) -> list[str]:
        """Preprocessed tokens of a single raw item sequence (no corpus).

        Keyed by the sequence content alone, so the serving layer reuses
        preprocessing across arbitrary request-batch compositions: a sequence
        seen in any earlier batch (or via :meth:`~FeatureStore.sequence_tokens`
        warm-up) is a pure cache hit regardless of which model or batch asks.
        """
        key = sequence_key(sequence, pipeline_config)
        return self._get_or_compute(
            "sequence_tokens",
            key,
            lambda: self._pipeline_for(pipeline_config).process_sequence(list(sequence)),
            suffix=".json",
            save=_save_json,
            load=_load_json,
        )

    def documents(self, corpus: RecipeDB, pipeline_config: PipelineConfig) -> list[str]:
        """Whitespace-joined document strings (the TF-IDF input form)."""
        key = artifact_key(corpus.fingerprint(), pipeline_config)
        return self._get_or_compute(
            "documents",
            key,
            lambda: [" ".join(tokens) for tokens in self.tokens(corpus, pipeline_config)],
            suffix=".json",
            save=_save_json,
            load=_load_json,
        )

    def labels(self, corpus: RecipeDB, label_space: Sequence[str]) -> np.ndarray:
        """Integer labels of *corpus* under *label_space*."""
        key = artifact_key(corpus.fingerprint(), tuple(label_space))
        return self._get_or_compute(
            "labels",
            key,
            lambda: np.asarray(corpus.labels(tuple(label_space)), dtype=np.int64),
        )

    # ------------------------------------------------------------------
    # TF-IDF artifacts
    # ------------------------------------------------------------------
    def tfidf_vectorizer(self, train_corpus: RecipeDB, spec: TfidfSpec):
        """The TF-IDF vectorizer of *spec*, fitted on *train_corpus* once.

        Fitted vectorizers persist to the disk cache (as JSON artifact-protocol
        state) like every other artifact, so a warm ``cache_dir`` restores them
        across processes without re-fitting.
        """
        key = artifact_key(train_corpus.fingerprint(), spec)

        def fit() -> Any:
            vectorizer = spec.build_vectorizer()
            vectorizer.fit(self.documents(train_corpus, spec.pipeline))
            return vectorizer

        return self._get_or_compute(
            "tfidf_vectorizer",
            key,
            fit,
            suffix=".json",
            save=lambda path, vectorizer: _save_json(path, _jsonable_state(vectorizer.get_state())),
            load=lambda path: TfidfVectorizer.from_state(_load_json(path)),
        )

    def tfidf_matrix(
        self, corpus: RecipeDB, spec: TfidfSpec, train_corpus: RecipeDB | None = None
    ) -> sparse.csr_matrix:
        """TF-IDF matrix of *corpus* under the vectorizer fitted on *train_corpus*."""
        train_corpus = train_corpus if train_corpus is not None else corpus
        key = artifact_key(corpus.fingerprint(), train_corpus.fingerprint(), spec)
        return self._get_or_compute(
            "tfidf_matrix",
            key,
            lambda: self.tfidf_vectorizer(train_corpus, spec).transform(
                self.documents(corpus, spec.pipeline)
            ),
            suffix=".npz",
            save=_save_csr,
            load=_load_csr,
        )

    # ------------------------------------------------------------------
    # sequence artifacts
    # ------------------------------------------------------------------
    def vocabulary(self, train_corpus: RecipeDB, spec: SequenceSpec) -> Vocabulary:
        """Token vocabulary of *spec* built from *train_corpus* once.

        Keyed on the vocabulary-relevant parts of the spec only, so models
        that differ just in ``max_length``/``add_cls`` still share it.
        """
        key = artifact_key(
            train_corpus.fingerprint(),
            (spec.pipeline, spec.min_token_freq, spec.max_vocab_size),
        )
        return self._get_or_compute(
            "vocabulary",
            key,
            lambda: Vocabulary.build(
                self.tokens(train_corpus, spec.pipeline),
                min_freq=spec.min_token_freq,
                max_size=spec.max_vocab_size,
            ),
            suffix=".json",
            save=lambda path, vocabulary: _save_json(path, vocabulary.get_state()),
            load=lambda path: Vocabulary.from_state(_load_json(path)),
        )

    def encoded_batch(
        self, corpus: RecipeDB, spec: SequenceSpec, train_corpus: RecipeDB | None = None
    ) -> EncodedBatch:
        """Padded id/mask batch of *corpus* under the *train_corpus* vocabulary."""
        train_corpus = train_corpus if train_corpus is not None else corpus
        key = artifact_key(corpus.fingerprint(), train_corpus.fingerprint(), spec)

        def encode() -> EncodedBatch:
            encoder = SequenceEncoder(
                self.vocabulary(train_corpus, spec),
                max_length=spec.max_length,
                add_cls=spec.add_cls,
            )
            return encoder.encode(self.tokens(corpus, spec.pipeline))

        return self._get_or_compute("encoded", key, encode)

    # ------------------------------------------------------------------
    # model-facing dispatch
    # ------------------------------------------------------------------
    def model_inputs(
        self,
        spec: FeatureSpec,
        corpus: RecipeDB,
        train_corpus: RecipeDB | None = None,
        label_space: Sequence[str] | None = None,
        with_labels: bool = True,
    ) -> ModelInputs:
        """Resolve *spec* into the artifacts a model's two-phase API consumes."""
        train_corpus = train_corpus if train_corpus is not None else corpus
        labels = None
        if with_labels:
            if label_space is None:
                raise ValueError("label_space is required when with_labels is true")
            labels = self.labels(corpus, label_space)
        if isinstance(spec, TfidfSpec):
            return ModelInputs(
                features=self.tfidf_matrix(corpus, spec, train_corpus),
                labels=labels,
                vectorizer=self.tfidf_vectorizer(train_corpus, spec),
            )
        if isinstance(spec, SequenceSpec):
            return ModelInputs(
                features=self.encoded_batch(corpus, spec, train_corpus),
                labels=labels,
                vocabulary=self.vocabulary(train_corpus, spec),
            )
        raise TypeError(f"unsupported feature spec {type(spec).__name__}")

    def warm(
        self,
        corpora: Sequence[RecipeDB],
        specs: Sequence[FeatureSpec],
        train_corpus: RecipeDB | None = None,
        label_space: Sequence[str] | None = None,
    ) -> None:
        """Precompute every artifact for *corpora* under *specs*.

        Called by the experiment runner before spawning worker threads: the
        pure-Python pipeline runs exactly once per (corpus, pipeline
        configuration) pair and, when *train_corpus* is given, every
        downstream artifact (fitted vectorizers/vocabularies, transformed
        matrices, encoded batches, labels when *label_space* is given) is
        materialised too — the concurrent training phase then resolves
        artifacts as pure cache hits instead of contending on the store lock.
        """
        populated = [corpus for corpus in corpora if len(corpus) > 0]
        for config in pipeline_configs(specs):
            for corpus in populated:
                self.tokens(corpus, config)
        if train_corpus is None:
            return
        for spec in specs:
            for corpus in populated:
                self.model_inputs(
                    spec,
                    corpus,
                    train_corpus=train_corpus,
                    label_space=label_space,
                    with_labels=label_space is not None,
                )
