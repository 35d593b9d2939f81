"""Shared interface of the paper's cuisine classification models.

Models implement a **two-phase API**: they declare a
:class:`~repro.pipeline.specs.FeatureSpec` describing the corpus artifacts
they consume, and implement :meth:`CuisineModel.fit_features` /
:meth:`CuisineModel.predict_proba_features` over precomputed
:class:`~repro.pipeline.specs.ModelInputs`.  The corpus-level
:meth:`CuisineModel.fit` / :meth:`CuisineModel.predict_proba` remain as thin
wrappers that resolve artifacts through a
:class:`~repro.pipeline.store.FeatureStore` — a shared store (as built by the
experiment runner) makes every preprocessing product compute-once across
models; a private store is created transparently for standalone use.
"""

from __future__ import annotations

import abc
import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from repro.core.metrics import ClassificationMetrics, evaluate_predictions
from repro.data.cuisines import CUISINES
from repro.data.recipedb import RecipeDB
from repro.pipeline.specs import FeatureSpec, ModelInputs, spec_to_dict
from repro.pipeline.store import FeatureStore
from repro.text.pipeline import PreprocessingPipeline


class CuisineModel(abc.ABC):
    """A cuisine classifier over :class:`~repro.data.recipedb.RecipeDB` corpora.

    Every Table IV model implements this interface: it declares the features
    it needs, is fit on precomputed training artifacts (optionally with
    validation artifacts), predicts class probabilities over a fixed cuisine
    label space, and is evaluated with the shared Table IV metric set.

    Attributes:
        name: Short identifier used by the registry and the report tables.
        label_space: Tuple of cuisine names defining the class indices.
    """

    #: Overridden by subclasses.
    name: str = "base"

    def __init__(self, label_space: Sequence[str] = CUISINES) -> None:
        if len(label_space) < 2:
            raise ValueError("label space must contain at least two cuisines")
        self.label_space: tuple[str, ...] = tuple(label_space)
        self._store: FeatureStore | None = None
        self._train_corpus: RecipeDB | None = None
        self._train_fingerprint: str | None = None
        self._serving_pipeline: PreprocessingPipeline | None = None
        #: Manifest of the bundle this model was loaded from, if any.
        self.bundle_manifest: dict | None = None

    # ------------------------------------------------------------------
    # two-phase API (the override points)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def feature_spec(self) -> FeatureSpec:
        """The feature artifacts this model consumes."""

    @abc.abstractmethod
    def fit_features(
        self, train: ModelInputs, validation: ModelInputs | None = None
    ) -> "CuisineModel":
        """Fit the model on precomputed training (and validation) artifacts."""

    @abc.abstractmethod
    def predict_proba_features(self, features) -> np.ndarray:
        """Class-probability matrix from a precomputed feature artifact."""

    # ------------------------------------------------------------------
    # the artifact protocol (override points for persistence/serving)
    # ------------------------------------------------------------------
    def get_state(self) -> dict:
        """Fitted state as a nested dict of arrays and JSON-able values.

        Together with :meth:`set_state` this forms the artifact protocol: the
        round-trip through an exact bundle must reproduce
        :meth:`predict_proba` bitwise.  Model families implement it by
        delegating to their substrates (``repro.ml`` estimator states, the
        ``repro.nn`` module state dicts, vectorizer/vocabulary states).
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the artifact protocol"
        )

    def set_state(self, state: dict) -> "CuisineModel":
        """Restore the fitted state produced by :meth:`get_state`."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the artifact protocol"
        )

    def encode_tokens(self, token_lists: Sequence[Sequence[str]]):
        """Featurize preprocessed token sequences with the *fitted* artifacts.

        Unlike the :class:`FeatureStore` path (which fits vectorizers and
        vocabularies from a training corpus), this uses the model's own
        fitted vectorizer/encoder — the prediction-time path for models
        restored from bundles and for the serving layer.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the artifact protocol"
        )

    # ------------------------------------------------------------------
    # raw-sequence prediction (the serving path)
    # ------------------------------------------------------------------
    def _pipeline(self) -> PreprocessingPipeline:
        """The preprocessing pipeline of this model's feature spec (cached)."""
        config = self.feature_spec().pipeline
        if self._serving_pipeline is None or self._serving_pipeline.config != config:
            self._serving_pipeline = PreprocessingPipeline(config)
        return self._serving_pipeline

    def predict_proba_tokens(self, token_lists: Sequence[Sequence[str]]) -> np.ndarray:
        """Class probabilities for preprocessed token sequences."""
        return self.predict_proba_features(self.encode_tokens(token_lists))

    def predict_proba_sequences(self, sequences: Iterable[Sequence[str]]) -> np.ndarray:
        """Class probabilities for raw recipe item sequences.

        Runs the spec's preprocessing pipeline, featurizes with the fitted
        artifacts and predicts — no corpus or feature store required, which
        is exactly what a model restored from a bundle can do.
        """
        pipeline = self._pipeline()
        tokens = [pipeline.process_sequence(sequence) for sequence in sequences]
        return self.predict_proba_tokens(tokens)

    # ------------------------------------------------------------------
    # corpus-level compatibility wrappers
    # ------------------------------------------------------------------
    def fit(
        self,
        train: RecipeDB,
        validation: RecipeDB | None = None,
        store: FeatureStore | None = None,
    ) -> "CuisineModel":
        """Fit the model on *train* (using *validation* where applicable).

        Args:
            train: Training corpus.
            validation: Optional validation corpus.
            store: Feature store to resolve artifacts through.  Pass the
                experiment's shared store to reuse preprocessing across
                models; by default a private store is created.

        The model keeps references to the store and the training corpus so
        that later :meth:`predict_proba` calls can resolve artifacts keyed by
        the training fingerprint; with a private store this pins the training
        corpus and its cached (LRU-bounded) artifacts for the model's
        lifetime.  Share one store across models to keep a single copy.
        """
        self._store = store if store is not None else FeatureStore()
        self._train_corpus = train
        spec = self.feature_spec()
        train_inputs = self._store.model_inputs(
            spec, train, train_corpus=train, label_space=self.label_space
        )
        validation_inputs = None
        if validation is not None and len(validation) > 0:
            validation_inputs = self._store.model_inputs(
                spec, validation, train_corpus=train, label_space=self.label_space
            )
        return self.fit_features(train_inputs, validation_inputs)

    def predict_proba(self, corpus: RecipeDB) -> np.ndarray:
        """Class-probability matrix of shape ``(len(corpus), n_classes)``.

        Models fitted in-process resolve features through their store (shared
        artifacts, cached per corpus fingerprint); models restored from a
        bundle have no training corpus and featurize with their own fitted
        artifacts instead — both paths produce identical features.
        """
        if self._store is not None and self._train_corpus is not None:
            inputs = self._store.model_inputs(
                self.feature_spec(),
                corpus,
                train_corpus=self._train_corpus,
                with_labels=False,
            )
            return self.predict_proba_features(inputs.features)
        return self.predict_proba_sequences(corpus.sequences)

    # ------------------------------------------------------------------
    @property
    def n_classes(self) -> int:
        return len(self.label_space)

    def labels_of(self, corpus: RecipeDB) -> np.ndarray:
        """Integer labels of *corpus* under this model's label space."""
        return np.asarray(corpus.labels(self.label_space), dtype=np.int64)

    def predict(self, corpus: RecipeDB) -> list[str]:
        """Predicted cuisine names for every recipe of *corpus*."""
        probabilities = self.predict_proba(corpus)
        return [self.label_space[i] for i in probabilities.argmax(axis=1)]

    def evaluate(self, corpus: RecipeDB) -> ClassificationMetrics:
        """Table IV metrics of the model on *corpus*."""
        probabilities = self.predict_proba(corpus)
        return evaluate_predictions(
            self.labels_of(corpus), probabilities, n_classes=self.n_classes
        )

    # ------------------------------------------------------------------
    # bundle persistence
    # ------------------------------------------------------------------
    #: Storage dtype policy of :meth:`save_bundle` when none is given.
    #: Statistical models store exactly; the neural families override it
    #: with ``"float32"``, and a float32 bundle runs its forward in float32.
    DEFAULT_DTYPE_POLICY: str = "exact"

    def save_bundle(self, path: str | Path, dtype_policy=None) -> Path:
        """Persist the fitted model as a self-contained bundle directory.

        The bundle (``manifest.json`` + ``arrays-<digest>.npz``, see
        :mod:`repro.models.artifacts`) carries the registry name, label
        space, serialized feature spec, training-corpus fingerprint and the
        full :meth:`get_state` tree — everything :meth:`load_bundle` needs to
        reproduce the loaded model's :meth:`predict_proba` bitwise in another
        process.

        Args:
            path: Bundle directory to write.
            dtype_policy: Storage dtype policy
                (:class:`~repro.models.artifacts.DtypePolicy` or the
                shorthands ``"exact"``/``"float32"``/``"slim"``).  ``None``
                takes the family's :attr:`DEFAULT_DTYPE_POLICY`: exact for
                the statistical models, ``"float32"`` for LSTM, BERT and
                RoBERTa.  An exact bundle predicts bitwise like the
                in-memory model; a downcast one (the manifest's ``exact``
                flag is false) trades that for a smaller bundle and, for the
                neural families, a float32 forward pass.
        """
        from repro.models.artifacts import write_bundle

        fingerprint = self._train_fingerprint
        if self._train_corpus is not None:
            fingerprint = self._train_corpus.fingerprint()
        manifest = {
            "model": self.name,
            "model_class": type(self).__name__,
            "label_space": list(self.label_space),
            "feature_spec": spec_to_dict(self.feature_spec()),
            "corpus_fingerprint": fingerprint,
        }
        if dtype_policy is None:
            dtype_policy = self.DEFAULT_DTYPE_POLICY
        return write_bundle(path, manifest, self.get_state(), dtype_policy=dtype_policy)

    #: fnmatch patterns (against bundle state-array keys, e.g.
    #: ``state/embeddings``) of arrays this model mutates in place after
    #: :meth:`set_state`.  Under ``load_bundle(mmap=True)`` matching arrays
    #: are materialised as writable in-memory copies instead of read-only
    #: maps; everything else stays mapped and page-shared across processes.
    MMAP_MATERIALIZE: tuple[str, ...] = ()

    @classmethod
    def load_bundle(cls, path: str | Path, *, mmap: bool = False) -> "CuisineModel":
        """Load a bundle saved by :meth:`save_bundle` into a fresh model.

        The model class is resolved through the registry by the bundled
        name, so ``CuisineModel.load_bundle(path)`` restores any registered
        model.  The returned model predicts without a feature store or
        training corpus (see :meth:`predict_proba_sequences`) and keeps the
        bundle's metadata in :attr:`bundle_manifest`.

        Args:
            mmap: Load state arrays as read-only memory maps over the
                bundle's extracted archive (one physical copy shared by
                every process serving the bundle) instead of private
                in-memory copies.  ``predict_proba`` is bitwise-identical
                either way; arrays named by the resolved model class's
                :attr:`MMAP_MATERIALIZE` patterns are copied into memory.
        """
        from repro.models.artifacts import read_bundle
        from repro.models.registry import create_model, model_class

        materialize: tuple[str, ...] = ()
        if mmap:
            # Peek the manifest for the registry name so the resolved class
            # can declare which arrays must stay writable copies.
            peek = json.loads(
                (Path(path) / "manifest.json").read_text(encoding="utf-8")
            )
            materialize = tuple(model_class(peek["model"]).MMAP_MATERIALIZE)
        manifest, state = read_bundle(path, mmap=mmap, materialize=materialize)
        model = create_model(manifest["model"], label_space=manifest["label_space"])
        model.set_state(state)
        model._train_fingerprint = manifest.get("corpus_fingerprint")
        model.bundle_manifest = manifest
        return model

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """One-line human-readable description of the model."""
        return f"{type(self).__name__}(name={self.name!r}, classes={self.n_classes})"
