"""Bag-of-words count vectorizer producing scipy CSR matrices.

The statistical baselines of the paper consume vectorized recipe documents.
This vectorizer mirrors the semantics of scikit-learn's ``CountVectorizer``
restricted to what the experiments need: whitespace-token documents (the
preprocessing pipeline already did the real tokenization), optional n-grams,
document-frequency pruning and a vocabulary cap.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse


def ngram_features(
    document: str | Sequence[str], ngram_range: tuple[int, int]
) -> list[str]:
    """Turn a document into its n-gram feature list.

    Shared analyzer of :class:`CountVectorizer`,
    :class:`~repro.features.tfidf.TfidfVectorizer` and
    :class:`~repro.features.hashing.HashingVectorizer`: a document is either a
    whitespace-joined string or an already-tokenized sequence; n-grams join
    consecutive tokens with single spaces.
    """
    tokens = document.split() if isinstance(document, str) else list(document)
    lo, hi = ngram_range
    if lo == 1 and hi == 1:
        return tokens
    features: list[str] = []
    for n in range(lo, hi + 1):
        if n == 1:
            features.extend(tokens)
        else:
            features.extend(
                " ".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1)
            )
    return features


class CountVectorizer:
    """Convert documents to a sparse matrix of token counts."""

    def __init__(
        self,
        ngram_range: tuple[int, int] = (1, 1),
        min_df: int = 1,
        max_df: float = 1.0,
        max_features: int | None = None,
        binary: bool = False,
    ) -> None:
        if ngram_range[0] < 1 or ngram_range[1] < ngram_range[0]:
            raise ValueError(f"invalid ngram_range {ngram_range}")
        if min_df < 1:
            raise ValueError("min_df must be >= 1 (absolute document count)")
        if not 0.0 < max_df <= 1.0:
            raise ValueError("max_df must be in (0, 1]")
        self.ngram_range = ngram_range
        self.min_df = min_df
        self.max_df = max_df
        self.max_features = max_features
        self.binary = binary
        self.vocabulary_: dict[str, int] = {}

    # ------------------------------------------------------------------
    def _analyze(self, document: str | Sequence[str]) -> list[str]:
        """Turn a document into the n-gram feature list."""
        return ngram_features(document, self.ngram_range)

    # ------------------------------------------------------------------
    def fit(self, documents: Iterable[str | Sequence[str]]) -> "CountVectorizer":
        """Learn the vocabulary from *documents*."""
        documents = list(documents)
        if not documents:
            raise ValueError("cannot fit a vectorizer on an empty document collection")
        doc_freq: Counter = Counter()
        total_freq: Counter = Counter()
        for document in documents:
            features = self._analyze(document)
            total_freq.update(features)
            doc_freq.update(set(features))
        n_docs = len(documents)
        max_doc_count = self.max_df * n_docs
        eligible = [
            term
            for term, df in doc_freq.items()
            if df >= self.min_df and df <= max_doc_count
        ]
        eligible.sort(key=lambda term: (-total_freq[term], term))
        if self.max_features is not None:
            eligible = eligible[: self.max_features]
        self.vocabulary_ = {term: idx for idx, term in enumerate(sorted(eligible))}
        if not self.vocabulary_:
            raise ValueError("pruning removed every feature; relax min_df/max_df")
        return self

    def transform(self, documents: Iterable[str | Sequence[str]]) -> sparse.csr_matrix:
        """Vectorize *documents* using the learned vocabulary.

        The CSR arrays are assembled with NumPy: token occurrences become one
        flat column-index array, duplicates within a document are merged by a
        single ``np.unique`` over ``row * n_features + column`` keys (which
        also yields CSR-sorted order), and the row pointer comes from
        ``np.bincount`` — no per-document ``Counter``/``sorted`` passes.
        """
        if not self.vocabulary_:
            raise RuntimeError("vectorizer is not fitted; call fit() first")
        vocabulary_get = self.vocabulary_.get
        n_features = len(self.vocabulary_)
        column_chunks: list[list[int]] = []
        for document in documents:
            column_chunks.append(
                [
                    idx
                    for idx in map(vocabulary_get, self._analyze(document))
                    if idx is not None
                ]
            )
        n_docs = len(column_chunks)
        occurrence_rows = np.repeat(
            np.arange(n_docs, dtype=np.int64),
            [len(chunk) for chunk in column_chunks],
        )
        occurrence_columns = np.asarray(
            [idx for chunk in column_chunks for idx in chunk], dtype=np.int64
        )
        # One key per occurrence; np.unique merges duplicates, counts them,
        # and returns keys sorted — exactly the canonical CSR layout.
        keys, counts = np.unique(
            occurrence_rows * n_features + occurrence_columns, return_counts=True
        )
        rows = keys // n_features
        indices = keys % n_features
        data = (
            np.ones(len(keys), dtype=np.float64)
            if self.binary
            else counts.astype(np.float64)
        )
        indptr = np.zeros(n_docs + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n_docs), out=indptr[1:])
        return sparse.csr_matrix(
            (data, indices, indptr), shape=(n_docs, n_features), dtype=np.float64
        )

    def fit_transform(self, documents: Iterable[str | Sequence[str]]) -> sparse.csr_matrix:
        """Fit on *documents* and return their vectorization."""
        documents = list(documents)
        self.fit(documents)
        return self.transform(documents)

    # ------------------------------------------------------------------
    def get_state(self) -> dict:
        """Fitted vocabulary plus configuration, JSON-able (artifact protocol)."""
        if not self.vocabulary_:
            raise RuntimeError("vectorizer is not fitted; call fit() first")
        return {
            "ngram_range": list(self.ngram_range),
            "min_df": self.min_df,
            "max_df": self.max_df,
            "max_features": self.max_features,
            "binary": self.binary,
            "feature_names": self.get_feature_names(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "CountVectorizer":
        """Rebuild a fitted vectorizer from :meth:`get_state`."""
        vectorizer = cls(
            ngram_range=tuple(state["ngram_range"]),
            min_df=state["min_df"],
            max_df=state["max_df"],
            max_features=state["max_features"],
            binary=state["binary"],
        )
        vectorizer.vocabulary_ = {
            term: index for index, term in enumerate(state["feature_names"])
        }
        return vectorizer

    # ------------------------------------------------------------------
    def get_feature_names(self) -> list[str]:
        """Feature names in column order."""
        return [term for term, _ in sorted(self.vocabulary_.items(), key=lambda kv: kv[1])]

    @property
    def n_features(self) -> int:
        """Number of learned features."""
        return len(self.vocabulary_)
