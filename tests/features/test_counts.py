"""Tests for the count vectorizer."""

import numpy as np
import pytest
from scipy import sparse

from repro.features.counts import CountVectorizer
from repro.features.tfidf import TfidfVectorizer


DOCS = [
    "onion garlic stir add",
    "onion tomato add add",
    "rice soy_sauce steam",
]


class TestFit:
    def test_vocabulary_contains_all_terms(self):
        vectorizer = CountVectorizer().fit(DOCS)
        expected = {"onion", "garlic", "stir", "add", "tomato", "rice", "soy_sauce", "steam"}
        assert set(vectorizer.vocabulary_) == expected
        assert vectorizer.n_features == len(expected)

    def test_min_df_prunes_rare_terms(self):
        vectorizer = CountVectorizer(min_df=2).fit(DOCS)
        assert set(vectorizer.vocabulary_) == {"onion", "add"}

    def test_max_df_prunes_common_terms(self):
        vectorizer = CountVectorizer(max_df=0.5).fit(DOCS)
        assert "add" not in vectorizer.vocabulary_
        assert "garlic" in vectorizer.vocabulary_

    def test_max_features_keeps_most_frequent(self):
        vectorizer = CountVectorizer(max_features=2).fit(DOCS)
        assert set(vectorizer.vocabulary_) == {"add", "onion"}

    def test_empty_corpus_raises(self):
        with pytest.raises(ValueError):
            CountVectorizer().fit([])

    def test_over_pruning_raises(self):
        with pytest.raises(ValueError):
            CountVectorizer(min_df=10).fit(DOCS)

    @pytest.mark.parametrize(
        "kwargs", [{"ngram_range": (0, 1)}, {"ngram_range": (2, 1)}, {"min_df": 0}, {"max_df": 0.0}]
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            CountVectorizer(**kwargs)

    @pytest.mark.parametrize("vectorizer_class", [CountVectorizer, TfidfVectorizer])
    @pytest.mark.parametrize("max_features", [0, -1])
    def test_non_positive_max_features_rejected(self, vectorizer_class, max_features):
        with pytest.raises(ValueError, match="max_features must be >= 1 or None"):
            vectorizer_class(max_features=max_features)


class TestTransform:
    def test_counts_are_correct(self):
        vectorizer = CountVectorizer()
        matrix = vectorizer.fit_transform(DOCS)
        assert sparse.issparse(matrix)
        dense = matrix.toarray()
        add_column = vectorizer.vocabulary_["add"]
        assert dense[0, add_column] == 1
        assert dense[1, add_column] == 2
        assert dense[2, add_column] == 0

    def test_binary_mode(self):
        vectorizer = CountVectorizer(binary=True)
        dense = vectorizer.fit_transform(DOCS).toarray()
        assert dense.max() == 1.0

    def test_unknown_terms_ignored_at_transform(self):
        vectorizer = CountVectorizer().fit(DOCS)
        matrix = vectorizer.transform(["dragonfruit onion"])
        assert matrix.sum() == 1.0

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            CountVectorizer().transform(DOCS)

    def test_accepts_token_lists(self):
        vectorizer = CountVectorizer()
        matrix = vectorizer.fit_transform([["onion", "stir"], ["onion"]])
        assert matrix.shape == (2, 2)

    def test_shape_matches_documents_and_vocab(self):
        vectorizer = CountVectorizer()
        matrix = vectorizer.fit_transform(DOCS)
        assert matrix.shape == (3, vectorizer.n_features)


class TestNgrams:
    def test_bigrams_included(self):
        vectorizer = CountVectorizer(ngram_range=(1, 2)).fit(["onion garlic stir"])
        assert "onion garlic" in vectorizer.vocabulary_
        assert "garlic stir" in vectorizer.vocabulary_

    def test_bigram_counts(self):
        vectorizer = CountVectorizer(ngram_range=(2, 2))
        dense = vectorizer.fit_transform(["add stir add stir"]).toarray()
        column = vectorizer.vocabulary_["add stir"]
        assert dense[0, column] == 2

    def test_feature_names_sorted_by_column(self):
        vectorizer = CountVectorizer().fit(DOCS)
        names = vectorizer.get_feature_names()
        assert names == sorted(names)
        assert [vectorizer.vocabulary_[n] for n in names] == list(range(len(names)))
