"""Tests for the TF-IDF vectorizer."""

import numpy as np
import pytest
from scipy import sparse

from repro.features.tfidf import TfidfVectorizer
from repro.text.pipeline import PipelineConfig


DOCS = [
    "add onion garlic",
    "add onion tomato",
    "add rice steam",
    "noodle soy_sauce wok",
]


class TestIdf:
    def test_smoothed_idf_formula(self):
        vectorizer = TfidfVectorizer().fit(DOCS)
        vocab = vectorizer.vocabulary_
        n = len(DOCS)
        # "add" occurs in 3 documents, "wok" in 1.
        expected_add = np.log((1 + n) / (1 + 3)) + 1
        expected_wok = np.log((1 + n) / (1 + 1)) + 1
        assert vectorizer.idf_[vocab["add"]] == pytest.approx(expected_add)
        assert vectorizer.idf_[vocab["wok"]] == pytest.approx(expected_wok)

    def test_common_terms_get_lower_idf(self):
        vectorizer = TfidfVectorizer().fit(DOCS)
        vocab = vectorizer.vocabulary_
        assert vectorizer.idf_[vocab["add"]] < vectorizer.idf_[vocab["garlic"]]

    def test_unsmoothed_idf(self):
        vectorizer = TfidfVectorizer(smooth_idf=False).fit(DOCS)
        vocab = vectorizer.vocabulary_
        assert vectorizer.idf_[vocab["add"]] == pytest.approx(np.log(4 / 3) + 1)


class TestTransform:
    def test_l2_normalisation(self):
        matrix = TfidfVectorizer().fit_transform(DOCS)
        norms = np.sqrt(np.asarray(matrix.multiply(matrix).sum(axis=1)).ravel())
        assert np.allclose(norms, 1.0)

    def test_l1_normalisation(self):
        matrix = TfidfVectorizer(norm="l1").fit_transform(DOCS)
        sums = np.asarray(np.abs(matrix).sum(axis=1)).ravel()
        assert np.allclose(sums, 1.0)

    def test_no_normalisation(self):
        matrix = TfidfVectorizer(norm=None).fit_transform(DOCS)
        norms = np.sqrt(np.asarray(matrix.multiply(matrix).sum(axis=1)).ravel())
        assert not np.allclose(norms, 1.0)

    def test_fit_transform_equals_fit_then_transform(self):
        a = TfidfVectorizer().fit_transform(DOCS).toarray()
        vectorizer = TfidfVectorizer().fit(DOCS)
        b = vectorizer.transform(DOCS).toarray()
        assert np.allclose(a, b)

    def test_sublinear_tf_damps_repeats(self):
        docs = ["add add add add onion", "add onion"]
        plain = TfidfVectorizer(norm=None).fit_transform(docs).toarray()
        sub = TfidfVectorizer(norm=None, sublinear_tf=True).fit_transform(docs).toarray()
        vectorizer = TfidfVectorizer(norm=None).fit(docs)
        add_column = vectorizer.vocabulary_["add"]
        assert sub[0, add_column] < plain[0, add_column]

    def test_returns_sparse(self):
        assert sparse.issparse(TfidfVectorizer().fit_transform(DOCS))

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            TfidfVectorizer().transform(DOCS)

    def test_invalid_norm_rejected(self):
        with pytest.raises(ValueError):
            TfidfVectorizer(norm="max")

    def test_empty_document_row_is_zero(self):
        vectorizer = TfidfVectorizer().fit(DOCS)
        matrix = vectorizer.transform(["zzz unknown terms"])
        assert matrix.nnz == 0


class TestDownweighting:
    def test_high_frequency_terms_downweighted(self):
        """The paper's stated reason for TF-IDF: damp 'add'-like features."""
        vectorizer = TfidfVectorizer()
        matrix = vectorizer.fit_transform(DOCS).toarray()
        vocab = vectorizer.vocabulary_
        # In document 0 both "add" and "garlic" occur once; garlic (rare) must
        # carry more weight than add (ubiquitous).
        assert matrix[0, vocab["garlic"]] > matrix[0, vocab["add"]]


def _scipy_reference(vectorizer, documents):
    """The scipy formulation ``transform`` replaced, kept as a reference:
    idf by a broadcast multiply, row norms by CSR ``sum(axis=1)``, and the
    normalisation as ``diags(1 / norms) @ matrix``."""
    counts = vectorizer._counter.transform(documents).astype(np.float64)
    if vectorizer.sublinear_tf:
        counts.data = 1.0 + np.log(counts.data)
    matrix = counts.multiply(sparse.csr_matrix(vectorizer.idf_)).tocsr()
    if vectorizer.norm is None:
        return matrix
    if vectorizer.norm == "l2":
        norms = np.sqrt(np.asarray(matrix.multiply(matrix).sum(axis=1)).ravel())
    else:
        norms = np.asarray(np.abs(matrix).sum(axis=1)).ravel()
    norms[norms == 0.0] = 1.0
    return (sparse.diags(1.0 / norms) @ matrix).tocsr()


def _assert_same_bytes(expected, actual):
    assert expected.shape == actual.shape
    for name in ("indptr", "indices", "data"):
        assert getattr(expected, name).tobytes() == getattr(actual, name).tobytes()


def _kwargs_id(kwargs):
    return ",".join(f"{key}={value}" for key, value in kwargs.items()) or "default"


class TestScipyReference:
    """``transform`` against the scipy formulation it replaced."""

    @pytest.fixture(scope="class")
    def documents(self, tiny_corpus):
        chain = PipelineConfig(split_items=True).stage_chain()
        documents = [chain.run_sequence(r.sequence) for r in tiny_corpus.recipes[:60]]
        return documents + [[], ["never-in-vocabulary-token"]]

    def _fitted(self, documents, **kwargs):
        return TfidfVectorizer(**kwargs).fit(documents[: len(documents) // 2])

    def _batches(self, documents):
        # Every batch has two or more rows; empty and all-out-of-vocabulary
        # documents sit at the end and between nonempty rows.
        middle = [documents[0], documents[-2], documents[-1], documents[1]]
        return [documents, documents[:2], documents[5:8], documents[-3:], middle]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"sublinear_tf": True},
            {"smooth_idf": False},
            {"ngram_range": (1, 2)},
            {"ngram_range": (2, 2)},
            {"ngram_range": (1, 3)},
            {"ngram_range": (3, 3)},
        ],
        ids=_kwargs_id,
    )
    def test_l2_bitwise(self, documents, kwargs):
        vectorizer = self._fitted(documents, **kwargs)
        for batch in self._batches(documents):
            _assert_same_bytes(
                _scipy_reference(vectorizer, batch), vectorizer.transform(batch)
            )

    @pytest.mark.parametrize(
        "kwargs", [{"norm": "l1"}, {"norm": None}], ids=_kwargs_id
    )
    def test_other_norms_canonical(self, documents, kwargs):
        vectorizer = self._fitted(documents, **kwargs)
        for batch in self._batches(documents):
            expected = _scipy_reference(vectorizer, batch)
            expected.sort_indices()
            actual = vectorizer.transform(batch)
            assert actual.has_canonical_format
            _assert_same_bytes(expected, actual)

    def test_layout_is_canonical_for_one_row(self, documents):
        vectorizer = self._fitted(documents)
        lone = vectorizer.transform(documents[:1])
        assert lone.has_canonical_format
        _assert_same_bytes(vectorizer.transform(documents[:2])[0], lone)

    def test_fit_transform_bitwise(self, documents):
        vectorizer = TfidfVectorizer(sublinear_tf=True)
        _assert_same_bytes(
            vectorizer.fit_transform(documents),
            _scipy_reference(vectorizer, documents),
        )

    def test_empty_batch(self, documents):
        vectorizer = self._fitted(documents)
        matrix = vectorizer.transform([])
        assert matrix.shape == (0, vectorizer.n_features)
        assert matrix.nnz == 0

    def test_empty_and_out_of_vocabulary_rows_stay_zero(self, documents):
        vectorizer = self._fitted(documents)
        matrix = vectorizer.transform(documents[-3:])
        assert matrix[1].nnz == 0 and matrix[2].nnz == 0
        assert np.sqrt(matrix[0].multiply(matrix[0]).sum()) == pytest.approx(1.0)
