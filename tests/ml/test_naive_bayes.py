"""Tests for the Naive Bayes classifiers."""

import numpy as np
import pytest
from scipy import sparse

from repro.ml.naive_bayes import MultinomialNaiveBayes
from tests.ml.conftest import train_test


class TestMultinomialNB:
    def test_separable_text_like_data(self, text_like_dataset):
        X, y = text_like_dataset
        Xtr, ytr, Xte, yte = train_test(X, y)
        clf = MultinomialNaiveBayes().fit(Xtr, ytr)
        assert clf.score(Xte, yte) > 0.85

    def test_probabilities_sum_to_one(self, text_like_dataset):
        X, y = text_like_dataset
        clf = MultinomialNaiveBayes().fit(X, y)
        probabilities = clf.predict_proba(X[:10])
        assert np.allclose(probabilities.sum(axis=1), 1.0)
        assert (probabilities >= 0).all()

    def test_works_with_dense_input(self, text_like_dataset):
        X, y = text_like_dataset
        clf = MultinomialNaiveBayes().fit(X.toarray(), y)
        assert clf.score(X.toarray(), y) > 0.85

    def test_class_priors_reflect_frequencies(self):
        X = np.array([[1.0, 0.0]] * 9 + [[0.0, 1.0]])
        y = np.array([0] * 9 + [1])
        clf = MultinomialNaiveBayes().fit(X, y)
        priors = np.exp(clf.class_log_prior_)
        assert priors[0] == pytest.approx(0.9)
        assert priors[1] == pytest.approx(0.1)

    def test_uniform_prior_option(self):
        X = np.array([[1.0, 0.0]] * 9 + [[0.0, 1.0]])
        y = np.array([0] * 9 + [1])
        clf = MultinomialNaiveBayes(fit_prior=False).fit(X, y)
        assert np.allclose(np.exp(clf.class_log_prior_), 0.5)

    def test_smoothing_prevents_zero_probability(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        y = np.array([0, 1])
        clf = MultinomialNaiveBayes(alpha=1.0).fit(X, y)
        # Feature 1 never appears with class 0, but smoothing keeps log prob finite.
        assert np.isfinite(clf.feature_log_prob_).all()

    def test_alpha_zero_changes_behaviour(self):
        X = np.array([[3.0, 0.0], [0.0, 3.0]])
        y = np.array([0, 1])
        smoothed = MultinomialNaiveBayes(alpha=1.0).fit(X, y)
        harder = MultinomialNaiveBayes(alpha=0.01).fit(X, y)
        assert harder.feature_log_prob_[0, 1] < smoothed.feature_log_prob_[0, 1]

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            MultinomialNaiveBayes(alpha=-1.0)

    def test_predict_log_proba_consistent(self, text_like_dataset):
        X, y = text_like_dataset
        clf = MultinomialNaiveBayes().fit(X, y)
        log_probabilities = clf.predict_log_proba(X[:5])
        probabilities = clf.predict_proba(X[:5])
        assert np.allclose(np.exp(log_probabilities), probabilities, atol=1e-8)

    def test_string_labels_supported(self):
        X = np.array([[2.0, 0.0], [0.0, 2.0], [3.0, 0.0], [0.0, 1.0]])
        y = np.array(["savoury", "sweet", "savoury", "sweet"])
        clf = MultinomialNaiveBayes().fit(X, y)
        assert set(clf.predict(X)) <= {"savoury", "sweet"}

