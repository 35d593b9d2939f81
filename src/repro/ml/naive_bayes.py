"""Naive Bayes classifiers (Section V-A of the paper).

The paper's NB baseline selects the label maximising the posterior
``P(C_k | x) ∝ P(C_k) * Π P(x_i | C_k)`` under the naive independence
assumption.  For TF-IDF / count features the standard choice is the
multinomial event model.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.ml.base import BaseClassifier, check_Xy


class MultinomialNaiveBayes(BaseClassifier):
    """Multinomial Naive Bayes with Laplace/Lidstone smoothing.

    Args:
        alpha: Additive smoothing parameter (alpha=1 is Laplace smoothing).
        fit_prior: Learn class priors from the data; if false, use a uniform
            prior.
    """

    def __init__(self, alpha: float = 1.0, fit_prior: bool = True) -> None:
        if alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {alpha}")
        self.alpha = alpha
        self.fit_prior = fit_prior

    def fit(self, X, y) -> "MultinomialNaiveBayes":
        X, y = check_Xy(X, y)
        encoded = self._encode_labels(y)
        n_classes = len(self.classes_)
        n_features = X.shape[1]

        class_counts = np.bincount(encoded, minlength=n_classes).astype(np.float64)
        feature_counts = np.zeros((n_classes, n_features), dtype=np.float64)
        for class_idx in range(n_classes):
            rows = np.flatnonzero(encoded == class_idx)
            if sparse.issparse(X):
                feature_counts[class_idx] = np.asarray(X[rows].sum(axis=0)).ravel()
            else:
                feature_counts[class_idx] = X[rows].sum(axis=0)

        smoothed = feature_counts + self.alpha
        totals = smoothed.sum(axis=1, keepdims=True)
        self.feature_log_prob_ = np.log(smoothed) - np.log(totals)
        if self.fit_prior:
            self.class_log_prior_ = np.log(class_counts) - np.log(class_counts.sum())
        else:
            self.class_log_prior_ = np.full(n_classes, -np.log(n_classes))
        return self

    def _joint_log_likelihood(self, X) -> np.ndarray:
        self._check_fitted()
        if sparse.issparse(X):
            scores = X @ self.feature_log_prob_.T
            scores = np.asarray(scores)
        else:
            scores = np.asarray(X, dtype=np.float64) @ self.feature_log_prob_.T
        return scores + self.class_log_prior_

    def predict_proba(self, X) -> np.ndarray:
        log_joint = self._joint_log_likelihood(X)
        log_joint -= log_joint.max(axis=1, keepdims=True)
        probabilities = np.exp(log_joint)
        probabilities /= probabilities.sum(axis=1, keepdims=True)
        return probabilities

    def predict_log_proba(self, X) -> np.ndarray:
        """Log of :meth:`predict_proba` (computed stably)."""
        log_joint = self._joint_log_likelihood(X)
        log_norm = _logsumexp(log_joint, axis=1, keepdims=True)
        return log_joint - log_norm

    # ------------------------------------------------------------------
    def get_state(self) -> dict:
        """Fitted log-probability tables (artifact protocol)."""
        self._check_fitted()
        return {
            "classes": self.classes_,
            "feature_log_prob": self.feature_log_prob_,
            "class_log_prior": self.class_log_prior_,
        }

    def set_state(self, state: dict) -> "MultinomialNaiveBayes":
        """Restore fitted tables from :meth:`get_state`."""
        self.classes_ = np.asarray(state["classes"])
        self.feature_log_prob_ = np.asarray(state["feature_log_prob"], dtype=np.float64)
        self.class_log_prior_ = np.asarray(state["class_log_prior"], dtype=np.float64)
        return self


def _logsumexp(array: np.ndarray, axis: int, keepdims: bool = False) -> np.ndarray:
    maximum = array.max(axis=axis, keepdims=True)
    result = np.log(np.exp(array - maximum).sum(axis=axis, keepdims=True)) + maximum
    if not keepdims:
        result = np.squeeze(result, axis=axis)
    return result
