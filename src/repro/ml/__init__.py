"""Classical (statistical) machine-learning models, implemented on NumPy.

These are the TF-IDF baselines of Section V of the paper: Naive Bayes,
Logistic Regression, linear SVM and Random Forest with AdaBoost.  The
implementations follow the standard formulations (and scikit-learn's
hyper-parameter semantics where applicable) so the experiments exercise the
same algorithms the paper ran.
"""

from repro.ml.base import BaseClassifier, check_Xy, ensure_dense
from repro.ml.boosting import AdaBoostClassifier
from repro.ml.forest import RandomForestClassifier
from repro.ml.logistic_regression import LogisticRegressionClassifier
from repro.ml.naive_bayes import MultinomialNaiveBayes
from repro.ml.svm import LinearSVMClassifier
from repro.ml.tree import DecisionTreeClassifier

__all__ = [
    "BaseClassifier",
    "check_Xy",
    "ensure_dense",
    "MultinomialNaiveBayes",
    "LogisticRegressionClassifier",
    "LinearSVMClassifier",
    "DecisionTreeClassifier",
    "RandomForestClassifier",
    "AdaBoostClassifier",
]
