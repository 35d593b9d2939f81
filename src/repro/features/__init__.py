"""Feature extraction substrate.

Implements the TF-IDF vectorization of Section IV of the paper (plus plain
counts) for the statistical models, producing ``scipy.sparse`` CSR matrices.
The sequential models read item-token ids instead (:mod:`repro.text`).
"""

from repro.features.counts import CountVectorizer
from repro.features.tfidf import TfidfVectorizer

__all__ = [
    "CountVectorizer",
    "TfidfVectorizer",
]
