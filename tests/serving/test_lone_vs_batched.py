"""A sequence's probabilities do not depend on the batch it rides in.

Natural batching groups concurrent requests by load, so a lone request and
the same sequence inside a micro-batch of any size must get the same bytes.
"""

import pytest

from repro.models.registry import create_model
from repro.serving import PredictionService

MODELS = {
    "logreg": {"max_iter": 30},
    "naive_bayes": {},
    "svm_linear": {"max_iter": 30},
}


@pytest.fixture(scope="module")
def service(tiny_corpus):
    models = {
        name: create_model(name, **kwargs).fit(tiny_corpus)
        for name, kwargs in MODELS.items()
    }
    with PredictionService(models, cache_size=0) as service:
        yield service


@pytest.fixture(scope="module")
def sequences(tiny_corpus):
    return [recipe.sequence for recipe in tiny_corpus.recipes[:40]]


@pytest.mark.parametrize("name", sorted(MODELS))
def test_lone_predict_equals_batched_row(service, sequences, name):
    batched = service.predict_proba_batch(name, sequences)
    differing = [
        index
        for index, sequence in enumerate(sequences)
        if service.predict_proba(name, sequence).tobytes()
        != batched[index].tobytes()
    ]
    assert differing == []
