"""A neural model's probabilities do not depend on the padding it runs with.

``predict_proba_tokens`` cuts each batch to its longest real row, and the
transformers run their last encoder block for ``[CLS]`` only.  The reference
here is built from the public modules over the ``max_length``-padded batch
with neither shortcut.
"""

import numpy as np
import pytest

from repro.data.splits import train_val_test_split
from repro.models.lstm_classifier import LSTMClassifierConfig, LSTMCuisineClassifier
from repro.models.registry import create_model
from repro.models.transformer_classifier import TransformerClassifierConfig
from repro.nn.tensor import no_grad

MAX_LENGTH = 24
LSTM_CONFIG = LSTMClassifierConfig(
    embedding_dim=16, hidden_dim=16, num_layers=2, max_length=MAX_LENGTH, epochs=1,
    batch_size=16, early_stopping_patience=None, seed=1,
)
TRANSFORMER_CONFIG = TransformerClassifierConfig(
    dim=16, num_heads=2, num_layers=2, ffn_dim=32, max_length=MAX_LENGTH, epochs=1,
    batch_size=16, pretrain_epochs=1, early_stopping_patience=None, seed=1,
)
#: Real token counts of the mixed batch: empty, short, long, and one longer
#: than ``max_length`` (truncated to full width).
LENGTHS = [5, 0, 12, 1, 30, 7, 3, 17]


@pytest.fixture(scope="module", params=["lstm", "bert", "roberta"])
def fitted(request, tiny_corpus):
    splits = train_val_test_split(tiny_corpus, seed=2)
    labels = tiny_corpus.present_cuisines()
    model = create_model(
        request.param,
        label_space=labels,
        lstm_config=LSTM_CONFIG,
        transformer_config=TRANSFORMER_CONFIG,
    )
    return model.fit(splits.train, splits.validation)


def _token_lists(model, lengths, seed=0):
    vocabulary = model.vocabulary
    rng = np.random.default_rng(seed)
    first = len(vocabulary.special_ids)
    return [
        vocabulary.decode(rng.integers(first, len(vocabulary), size=length).tolist())
        for length in lengths
    ]


def _full_width_proba(model, token_lists):
    """Softmax of the network over the ``max_length``-padded batch."""
    batch = model.encode_tokens(token_lists)
    assert batch.ids.shape[1] == MAX_LENGTH
    network = model.network
    network.eval()
    with no_grad():
        if isinstance(model, LSTMCuisineClassifier):
            _, final_hidden = network.lstm(network.embedding(batch.ids), mask=batch.mask)
            logits = network.classifier(final_hidden).data
        else:
            hidden = network.encoder(batch.ids, mask=batch.mask)
            logits = network.classifier(network.pooler(hidden[:, 0, :]).tanh()).data
    shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
    return shifted / shifted.sum(axis=1, keepdims=True)


def _assert_same_predictions(actual, expected):
    assert actual.shape == expected.shape
    np.testing.assert_allclose(actual, expected, rtol=0.0, atol=1e-12)
    assert np.array_equal(actual.argmax(axis=1), expected.argmax(axis=1))


def test_mixed_length_batch_matches_full_width(fitted):
    token_lists = _token_lists(fitted, LENGTHS)
    _assert_same_predictions(
        fitted.predict_proba_tokens(token_lists), _full_width_proba(fitted, token_lists)
    )


@pytest.mark.parametrize("length", [0, 1, 6, 30])
def test_single_row_matches_full_width(fitted, length):
    token_lists = _token_lists(fitted, [length], seed=length)
    _assert_same_predictions(
        fitted.predict_proba_tokens(token_lists), _full_width_proba(fitted, token_lists)
    )


def test_all_padding_batch_keeps_one_column(fitted):
    """Empty rows are all padding for the LSTM (no ``[CLS]``)."""
    token_lists = [[], []]
    probabilities = fitted.predict_proba_tokens(token_lists)
    assert probabilities.shape == (2, fitted.n_classes)
    assert np.allclose(probabilities.sum(axis=1), 1.0)
    _assert_same_predictions(probabilities, _full_width_proba(fitted, token_lists))
