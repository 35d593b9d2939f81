"""A neural bundle's forward pass runs in the bundle's one float dtype.

While ``predict_proba_tokens`` runs, every :class:`~repro.nn.tensor.Tensor`
created is recorded, and its data is viewed as an array subclass that also
records every float operand and result of every ufunc applied to it.  The
second record sees what a tensor's dtype cannot: an in-place step such as
``inner *= c`` keeps a ``float32`` buffer even when an ``np.float64``
constant makes it compute in ``float64``.

* A float32 bundle (the neural default) must show ``float32`` alone.
* An exact bundle must show ``float64`` alone.
* A bundle whose network arrays are partly ``float64`` runs ``float64``.
"""

import numpy as np
import pytest

from repro.data.splits import train_val_test_split
from repro.models.artifacts import read_bundle, write_bundle
from repro.models.base import CuisineModel
from repro.models.lstm_classifier import LSTMClassifierConfig
from repro.models.registry import create_model
from repro.models.transformer_classifier import TransformerClassifierConfig
from repro.nn.tensor import Tensor

LSTM_CONFIG = LSTMClassifierConfig(
    embedding_dim=16, hidden_dim=16, num_layers=2, max_length=24, epochs=1,
    early_stopping_patience=None, seed=1,
)
TRANSFORMER_CONFIG = TransformerClassifierConfig(
    dim=16, num_heads=2, num_layers=2, ffn_dim=32, max_length=24, epochs=1,
    pretrain_epochs=1, early_stopping_patience=None, seed=1,
)


#: Names of the float dtypes seen since the ``audit`` fixture cleared it.
_SEEN: set[str] = set()


def _record(dtype):
    if np.issubdtype(dtype, np.floating):
        _SEEN.add(np.dtype(dtype).name)


class _Audited(np.ndarray):
    """An array that records the float dtypes of the ufuncs applied to it."""

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        plain = [x.view(np.ndarray) if isinstance(x, _Audited) else x for x in inputs]
        if out is not None:
            kwargs["out"] = tuple(
                o.view(np.ndarray) if isinstance(o, _Audited) else o for o in out
            )
        result = getattr(ufunc, method)(*plain, **kwargs)
        results = result if isinstance(result, tuple) else (result,)
        for value in (*plain, *results):
            # Python scalars are weak: they take the other operand's dtype.
            if isinstance(value, (np.ndarray, np.generic)):
                _record(value.dtype)
        if out is not None:
            return out[0] if len(out) == 1 else out
        wrapped = tuple(
            r.view(_Audited) if isinstance(r, np.ndarray) else r for r in results
        )
        return wrapped if isinstance(result, tuple) else wrapped[0]


@pytest.fixture
def audit(monkeypatch):
    """Record the float dtypes the forward computes in (see module doc)."""
    original = Tensor.__init__

    def recording_init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        _record(self.data.dtype)
        self.data = self.data.view(_Audited)

    _SEEN.clear()
    monkeypatch.setattr(Tensor, "__init__", recording_init)
    return _SEEN


@pytest.fixture(scope="module")
def splits(tiny_corpus):
    return train_val_test_split(tiny_corpus, seed=2)


@pytest.fixture(scope="module", params=["lstm", "bert", "roberta"])
def exported(request, splits, tiny_corpus, tmp_path_factory):
    """``(float32 bundle, exact bundle, token lists)`` of one fitted family."""
    model = create_model(
        request.param,
        label_space=tiny_corpus.present_cuisines(),
        lstm_config=LSTM_CONFIG,
        transformer_config=TRANSFORMER_CONFIG,
    )
    model.fit(splits.train, splits.validation)
    root = tmp_path_factory.mktemp(f"dtype-{request.param}")
    pipeline = model._pipeline()
    tokens = [pipeline.process_sequence(s) for s in splits.test.sequences]
    return model.save_bundle(root / "float32"), model.save_bundle(
        root / "exact", dtype_policy="exact"
    ), tokens


def _forward_dtypes(bundle, tokens, audit) -> set:
    model = CuisineModel.load_bundle(bundle)
    audit.clear()
    probabilities = model.predict_proba_tokens(tokens)
    assert np.all(np.isfinite(probabilities))
    return set(audit)


def test_float32_bundle_runs_float32_end_to_end(exported, audit):
    float32_bundle, _, tokens = exported
    assert _forward_dtypes(float32_bundle, tokens, audit) == {"float32"}


def test_exact_bundle_runs_float64_end_to_end(exported, audit):
    _, exact_bundle, tokens = exported
    assert _forward_dtypes(exact_bundle, tokens, audit) == {"float64"}


def test_partly_downcast_bundle_casts_up_once_at_load(exported, audit, tmp_path):
    float32_bundle, _, tokens = exported
    manifest, state = read_bundle(float32_bundle)
    network = state["network"]
    first = sorted(network)[0]
    network[first] = network[first].astype(np.float64)
    for key in ("exact", "dtype_policy", "array_dtypes"):
        manifest.pop(key)
    mixed = write_bundle(tmp_path / "mixed", manifest, state, dtype_policy="exact")
    assert _forward_dtypes(mixed, tokens, audit) == {"float64"}
