"""Bundle round-trip tests: every registry model must save/load exactly.

For each registry name the model is fitted on a tiny corpus, exported as an
exact bundle, reloaded through the registry-aware loader (a fresh context
with no feature store or training corpus) and its ``predict_proba`` must be
**bitwise identical** pre/post reload.  The neural families export float32
by default: those bundles keep the in-memory model's labels and predict
bitwise alike across re-saves.
"""

import numpy as np
import pytest

from repro.data.splits import train_val_test_split
from repro.models.artifacts import (
    BUNDLE_FORMAT_VERSION,
    is_bundle,
    read_bundle,
    write_bundle,
)
from repro.models.base import CuisineModel
from repro.models.lstm_classifier import LSTMClassifierConfig
from repro.models.registry import MODEL_NAMES, create_model
from repro.models.transformer_classifier import TransformerClassifierConfig

TINY_LSTM = LSTMClassifierConfig(
    embedding_dim=16, hidden_dim=16, num_layers=1, max_length=24, epochs=1, seed=1
)
TINY_TRANSFORMER = TransformerClassifierConfig(
    dim=16, num_heads=2, num_layers=1, ffn_dim=32, max_length=24,
    epochs=1, pretrain_epochs=1, seed=1,
)
NEURAL_NAMES = ("lstm", "bert", "roberta")
FAST_KWARGS = {
    "logreg": {"max_iter": 30},
    "svm_linear": {"max_iter": 30},
    "random_forest": {"n_estimators": 4, "max_depth": 6, "boosting_rounds": 2},
}


@pytest.fixture(scope="module")
def splits(tiny_corpus):
    return train_val_test_split(tiny_corpus, seed=2)


@pytest.fixture(scope="module")
def label_space(tiny_corpus):
    return tiny_corpus.present_cuisines()


def _fit(name, splits, label_space):
    model = create_model(
        name,
        label_space=label_space,
        lstm_config=TINY_LSTM,
        transformer_config=TINY_TRANSFORMER,
        **FAST_KWARGS.get(name, {}),
    )
    return model.fit(splits.train, splits.validation)


class TestBundleRoundTrip:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_predict_proba_bitwise_identical(self, name, splits, label_space, tmp_path):
        model = _fit(name, splits, label_space)
        reference = model.predict_proba(splits.test)

        path = model.save_bundle(tmp_path / name, dtype_policy="exact")
        assert is_bundle(path)
        loaded = CuisineModel.load_bundle(path)

        assert type(loaded) is type(model)
        assert loaded.label_space == model.label_space
        assert loaded.feature_spec() == model.feature_spec()
        # The loaded model predicts without any store or training corpus.
        assert loaded._store is None and loaded._train_corpus is None
        restored = loaded.predict_proba(splits.test)
        np.testing.assert_array_equal(reference, restored)

    @pytest.mark.parametrize("name", NEURAL_NAMES)
    def test_default_neural_bundle_is_float32(self, name, splits, label_space, tmp_path):
        model = _fit(name, splits, label_space)
        loaded = CuisineModel.load_bundle(model.save_bundle(tmp_path / "first"))
        assert loaded.bundle_manifest["dtype_policy"] == "float32"
        assert loaded.bundle_manifest["exact"] is False
        served = loaded.predict_proba(splits.test)
        assert served.dtype == np.float32
        np.testing.assert_array_equal(
            served.argmax(axis=1), model.predict_proba(splits.test).argmax(axis=1)
        )
        reloaded = CuisineModel.load_bundle(loaded.save_bundle(tmp_path / "second"))
        np.testing.assert_array_equal(served, reloaded.predict_proba(splits.test))

    def test_manifest_metadata(self, splits, label_space, tmp_path):
        model = _fit("logreg", splits, label_space)
        path = model.save_bundle(tmp_path / "logreg")
        manifest, state = read_bundle(path)
        assert manifest["model"] == "logreg"
        assert manifest["model_class"] == "LogisticRegressionModel"
        assert tuple(manifest["label_space"]) == tuple(label_space)
        assert manifest["corpus_fingerprint"] == splits.train.fingerprint()
        assert manifest["feature_spec"]["kind"] == "TfidfSpec"
        assert "classifier" in state and "vectorizer" in state

        loaded = CuisineModel.load_bundle(path)
        assert loaded.bundle_manifest["corpus_fingerprint"] == splits.train.fingerprint()

    def test_resaving_a_loaded_bundle_keeps_provenance(self, splits, label_space, tmp_path):
        model = _fit("naive_bayes", splits, label_space)
        first = model.save_bundle(tmp_path / "first")
        loaded = CuisineModel.load_bundle(first)
        second = loaded.save_bundle(tmp_path / "second")
        manifest, _ = read_bundle(second)
        assert manifest["corpus_fingerprint"] == splits.train.fingerprint()


class TestBundleErrors:
    def test_unfitted_model_cannot_be_saved(self, label_space, tmp_path):
        model = create_model("logreg", label_space=label_space)
        with pytest.raises(RuntimeError, match="not fitted"):
            model.save_bundle(tmp_path / "nope")

    def test_missing_bundle_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            CuisineModel.load_bundle(tmp_path / "missing")

    def test_version_mismatch_raises(self, tmp_path):
        path = write_bundle(
            tmp_path / "bundle", {"model": "logreg", "label_space": ["a", "b"]}, {}
        )
        manifest_path = path / "manifest.json"
        text = manifest_path.read_text().replace(
            f'"format_version": {BUNDLE_FORMAT_VERSION}', '"format_version": 9999'
        )
        manifest_path.write_text(text)
        with pytest.raises(ValueError, match="format version"):
            read_bundle(path)

    def test_reserved_manifest_keys_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="reserved"):
            write_bundle(tmp_path / "bundle", {"state": {}}, {})

    def test_unserialisable_state_rejected(self, tmp_path):
        with pytest.raises(TypeError, match="not bundle-serialisable"):
            write_bundle(tmp_path / "bundle", {}, {"bad": object()})

    def test_reserved_array_ref_key_rejected_at_save_time(self, tmp_path):
        with pytest.raises(ValueError, match="reserved key"):
            write_bundle(tmp_path / "bundle", {}, {"mapping": {"__array__": 3}})


class TestStateArrays:
    def test_arrays_round_trip_bitwise_through_npz(self, tmp_path):
        rng = np.random.default_rng(0)
        state = {
            "weights": rng.standard_normal((7, 3)),
            "nested": {"ints": np.arange(5, dtype=np.int64)},
            "trees": [{"values": rng.standard_normal(4)} for _ in range(3)],
            "scalar": 1.5,
            "flag": True,
            "none": None,
        }
        path = write_bundle(tmp_path / "bundle", {"model": "x"}, state)
        _, restored = read_bundle(path)
        np.testing.assert_array_equal(state["weights"], restored["weights"])
        assert restored["nested"]["ints"].dtype == np.int64
        for original, loaded in zip(state["trees"], restored["trees"]):
            np.testing.assert_array_equal(original["values"], loaded["values"])
        assert restored["scalar"] == 1.5
        assert restored["flag"] is True
        assert restored["none"] is None
