"""Memory-mapped bundle loading: every registry model predicts bitwise
identically from read-only maps over the extracted archive sidecar, the
mechanism that lets N cluster workers share one physical copy of the
bundle arrays."""

import json
import shutil

import numpy as np
import pytest

from repro.data.splits import train_val_test_split
from repro.models.artifacts import extract_archive, read_bundle
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
FAST_KWARGS = {
    "logreg": {"max_iter": 30},
    "svm_linear": {"max_iter": 30},
    "random_forest": {"n_estimators": 4, "max_depth": 6, "boosting_rounds": 2},
}


@pytest.fixture(scope="module")
def splits(tiny_corpus):
    return train_val_test_split(tiny_corpus, seed=2)


@pytest.fixture(scope="module")
def exported(splits, tiny_corpus, tmp_path_factory):
    """Every registry model fitted and exported once for the whole module,
    with the predictions of a plain (in-memory) load of its bundle."""
    root = tmp_path_factory.mktemp("mmap-bundles")
    label_space = tiny_corpus.present_cuisines()
    bundles = {}
    for name in MODEL_NAMES:
        model = create_model(
            name,
            label_space=label_space,
            lstm_config=TINY_LSTM,
            transformer_config=TINY_TRANSFORMER,
            **FAST_KWARGS.get(name, {}),
        )
        model.fit(splits.train, splits.validation)
        path = model.save_bundle(root / name)
        bundles[name] = (path, CuisineModel.load_bundle(path).predict_proba(splits.test))
    return bundles


def _array_leaves(node):
    if isinstance(node, np.ndarray):
        yield node
    elif isinstance(node, dict):
        for value in node.values():
            yield from _array_leaves(value)
    elif isinstance(node, (list, tuple)):
        for value in node:
            yield from _array_leaves(value)


def _archive_name(path) -> str:
    return json.loads((path / "manifest.json").read_text(encoding="utf-8"))["arrays"]


class TestMmapPredictions:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_bitwise_identical_to_in_memory_load(self, name, splits, exported):
        path, reference = exported[name]
        mapped = CuisineModel.load_bundle(path, mmap=True)
        np.testing.assert_array_equal(reference, mapped.predict_proba(splits.test))

    def test_state_arrays_equal_plain_load(self, exported):
        path, _ = exported["logreg"]
        _, plain = read_bundle(path)
        _, mapped = read_bundle(path, mmap=True)
        plain_leaves = list(_array_leaves(plain))
        mapped_leaves = list(_array_leaves(mapped))
        assert len(plain_leaves) == len(mapped_leaves) > 0
        for expected, actual in zip(plain_leaves, mapped_leaves):
            np.testing.assert_array_equal(expected, actual)


class TestMmapMechanics:
    def test_mapped_arrays_are_read_only_maps(self, exported):
        path, _ = exported["logreg"]
        _, state = read_bundle(path, mmap=True)
        leaves = list(_array_leaves(state))
        assert leaves
        for leaf in leaves:
            assert isinstance(leaf, np.memmap)
            assert not leaf.flags.writeable
            with pytest.raises((ValueError, RuntimeError)):
                leaf[...] = 0

    def test_materialize_patterns_opt_out(self, exported):
        path, _ = exported["logreg"]
        _, state = read_bundle(path, mmap=True, materialize=("*",))
        leaves = list(_array_leaves(state))
        assert leaves
        for leaf in leaves:
            assert not isinstance(leaf, np.memmap)
            assert leaf.flags.writeable

    def test_plain_load_never_extracts(self, exported, tmp_path):
        # A fresh copy: other tests in this module already extracted the
        # shared fixture bundles.
        src, _ = exported["naive_bayes"]
        dst = tmp_path / "fresh"
        dst.mkdir()
        for item in src.iterdir():
            if item.is_file():
                shutil.copy2(item, dst / item.name)
        read_bundle(dst)
        assert not any(item.name.endswith(".extracted") for item in dst.iterdir())

    def test_extraction_sidecar_layout(self, exported):
        path, _ = exported["logreg"]
        read_bundle(path, mmap=True)
        archive_name = _archive_name(path)
        extract_dir = path / f"{archive_name.rsplit('.', 1)[0]}.extracted"
        assert extract_dir.is_dir()
        index = json.loads((extract_dir / "index.json").read_text(encoding="utf-8"))
        with np.load(path / archive_name) as archive:
            assert set(index) == set(archive.files)
        for file_name in index.values():
            assert (extract_dir / file_name).is_file()

    def test_extraction_is_idempotent(self, exported):
        """A finished extraction is reused, not rewritten — concurrent
        cold-starting workers must be able to share one sidecar."""
        path, _ = exported["logreg"]
        archive_name = _archive_name(path)
        first = extract_archive(path, archive_name)
        stamps = {
            item.name: item.stat().st_mtime_ns for item in first.iterdir()
        }
        second = extract_archive(path, archive_name)
        assert second == first
        assert {
            item.name: item.stat().st_mtime_ns for item in second.iterdir()
        } == stamps

    def test_manifest_metadata_survives_mmap_load(self, exported):
        path, _ = exported["logreg"]
        model = CuisineModel.load_bundle(path, mmap=True)
        assert model.bundle_manifest["model"] == "logreg"
        assert model.name == "logreg"
