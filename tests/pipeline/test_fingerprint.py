"""Tests for corpus/config fingerprinting (the feature-store cache keys)."""

import random

import pytest

from repro.core.experiment import shuffle_recipe_sequences
from repro.data.generator import GeneratorConfig, RecipeDBGenerator
from repro.data.recipedb import RecipeDB
from repro.pipeline import fingerprint
from repro.pipeline.fingerprint import (
    artifact_key,
    corpus_fingerprint,
    sequence_key,
    stable_hash,
)
from repro.pipeline.store import FeatureStore
from repro.serving.featurizer import BatchFeaturizer
from repro.text.pipeline import PipelineConfig


class TestStableHash:
    def test_deterministic_across_calls(self):
        config = PipelineConfig(split_items=True)
        assert stable_hash(config) == stable_hash(PipelineConfig(split_items=True))

    def test_sensitive_to_any_field(self):
        base = PipelineConfig()
        assert stable_hash(base) != stable_hash(PipelineConfig(lemmatize=False))
        assert stable_hash(base) != stable_hash(PipelineConfig(item_separator="-"))

    def test_handles_plain_values_and_collections(self):
        assert stable_hash((1, "a")) == stable_hash([1, "a"])
        assert stable_hash({"b": 2, "a": 1}) == stable_hash({"a": 1, "b": 2})
        assert stable_hash(None) != stable_hash(0)

    def test_artifact_key_joins_parts(self):
        key = artifact_key("abc", PipelineConfig())
        assert key.startswith("abc-")
        assert key == artifact_key("abc", PipelineConfig())


def _random_sequences(count: int, seed: int = 0) -> list[tuple[str, ...]]:
    """Item sequences over an alphabet of quotes, escapes, non-ASCII and
    separators, including empty sequences and empty items."""
    alphabet = ["a", "b", " ", '"', "\\", "\n", "\x00", "é", "日", "😀", "\u2028", "_", ","]
    rng = random.Random(seed)
    return [
        tuple(
            "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
            for _ in range(rng.randint(0, 5))
        )
        for _ in range(count)
    ]


class TestSequenceKey:
    def test_golden_digest(self):
        # Taken from the generic stable_hash path; a changed byte here means
        # every cached and persisted sequence artifact is orphaned.
        assert sequence_key(("pasta", "tomato", "basil", "boil", "pot"), PipelineConfig()) == (
            "c33a8de082c15ba73931ebfdd37f8c21-9301c39d02497df977f62edb3d5d8856"
        )

    @pytest.mark.parametrize(
        "config",
        [PipelineConfig(), PipelineConfig(split_items=True), PipelineConfig(item_separator='"é')],
    )
    def test_equals_generic_key(self, config):
        sequences = _random_sequences(300) + [(), ("",), ('"',), ("a,b", "c")]
        for sequence in sequences:
            expected = artifact_key(stable_hash(tuple(sequence)), config)
            assert sequence_key(sequence, config) == expected
            assert sequence_key(list(sequence), config) == expected

    @pytest.mark.parametrize(
        "sequence",
        [(1, "a"), ("a", None), (1.5,), ("a", ("nested", 2)), ("a", True)],
    )
    def test_non_str_items_match_the_generic_key(self, sequence):
        config = PipelineConfig()
        assert sequence_key(sequence, config) == artifact_key(
            stable_hash(tuple(sequence)), config
        )

    def test_equal_configs_with_distinct_digests_keep_their_own_keys(self):
        # PipelineConfig(lowercase=1) == PipelineConfig(lowercase=True), yet
        # stable_hash tells 1 from True; the cached digest must too, whichever
        # of the two is hashed first.
        fingerprint._config_digest.cache_clear()
        sequence = ("salt", "onion")
        as_int, as_bool = PipelineConfig(lowercase=1), PipelineConfig(lowercase=True)
        assert as_int == as_bool
        int_key = sequence_key(sequence, as_int)
        bool_key = sequence_key(sequence, as_bool)
        assert int_key != bool_key
        assert int_key == artifact_key(stable_hash(sequence), as_int)
        assert bool_key == artifact_key(stable_hash(sequence), as_bool)

    def test_config_is_hashed_once_per_config(self, monkeypatch):
        calls = []
        original = fingerprint.stable_hash

        def counting(value, *args, **kwargs):
            if isinstance(value, PipelineConfig):
                calls.append(value)
            return original(value, *args, **kwargs)

        monkeypatch.setattr(fingerprint, "stable_hash", counting)
        fingerprint._config_digest.cache_clear()
        sequences = _random_sequences(50, seed=1)
        for sequence in sequences:
            sequence_key(sequence, PipelineConfig())  # a fresh, equal config
        assert calls == [PipelineConfig()]

        featurizer, store = BatchFeaturizer(), FeatureStore()
        for _ in range(3):
            featurizer.batch_tokens(sequences, PipelineConfig(split_items=True), store)
        assert calls == [PipelineConfig(), PipelineConfig(split_items=True)]


class TestCorpusFingerprint:
    def test_equal_content_equal_fingerprint(self):
        a = RecipeDBGenerator(GeneratorConfig(scale=0.004, seed=5)).generate()
        b = RecipeDBGenerator(GeneratorConfig(scale=0.004, seed=5)).generate()
        assert a is not b
        assert a.fingerprint() == b.fingerprint()

    def test_different_seed_different_fingerprint(self):
        a = RecipeDBGenerator(GeneratorConfig(scale=0.004, seed=5)).generate()
        b = RecipeDBGenerator(GeneratorConfig(scale=0.004, seed=6)).generate()
        assert a.fingerprint() != b.fingerprint()

    def test_shuffle_ablation_invalidates_fingerprint(self, tiny_corpus):
        shuffled = shuffle_recipe_sequences(tiny_corpus, seed=1)
        assert shuffled.fingerprint() != tiny_corpus.fingerprint()

    def test_drop_rare_cuisines_invalidates_fingerprint(self, small_corpus):
        reduced = small_corpus.drop_rare_cuisines(60)
        assert len(reduced) < len(small_corpus)
        assert reduced.fingerprint() != small_corpus.fingerprint()

    def test_subset_invalidates_fingerprint(self, tiny_corpus):
        subset = tiny_corpus.subset(range(len(tiny_corpus) // 2))
        assert subset.fingerprint() != tiny_corpus.fingerprint()

    def test_fingerprint_is_cached_per_instance(self, tiny_corpus):
        first = tiny_corpus.fingerprint()
        assert tiny_corpus.fingerprint() is first  # same cached string object

    def test_module_level_helper_delegates(self, tiny_corpus):
        assert corpus_fingerprint(tiny_corpus) == tiny_corpus.fingerprint()

    def test_fingerprint_covers_labels(self, handmade_corpus):
        relabelled = RecipeDB(
            recipes=[
                type(r)(
                    recipe_id=r.recipe_id,
                    cuisine="French" if i == 0 else r.cuisine,
                    continent=r.continent,
                    sequence=r.sequence,
                    kinds=r.kinds,
                )
                for i, r in enumerate(handmade_corpus)
            ]
        )
        assert relabelled.fingerprint() != handmade_corpus.fingerprint()
