"""Property tests: the batch featurizer is bitwise-identical to the
per-sequence path, across every pipeline configuration and registry model."""

import pytest

from repro.models.registry import MODEL_NAMES, create_model
from repro.pipeline.store import FeatureStore
from repro.serving.featurizer import BatchFeaturizer
from repro.text.pipeline import PipelineConfig

#: Every PipelineConfig combination over the four boolean axes.
ALL_CONFIGS = [
    PipelineConfig(
        lowercase=lowercase,
        remove_digits_symbols=remove,
        lemmatize=lemmatize,
        split_items=split,
    )
    for lowercase in (True, False)
    for remove in (True, False)
    for lemmatize in (True, False)
    for split in (True, False)
]


def _config_id(config):
    return (
        f"lc{int(config.lowercase)}-rm{int(config.remove_digits_symbols)}"
        f"-lm{int(config.lemmatize)}-sp{int(config.split_items)}"
    )


@pytest.fixture(scope="module")
def sequences(tiny_corpus):
    """A request micro-batch with heavy item overlap and exact duplicates."""
    batch = [recipe.sequence for recipe in tiny_corpus.recipes[:24]]
    batch += batch[:6]  # duplicate sequences within one batch
    batch.append(("Salted BUTTER 2kg", "onion!", "onion!", ""))
    return batch


def _sequential_tokens(sequences, config):
    chain = config.stage_chain()
    return [chain.run_sequence(sequence) for sequence in sequences]


class TestBatchTokensBitwise:
    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=_config_id)
    def test_all_pipeline_configs(self, sequences, config):
        batch = BatchFeaturizer().batch_tokens(sequences, config)
        assert batch == _sequential_tokens(sequences, config)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_all_registry_model_specs(self, sequences, name):
        config = create_model(name).feature_spec().pipeline
        batch = BatchFeaturizer().batch_tokens(sequences, config)
        assert batch == _sequential_tokens(sequences, config)

    def test_store_path_matches_storeless(self, sequences):
        config = PipelineConfig()
        store = FeatureStore()
        with_store = BatchFeaturizer().batch_tokens(sequences, config, store=store)
        assert with_store == _sequential_tokens(sequences, config)

    def test_matches_store_sequence_tokens(self, sequences):
        """Same artifacts as FeatureStore.sequence_tokens would compute."""
        config = PipelineConfig()
        reference_store = FeatureStore()
        reference = [
            reference_store.sequence_tokens(sequence, config) for sequence in sequences
        ]
        batch = BatchFeaturizer().batch_tokens(sequences, config, store=FeatureStore())
        assert batch == reference

    def test_bounded_memo_stays_correct(self, sequences):
        config = PipelineConfig()
        featurizer = BatchFeaturizer(memo_size=2)  # constant eviction
        assert featurizer.batch_tokens(sequences, config) == _sequential_tokens(
            sequences, config
        )

    def test_memo_reused_across_batches(self, sequences):
        config = PipelineConfig()
        featurizer = BatchFeaturizer()
        first = featurizer.batch_tokens(sequences, config)
        second = featurizer.batch_tokens(sequences, config)
        assert first == second == _sequential_tokens(sequences, config)

    def test_empty_batch(self):
        assert BatchFeaturizer().batch_tokens([], PipelineConfig()) == []


class TestStoreAccounting:
    """The batch path keeps FeatureStore hit/miss counters identical."""

    def test_misses_counted_per_distinct_sequence(self, sequences):
        config = PipelineConfig()
        store = FeatureStore()
        BatchFeaturizer().batch_tokens(sequences, config, store=store)
        distinct = len({tuple(s) for s in sequences})
        assert store.miss_count("sequence_tokens") == distinct

    def test_warm_sequences_are_pure_hits(self, sequences):
        config = PipelineConfig()
        store = FeatureStore()
        featurizer = BatchFeaturizer()
        featurizer.batch_tokens(sequences, config, store=store)
        misses_before = store.miss_count("sequence_tokens")
        featurizer.batch_tokens(sequences, config, store=store)
        assert store.miss_count("sequence_tokens") == misses_before
        assert store.hit_count("sequence_tokens") >= len(sequences)
