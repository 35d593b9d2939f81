"""Stable content fingerprints for corpora and configurations.

The feature store keys every artifact by *what produced it*: the corpus
content, the preprocessing configuration and the vectorizer/vocabulary
configuration.  Fingerprints must therefore be deterministic across processes
(no ``id()``/``hash()`` randomisation) and sensitive to any change that could
alter the artifact — a shuffled sequence, a dropped cuisine, a different
``min_df`` all yield new fingerprints.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from typing import TYPE_CHECKING, Any, Sequence

from repro.data.recipedb import CorpusShard, RecipeDB

if TYPE_CHECKING:
    from repro.text.pipeline import PipelineConfig


def _jsonable(value: Any) -> Any:
    """Reduce *value* to a JSON-serialisable structure, deterministically."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": type(value).__name__,
            "fields": {
                f.name: _jsonable(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in sorted(value.items())}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [_jsonable(item) for item in value]
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return items
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def stable_hash(value: Any, digest_size: int = 16) -> str:
    """Deterministic hex digest of an arbitrary (mostly-JSON-able) value.

    Dataclasses (e.g. :class:`~repro.text.pipeline.PipelineConfig`) are hashed
    field by field, so two equal configurations always collide and any changed
    field produces a new digest.
    """
    payload = json.dumps(_jsonable(value), sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=digest_size).hexdigest()


def corpus_fingerprint(corpus: RecipeDB | CorpusShard) -> str:
    """Content fingerprint of a corpus or corpus shard.

    Delegates to :meth:`RecipeDB.fingerprint` / :meth:`CorpusShard.fingerprint`;
    shard fingerprints are content-only, so equal shard content always shares
    an artifact regardless of which corpus the shard was cut from.
    """
    return corpus.fingerprint()


def artifact_key(*parts: Any) -> str:
    """Join fingerprint parts into one flat cache key."""
    resolved = [
        part if isinstance(part, str) else stable_hash(part) for part in parts
    ]
    return "-".join(resolved)


@functools.lru_cache(maxsize=256)
def _config_digest(config: Any, config_repr: str) -> str:
    # ``config_repr`` keeps apart equal configs that stable_hash tells apart,
    # such as a field set to ``1`` and the same field set to ``True``.
    return stable_hash(config)


def config_key(config: PipelineConfig) -> str:
    """``stable_hash(config)``, computed once per distinct pipeline config."""
    return _config_digest(config, repr(config))


def sequence_key(sequence: Sequence[str], pipeline_config: PipelineConfig) -> str:
    """Cache key of a single raw item sequence under a pipeline config.

    Shared by :meth:`~repro.pipeline.store.FeatureStore.sequence_tokens` and
    the corpus engine's serving warm-up, so a sequence featurized as part of
    a corpus shard and the same sequence arriving as a prediction request
    resolve to the same artifact.  Equal to
    ``artifact_key(stable_hash(tuple(sequence)), pipeline_config)``: the
    sequence's JSON dump is the payload ``stable_hash`` would build.
    """
    payload = json.dumps(
        list(sequence), sort_keys=True, separators=(",", ":"), default=repr
    )
    digest = hashlib.blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()
    return f"{digest}-{config_key(pipeline_config)}"
