"""Batch-level featurization fast path for the serving miss path.

The prediction service's cache-miss path used to featurize one sequence at a
time: each request walked the feature store (global-lock bookkeeping, a
per-key lock, a content digest) and ran the pure-Python stage chain over
every item occurrence.  This module fuses that work at the batch level while
staying **bitwise-identical** to the sequential path:

* :class:`BatchFeaturizer.batch_tokens` — tokenize/lemmatize a whole
  micro-batch in one pass.  The store is consulted once per sequence (warm
  sequences stay pure cache hits, with the same hit/miss accounting as
  before); the remaining misses share one **item memo table**, so an item
  string appearing in many recipes of the batch (``salt``, ``onion``,
  ``stir`` — the normal case) runs the clean/tokenize/lemmatize chain exactly
  once.  The memo is a bounded LRU kept across batches.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Sequence

from scipy import sparse

from repro.features.tfidf import TfidfVectorizer
from repro.pipeline.fingerprint import sequence_key, stable_hash
from repro.pipeline.store import FeatureStore, _load_json, _save_json
from repro.text.pipeline import PipelineConfig
from repro.text.stages import StageChain

__all__ = ["BatchFeaturizer"]

#: Store artifact kind shared with :meth:`FeatureStore.sequence_tokens`.
_SEQUENCE_KIND = "sequence_tokens"


class BatchFeaturizer:
    """One-pass batch tokenize/lemmatize with a shared item memo table.

    The featurizer is bitwise-identical to per-sequence
    ``StageChain.run_sequence``: every item is processed by the same chain,
    the memo only deduplicates *equal* item strings (the chain is a pure
    function of the item).  Store integration preserves the prediction
    service's warm-artifact semantics — sequences already featurized (by
    warm-up, a previous batch, or the training side's shard republish) are
    pure store hits, and newly computed sequences are published back under
    their per-sequence keys with the same hit/miss accounting.

    Args:
        memo_size: Bound on the per-config item → words LRU memo.
    """

    def __init__(self, memo_size: int = 65536) -> None:
        if memo_size < 1:
            raise ValueError(f"memo_size must be >= 1, got {memo_size}")
        self.memo_size = memo_size
        self._chains: dict[str, StageChain] = {}
        self._memos: dict[str, OrderedDict[str, list[str]]] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _chain_and_memo(
        self, config: PipelineConfig
    ) -> tuple[StageChain, OrderedDict[str, list[str]]]:
        key = stable_hash(config)
        with self._lock:
            chain = self._chains.get(key)
            if chain is None:
                chain = config.stage_chain()
                self._chains[key] = chain
                self._memos[key] = OrderedDict()
            return chain, self._memos[key]

    def _item_words(
        self,
        items: list[str],
        chain: StageChain,
        memo: OrderedDict[str, list[str]],
    ) -> dict[str, list[str]]:
        """Words of every distinct item, via the memo (one chain run each)."""
        resolved: dict[str, list[str]] = {}
        missing: list[str] = []
        with self._lock:
            for item in items:
                words = memo.get(item)
                if words is not None:
                    memo.move_to_end(item)
                    resolved[item] = words
                else:
                    missing.append(item)
        for item in missing:
            resolved[item] = chain.run_item(item)
        if missing:
            with self._lock:
                for item in missing:
                    memo[item] = resolved[item]
                while len(memo) > self.memo_size:
                    memo.popitem(last=False)
        return resolved

    # ------------------------------------------------------------------
    def batch_tokens(
        self,
        sequences: Sequence[tuple[str, ...]],
        config: PipelineConfig,
        store: FeatureStore | None = None,
    ) -> list[list[str]]:
        """Token sequences for a whole micro-batch, in order.

        With a *store*, warm sequences resolve as per-sequence cache hits and
        cold ones are computed here and published back (counted as misses,
        exactly like :meth:`FeatureStore.sequence_tokens` would).
        """
        results: list[list[str] | None] = [None] * len(sequences)
        pending: dict[str, list[int]] = {}
        pending_keys: list[str | None] = [None] * len(sequences)
        if store is not None:
            for position, sequence in enumerate(sequences):
                key = sequence_key(sequence, config)
                found, value = store.lookup(
                    _SEQUENCE_KIND, key, suffix=".json", load=_load_json
                )
                if found:
                    results[position] = value
                else:
                    pending.setdefault(key, []).append(position)
                    pending_keys[position] = key
        else:
            for position in range(len(sequences)):
                key = str(position)
                pending[key] = [position]
                pending_keys[position] = key

        if pending:
            chain, memo = self._chain_and_memo(config)
            # One memo pass over every distinct item of the cold sequences.
            distinct: dict[str, None] = {}
            representative: dict[str, tuple[str, ...]] = {}
            for key, positions in pending.items():
                sequence = sequences[positions[0]]
                representative[key] = sequence
                for item in sequence:
                    distinct.setdefault(item, None)
            words_of = self._item_words(list(distinct), chain, memo)
            for key, positions in pending.items():
                tokens = chain.join.assemble(
                    words_of[item] for item in representative[key]
                )
                if store is not None:
                    tokens = store.insert(
                        _SEQUENCE_KIND, key, tokens, suffix=".json", save=_save_json
                    )
                for position in positions:
                    results[position] = tokens
        return results  # type: ignore[return-value]


class PrecomputedTfidfEncoder:
    """Adapter kept only for ``perfbench/traced_server.py``.

    The perfbench tracer imports this class and wraps :meth:`encode` as its
    ``encode`` span.  Nothing in ``repro`` calls it: serving encodes through
    :meth:`StatisticalModel.predict_proba_tokens
    <repro.models.statistical.StatisticalModel.predict_proba_tokens>`, i.e.
    :meth:`TfidfVectorizer.transform`.  The next benchmark change moves the
    probe to ``StatisticalModel.encode_tokens`` and deletes this class.
    """

    def __init__(self, vectorizer: TfidfVectorizer) -> None:
        self.vectorizer = vectorizer

    def encode(self, token_lists: Sequence[Sequence[str]]) -> sparse.csr_matrix:
        """``self.vectorizer.transform(token_lists)``."""
        return self.vectorizer.transform(token_lists)
