"""Batched prediction serving over fitted models.

:class:`PredictionService` is the inference-side counterpart of the
experiment runner: it holds any number of fitted models (typically restored
from bundles), featurizes raw recipe item sequences through one shared, warm
:class:`~repro.pipeline.store.FeatureStore`, and serves predictions through
three paths:

* :meth:`~PredictionService.predict` / :meth:`~PredictionService.predict_proba`
  — single requests.  Concurrent callers are **naturally batched**: requests
  enter a bounded queue and a worker thread flushes them as one model pass.
  The worker never waits for a batch to fill: it takes the first request as
  soon as it arrives, plus whatever queued while the previous pass ran (up
  to ``max_batch_size``).  A lone request on an idle service is a batch of
  one; under load the queue fills on its own.
* :meth:`~PredictionService.predict_batch` /
  :meth:`~PredictionService.predict_proba_batch` — explicit batches,
  featurized and predicted in one pass.
* An **LRU result cache** short-circuits repeated inputs on every path, and
  **single-flight coalescing** covers the window the cache cannot: N
  concurrent identical requests trigger one featurize+predict, every waiter
  shares the (copied) result.

The service keeps per-model request counters and service-wide hit/latency
counters (:meth:`~PredictionService.stats`).

Determinism note: predicted *labels* and cached results are stable, but
probability vectors can differ from a full-batch reference in the last ulp
when micro-batching changes the batch composition — sparse matrix products
sum in a batch-shape-dependent order.  Compare probabilities across batch
compositions with ``np.allclose``, not bitwise.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.data.recipedb import RecipeDB
from repro.models.base import CuisineModel
from repro.observability import CounterSet, Histogram
from repro.pipeline.engine import CorpusEngine
from repro.pipeline.fingerprint import sequence_key
from repro.pipeline.store import FeatureStore, _save_json
from repro.serving.bundle import ModelBundle, load_bundles
from repro.serving.cache import ShardedResultCache
from repro.serving.featurizer import BatchFeaturizer
from repro.trace import current_span_id, current_trace

_SHUTDOWN = object()

#: Stage histograms recorded in seconds; the rest (``queue_depth``,
#: ``batch_size``) are unit-free counts.
_TIMED_STAGES = ("queue_wait", "featurize", "predict")


@dataclass
class _Request:
    """One queued single-prediction request.

    The request carries the resolved model object and its cache epoch, so it
    is **pinned** at submission time: a concurrent hot-swap or removal of the
    name cannot change (or break) what this request predicts against, and
    its result is never cached for the successor model.
    """

    model_name: str
    sequence: tuple[str, ...]
    model: CuisineModel
    epoch: int
    done: threading.Event = field(default_factory=threading.Event)
    result: np.ndarray | None = None
    error: BaseException | None = None
    # ``time.perf_counter()`` stamps: the caller sets ``submitted``, the
    # batch thread the rest.  The stage histograms and the caller's trace
    # spans are both derived from these, so the two views agree.
    submitted: float = 0.0
    drained: float = 0.0
    started: float = 0.0
    featurized: float = 0.0
    predicted: float = 0.0
    batch_size: int = 0


class PredictionService:
    """Serve cuisine predictions from fitted models with natural micro-batching.

    Args:
        models: Optional initial ``name -> fitted model`` mapping.
        store: Feature store used to cache request featurization (token
            preprocessing); a private store is created by default.
        engine: Sharded corpus engine used by :meth:`warm_corpus` to
            featurize whole corpora.  Pass the training side's engine (or
            one over a shared/cache-dir-backed store) so inference reuses
            the exact per-shard artifacts training produced; by default an
            in-process engine over *store* is created.
        max_batch_size: Most requests one flush takes from the queue.  The
            worker flushes as soon as a request arrives, with whatever else
            is already queued; it never waits for more.
        coalesce: Single-flight coalescing of identical concurrent requests
            (default on): the first request for a ``(model, sequence)`` key
            computes, concurrent duplicates wait on it and share a copy of
            the result — one model pass instead of N.  Hot-swaps mid-flight
            are epoch-guarded: a flight started against a retired model
            version never satisfies its waiters.
        cache_size: Bound on the LRU result cache (0 disables caching;
            coalescing works either way).
        cache_stripes: Number of independently-locked stripes the result
            cache is sharded into (clamped to ``cache_size``), so hot-key
            traffic does not serialize on one lock.
        queue_size: Bound on the request queue; when full, callers block
            until the worker drains it (backpressure).
        request_timeout: Seconds a single predict call waits for its batched
            result before raising ``TimeoutError``.
    """

    def __init__(
        self,
        models: Mapping[str, CuisineModel] | None = None,
        *,
        store: FeatureStore | None = None,
        engine: CorpusEngine | None = None,
        max_batch_size: int = 32,
        coalesce: bool = True,
        cache_size: int = 2048,
        cache_stripes: int = 16,
        queue_size: int = 4096,
        request_timeout: float = 60.0,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {cache_size}")
        if store is None and engine is not None:
            store = engine.store
        self.store = store if store is not None else FeatureStore()
        if engine is not None and engine.store is not self.store:
            raise ValueError("engine must be built over the service's feature store")
        self.engine = engine if engine is not None else CorpusEngine(self.store)
        self.max_batch_size = max_batch_size
        self.coalesce = coalesce
        self.cache_size = cache_size
        self.request_timeout = request_timeout

        self._models: dict[str, CuisineModel] = {}
        self._queue: queue.Queue = queue.Queue(maxsize=queue_size)
        self._worker: threading.Thread | None = None
        self._worker_lock = threading.Lock()
        #: Serializes queue submission against close(): the shutdown sentinel
        #: is always the last item ever enqueued, so drain-on-close cannot
        #: strand a racing request behind it.
        self._submit_lock = threading.Lock()
        self._closed = False

        #: Sharded, epoch-guarded LRU of probability rows — per-model epochs
        #: guard against caching a retired model's result.
        self._result_cache = ShardedResultCache(cache_size, n_stripes=cache_stripes)
        #: Batch fast path for miss-traffic featurization (shared item memo).
        self._featurizer = BatchFeaturizer()

        # Shared observability primitives (same as the gateway's routes).
        self._counters = CounterSet()
        self._latency = Histogram()
        self._stages = {
            name: Histogram()
            for name in sorted((*_TIMED_STAGES, "queue_depth", "batch_size"))
        }
        self._stats_lock = threading.Lock()
        self._largest_batch = 0

        for name, model in (models or {}).items():
            self.add_model(model, name=name)

    # ------------------------------------------------------------------
    # construction / model management
    # ------------------------------------------------------------------
    @classmethod
    def from_export_dir(
        cls,
        export_dir: str | Path,
        names: Sequence[str] | None = None,
        **kwargs,
    ) -> "PredictionService":
        """Build a service from an experiment export directory.

        Every bundle under *export_dir* (or the *names* subset) is loaded by
        name through the registry-aware bundle loader and registered.
        """
        service = cls(**kwargs)
        for name, bundle in load_bundles(export_dir, names).items():
            service.add_bundle(bundle, name=name)
        return service

    def add_model(self, model: CuisineModel, name: str | None = None) -> str:
        """Register a fitted model under *name* (default: its registry name).

        Re-registering an existing name (hot-swapping a retrained model)
        drops that name's cached results, so stale predictions are never
        served for the new model.
        """
        name = name if name is not None else model.name
        replaced = self._models.get(name)
        self._models[name] = model
        if replaced is not None and replaced is not model:
            # Per-stripe sweep: bumps the epoch first, then drops this name's
            # entries one stripe at a time — unrelated traffic never waits on
            # a whole-cache scan.
            self._result_cache.invalidate(name)
        return name

    def add_bundle(self, bundle: ModelBundle, name: str | None = None) -> str:
        """Register a loaded :class:`ModelBundle`."""
        return self.add_model(bundle.model, name=name)

    def remove_model(self, name: str) -> CuisineModel:
        """Unregister *name*, dropping its cached results.

        In-flight requests already pinned to the model (queued micro-batch
        entries, running batch predicts) complete normally against the model
        object they captured; their results are not cached (the epoch bump),
        and *new* requests for the name fail with ``KeyError``.
        """
        model = self._require_model(name)
        del self._models[name]
        self._result_cache.invalidate(name)
        return model

    def model_names(self) -> tuple[str, ...]:
        """Registered model names, sorted."""
        return tuple(sorted(self._models))

    def _require_model(self, name: str) -> CuisineModel:
        try:
            return self._models[name]
        except KeyError:
            raise KeyError(
                f"no model {name!r} registered; available: {sorted(self._models)}"
            ) from None

    # ------------------------------------------------------------------
    # featurization (shared warm store)
    # ------------------------------------------------------------------
    def _featurize(self, model: CuisineModel, sequences: Sequence[tuple[str, ...]]):
        """Tokens for *sequences* under the model's pipeline, via the store.

        Token artifacts are keyed **per sequence** (content + pipeline
        config), so the heavy pure-Python preprocessing runs once per
        distinct sequence — independent of batch composition, of which model
        asks (models sharing a pipeline config share the artifacts), and of
        whether the request came through :meth:`warm`, the micro-batch
        worker or an explicit batch.  Cold sequences of a batch are computed
        together by the :class:`BatchFeaturizer` (one pass, shared item
        memo) — bitwise-identical to the sequential per-sequence path.
        """
        config = model.feature_spec().pipeline
        return self._featurizer.batch_tokens(sequences, config, store=self.store)

    def _predict_group(
        self, model: CuisineModel, sequences: Sequence[tuple[str, ...]]
    ) -> tuple[np.ndarray, tuple[float, float, float]]:
        """Run one grouped model pass; returns the probabilities and the
        ``(started, featurized, predicted)`` stamps of the pass, which every
        request (and trace) that shared it is attributed."""
        started = time.perf_counter()
        tokens = self._featurize(model, sequences)
        featurized = time.perf_counter()
        probabilities = model.predict_proba_tokens(tokens)
        predicted = time.perf_counter()
        self._stages["featurize"].record(featurized - started, count=len(sequences))
        self._stages["predict"].record(predicted - featurized, count=len(sequences))
        return probabilities, (started, featurized, predicted)

    def warm(
        self,
        sequences: Iterable[Sequence[str]],
        names: Sequence[str] | None = None,
    ) -> None:
        """Precompute token artifacts of *sequences* for the named models."""
        sequences = [self._validated(sequence) for sequence in sequences]
        for name in names if names is not None else self.model_names():
            self._featurize(self._require_model(name), sequences)

    def warm_corpus(self, corpus: RecipeDB, names: Sequence[str] | None = None) -> int:
        """Warm the service with a whole corpus through the sharded engine.

        The corpus is featurized shard-wise by the :class:`CorpusEngine`
        (reusing — and contributing to — the same per-shard artifacts the
        training side computes), and each recipe's token sequence is then
        republished under its per-sequence cache key, so a later predict for
        any recipe of *corpus* featurizes as a pure cache hit.  Seeding does
        not inflate the store's miss counters.

        The seeded artifacts live in the store's bounded LRU layer (plus the
        disk cache when the store has a ``cache_dir``): to keep a whole large
        corpus resident, size ``FeatureStore(max_entries=...)`` accordingly
        or configure disk persistence.

        Returns the number of (sequence, pipeline-config) artifacts seeded.
        """
        names = names if names is not None else self.model_names()
        configs = {self._require_model(name).feature_spec().pipeline for name in names}
        seeded = 0
        for config in configs:
            tokens = self.engine.tokens(corpus, config)
            for recipe, recipe_tokens in zip(corpus, tokens):
                self.store.insert(
                    "sequence_tokens",
                    sequence_key(recipe.sequence, config),
                    recipe_tokens,
                    suffix=".json",
                    save=_save_json,
                    count_miss=False,
                )
                seeded += 1
        return seeded

    # ------------------------------------------------------------------
    # result cache
    # ------------------------------------------------------------------
    def _cache_get(self, model_name: str, sequence: tuple[str, ...]) -> np.ndarray | None:
        return self._result_cache.get(model_name, sequence)

    def _model_epoch(self, model_name: str) -> int:
        return self._result_cache.epoch(model_name)

    def _cache_put(
        self,
        model_name: str,
        sequence: tuple[str, ...],
        value: np.ndarray,
        epoch: int | None = None,
    ) -> None:
        # A put carrying a stale epoch (computed by a model hot-swapped away
        # mid-flight) is silently dropped by the cache.
        self._result_cache.put(model_name, sequence, value, epoch=epoch)

    # ------------------------------------------------------------------
    # micro-batching worker
    # ------------------------------------------------------------------
    def _ensure_worker(self) -> None:
        if self._worker is not None and self._worker.is_alive():
            return
        with self._worker_lock:
            if self._closed:
                raise RuntimeError("prediction service is closed")
            if self._worker is not None and self._worker.is_alive():
                return
            self._worker = threading.Thread(
                target=self._worker_loop, name="prediction-service", daemon=True
            )
            self._worker.start()

    def _worker_loop(self) -> None:
        # The loop exits only on the close() sentinel, after draining every
        # request queued before it — shutdown never drops accepted work.
        while True:
            first = self._queue.get()
            if first is _SHUTDOWN:
                return
            # Natural batching: flush now, with whatever queued while the
            # previous batch ran.  The worker never sleeps waiting for a
            # batch to fill, so a lone request pays no batching delay.
            depth = self._queue.qsize()
            batch = [first]
            sentinel_seen = False
            while len(batch) < self.max_batch_size:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    break
                if item is _SHUTDOWN:
                    sentinel_seen = True
                    break
                batch.append(item)
            self._stages["queue_depth"].record(depth)
            self._stages["batch_size"].record(len(batch))
            self._process_batch(batch)
            if sentinel_seen:
                return

    def _process_batch(self, batch: list[_Request]) -> None:
        # Group by the *pinned* model object (not just the name): requests
        # queued across a hot-swap of the same name predict against the
        # model each of them started on.
        groups: dict[tuple[str, int], list[_Request]] = {}
        drained = time.perf_counter()
        for request in batch:
            request.drained = drained
            request.batch_size = len(batch)
            self._stages["queue_wait"].record(drained - request.submitted)
            groups.setdefault((request.model_name, id(request.model)), []).append(request)
        self._counters.increment("batches_flushed")
        self._counters.increment("batched_requests", len(batch))
        with self._stats_lock:
            self._largest_batch = max(self._largest_batch, len(batch))
        for (model_name, _), requests in groups.items():
            try:
                probabilities, stamps = self._predict_group(
                    requests[0].model, [request.sequence for request in requests]
                )
            except BaseException as exc:  # surfaced to every waiting caller
                for request in requests:
                    request.error = exc
                    request.done.set()
                continue
            for request, row in zip(requests, probabilities):
                request.started, request.featurized, request.predicted = stamps
                self._cache_put(model_name, request.sequence, row, epoch=request.epoch)
                request.result = row
                request.done.set()

    # ------------------------------------------------------------------
    # the serving API
    # ------------------------------------------------------------------
    @staticmethod
    def _validated(sequence: Iterable[str]) -> tuple[str, ...]:
        validated = tuple(str(item) for item in sequence)
        if not validated:
            raise ValueError("cannot predict an empty recipe sequence")
        return validated

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "prediction service is closed and no longer accepts requests"
            )

    def predict_proba(self, model_name: str, sequence: Iterable[str]) -> np.ndarray:
        """Class-probability vector for one raw recipe item sequence.

        Cache hits return immediately; identical concurrent misses coalesce
        into one single-flight computation (when ``coalesce`` is on); the
        remaining misses are micro-batched with any concurrent requests
        before running the model.  After :meth:`close`, new submissions are
        rejected with ``RuntimeError``.
        """
        self._ensure_open()
        # Epoch before model: if a swap lands between the two reads, the
        # stale model's result fails the epoch check and is not cached.  The
        # reverse order would cache the old model's output under the new
        # epoch.
        epoch = self._model_epoch(model_name)
        model = self._require_model(model_name)
        validated = self._validated(sequence)
        start = time.perf_counter()
        self._counters.increment(f"requests:{model_name}")
        while True:
            cached = self._cache_get(model_name, validated)
            if cached is not None:
                self._counters.increment("cache_hits")
                self._record_latency(
                    start, span="service.cache_hit", attrs={"model": model_name}
                )
                return cached
            if not self.coalesce:
                self._counters.increment("cache_misses")
                return self._submit_and_wait(model_name, validated, model, epoch, start)
            flight, is_leader = self._result_cache.join_flight(
                model_name, validated, epoch
            )
            if is_leader:
                self._counters.increment("cache_misses")
                try:
                    result = self._submit_and_wait(
                        model_name, validated, model, epoch, start
                    )
                except BaseException as exc:
                    # Followers share the leader's fate — never hang them.
                    self._result_cache.finish_flight(
                        model_name, validated, flight, error=exc
                    )
                    raise
                self._result_cache.finish_flight(
                    model_name, validated, flight, value=result
                )
                return result
            # Follower: wait for the leader's computation instead of
            # enqueueing a duplicate.
            if not flight.event.wait(timeout=self.request_timeout):
                raise TimeoutError(
                    f"prediction for model {model_name!r} timed out after "
                    f"{self.request_timeout}s (coalesced)"
                )
            if flight.epoch != self._model_epoch(model_name):
                # A hot-swap landed mid-flight: the leader computed against
                # the retired model version.  The leader's own caller keeps
                # its pinned result (historical semantics); waiters retry
                # against the current model.
                self._counters.increment("coalesced_stale")
                epoch = self._model_epoch(model_name)
                model = self._require_model(model_name)
                continue
            if flight.error is not None:
                raise flight.error
            self._counters.increment("coalesced_hits")
            self._record_latency(
                start, span="service.coalesced_follower", attrs={"model": model_name}
            )
            assert flight.value is not None
            return flight.value.copy()

    def _submit_and_wait(
        self,
        model_name: str,
        validated: tuple[str, ...],
        model: CuisineModel,
        epoch: int,
        start: float,
    ) -> np.ndarray:
        """Enqueue one micro-batch request and wait for its result."""
        request = _Request(
            model_name=model_name,
            sequence=validated,
            model=model,
            epoch=epoch,
            submitted=time.perf_counter(),
        )
        with self._submit_lock:
            self._ensure_open()  # re-checked: no submission after the sentinel
            self._ensure_worker()
            self._queue.put(request)
        if not request.done.wait(timeout=self.request_timeout):
            raise TimeoutError(
                f"prediction for model {model_name!r} timed out after "
                f"{self.request_timeout}s"
            )
        if request.error is not None:
            raise request.error
        self._record_latency(start)
        trace = current_trace()
        if trace is not None:
            # The batch thread knows nothing about traces (one pass serves
            # many callers); the waiting caller lays out its own request's
            # stages from the stamps the batch thread left on it.
            batch = trace.add_stamped_span(
                "service.batch",
                request.submitted,
                request.predicted,
                parent=current_span_id(),
                attrs={"model": request.model_name, "batch_size": request.batch_size},
            )
            for name, begin, end in (
                ("service.queue_wait", request.submitted, request.drained),
                ("service.featurize", request.started, request.featurized),
                ("service.predict", request.featurized, request.predicted),
            ):
                trace.add_stamped_span(name, begin, end, parent=batch.span_id)
        assert request.result is not None
        return request.result

    def predict(self, model_name: str, sequence: Iterable[str]) -> str:
        """Predicted cuisine name for one raw recipe item sequence."""
        model = self._require_model(model_name)
        probabilities = self.predict_proba(model_name, sequence)
        return model.label_space[int(np.argmax(probabilities))]

    def predict_proba_batch(
        self, model_name: str, sequences: Sequence[Iterable[str]]
    ) -> np.ndarray:
        """Class-probability matrix for a batch of raw sequences.

        The whole batch is featurized and predicted in one model pass
        (cache hits are served from the LRU and excluded from the pass).
        """
        self._ensure_open()
        epoch = self._model_epoch(model_name)  # before the model; see predict_proba
        model = self._require_model(model_name)
        validated = [self._validated(sequence) for sequence in sequences]
        if not validated:
            return np.zeros((0, model.n_classes))
        start = time.perf_counter()
        self._counters.increment(f"requests:{model_name}", len(validated))
        rows: dict[int, np.ndarray] = {}
        pending: list[tuple[int, tuple[str, ...]]] = []
        for index, sequence in enumerate(validated):
            cached = self._cache_get(model_name, sequence)
            if cached is not None:
                rows[index] = cached
            else:
                pending.append((index, sequence))
        self._counters.increment("cache_hits", len(validated) - len(pending))
        self._counters.increment("cache_misses", len(pending))
        if pending:
            probabilities, (started, featurized, predicted) = self._predict_group(
                model, [sequence for _, sequence in pending]
            )
            for (index, sequence), row in zip(pending, probabilities):
                self._cache_put(model_name, sequence, row, epoch=epoch)
                rows[index] = row
            trace = current_trace()
            if trace is not None:
                attrs = {"sequences": len(pending)}
                for name, begin, end in (
                    ("service.featurize", started, featurized),
                    ("service.predict", featurized, predicted),
                ):
                    trace.add_stamped_span(
                        name, begin, end, parent=current_span_id(), attrs=attrs
                    )
            self._record_latency(start, len(validated))
        else:
            self._record_latency(
                start,
                len(validated),
                span="service.cache_hit",
                attrs={"sequences": len(validated)},
            )
        return np.vstack([rows[index] for index in range(len(validated))])

    def predict_batch(self, model_name: str, sequences: Sequence[Iterable[str]]) -> list[str]:
        """Predicted cuisine names for a batch of raw sequences."""
        model = self._require_model(model_name)
        probabilities = self.predict_proba_batch(model_name, sequences)
        return [model.label_space[i] for i in probabilities.argmax(axis=1)]

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _record_latency(
        self,
        start: float,
        count: int = 1,
        *,
        span: str | None = None,
        attrs: dict | None = None,
    ) -> None:
        """Record the call's latency since *start*; with *span*, also add
        the same interval to the active trace (cache hits, coalesced
        followers)."""
        end = time.perf_counter()
        self._latency.record(end - start, count=count)
        trace = current_trace() if span is not None else None
        if trace is not None:
            trace.add_stamped_span(
                span, start, end, parent=current_span_id(), attrs=attrs
            )

    def stats(self) -> dict:
        """Service counters plus the underlying feature-store statistics.

        Counters and histograms come from the shared
        :mod:`repro.observability` primitives — each histogram dict carries
        lifetime p50/p95/p99 quantiles alongside its totals and buckets.
        """
        counters = self._counters.as_dict()  # JSON-safe, sorted, zeros omitted
        requests = {
            name.split(":", 1)[1]: count
            for name, count in counters.items()
            if name.startswith("requests:")
        }
        batches = counters.get("batches_flushed", 0)
        batched = counters.get("batched_requests", 0)
        with self._stats_lock:
            largest = self._largest_batch
        payload = {
            "requests": sum(requests.values()),
            "requests_by_model": requests,
            "cache_hits": counters.get("cache_hits", 0),
            "cache_misses": counters.get("cache_misses", 0),
            #: Requests served by joining another request's in-flight
            #: computation (single-flight), and waits retried because a
            #: hot-swap landed mid-flight.
            "coalesced_hits": counters.get("coalesced_hits", 0),
            "coalesced_stale": counters.get("coalesced_stale", 0),
            "batches_flushed": batches,
            "batched_requests": batched,
            "mean_batch_size": (batched / batches) if batches else 0.0,
            "largest_batch": largest,
            "latency": self._latency.snapshot(),
            #: Per-stage split of the batch wall clock: queue_wait (submit →
            #: batch drained), featurize (tokens), predict (encode + model) —
            #: plus the per-flush queue_depth / batch_size distributions.
            #: Stages that never ran are omitted.
            "stages": {
                name: stage.snapshot(seconds=name in _TIMED_STAGES)
                for name, stage in self._stages.items()
                if stage.count
            },
        }
        payload["cached_entries"] = len(self._result_cache)
        payload["cache"] = self._result_cache.stats()
        payload["store"] = self.store.stats()
        return payload

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the service down: reject new requests, drain accepted ones.

        Idempotent and terminal.  Submissions arriving after ``close()``
        raise ``RuntimeError`` immediately; every request that was accepted
        into the micro-batch queue before shutdown is still **processed to
        completion** (its caller receives a real result, not an error).  Only
        requests that race the shutdown into the queue after the drain
        sentinel are failed — with the same clear ``RuntimeError``, never a
        silent drop or a timeout.
        """
        with self._submit_lock:
            with self._worker_lock:
                if self._closed:
                    return  # another close() owns (or finished) the shutdown
                self._closed = True
                worker = self._worker
            if worker is not None and worker.is_alive():
                # The worker drains everything queued before this sentinel,
                # and the submit lock guarantees nothing is queued after it.
                self._queue.put(_SHUTDOWN)
        if worker is not None:
            worker.join(timeout=30.0)
            if worker.is_alive():
                # Still draining a deep backlog: leave the queue to it — it
                # will complete every accepted request and exit at the
                # sentinel.  Touching the queue here would steal its work.
                return
        self._worker = None
        while True:  # fail (don't drop) anything left behind by a dead worker
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is not _SHUTDOWN:
                item.error = RuntimeError(
                    "prediction service is closed and no longer accepts requests"
                )
                item.done.set()

    def __enter__(self) -> "PredictionService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
