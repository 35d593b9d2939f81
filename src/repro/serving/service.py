"""Batched prediction serving over fitted models.

:class:`PredictionService` is the inference-side counterpart of the
experiment runner: it holds any number of fitted models (typically restored
from bundles), featurizes raw recipe item sequences through one shared, warm
:class:`~repro.pipeline.store.FeatureStore`, and serves every prediction
through one path, :meth:`~PredictionService.predict_proba_batch`; a single
request (:meth:`~PredictionService.predict_proba`) is a batch of one.

* An **LRU result cache** short-circuits repeated sequences, and
  **single-flight coalescing** covers the window the cache cannot: N
  concurrent requests for one sequence trigger one featurize+predict, every
  waiter copies its row out of the one unit computing it.  Both live in one
  map, :class:`~repro.serving.cache.ResultCache`.  A request's repeated
  sequences are deduplicated first, so it never waits on its own unit.
* The remaining misses of one call enter a bounded queue as **one unit**,
  and a worker thread flushes queued units as one model pass.  Concurrent
  callers are **naturally batched**: the worker never waits for a batch to
  fill; it takes the first unit as soon as it arrives, plus whatever queued
  while the previous pass ran, up to ``max_batch_size`` sequences.  It
  never splits a unit, so a unit longer than that is a flush of its own.

The service keeps per-model request counters and service-wide hit/latency
counters (:meth:`~PredictionService.stats`).

Determinism note: whether a request's probability vector depends on the
batch it lands in (which natural batching makes a function of concurrent
load) differs by model family.

* Statistical models (logreg, Naive Bayes, linear SVM, random forest): no.
  ``TfidfVectorizer.transform`` weights each row on its own, so a lone
  request gets exactly the bytes of its row in any batch.
* Transformers (BERT, RoBERTa): in the last ulp of the bundle's dtype.  A
  batch runs at the width of its longest real row, so the attention sums
  and GEMMs change shape with the batch, and the ``(batch, dim)`` GEMMs over
  the ``[CLS]`` rows run a different BLAS kernel for a single row than for
  several.
* LSTM: in the last ulp of the bundle's dtype.  The recurrent
  ``(batch, hidden)`` GEMMs of every time step differ the same way.

The neural families export float32 bundles by default, and those run their
forward in float32, so their ulp is float32's (about 6e-8 relative); an
exact (float64) bundle's is float64's.  Labels and cached results are
stable for every family.  Compare transformer and LSTM probabilities across
batch compositions with ``np.allclose``, not bitwise.
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
from repro.serving.cache import ResultCache
from repro.serving.featurizer import BatchFeaturizer
from repro.trace import current_span_id, current_trace

_SHUTDOWN = object()

#: Stage histograms recorded in seconds; the rest (``queue_depth``,
#: ``batch_size``) are unit-free counts.
_TIMED_STAGES = ("queue_wait", "featurize", "predict")


@dataclass
class _Request:
    """One queued unit: the distinct sequences one call must compute.

    The unit carries the resolved model object and its cache epoch, so it is
    **pinned** at submission time: a concurrent hot-swap or removal of the
    name cannot change (or break) what this unit predicts against, and its
    rows are never cached for the successor model.  Calls that follow one
    of its sequences wait on ``done`` and read their row from ``result``.
    """

    model_name: str
    sequences: list[tuple[str, ...]]
    model: CuisineModel
    epoch: int
    done: threading.Event = field(default_factory=threading.Event)
    #: One probability row per sequence, in order.
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
    #: Sequences in the flush that ran this unit.
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
        max_batch_size: Most sequences one flush takes from the queue.  The
            worker flushes as soon as a unit arrives, with whatever else is
            already queued; it never waits for more, and never splits a
            unit.
        coalesce: Single-flight coalescing of identical concurrent sequences
            (default on): the first call to miss a ``(model, sequence)`` key
            computes it in its unit; concurrent duplicates wait on that unit
            and take a copy of its row — one model pass instead of N.
            Hot-swaps mid-flight are epoch-guarded: a unit started against
            a retired model version never satisfies its followers.
        cache_size: Bound on the rows of the LRU result cache (0 disables
            caching; coalescing works either way).  A hot-swap or removal
            retires the name's rows at once, without a sweep.
        queue_size: Bound on the request queue; when full, callers block
            until the worker drains it (backpressure).
        request_timeout: Seconds a predict call waits for its unit, or for a
            unit it follows, before raising ``TimeoutError``.
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

        #: Epoch-guarded LRU of probability rows and the units computing
        #: the missing ones.
        self._result_cache = ResultCache(cache_size)
        #: Batch fast path for miss-traffic featurization (shared item memo).
        self._featurizer = BatchFeaturizer()

        # Shared observability primitives (same as the gateway's routes).
        self._counters = CounterSet()
        self._latency = Histogram()
        self._stages = {
            name: Histogram()
            for name in sorted((*_TIMED_STAGES, "queue_depth", "batch_size"))
        }

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
            self._result_cache.invalidate(name)
        return name

    def add_bundle(self, bundle: ModelBundle, name: str | None = None) -> str:
        """Register a loaded :class:`ModelBundle`."""
        return self.add_model(bundle.model, name=name)

    def remove_model(self, name: str) -> CuisineModel:
        """Unregister *name*, dropping its cached results.

        In-flight requests already pinned to the model (queued or running
        units) complete normally against the model object they captured;
        their results are not cached (the epoch bump), and *new* requests
        for the name fail with ``KeyError``.
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
        whether the request came through :meth:`warm` or the batch worker.
        Cold sequences of a batch are computed together by the
        :class:`BatchFeaturizer` (one pass, shared item memo) —
        bitwise-identical to the sequential per-sequence path.
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
    # batch worker
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
        # unit queued before it — shutdown never drops accepted work.
        held = None  # a unit that did not fit the previous flush
        while True:
            first = held if held is not None else self._queue.get()
            held = None
            if first is _SHUTDOWN:
                return
            # Natural batching: flush now, with whatever queued while the
            # previous batch ran.  The worker never sleeps waiting for a
            # batch to fill, so a lone request pays no batching delay.
            depth = self._queue.qsize()
            batch = [first]
            rows = len(first.sequences)
            sentinel_seen = False
            while rows < self.max_batch_size:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    break
                if item is _SHUTDOWN:
                    sentinel_seen = True
                    break
                if rows + len(item.sequences) > self.max_batch_size:
                    held = item  # units are never split: it leads the next flush
                    break
                batch.append(item)
                rows += len(item.sequences)
            self._stages["queue_depth"].record(depth)
            self._process_batch(batch)
            if sentinel_seen:
                return

    def _process_batch(self, batch: list[_Request]) -> None:
        # Group by the *pinned* model object (not just the name): units
        # queued across a hot-swap of the same name predict against the
        # model each of them started on.
        groups: dict[tuple[str, int], list[_Request]] = {}
        rows = sum(len(request.sequences) for request in batch)
        drained = time.perf_counter()
        for request in batch:
            request.drained = drained
            request.batch_size = rows
            self._stages["queue_wait"].record(
                drained - request.submitted, count=len(request.sequences)
            )
            groups.setdefault((request.model_name, id(request.model)), []).append(request)
        self._stages["batch_size"].record(rows)
        for requests in groups.values():
            try:
                probabilities, stamps = self._predict_group(
                    requests[0].model,
                    [sequence for request in requests for sequence in request.sequences],
                )
            except BaseException as exc:  # surfaced to every waiting caller
                for request in requests:
                    request.error = exc
                    self._result_cache.complete(request)
                continue
            offset = 0
            for request in requests:
                request.result = probabilities[offset : offset + len(request.sequences)]
                offset += len(request.sequences)
                request.started, request.featurized, request.predicted = stamps
                self._result_cache.complete(request)

    def _run_unit(self, unit: _Request, inline: bool) -> None:
        """Queue *unit* for the worker (or run it here) and wait for its rows."""
        unit.submitted = time.perf_counter()
        if inline:
            self._process_batch([unit])
        else:
            with self._submit_lock:
                try:
                    self._ensure_open()  # re-checked: no submission after the sentinel
                    self._ensure_worker()
                except RuntimeError as exc:
                    unit.error = exc
                    self._result_cache.complete(unit)  # never strand its followers
                    raise
                self._queue.put(unit)
            if not unit.done.wait(timeout=self.request_timeout):
                raise TimeoutError(
                    f"prediction for model {unit.model_name!r} timed out after "
                    f"{self.request_timeout}s"
                )
        if unit.error is not None:
            raise unit.error

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
        """Class-probability vector for one raw recipe item sequence (a batch
        of one; see :meth:`predict_proba_batch`)."""
        return self.predict_proba_batch(model_name, [sequence])[0]

    def predict(self, model_name: str, sequence: Iterable[str]) -> str:
        """Predicted cuisine name for one raw recipe item sequence."""
        return self.predict_batch(model_name, [sequence])[0]

    def predict_proba_batch(
        self,
        model_name: str,
        sequences: Sequence[Iterable[str]],
        *,
        inline: bool = False,
    ) -> np.ndarray:
        """Class-probability matrix for a batch of raw sequences.

        Each distinct sequence is a cache hit, a follower of an identical
        sequence some other call's unit is computing (when ``coalesce`` is
        on), or a miss.  The misses go to the batch worker as one unit,
        which may share its model pass with concurrent units.  After
        :meth:`close`, new submissions are rejected with ``RuntimeError``.

        Args:
            inline: Run the misses' model pass on the calling thread instead
                of the batch worker.  Shadow mirrors use it, so mirrored
                traffic never queues ahead of primary requests.
        """
        self._ensure_open()
        # Epoch before model: if a swap lands between the two reads, the
        # stale model's result fails the epoch check and is not cached.  The
        # reverse order would cache the old model's output under the new
        # epoch.
        epoch = self._result_cache.epoch(model_name)
        model = self._require_model(model_name)
        validated = [self._validated(sequence) for sequence in sequences]
        if not validated:
            return np.zeros((0, model.n_classes))
        start = time.perf_counter()
        self._counters.increment(f"requests:{model_name}", len(validated))
        rows: dict[tuple[str, ...], np.ndarray] = {}
        units: list[_Request] = []
        followed = False
        pending = list(dict.fromkeys(validated))  # never follow our own unit
        while pending:
            unit = _Request(model_name, [], model, epoch)
            hits, follows = self._result_cache.claim(
                unit, pending, coalesce=self.coalesce
            )
            self._counters.increment("cache_hits", len(hits))
            rows.update(hits)
            if unit.sequences:
                self._counters.increment("cache_misses", len(unit.sequences))
                self._run_unit(unit, inline)
                units.append(unit)
                rows.update(zip(unit.sequences, unit.result))
            # Followers wait only after this call's own unit is done, so two
            # calls following each other's sequences cannot deadlock.
            followed = followed or bool(follows)
            pending = []
            for sequence, (leader, index) in follows.items():
                if not leader.done.wait(timeout=self.request_timeout):
                    raise TimeoutError(
                        f"prediction for model {model_name!r} timed out after "
                        f"{self.request_timeout}s (coalesced)"
                    )
                if leader.epoch != self._result_cache.epoch(model_name):
                    # A hot-swap landed mid-flight: the leader computed
                    # against the retired model version.  The leader's own
                    # caller keeps its pinned result; followers retry
                    # against the current model.
                    self._counters.increment("coalesced_stale")
                    pending.append(sequence)
                elif leader.error is not None:
                    raise leader.error
                else:
                    self._counters.increment("coalesced_hits")
                    rows[sequence] = leader.result[index].copy()
            if pending:
                epoch = self._result_cache.epoch(model_name)
                model = self._require_model(model_name)
        end = time.perf_counter()
        self._latency.record(end - start, count=len(validated))
        trace = current_trace()
        if trace is not None:
            self._add_spans(trace, model_name, units, followed, start, end)
        return np.vstack([rows[sequence] for sequence in validated])

    def predict_batch(self, model_name: str, sequences: Sequence[Iterable[str]]) -> list[str]:
        """Predicted cuisine names for a batch of raw sequences."""
        model = self._require_model(model_name)
        probabilities = self.predict_proba_batch(model_name, sequences)
        return [model.label_space[i] for i in probabilities.argmax(axis=1)]

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @staticmethod
    def _add_spans(
        trace,
        model_name: str,
        units: list[_Request],
        followed: bool,
        start: float,
        end: float,
    ) -> None:
        """Lay out one call's service spans on its trace.

        The batch thread knows nothing about traces (one pass serves many
        callers); the caller builds its units' spans from the stamps the
        batch thread left on them.  A call that ran no unit gets one span
        over its whole wait: a coalesced follower's or a cache hit's.
        """
        parent = current_span_id()
        for unit in units:
            batch = trace.add_stamped_span(
                "service.batch",
                unit.submitted,
                unit.predicted,
                parent=parent,
                attrs={
                    "model": model_name,
                    "batch_size": unit.batch_size,
                    "sequences": len(unit.sequences),
                },
            )
            for name, begin, finish in (
                ("service.queue_wait", unit.submitted, unit.drained),
                ("service.featurize", unit.started, unit.featurized),
                ("service.predict", unit.featurized, unit.predicted),
            ):
                trace.add_stamped_span(name, begin, finish, parent=batch.span_id)
        if not units:
            name = "service.coalesced_follower" if followed else "service.cache_hit"
            trace.add_stamped_span(name, start, end, parent=parent, attrs={"model": model_name})

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
        # One record per flush: the batch_size histogram's count, total and
        # max are exact.
        flushes = self._stages["batch_size"].snapshot(seconds=False)
        batches, batched = flushes["count"], int(flushes["total"])
        # Every count below is of sequences, not calls: a batch of N is N
        # requests, and a flush's size is the sequences it ran.
        payload = {
            "requests": sum(requests.values()),
            "requests_by_model": requests,
            "cache_hits": counters.get("cache_hits", 0),
            "cache_misses": counters.get("cache_misses", 0),
            #: Sequences served by following another call's unit
            #: (single-flight), and waits retried because a hot-swap landed
            #: mid-flight.
            "coalesced_hits": counters.get("coalesced_hits", 0),
            "coalesced_stale": counters.get("coalesced_stale", 0),
            "batches_flushed": batches,
            "batched_requests": batched,
            "mean_batch_size": (batched / batches) if batches else 0.0,
            "largest_batch": int(flushes["max"]),
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
                self._result_cache.complete(item)

    def __enter__(self) -> "PredictionService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
