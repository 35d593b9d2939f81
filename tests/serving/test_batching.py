"""Tests for the naturally batching worker and single-flight coalescing."""

import random
import sys
import threading
import time

import numpy as np
import pytest

from repro.models.registry import create_model
from repro.serving import PredictionService
from repro.serving.featurizer import BatchFeaturizer
from repro.serving.service import _Request
from tests.serving.conftest import WAIT_SECONDS

MODELS = ("logreg", "naive_bayes")
MODEL_KWARGS = {"logreg": {"max_iter": 30}, "naive_bayes": {}}


@pytest.fixture(scope="module")
def fitted_models(tiny_corpus):
    models = {}
    for name in MODELS:
        model = create_model(name, **MODEL_KWARGS[name])
        model.fit(tiny_corpus)
        models[name] = model
    return models


@pytest.fixture(scope="module")
def sequences(tiny_corpus):
    """16 distinct sequences, so none of them coalesce with another."""
    distinct = dict.fromkeys(tuple(recipe.sequence) for recipe in tiny_corpus.recipes)
    return list(distinct)[:16]


def _slow(model, seconds):
    """Wrap the model's classifier pass with a sleep (benchmark-style hook)."""
    original = model.predict_proba_features

    def slowed(features, *, _original=original):
        time.sleep(seconds)
        return _original(features)

    model.predict_proba_features = slowed
    return original


def _call_in_thread(target, *args) -> threading.Thread:
    thread = threading.Thread(target=target, args=args)
    thread.start()
    return thread


def _count_followers(service, count: int) -> threading.Event:
    """An event set once claims have found *count* sequences to follow."""
    followed = threading.Event()
    seen: list = []
    claim = service._result_cache.claim

    def counting(*args, **kwargs):
        hits, follows = claim(*args, **kwargs)
        seen.extend(follows)
        if len(seen) >= count:
            followed.set()
        return hits, follows

    service._result_cache.claim = counting
    return followed


class TestNaturalBatching:
    """The worker flushes at once with whatever queued while it was busy.

    The model pass is gated, so what sits in the queue at each flush is
    known exactly: no assertion depends on the wall clock.
    """

    @pytest.mark.parametrize("queued, max_batch_size", [(3, 32), (12, 5)])
    def test_next_flush_takes_everything_queued(
        self, fitted_models, sequences, gate_pass, queued, max_batch_size
    ):
        with PredictionService(
            {"m": fitted_models["logreg"]}, cache_size=0, max_batch_size=max_batch_size
        ) as service:
            gate = gate_pass(service, "m")
            threads = [_call_in_thread(service.predict_proba, "m", sequences[0])]
            gate.wait_entered()  # the worker is busy with a batch of one
            threads += [
                _call_in_thread(service.predict_proba, "m", sequence)
                for sequence in sequences[1 : 1 + queued]
            ]
            gate.wait_queued(queued)
            gate.release()
            for thread in threads:
                thread.join()
            stats = service.stats()
        assert gate.rows[:2] == [1, min(queued, max_batch_size)]
        assert sum(gate.rows) == queued + 1
        assert stats["largest_batch"] == min(queued, max_batch_size)

    def test_lone_request_flushes_as_batch_of_one(self, fitted_models, sequences):
        with PredictionService({"m": fitted_models["logreg"]}) as service:
            service.predict_proba("m", sequences[0])
            stats = service.stats()
        assert stats["batches_flushed"] == 1
        assert stats["largest_batch"] == 1
        assert stats["stages"]["queue_depth"]["max"] == 0.0
        assert stats["stages"]["batch_size"]["count"] == 1
        assert stats["stages"]["batch_size"]["max"] == 1.0

    def test_units_are_never_split(self, fitted_models, sequences, gate_pass):
        """A batch is one unit: it counts its length against max_batch_size,
        and a unit that does not fit waits whole for the next flush."""
        with PredictionService(
            {"m": fitted_models["logreg"]}, cache_size=0, max_batch_size=4
        ) as service:
            gate = gate_pass(service, "m")
            threads = [_call_in_thread(service.predict_proba, "m", sequences[0])]
            gate.wait_entered()
            threads.append(
                _call_in_thread(service.predict_proba_batch, "m", sequences[1:4])
            )
            gate.wait_queued(1)
            threads.append(
                _call_in_thread(service.predict_proba_batch, "m", sequences[4:6])
            )
            gate.wait_queued(2)
            threads.append(
                _call_in_thread(service.predict_proba_batch, "m", sequences[6:12])
            )
            gate.wait_queued(3)
            gate.release()
            for thread in threads:
                thread.join()
            stats = service.stats()
        # 3 + 2 > 4, so the pair leads the next flush; the unit of 6 is
        # longer than max_batch_size and runs as a flush of its own.
        assert gate.rows == [1, 3, 2, 6]
        assert stats["largest_batch"] == 6
        # The flush counts are read off the one batch_size record.
        assert stats["batches_flushed"] == len(gate.rows)
        assert stats["batched_requests"] == sum(gate.rows)
        assert stats["mean_batch_size"] == sum(gate.rows) / len(gate.rows)

    def test_close_drains_every_queued_request(
        self, fitted_models, sequences, gate_pass
    ):
        service = PredictionService({"m": fitted_models["logreg"]}, cache_size=0)
        gate = gate_pass(service, "m")
        rows: list = []

        def call(sequence):
            rows.append(service.predict_proba("m", sequence))

        threads = [_call_in_thread(call, sequences[0])]
        gate.wait_entered()
        threads += [_call_in_thread(call, sequence) for sequence in sequences[1:]]
        gate.wait_queued(len(sequences) - 1)
        closer = _call_in_thread(service.close)
        gate.release()
        closer.join()
        for thread in threads:
            thread.join()
        assert len(rows) == len(sequences)
        assert sum(gate.rows) == len(sequences)


class TestCoalescing:
    def test_identical_concurrent_requests_coalesce(self, fitted_models, sequences):
        model = fitted_models["logreg"]
        original = _slow(model, 0.03)
        try:
            with PredictionService({"m": model}, cache_size=0) as service:
                results = []
                lock = threading.Lock()

                def call():
                    row = service.predict_proba("m", sequences[0])
                    with lock:
                        results.append(row)

                threads = [threading.Thread(target=call) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                stats = service.stats()
        finally:
            model.predict_proba_features = original
        assert len(results) == 8
        assert stats["coalesced_hits"] >= 1
        # Coalesced waiters + the leader account for every request; the
        # model ran fewer passes than requests.
        assert stats["cache_misses"] + stats["coalesced_hits"] + stats[
            "cache_hits"
        ] == 8
        assert stats["batched_requests"] < 8
        reference = results[0]
        for row in results[1:]:
            assert np.array_equal(row, reference)

    def test_followers_receive_copies(self, fitted_models, sequences):
        model = fitted_models["logreg"]
        original = _slow(model, 0.03)
        try:
            with PredictionService({"m": model}, cache_size=0) as service:
                rows = []
                threads = [
                    threading.Thread(
                        target=lambda: rows.append(
                            service.predict_proba("m", sequences[0])
                        )
                    )
                    for _ in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
        finally:
            model.predict_proba_features = original
        expected = rows[0].copy()
        rows[1][:] = -1.0  # a caller scribbling on its result
        others = [row for row in rows if row is not rows[1]]
        assert all(np.array_equal(row, expected) for row in others)

    def test_coalesce_off_runs_every_request(self, fitted_models, sequences):
        model = fitted_models["logreg"]
        original = _slow(model, 0.02)
        try:
            with PredictionService(
                {"m": model}, cache_size=0, coalesce=False
            ) as service:
                threads = [
                    threading.Thread(
                        target=service.predict_proba, args=("m", sequences[0])
                    )
                    for _ in range(6)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                stats = service.stats()
        finally:
            model.predict_proba_features = original
        assert stats["coalesced_hits"] == 0
        assert stats["cache_misses"] == 6
        assert stats["batched_requests"] == 6

    def test_leader_error_shared_by_followers(self, fitted_models, sequences):
        model = fitted_models["logreg"]
        original = model.predict_proba_features
        entered = threading.Event()

        def exploding(features):
            entered.set()
            time.sleep(0.02)
            raise RuntimeError("boom")

        model.predict_proba_features = exploding
        try:
            with PredictionService({"m": model}, cache_size=0) as service:
                errors = []
                lock = threading.Lock()

                def call():
                    try:
                        service.predict_proba("m", sequences[0])
                    except RuntimeError as exc:
                        with lock:
                            errors.append(exc)

                threads = [threading.Thread(target=call) for _ in range(5)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
        finally:
            model.predict_proba_features = original
        assert len(errors) == 5
        assert all("boom" in str(exc) for exc in errors)


class TestBatchCoalescing:
    """Explicit batches share single-flight with each other and dedup
    themselves.  The model pass is gated on an event and follows are
    counted through ``claim``, so nothing waits on the clock."""

    def test_identical_concurrent_batches_run_one_pass(
        self, fitted_models, sequences, gate_pass
    ):
        batch = sequences[:4]
        with PredictionService({"m": fitted_models["logreg"]}, cache_size=0) as service:
            gate = gate_pass(service, "m")
            followed = _count_followers(service, len(batch))
            results: list = [None, None]

            def call(index):
                results[index] = service.predict_proba_batch("m", batch)

            threads = [_call_in_thread(call, 0)]
            gate.wait_entered()  # the leader's unit is inside its model pass
            threads.append(_call_in_thread(call, 1))
            assert followed.wait(WAIT_SECONDS), "the second batch never followed"
            gate.release()
            for thread in threads:
                thread.join()
            stats = service.stats()
        assert gate.rows == [len(batch)]
        assert stats["cache_misses"] == len(batch)
        assert stats["coalesced_hits"] == len(batch)  # the follower's rows
        assert np.array_equal(results[0], results[1])

    def test_batch_repeating_a_sequence(self, fitted_models, sequences, gate_pass):
        with PredictionService(
            {"m": fitted_models["logreg"]}, cache_size=0, request_timeout=WAIT_SECONDS
        ) as service:
            gate = gate_pass(service, "m")
            gate.release()  # count rows only
            a, b = sequences[:2]
            rows = service.predict_proba_batch("m", [a, b, a, a])
            stats = service.stats()
        assert gate.rows == [2]  # one pass over the distinct sequences
        assert rows.shape[0] == 4
        assert np.array_equal(rows[0], rows[2]) and np.array_equal(rows[0], rows[3])
        assert stats["coalesced_hits"] == 0  # it never followed its own flight

    def test_follower_batch_gets_the_leaders_error(self, fitted_models, sequences):
        model = fitted_models["logreg"]
        original = model.predict_proba_features
        entered, release = threading.Event(), threading.Event()

        def exploding(features):
            entered.set()
            release.wait(WAIT_SECONDS)
            raise RuntimeError("boom")

        model.predict_proba_features = exploding
        try:
            with PredictionService({"m": model}, cache_size=0) as service:
                followed = _count_followers(service, 2)
                errors: list = [None, None]

                def call(index):
                    try:
                        service.predict_proba_batch("m", sequences[:2])
                    except RuntimeError as exc:
                        errors[index] = exc

                threads = [_call_in_thread(call, 0)]
                assert entered.wait(WAIT_SECONDS)
                threads.append(_call_in_thread(call, 1))
                assert followed.wait(WAIT_SECONDS), "the second batch never followed"
                release.set()
                for thread in threads:
                    thread.join()
        finally:
            model.predict_proba_features = original
        assert errors[0] is not None and "boom" in str(errors[0])
        assert errors[1] is errors[0]

    def test_refused_submission_strands_no_follower(self, fitted_models, sequences):
        """A call that claimed its misses and then finds the service closed
        completes its unit with the error, so its followers wake and no
        pending entry is left behind."""
        service = PredictionService({"m": fitted_models["logreg"]}, cache_size=0)
        claim = service._result_cache.claim
        follows: dict = {}

        def claim_then_close(unit, pending, **kwargs):
            claimed = claim(unit, pending, **kwargs)
            follower = _Request("m", [], unit.model, unit.epoch)
            follows.update(claim(follower, pending)[1])
            service.close()  # lands between the claim and the submission
            return claimed

        service._result_cache.claim = claim_then_close
        with pytest.raises(RuntimeError, match="closed"):
            service.predict_proba("m", sequences[0])
        leader = follows[sequences[0]].unit
        assert leader.done.is_set()
        assert isinstance(leader.error, RuntimeError)
        assert service._result_cache.inflight_count() == 0

    def test_overlapping_batches_under_thread_churn(self, fitted_models, sequences):
        """Stress: more callers than cores sending overlapping batches with
        repeats, with thread switches forced often.  Every row must be the
        model's own row, no call may hang, and no flight may leak."""
        model = fitted_models["logreg"]
        pool = sequences[:6]
        with PredictionService({"m": model}, cache_size=0) as service:
            reference = dict(zip(pool, service.predict_proba_batch("m", pool)))
            rng = random.Random(0)
            calls = [[rng.choice(pool) for _ in range(4)] for _ in range(120)]
            bad: list = []

            def caller(batches):
                for batch in batches:
                    rows = service.predict_proba_batch("m", batch)
                    for sequence, row in zip(batch, rows):
                        if not np.array_equal(row, reference[sequence]):
                            bad.append(sequence)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [
                    _call_in_thread(caller, calls[index::8]) for index in range(8)
                ]
                for thread in threads:
                    thread.join(WAIT_SECONDS)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            stats = service.stats()
            assert service._result_cache.inflight_count() == 0
        assert bad == []
        distinct = len(pool) + sum(len(set(batch)) for batch in calls)
        assert stats["cache_misses"] + stats["coalesced_hits"] == distinct


class TestBitwiseIdentity:
    """Acceptance: served rows are bitwise-identical to the per-sequence
    reference (one sequence per pass through the same token featurization),
    sequentially and with coalescing on."""

    @pytest.mark.parametrize("model_name", MODELS)
    def test_sequential_predicts_bitwise(self, fitted_models, sequences, model_name):
        model = fitted_models[model_name]
        featurizer = BatchFeaturizer()
        with PredictionService({"m": model}, cache_size=0) as service:
            tokens = featurizer.batch_tokens(
                [service._validated(s) for s in sequences],
                model.feature_spec().pipeline,
                store=service.store,
            )
            reference = np.vstack(
                [model.predict_proba_tokens([t]) for t in tokens]
            )
            served = np.vstack(
                [service.predict_proba("m", sequence) for sequence in sequences]
            )
        assert np.array_equal(reference, served)

    @pytest.mark.parametrize("model_name", MODELS)
    def test_coalesced_identical_requests_bitwise(
        self, fitted_models, sequences, model_name
    ):
        model = fitted_models[model_name]
        original = _slow(model, 0.02)
        featurizer = BatchFeaturizer()
        try:
            with PredictionService({"m": model}, cache_size=0) as service:
                validated = service._validated(sequences[0])
                tokens = featurizer.batch_tokens(
                    [validated], model.feature_spec().pipeline, store=service.store
                )
                rows = []
                lock = threading.Lock()

                def call():
                    row = service.predict_proba("m", sequences[0])
                    with lock:
                        rows.append(row)

                threads = [threading.Thread(target=call) for _ in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
        finally:
            model.predict_proba_features = original
        reference = model.predict_proba_tokens([tokens[0]])[0]
        assert len(rows) == 6
        assert all(np.array_equal(row, reference) for row in rows)
