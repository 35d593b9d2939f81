"""Tests for the epoch-guarded result cache: row semantics, O(1)
invalidation, the claim/complete protocol coalescing identical concurrent
sequences, and a 16-thread hammer across hot-swaps (no stale-epoch row may
ever be served)."""

import threading
import time

import numpy as np
import pytest

from repro.core.experiment import ExperimentConfig, ExperimentRunner
from repro.models.registry import create_model
from repro.serving import PredictionService
from repro.serving.cache import ResultCache
from repro.serving.service import _Request


def _row(value):
    return np.asarray([float(value)])


def _unit(epoch=0, model_name="m"):
    """An empty unit, as ``predict_proba_batch`` builds one per claim."""
    return _Request(model_name, [], None, epoch)


def _finish(cache, unit, *values):
    """Complete *unit* the way the batch worker does, one row per value."""
    unit.result = np.asarray([[float(value)] for value in values])
    cache.complete(unit)


class TestBasicSemantics:
    def test_put_get_roundtrip(self):
        cache = ResultCache(capacity=64)
        assert cache.put("m", ("a",), _row(1))
        np.testing.assert_array_equal(cache.get("m", ("a",)), _row(1))

    def test_miss_returns_none(self):
        assert ResultCache(capacity=64).get("m", ("a",)) is None

    def test_get_returns_copy(self):
        cache = ResultCache(capacity=64)
        cache.put("m", ("a",), _row(1))
        first = cache.get("m", ("a",))
        first[0] = 99.0
        np.testing.assert_array_equal(cache.get("m", ("a",)), _row(1))

    def test_put_stores_copy(self):
        cache = ResultCache(capacity=64)
        value = _row(1)
        cache.put("m", ("a",), value)
        value[0] = 99.0
        np.testing.assert_array_equal(cache.get("m", ("a",)), _row(1))

    def test_zero_capacity_disables(self):
        cache = ResultCache(capacity=0)
        assert not cache.put("m", ("a",), _row(1))
        assert cache.get("m", ("a",)) is None
        assert len(cache) == 0

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            ResultCache(capacity=-1)


class TestBounds:
    def test_total_entries_never_exceed_capacity(self):
        cache = ResultCache(capacity=32)
        for index in range(500):
            cache.put("m", (f"seq-{index}",), _row(index))
        assert len(cache) <= 32

    def test_lru_eviction_within_stripe(self):
        cache = ResultCache(capacity=2)
        cache.put("m", ("a",), _row(1))
        cache.put("m", ("b",), _row(2))
        cache.get("m", ("a",))  # refresh a
        cache.put("m", ("c",), _row(3))  # evicts b
        assert cache.get("m", ("a",)) is not None
        assert cache.get("m", ("b",)) is None
        assert cache.get("m", ("c",)) is not None

    def test_pending_entries_are_never_evicted(self):
        """Pending entries share the map with rows but are not rows: the
        LRU bound skips them, so a full cache never strands a follower."""
        cache = ResultCache(capacity=2)
        unit = _unit()
        cache.claim(unit, [(f"seq-{index}",) for index in range(5)])
        for index in range(10):
            cache.put("m", (f"row-{index}",), _row(index))
        assert cache.stats() == {"entries": 2, "capacity": 2, "in_flight": 5}
        follower = _unit()
        _, follows = cache.claim(follower, [("seq-4",)])
        assert follows[("seq-4",)].unit is unit
        assert follows[("seq-4",)].index == 4
        assert follower.sequences == []

    def test_len_counts_only_servable_rows(self):
        cache = ResultCache(capacity=64)
        for index in range(40):
            cache.put("m", (f"seq-{index}",), _row(index))
        for index in range(5):
            cache.put("other", (f"seq-{index}",), _row(index))
        assert len(cache) == 45
        cache.invalidate("m")
        assert len(cache) == 5
        # A retired row overwritten at the new epoch counts once.
        cache.put("m", ("seq-0",), _row(0))
        cache.put("m", ("fresh",), _row(1))
        assert len(cache) == 7
        assert cache.stats()["entries"] == 7

    def test_stats_payload(self):
        cache = ResultCache(capacity=64)
        cache.put("m", ("a",), _row(1))
        stats = cache.stats()
        assert stats == {"entries": 1, "capacity": 64, "in_flight": 0}


class TestEpochsAndInvalidation:
    def test_invalidate_drops_only_named_model(self):
        cache = ResultCache(capacity=640)
        for index in range(10):
            cache.put("old", (f"seq-{index}",), _row(index))
            cache.put("other", (f"seq-{index}",), _row(index))
        dropped = cache.invalidate("old")
        assert dropped == 10
        assert len(cache) == 10
        assert cache.get("other", ("seq-3",)) is not None
        assert cache.get("old", ("seq-3",)) is None

    def test_invalidate_bumps_epoch(self):
        cache = ResultCache(capacity=64)
        before = cache.epoch("m")
        cache.invalidate("m")
        assert cache.epoch("m") == before + 1

    def test_stale_epoch_put_dropped(self):
        cache = ResultCache(capacity=64)
        stale = cache.epoch("m")
        cache.invalidate("m")
        assert not cache.put("m", ("a",), _row(1), epoch=stale)
        assert cache.get("m", ("a",)) is None

    def test_current_epoch_put_stored(self):
        cache = ResultCache(capacity=64)
        cache.invalidate("m")
        assert cache.put("m", ("a",), _row(1), epoch=cache.epoch("m"))
        assert cache.get("m", ("a",)) is not None

    def test_invalidate_does_no_per_entry_work(self):
        """O(1) invalidation, checked structurally: with 20,000 rows cached,
        the entry map is left exactly as it was, yet none of them is served."""
        cache = ResultCache(capacity=32_768)
        for index in range(20_000):
            cache.put("m", (f"seq-{index}",), _row(index))
        before = list(cache._entries.items())
        assert cache.invalidate("m") == 20_000
        after = list(cache._entries.items())
        assert len(after) == len(before) == 20_000
        assert all(
            key == old_key and entry is old_entry
            for (key, entry), (old_key, old_entry) in zip(after, before)
        )
        assert len(cache) == 0
        assert cache.get("m", ("seq-0",)) is None

    def test_retired_row_is_never_returned(self):
        cache = ResultCache(capacity=64)
        cache.put("m", ("a",), _row(1))
        cache.invalidate("m")
        assert cache.get("m", ("a",)) is None
        unit = _unit(epoch=cache.epoch("m"))
        hits, follows = cache.claim(unit, [("a",)])
        assert hits == {} and follows == {}
        assert unit.sequences == [("a",)]  # a miss, computed afresh
        _finish(cache, unit, 2)
        np.testing.assert_array_equal(cache.get("m", ("a",)), _row(2))

    def test_stale_epoch_completion_dropped(self):
        """A unit that was computing when its model was retired caches
        nothing, frees its pending entries and still wakes its waiters."""
        cache = ResultCache(capacity=64)
        unit = _unit(epoch=cache.epoch("m"))
        cache.claim(unit, [("a",), ("b",)])
        cache.invalidate("m")
        _finish(cache, unit, 1, 2)
        assert unit.done.is_set()
        assert cache.get("m", ("a",)) is None
        assert cache.stats() == {"entries": 0, "capacity": 64, "in_flight": 0}


class TestConcurrentHotSwap:
    def test_sixteen_threads_no_stale_epoch_entries(self):
        """16 writer threads race repeated invalidations; afterwards every
        surviving entry must carry the final epoch — an entry tagged with an
        older epoch would be a stale-epoch hit."""
        cache = ResultCache(capacity=4096)
        keys = [(f"seq-{index}",) for index in range(64)]
        stop = threading.Event()
        failures: list[str] = []

        def writer(worker: int) -> None:
            rng = np.random.default_rng(worker)
            while not stop.is_set():
                key = keys[int(rng.integers(len(keys)))]
                epoch = cache.epoch("m")
                # The "compute" whose result is only valid for this epoch.
                value = _row(epoch)
                cache.put("m", key, value, epoch=epoch)
                seen = cache.get("m", key)
                if seen is not None and seen[0] > cache.epoch("m"):
                    failures.append(f"entry from future epoch {seen[0]}")

        threads = [
            threading.Thread(target=writer, args=(worker,)) for worker in range(16)
        ]
        for thread in threads:
            thread.start()
        for _ in range(20):  # hot-swap storm while writers hammer
            time.sleep(0.005)
            cache.invalidate("m")
        stop.set()
        for thread in threads:
            thread.join()
        final_epoch = cache.epoch("m")
        served = [cache.get("m", key) for key in keys]
        for value in served:
            assert value is None or value[0] == final_epoch, (
                f"stale-epoch row served: epoch {value[0]} != {final_epoch}"
            )
        assert len(cache) == sum(value is not None for value in served)
        assert not failures

    def test_service_hot_swap_under_concurrent_load(self, tiny_corpus, tmp_path):
        """Hammer PredictionService.predict_proba from 16 threads across a
        live hot-swap; afterwards every cached answer must be the new
        model's."""
        config = ExperimentConfig(
            models=("logreg",),
            seed=3,
            statistical_kwargs={"logreg": {"max_iter": 30}},
            export_dir=str(tmp_path),
        )
        ExperimentRunner(config, corpus=tiny_corpus).run()
        replacement = create_model("logreg", max_iter=10)
        replacement.fit(tiny_corpus)
        sequences = [recipe.sequence for recipe in tiny_corpus.recipes[:16]]
        errors: list[BaseException] = []

        with PredictionService.from_export_dir(tmp_path) as service:

            def hammer(worker: int) -> None:
                rng = np.random.default_rng(worker)
                try:
                    for _ in range(30):
                        sequence = sequences[int(rng.integers(len(sequences)))]
                        service.predict_proba("logreg", sequence)
                except BaseException as exc:  # noqa: BLE001 - surfaced below
                    errors.append(exc)

            threads = [
                threading.Thread(target=hammer, args=(worker,)) for worker in range(16)
            ]
            for thread in threads:
                thread.start()
            time.sleep(0.01)
            service.add_model(replacement, name="logreg")  # live hot-swap
            for thread in threads:
                thread.join()
            assert not errors
            # Every answer served from the cache now must be the new model's
            # (batch composition can shift the last ulp — the service's
            # documented contract — so compare at 1e-12, not bitwise).
            expected = replacement.predict_proba_sequences(sequences)
            for sequence, row in zip(sequences, expected):
                served = service.predict_proba("logreg", sequence)
                np.testing.assert_allclose(served, row, rtol=0, atol=1e-12)
                assert int(np.argmax(served)) == int(np.argmax(row))


class TestSingleFlight:
    def test_leader_then_followers(self):
        cache = ResultCache(capacity=64)
        leader = _unit()
        hits, follows = cache.claim(leader, [("a",)])
        assert hits == {} and follows == {}
        assert leader.sequences == [("a",)]
        follower = _unit()
        _, follows = cache.claim(follower, [("a",)])
        assert follows[("a",)].unit is leader and follows[("a",)].index == 0
        assert follower.sequences == []
        assert cache.inflight_count() == 1
        _finish(cache, leader, 7)
        assert leader.done.is_set()
        assert leader.result[follows[("a",)].index][0] == 7.0
        assert cache.inflight_count() == 0
        np.testing.assert_array_equal(cache.get("m", ("a",)), _row(7))

    def test_flight_value_stored_as_copy(self):
        cache = ResultCache(capacity=64)
        unit = _unit()
        cache.claim(unit, [("a",)])
        _finish(cache, unit, 7)
        unit.result[0, 0] = -1.0  # the leader's caller scribbling on its rows
        np.testing.assert_array_equal(cache.get("m", ("a",)), _row(7))

    def test_error_published_to_flight(self):
        cache = ResultCache(capacity=64)
        leader = _unit()
        cache.claim(leader, [("a",)])
        _, follows = cache.claim(_unit(), [("a",)])
        boom = RuntimeError("boom")
        leader.error = boom
        cache.complete(leader)
        assert leader.done.is_set()
        assert follows[("a",)].unit.error is boom and leader.result is None
        assert cache.get("m", ("a",)) is None
        assert cache.inflight_count() == 0

    def test_epoch_mismatch_opens_fresh_flight(self):
        """A caller holding a newer epoch must not follow a pre-swap unit:
        it displaces the stale entry and leads a fresh one."""
        cache = ResultCache(capacity=64)
        stale = _unit(epoch=0)
        cache.claim(stale, [("a",)])
        cache.invalidate("m")  # hot-swap: epoch 0 -> 1
        fresh = _unit(epoch=cache.epoch("m"))
        _, follows = cache.claim(fresh, [("a",)])
        assert follows == {} and fresh.sequences == [("a",)]
        # The displaced leader completing must not deregister the new unit.
        _finish(cache, stale, 0)
        assert cache.inflight_count() == 1
        _, follows = cache.claim(_unit(epoch=cache.epoch("m")), [("a",)])
        assert follows[("a",)].unit is fresh
        _finish(cache, fresh, 1)
        np.testing.assert_array_equal(cache.get("m", ("a",)), _row(1))

    def test_flights_work_with_caching_disabled(self):
        cache = ResultCache(capacity=0)
        leader = _unit()
        cache.claim(leader, [("a",)])
        _, follows = cache.claim(_unit(), [("a",)])
        assert follows[("a",)].unit is leader
        _finish(cache, leader, 3)
        assert leader.result[follows[("a",)].index][0] == 3.0
        assert cache.get("m", ("a",)) is None
        assert cache.inflight_count() == 0

    def test_coalesce_off_marks_nothing_pending(self):
        cache = ResultCache(capacity=64)
        first, second = _unit(), _unit()
        cache.claim(first, [("a",)], coalesce=False)
        _, follows = cache.claim(second, [("a",)], coalesce=False)
        assert follows == {} and second.sequences == [("a",)]
        assert cache.inflight_count() == 0
        _finish(cache, first, 1)
        _finish(cache, second, 2)
        np.testing.assert_array_equal(cache.get("m", ("a",)), _row(2))


class TestCoalescingAcrossHotSwap:
    def test_v1_flight_never_satisfies_waiters_after_swap(self, tiny_corpus):
        """Satellite: a single-flight computation started on v1 must not
        satisfy waiters once a swap to v2 bumps the epoch — the follower
        retries and returns v2's prediction (the leader keeps its pinned v1
        result, the historical contract)."""
        v1 = create_model("logreg", max_iter=30)
        v1.fit(tiny_corpus)
        v2 = create_model("logreg", max_iter=5)
        v2.fit(tiny_corpus)
        sequence = tiny_corpus.recipes[0].sequence

        entered = threading.Event()
        release = threading.Event()
        original = v1.predict_proba_features

        def gated(features, *, _original=original):
            entered.set()
            assert release.wait(timeout=10.0)
            return _original(features)

        v1.predict_proba_features = gated
        try:
            with PredictionService({"cuisine": v1}) as service:
                outcome = {}

                def leader():
                    outcome["leader"] = service.predict_proba("cuisine", sequence)

                def follower():
                    outcome["follower"] = service.predict_proba("cuisine", sequence)

                leader_thread = threading.Thread(target=leader)
                leader_thread.start()
                assert entered.wait(timeout=10.0)  # v1 is mid-computation
                follower_thread = threading.Thread(target=follower)
                follower_thread.start()
                time.sleep(0.05)  # let the follower join the flight
                service.add_model(v2, name="cuisine")  # hot-swap bumps epoch
                release.set()  # v1's computation completes *after* the swap
                leader_thread.join(timeout=10.0)
                follower_thread.join(timeout=10.0)
                assert not leader_thread.is_alive()
                assert not follower_thread.is_alive()
                stats = service.stats()
        finally:
            v1.predict_proba_features = original

        expected_v1 = v1.predict_proba_sequences([sequence])[0]
        expected_v2 = v2.predict_proba_sequences([sequence])[0]
        # Model versions differ enough that v1 != v2 for this input.
        assert not np.allclose(expected_v1, expected_v2, atol=1e-12)
        # Leader: pinned to the model it started on.
        np.testing.assert_allclose(outcome["leader"], expected_v1, rtol=0, atol=1e-12)
        # Follower: never served v1's stale result.
        np.testing.assert_allclose(outcome["follower"], expected_v2, rtol=0, atol=1e-12)
        assert stats["coalesced_stale"] >= 1
        # The v1 result was epoch-guarded out of the cache: a fresh request
        # now gets v2's answer (from cache or a fresh pass), never v1's.
        with PredictionService({"cuisine": v2}) as check:
            served = check.predict_proba("cuisine", sequence)
        np.testing.assert_allclose(served, expected_v2, rtol=0, atol=1e-12)
