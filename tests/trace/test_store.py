"""TraceStore retention: head + tail sampling verdicts, ring eviction,
exemplar tracking, and the stats counters."""

from __future__ import annotations

import pytest

from repro.trace import Trace, TraceStore


def make_trace(trace_id: str, *, sampled: bool, duration_ms: float = 1.0,
               error: bool = False) -> Trace:
    trace = Trace(trace_id, "k", sampled=sampled)
    trace.add_span("root", start_ms=0.0, duration_ms=duration_ms)
    trace.error = error
    return trace


class TestRetention:
    def test_sampled_traces_kept(self):
        store = TraceStore(8, slow_ms=100.0)
        assert store.offer(make_trace("a" * 32, sampled=True))
        assert store.get("a" * 32) is not None

    def test_unsampled_fast_clean_traces_dropped(self):
        store = TraceStore(8, slow_ms=100.0)
        assert not store.offer(make_trace("a" * 32, sampled=False))
        assert store.get("a" * 32) is None
        assert store.stats()["dropped"] == 1

    def test_slow_traces_kept_despite_head_verdict(self):
        store = TraceStore(8, slow_ms=100.0)
        assert store.offer(make_trace("b" * 32, sampled=False, duration_ms=150.0))
        stored = store.get("b" * 32)
        assert stored["slow"] is True
        assert store.stats()["kept_slow"] == 1

    def test_error_traces_kept_despite_head_verdict(self):
        store = TraceStore(8, slow_ms=100.0)
        assert store.offer(make_trace("c" * 32, sampled=False, error=True))
        assert store.get("c" * 32)["error"] is True
        assert store.stats()["kept_error"] == 1

    def test_offer_none_is_a_noop(self):
        store = TraceStore(8)
        assert not store.offer(None)
        assert store.stats()["offered"] == 0


class TestRingEviction:
    def test_oldest_evicted_first(self):
        store = TraceStore(3, slow_ms=1000.0)
        ids = [f"{i:032x}" for i in range(5)]
        for trace_id in ids:
            store.offer(make_trace(trace_id, sampled=True))
        assert len(store) == 3
        assert store.get(ids[0]) is None and store.get(ids[1]) is None
        assert all(store.get(trace_id) for trace_id in ids[2:])

    def test_list_is_newest_first_and_limited(self):
        store = TraceStore(10)
        ids = [f"{i:032x}" for i in range(4)]
        for trace_id in ids:
            store.offer(make_trace(trace_id, sampled=True))
        summaries = store.list(limit=2)
        assert [s["trace_id"] for s in summaries] == [ids[3], ids[2]]
        assert set(summaries[0]) == {
            "trace_id", "key", "duration_ms", "sampled", "slow", "error", "spans",
        }

    def test_dump_is_oldest_first_full_payloads(self):
        store = TraceStore(10)
        ids = [f"{i:032x}" for i in range(3)]
        for trace_id in ids:
            store.offer(make_trace(trace_id, sampled=True))
        dumped = store.dump()
        assert [t["trace_id"] for t in dumped] == ids
        assert all("spans" in t for t in dumped)

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            TraceStore(0)


class TestExemplar:
    def test_tracks_slowest_kept_trace(self):
        store = TraceStore(8, slow_ms=1000.0)
        store.offer(make_trace("a" * 32, sampled=True, duration_ms=5.0))
        store.offer(make_trace("b" * 32, sampled=True, duration_ms=50.0))
        store.offer(make_trace("c" * 32, sampled=True, duration_ms=10.0))
        assert store.exemplar() == "b" * 32

    def test_eviction_invalidates_exemplar(self):
        store = TraceStore(1, slow_ms=1000.0)
        store.offer(make_trace("a" * 32, sampled=True, duration_ms=50.0))
        store.offer(make_trace("b" * 32, sampled=True, duration_ms=5.0))
        # The slowest trace was evicted by the ring; the exemplar must not
        # point at a trace /debug/traces/<id> can no longer serve.
        assert store.exemplar() != "a" * 32

    def test_empty_store_has_no_exemplar(self):
        assert TraceStore(4).exemplar() is None


class TestPutAndStats:
    def test_stats_shape_and_accounting(self):
        store = TraceStore(4, slow_ms=20.0)
        store.offer(make_trace("a" * 32, sampled=True, duration_ms=30.0))
        store.offer(make_trace("b" * 32, sampled=False, duration_ms=1.0))
        stats = store.stats()
        assert stats == {
            "offered": 2,
            "kept": 1,
            "kept_head": 1,
            "kept_slow": 1,
            "kept_error": 0,
            "dropped": 1,
            "capacity": 4,
            "slow_ms": 20.0,
        }
