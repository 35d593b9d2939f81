"""Unit tests for the trace model: deterministic ids, sampling, spans,
context propagation, and the cross-process header."""

from __future__ import annotations

import hashlib
import threading
import time

import pytest

from repro.trace import tracing
from repro.trace import (
    TRACE_HEADER,
    Span,
    Trace,
    Tracer,
    activate,
    current_span_id,
    current_trace,
    format_trace_header,
    parse_trace_header,
)


class TestDeterministicIds:
    def test_same_seed_key_order_same_ids(self):
        first = [Tracer(seed=7).trace_id_for("user-1") for _ in range(3)]
        second = [Tracer(seed=7).trace_id_for("user-1") for _ in range(3)]
        assert first == second

    def test_repeat_requests_per_key_get_distinct_ids(self):
        tracer = Tracer(seed=7)
        ids = [tracer.trace_id_for("user-1") for _ in range(3)]
        assert len(set(ids)) == 3

    def test_ids_are_128_bit_hex(self):
        trace_id = Tracer(seed=0).trace_id_for("anything")
        assert len(trace_id) == 32
        assert all(c in "0123456789abcdef" for c in trace_id)

    def test_seed_and_key_both_change_the_id(self):
        base = Tracer(seed=1).trace_id_for("k")
        assert Tracer(seed=2).trace_id_for("k") != base
        assert Tracer(seed=1).trace_id_for("other") != base

    def test_key_tracking_is_bounded(self):
        tracer = Tracer(seed=0)
        for i in range(70000):
            tracer._key_counts.setdefault(f"k{i}", 1)
        tracer.trace_id_for("fresh")  # triggers the deterministic clear
        assert len(tracer._key_counts) == 1

    def test_ids_never_repeat_across_counter_clears(self, monkeypatch):
        monkeypatch.setattr(tracing, "_MAX_TRACKED_KEYS", 4)
        keys = [f"k{i % 6}" for i in range(60)]  # clears several times
        first = Tracer(seed=3)
        ids = [first.trace_id_for(key) for key in keys]
        assert first._generation > 1
        assert len(set(ids)) == len(ids)
        second = Tracer(seed=3)
        assert [second.trace_id_for(key) for key in keys] == ids  # replayable

    def test_first_generation_ids_are_unsalted(self):
        tracer = Tracer(seed=5)
        ids = [tracer.trace_id_for("user-1") for _ in range(2)]
        expected = [
            hashlib.blake2b(f"5\x1fuser-1\x1f{count}".encode(), digest_size=16).hexdigest()
            for count in range(2)
        ]
        assert ids == expected

    def test_lone_tracer_ids_are_frozen(self):
        """No ``worker_id`` mints the ids a seeded replay has always had."""
        tracer = Tracer(seed=0)
        assert [tracer.trace_id_for(key) for key in ("user-1", "user-1", "user-2")] == [
            "61dc1a9a53500f93703ab103751c4f27",
            "401d287ef73bb46d150d4951a9763b88",
            "4aefeb08e836a605f7806dde897aa007",
        ]

    def test_workers_sharing_a_seed_never_share_an_id(self):
        keys = [f"user-{i % 3}" for i in range(30)]
        tracers = [Tracer(seed=0), Tracer(seed=0, worker_id=0), Tracer(seed=0, worker_id=1)]
        minted = [[tracer.trace_id_for(key) for key in keys] for tracer in tracers]
        assert len(set().union(*minted)) == 3 * len(keys)
        again = Tracer(seed=0, worker_id=1)
        assert [again.trace_id_for(key) for key in keys] == minted[2]  # replayable

    def test_worker_id_too_long_is_rejected(self):
        Tracer(worker_id=10**15)
        with pytest.raises(ValueError, match="worker_id"):
            Tracer(worker_id=10**16)


class TestSampling:
    def test_sample_extremes(self):
        assert Tracer(sample=1.0).head_sampled("any")
        assert not Tracer(sample=0.0).head_sampled("any")

    def test_verdict_ignores_the_worker(self):
        lone = Tracer(seed=3, sample=0.3)
        workers = [Tracer(seed=3, sample=0.3, worker_id=index) for index in range(3)]
        for index in range(200):
            key = f"user-{index}"
            verdict = lone.head_sampled(key)
            assert all(worker.head_sampled(key) == verdict for worker in workers)

    def test_verdict_is_per_key_consistent(self):
        tracer = Tracer(seed=3, sample=0.5)
        for key in ("a", "b", "c", "d"):
            assert tracer.head_sampled(key) == tracer.head_sampled(key)

    def test_rate_roughly_honored(self):
        tracer = Tracer(seed=5, sample=0.25)
        hits = sum(tracer.head_sampled(f"key-{i}") for i in range(2000))
        assert 0.18 < hits / 2000 < 0.32

    def test_raising_the_rate_keeps_previously_sampled_keys(self):
        # The verdict hashes only (seed, key) against the rate, so every key
        # sampled at 10% is still sampled at 50% — rates nest.
        low = Tracer(seed=9, sample=0.1)
        high = Tracer(seed=9, sample=0.5)
        keys = [f"key-{i}" for i in range(500)]
        sampled_low = {key for key in keys if low.head_sampled(key)}
        sampled_high = {key for key in keys if high.head_sampled(key)}
        assert sampled_low <= sampled_high

    def test_disabled_tracer_returns_none(self):
        tracer = Tracer(enabled=False)
        assert tracer.begin("k") is None
        assert tracer.adopt("ab" * 16, "k", sampled=True) is None

    def test_begin_carries_verdict_and_adopt_overrides(self):
        tracer = Tracer(seed=0, sample=0.0)
        trace = tracer.begin("k")
        assert trace is not None and not trace.sampled
        adopted = tracer.adopt("ab" * 16, "k", sampled=True)
        assert adopted.trace_id == "ab" * 16 and adopted.sampled


class TestSpans:
    def test_span_ids_sequential_and_parented(self):
        trace = Trace("t" * 32, "k", sampled=True)
        root = trace.start_span("root")
        child = trace.start_span("child", parent=root.span_id)
        assert (root.span_id, child.span_id) == ("s1", "s2")
        assert child.parent_id == "s1"
        assert trace.root is root

    def test_end_span_sets_duration_once(self):
        trace = Trace("t" * 32, "k", sampled=True)
        span = trace.start_span("op")
        trace.end_span(span)
        first = span.duration_ms
        trace.end_span(span)
        assert span.duration_ms == first >= 0.0

    def test_add_span_records_prebuilt_interval(self):
        trace = Trace("t" * 32, "k", sampled=True)
        span = trace.add_span("stage", start_ms=1.5, duration_ms=2.5, parent="s9")
        assert (span.start_ms, span.duration_ms, span.parent_id) == (1.5, 2.5, "s9")
        assert trace.duration_ms >= 4.0

    def test_add_stamped_span_places_perf_counter_stamps_on_trace_clock(self):
        trace = Trace("t" * 32, "k", sampled=True)
        opened = trace.start_span("op")
        stamp = time.perf_counter()
        span = trace.add_stamped_span("stage", stamp, stamp + 0.004, parent="s1")
        assert span.start_ms >= opened.start_ms
        assert span.duration_ms == pytest.approx(4.0)
        assert span.parent_id == "s1"

    def test_span_context_manager_activates_and_marks_errors(self):
        trace = Trace("t" * 32, "k", sampled=True)
        with trace.span("outer") as outer:
            assert current_trace() is trace
            assert current_span_id() == outer.span_id
            inner = trace.start_span("inner")  # ambient parent
            assert inner.parent_id == outer.span_id
        assert current_trace() is None
        with pytest.raises(RuntimeError):
            with trace.span("bad"):
                raise RuntimeError("boom")
        assert trace.error
        assert trace.spans[-1].attrs["error"] is True
        assert trace.spans[-1].duration_ms is not None

    def test_to_dict_round_trips_spans(self):
        trace = Trace("t" * 32, "k", sampled=False)
        span = trace.start_span("op", attrs={"route": "cuisine"})
        trace.end_span(span)
        payload = trace.to_dict()
        assert payload["trace_id"] == "t" * 32
        assert payload["sampled"] is False
        restored = Span.from_dict(payload["spans"][0])
        assert restored.name == "op"
        assert restored.attrs == {"route": "cuisine"}

    def test_span_append_is_thread_safe(self):
        trace = Trace("t" * 32, "k", sampled=True)

        def work():
            for _ in range(200):
                trace.end_span(trace.start_span("op", parent="s0"))

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(trace.spans) == 800
        assert len({span.span_id for span in trace.spans}) == 800


class TestContextPropagation:
    def test_activate_none_is_a_noop(self):
        with activate(None):
            assert current_trace() is None

    def test_activate_sets_and_restores(self):
        trace = Trace("t" * 32, "k", sampled=True)
        with activate(trace, "s5"):
            assert current_trace() is trace
            assert current_span_id() == "s5"
        assert current_trace() is None


class TestHeader:
    def test_round_trip(self):
        trace = Trace("ab" * 16, "k", sampled=True)
        value = format_trace_header(trace, parent="s3")
        assert parse_trace_header(value) == ("ab" * 16, True, "s3")

    def test_unsampled_and_parentless(self):
        trace = Trace("cd" * 16, "k", sampled=False)
        assert parse_trace_header(format_trace_header(trace)) == ("cd" * 16, False, None)

    @pytest.mark.parametrize(
        "value",
        ["", ";", "not-hex;sampled=1", "ZZZ", "  ", ";sampled=1"],
    )
    def test_malformed_values_return_none(self, value):
        assert parse_trace_header(value) is None

    def test_unknown_parameters_ignored(self):
        assert parse_trace_header("ab" * 16 + ";future=x;sampled=1") == (
            "ab" * 16,
            True,
            None,
        )

    def test_header_name_is_stable(self):
        assert TRACE_HEADER == "X-Repro-Trace"
