"""Tests of the benchmark's pure helpers; no server, socket or wall clock.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import numpy as np
import pytest

from attribution import blocking_paths
from loadgen import Sent, open_loop
from stats import (
    ErrorTally,
    RateSearch,
    covered,
    meets_limit,
    self_time,
    supported_percentile,
    tail,
)


# -- the percentile rule ----------------------------------------------------
@pytest.mark.parametrize(
    "n, expected",
    [(1000, 99.0), (5000, 99.0), (999, 98.9), (300, 96.6), (20, 50.0), (11, 9.0), (10, None)],
)
def test_supported_percentile_keeps_ten_samples_beyond(n, expected):
    assert supported_percentile(n) == expected


@pytest.mark.parametrize("n", [11, 50, 271, 999, 1000, 1200])
def test_tail_value_has_at_least_ten_samples_beyond(n):
    values = np.random.default_rng(n).exponential(size=n)
    percentile, value = tail(values)
    assert np.sum(values > value) >= 10
    assert percentile <= 99.0


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        tail([1.0] * 10)


# -- latency limit and error accounting --------------------------------------
def test_meets_limit_allows_one_percent_over():
    assert meets_limit([50.0] * 99 + [150.0], 0, 100.0)
    assert not meets_limit([50.0] * 98 + [150.0] * 2, 0, 100.0)


def test_meets_limit_counts_failures_as_missing_the_limit():
    assert not meets_limit([50.0] * 98, 2, 100.0)
    assert not meets_limit([], 0, 100.0)


def test_error_ratio_counts_non_200_transport_and_wrong_answers():
    tally = ErrorTally()
    tally.add(200, True)
    tally.add(200, False)
    tally.add(503, True)
    tally.add(-1, False)
    assert (tally.attempted, tally.non_200, tally.transport, tally.wrong) == (4, 1, 1, 1)
    assert tally.failed == 3
    assert tally.error_ratio == pytest.approx(0.75)
    assert ErrorTally().error_ratio == 0.0


# -- self time ---------------------------------------------------------------
def test_self_time_subtracts_the_union_of_children():
    assert self_time((0.0, 10.0), []) == 10.0
    assert self_time((0.0, 10.0), [(1.0, 3.0), (2.0, 4.0)]) == pytest.approx(7.0)
    assert self_time((0.0, 10.0), [(-5.0, 2.0), (9.0, 20.0)]) == pytest.approx(7.0)
    assert covered(0.0, 10.0, [(11.0, 12.0)]) == 0.0


def _sent(trace_id, due, sent, done):
    return Sent(0, due, sent, done, 200, b"", trace_id)


def test_blocking_path_splits_a_micro_batched_request_by_layer():
    spans = [
        ["server.parse", 0.000, 0.001, "a", 1, 0],
        ["server.handler", 0.002, 0.020, "a", 1, 0],
        ["trace.begin", 0.003, 0.004, "a", 1, 0],
        ["gateway", 0.005, 0.018, "a", 2, 0],
        ["service", 0.006, 0.017, "a", 2, 0],
        ["server.serialize", 0.021, 0.022, "a", 1, 0],
        # The batch worker (thread 3) runs the batch the request waited on.
        ["featurize", 0.010, 0.011, None, 3, 1],
        ["encode", 0.011, 0.013, None, 3, 1],
        ["model", 0.013, 0.014, None, 3, 1],
        # A later batch, not inside the request's service span.
        ["featurize", 0.030, 0.031, None, 3, 1],
    ]
    (path,) = blocking_paths(spans, [_sent("a", 0.0, 0.0, 0.0235)])
    expected = {
        "server.parse": 1.0, "server.self": 4.0, "trace": 1.0, "gateway.self": 2.0,
        "service.self": 7.0, "featurize": 1.0, "encode": 2.0, "model": 1.0,
        "server.serialize": 1.0, "loadgen.late": 0.0, "latency": 23.5,
    }
    assert path == pytest.approx(expected)


def test_blocking_path_of_a_cache_hit_has_no_model_layers():
    spans = [
        ["server.handler", 0.0, 0.004, "b", 1, 0],
        ["gateway", 0.001, 0.003, "b", 2, 0],
        ["service", 0.0015, 0.0025, "b", 2, 0],
        ["featurize", 0.010, 0.011, None, 3, 1],
    ]
    (path,) = blocking_paths(spans, [_sent("b", 0.0, 0.0, 0.005)])
    assert path["featurize"] == path["model"] == 0.0
    assert path["service.self"] == pytest.approx(1.0)


def test_blocking_path_skips_requests_without_complete_spans():
    spans = [["server.handler", 0.0, 0.004, "c", 1, 0]]
    assert blocking_paths(spans, [_sent("c", 0.0, 0.0, 0.005), _sent(None, 0, 0, 1)]) == []


# -- due-time latency ---------------------------------------------------------
class _FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


class _StallingConnection:
    """Answers after 1 ms, except the first request, which stalls 50 ms."""

    def __init__(self, clock):
        self.clock = clock
        self.calls = 0

    def exchange(self, request):
        self.clock.now += 0.050 if self.calls == 0 else 0.001
        self.calls += 1
        return 200, b"{}", None


def test_open_loop_times_requests_from_their_due_time():
    clock = _FakeClock()
    connection = _StallingConnection(clock)
    offsets = [0.0, 0.010, 0.020, 0.100]
    records = open_loop(
        [connection], offsets, lambda i: b"", clock=clock, sleep=clock.sleep
    )
    start = records[0].due
    assert [round(r.due - start, 6) for r in records] == offsets
    latencies = [round(r.latency_ms, 3) for r in records]
    lateness = [round(r.late_ms, 3) for r in records]
    # Requests 1 and 2 queue behind the stall: their wait counts.
    assert latencies == [50.0, 41.0, 32.0, 1.0]
    assert lateness == [0.0, 40.0, 31.0, 0.0]


def test_open_loop_stops_claiming_once_a_probe_has_failed():
    clock = _FakeClock()
    connection = _StallingConnection(clock)
    records = open_loop(
        [connection], [0.0] * 50, lambda i: b"", limit_s=0.010, give_up_after=1,
        clock=clock, sleep=clock.sleep,
    )
    # Each request waits for all before it; past the second miss it stops.
    assert len(records) == 2


# -- rate search -------------------------------------------------------------
def test_rate_search_brackets_the_knee_and_halves_the_log_ratio():
    knee = 250.0
    search = RateSearch(100.0, 400.0)
    for _ in range(5):
        rate = search.next_rate()
        search.record(rate, rate <= knee)
    assert search.low <= knee < search.high
    assert search.resolution == pytest.approx(4.0 ** (1 / 32) - 1.0)


def test_rate_search_rejects_an_empty_bracket():
    with pytest.raises(ValueError):
        RateSearch(100.0, 100.0)


# -- answer check ------------------------------------------------------------
def test_answer_check_compares_labels_exactly_and_rows_with_allclose():
    import json

    from session import _matches

    labels = ("Italian", "Mexican")
    expected = np.array([[0.25, 0.75]])
    body = json.dumps({"label": "Mexican", "probabilities": [0.25, 0.75 + 1e-12]}).encode()
    assert _matches(body, False, labels, expected)
    wrong_label = json.dumps({"label": "Italian", "probabilities": [0.25, 0.75]}).encode()
    assert not _matches(wrong_label, False, labels, expected)
    wrong_row = json.dumps({"label": "Mexican", "probabilities": [0.3, 0.7]}).encode()
    assert not _matches(wrong_row, False, labels, expected)
    batch = json.dumps({"labels": ["Mexican"], "probabilities": [[0.25, 0.75]]}).encode()
    assert _matches(batch, True, labels, expected)
    assert not _matches(b"not json", False, labels, expected)
    assert not _matches(b'{"label": "Mexican"}', False, labels, expected)
