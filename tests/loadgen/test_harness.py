"""Harness semantics over a controllable stub target (no network, no models).

The runners' accounting contract is what matters here: every scheduled
request is issued exactly once, outcomes are classified ok/shed/error, and
the report's arithmetic (throughput, quantiles, JSON round-trip) is exact.
Real-server behaviour is covered by ``tests/server/test_loadgen_integration``.
"""

from __future__ import annotations

import asyncio
import json
import time

import numpy as np
import pytest

from repro.loadgen import (
    LoadReport,
    build_workload,
    latency_summary,
    run_closed_loop,
    run_open_loop,
)
from repro.loadgen.harness import ERROR, OK, SHED
from repro.loadgen.workload import Workload, WorkloadRequest

POOL = [("pasta", "tomato"), ("rice", "nori"), ("beef", "chili")]


class StubTarget:
    """Classifies outcomes by key suffix; records every issued request."""

    def __init__(self, delay: float = 0.0) -> None:
        self.delay = delay
        self.issued: list[tuple[tuple[str, ...], str]] = []
        self.closed = False

    async def predict(self, sequence, key):
        self.issued.append((sequence, key))
        if self.delay:
            await asyncio.sleep(self.delay)
        rank = int(key.rsplit("-", 1)[1])
        if rank % 10 == 3:
            return SHED
        if rank % 10 == 7:
            return ERROR
        return OK

    async def aclose(self):
        self.closed = True


def test_closed_loop_issues_every_request_once():
    workload = build_workload(POOL, n_requests=120, seed=4, n_keys=40)
    target = StubTarget()
    report = run_closed_loop(target, workload, concurrency=6)
    assert len(target.issued) == 120
    assert sorted(target.issued) == sorted(
        (request.sequence, request.key) for request in workload.requests
    )
    assert report.ok + report.shed + report.errors == 120
    assert report.mode == "closed"
    assert report.concurrency == 6
    assert target.closed


def test_outcome_classification_matches_key_population():
    workload = build_workload(POOL, n_requests=300, seed=8, n_keys=40)
    expected_shed = sum(
        1 for request in workload.requests
        if int(request.key.rsplit("-", 1)[1]) % 10 == 3
    )
    expected_error = sum(
        1 for request in workload.requests
        if int(request.key.rsplit("-", 1)[1]) % 10 == 7
    )
    report = run_closed_loop(StubTarget(), workload, concurrency=4)
    assert report.shed == expected_shed
    assert report.errors == expected_error
    assert report.ok == 300 - expected_shed - expected_error


def test_open_loop_requires_rate_and_completes_everything():
    closed_only = build_workload(POOL, n_requests=10, seed=1)
    with pytest.raises(ValueError, match="rate"):
        run_open_loop(StubTarget(), closed_only)

    workload = build_workload(POOL, n_requests=80, seed=2, rate=400.0)
    target = StubTarget(delay=0.002)
    report = run_open_loop(target, workload)
    assert len(target.issued) == 80
    assert report.mode == "open"
    assert report.offered_rate_rps == 400.0
    assert report.ok + report.shed + report.errors == 80
    # Open-loop wall clock covers at least the scheduled arrival span.
    assert report.duration_seconds >= workload.duration


def test_exceptions_in_target_count_as_errors():
    class ExplodingTarget:
        async def predict(self, sequence, key):
            raise ConnectionResetError("boom")

        async def aclose(self):
            pass

    workload = build_workload(POOL, n_requests=12, seed=3)
    report = run_closed_loop(ExplodingTarget(), workload, concurrency=3)
    assert report.errors == 12
    assert report.ok == 0


def test_latency_summary_exact_quantiles():
    samples = [i / 1000.0 for i in range(1, 101)]  # 1ms .. 100ms
    summary = latency_summary(samples)
    assert summary["count"] == 100
    assert np.isclose(summary["p50_ms"], 1000.0 * np.quantile(samples, 0.5))
    assert np.isclose(summary["p99_ms"], 1000.0 * np.quantile(samples, 0.99))
    assert np.isclose(summary["max_ms"], 100.0)
    assert latency_summary([])["count"] == 0


def test_report_json_round_trip(tmp_path):
    workload = build_workload(POOL, n_requests=30, seed=6, rate=500.0)
    report = run_open_loop(StubTarget(), workload)
    path = report.save(tmp_path / "reports" / "BENCH_loadgen.json")
    loaded = json.loads(path.read_text())
    assert loaded == report.as_dict()
    assert loaded["seed"] == 6
    assert set(loaded["latency"]) == {
        "count", "mean_ms", "max_ms", "p50_ms", "p95_ms", "p99_ms",
    }
    # The artifact is deterministic modulo timing: the schedule fields are.
    assert loaded["n_requests"] == 30
    assert loaded["mode"] == "open"


def test_invalid_concurrency():
    workload = build_workload(POOL, n_requests=5, seed=1)
    with pytest.raises(ValueError, match="concurrency"):
        run_closed_loop(StubTarget(), workload, concurrency=0)


class TracingTarget:
    """Returns ``(kind, trace_id)`` tuples with per-key delays, like the
    built-in HTTP targets do when the server echoes ``X-Repro-Trace``."""

    def __init__(self, delays: dict[str, float]) -> None:
        self.delays = delays

    async def predict(self, sequence, key):
        await asyncio.sleep(self.delays.get(key, 0.001))
        return OK, f"trace-{key}"

    async def aclose(self):
        pass


def test_slow_traces_records_the_slowest_request_ids():
    workload = build_workload(POOL, n_requests=20, seed=5, n_keys=20)
    keys = sorted({request.key for request in workload.requests})
    delays = {keys[0]: 0.05, keys[1]: 0.03}
    report = run_closed_loop(TracingTarget(delays), workload, concurrency=4)
    assert report.slow_traces  # tracing targets populate the field
    assert len(report.slow_traces) <= 5
    # slowest-first, and the two artificially slow keys lead the list
    latencies = [entry["latency_ms"] for entry in report.slow_traces]
    assert latencies == sorted(latencies, reverse=True)
    assert {report.slow_traces[0]["trace_id"], report.slow_traces[1]["trace_id"]} == {
        f"trace-{keys[0]}", f"trace-{keys[1]}"
    }
    assert all(entry["outcome"] == OK for entry in report.slow_traces)
    # the artifact carries them too
    assert report.as_dict()["slow_traces"][0]["trace_id"] == report.slow_traces[0]["trace_id"]


def test_untraced_targets_leave_slow_traces_empty():
    workload = build_workload(POOL, n_requests=10, seed=2)
    report = run_closed_loop(StubTarget(), workload, concurrency=2)
    assert report.slow_traces == ()
    assert report.as_dict()["slow_traces"] == []


class StallingTarget:
    """Blocks the event loop for *stall* seconds on its first call, the way
    a synchronous hiccup in a client process would."""

    def __init__(self, stall: float) -> None:
        self.stall = stall
        self.calls = 0

    async def predict(self, sequence, key):
        self.calls += 1
        if self.calls == 1:
            time.sleep(self.stall)
        return OK, key

    async def aclose(self):
        pass


def test_open_loop_latency_counts_send_lateness():
    """Requests that fell due while the loop was stalled were sent late;
    their latency is timed from when they were due, so it shows."""
    arrivals = (0.0, 0.04, 0.08, 0.12, 0.16)
    workload = Workload(
        requests=tuple(
            WorkloadRequest(POOL[0], f"k-{index}", arrival)
            for index, arrival in enumerate(arrivals)
        ),
        seed=0,
        rate=25.0,
    )
    stall = 0.2
    report = run_open_loop(StallingTarget(stall), workload)
    assert report.ok == len(arrivals)
    latency_ms = {entry["trace_id"]: entry["latency_ms"] for entry in report.slow_traces}
    for index, arrival in enumerate(arrivals[1:], start=1):
        lateness_ms = (stall - arrival) * 1000.0
        # slow_traces rounds latencies to the microsecond.
        assert latency_ms[f"k-{index}"] >= lateness_ms - 0.001
