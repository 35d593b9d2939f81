"""Tests for the shared observability primitives."""

import json
import os
import threading

import numpy as np
import pytest

from repro import observability
from repro.observability import (
    HISTOGRAM_ALPHA,
    CounterSet,
    Histogram,
    RouteMetrics,
    merge_counter_dicts,
    merge_histograms,
    process_stats,
    render_metrics_text,
    sanitize_metric_name,
)
from repro.serving import PredictionService


class TestCounterSet:
    def test_increment_and_snapshot(self):
        counters = CounterSet()
        counters.increment("requests")
        counters.increment("requests", 4)
        counters.increment("errors", 0)
        assert counters.value("requests") == 5
        assert counters.as_dict() == {"requests": 5}  # zero counters omitted

    def test_thread_safety(self):
        counters = CounterSet()

        def bump():
            for _ in range(1000):
                counters.increment("n")

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counters.value("n") == 8000


class TestRollingLatency:
    """A :class:`Histogram` in the latency role: seconds in, ``_ms`` out."""

    def test_lifetime_totals(self):
        latency = Histogram()
        for seconds in (0.010, 0.020, 0.030):
            latency.record(seconds)
        snapshot = latency.snapshot()
        assert snapshot["count"] == 3
        assert snapshot["total_seconds"] == pytest.approx(0.060)
        assert snapshot["mean_ms"] == pytest.approx(20.0)
        assert snapshot["max_ms"] == pytest.approx(30.0)

    def test_quantiles_over_ring(self):
        latency = Histogram()
        for millis in range(1, 101):  # 1ms .. 100ms
            latency.record(millis / 1000.0)
        snapshot = latency.snapshot()
        assert snapshot["p50_ms"] == pytest.approx(50.5, rel=0.02)
        assert snapshot["p95_ms"] == pytest.approx(95.05, rel=0.02)
        assert snapshot["p99_ms"] == pytest.approx(99.01, rel=0.02)

    def test_batched_count_attribution(self):
        latency = Histogram()
        latency.record(0.008, count=16)
        snapshot = latency.snapshot()
        assert snapshot["count"] == 16
        assert snapshot["total_seconds"] == pytest.approx(0.008)
        # One observation in the buckets, however many requests it covered.
        assert sum(n for _, n in snapshot["buckets"]) == 1

    def test_empty_snapshot(self):
        snapshot = Histogram().snapshot()
        assert snapshot["count"] == 0
        assert snapshot["p50_ms"] == 0.0
        assert snapshot["mean_ms"] == 0.0
        assert snapshot["buckets"] == []


class TestHistogram:
    def test_quantiles_are_lifetime(self):
        latency = Histogram()
        for _ in range(200):
            latency.record(10.0)  # an early slow period: 2% of all samples
        for _ in range(10_000):
            latency.record(0.001)
        # Lifetime quantiles: the early samples still hold the top percentile.
        assert latency.snapshot()["p99_ms"] == pytest.approx(10_000.0, rel=HISTOGRAM_ALPHA)

    def test_quantiles_within_alpha_of_exact(self):
        samples = np.random.default_rng(7).lognormal(mean=-6.0, sigma=1.5, size=5000)
        latency = Histogram()
        for value in samples:
            latency.record(float(value))
        snapshot = latency.snapshot()
        for q in (0.50, 0.95, 0.99):
            # The reported value sits within alpha of a sample whose rank
            # is the quantile's rank.
            rank = int(np.ceil(q * (len(samples) - 1)))
            exact = np.sort(samples)[rank]
            reported = snapshot[f"p{int(q * 100)}_ms"] / 1000.0
            assert abs(reported - exact) <= HISTOGRAM_ALPHA * exact

    def test_max_and_zero_are_exact(self):
        latency = Histogram()
        for value in (0.0, 0.0, 0.0, 0.123, 0.123):
            latency.record(value)
        snapshot = latency.snapshot()
        assert snapshot["p50_ms"] == 0.0
        assert snapshot["max_ms"] == 1000.0 * 0.123
        # The top bucket's value is capped at the exact maximum.
        assert snapshot["max_ms"] * (1 - HISTOGRAM_ALPHA) <= snapshot["p99_ms"]
        assert snapshot["p99_ms"] <= snapshot["max_ms"]
        assert snapshot["buckets"][0] == [None, 3]  # the zero bucket leads

    def test_unit_free_snapshot_keys(self):
        sizes = Histogram()
        for size in (1, 1, 2, 8):
            sizes.record(size)
        payload = sizes.snapshot(seconds=False)
        assert list(payload) == [
            "count", "total", "mean", "max", "p50", "p95", "p99", "buckets",
        ]
        assert payload["mean"] == pytest.approx(3.0)
        assert payload["max"] == 8.0
        assert payload["p50"] == pytest.approx(1.0, rel=HISTOGRAM_ALPHA)


class TestStageTimer:
    """The prediction service's per-stage histograms."""

    STAGES = ["batch_size", "featurize", "predict", "queue_depth", "queue_wait"]

    def test_stages_created_lazily(self, logreg_bundle, gateway_sequences):
        with PredictionService({"m": logreg_bundle.model}) as service:
            assert service.stats()["stages"] == {}
            service.predict_proba_batch("m", gateway_sequences[:2])
            # An explicit batch queues as one unit, like a single request.
            assert list(service.stats()["stages"]) == self.STAGES

    def test_per_stage_latency_accounting(self, logreg_bundle, gateway_sequences):
        with PredictionService({"m": logreg_bundle.model}, cache_size=0) as service:
            service.predict_proba_batch("m", gateway_sequences[:4])
            service.predict_proba("m", gateway_sequences[4])
            stages = service.stats()["stages"]
        assert stages["featurize"]["count"] == 5
        assert sum(n for _, n in stages["featurize"]["buckets"]) == 2  # two passes
        assert stages["queue_wait"]["count"] == 5
        assert stages["batch_size"]["max"] == 4.0
        assert stages["queue_depth"]["max"] == 0.0

    def test_snapshot_sorted_by_stage(self, logreg_bundle, gateway_sequences):
        with PredictionService({"m": logreg_bundle.model}) as service:
            service.predict_proba("m", gateway_sequences[0])
            assert list(service.stats()["stages"]) == self.STAGES

    def test_quantile_of_unknown_stage_is_zero(self):
        snapshot = Histogram().snapshot()
        assert snapshot["p99_ms"] == snapshot["max_ms"] == 0.0

    def test_renders_as_flat_metrics(self, logreg_bundle, gateway_sequences):
        with PredictionService({"m": logreg_bundle.model}) as service:
            service.predict_proba("m", gateway_sequences[0])
            text = render_metrics_text({"stages": service.stats()["stages"]}, prefix="svc")
        assert "svc_stages_featurize_count 1" in text
        assert "svc_stages_batch_size_max 1" in text
        assert "_window" not in text and "buckets" not in text

    def test_thread_safety(self):
        stage = Histogram()

        def bump():
            for _ in range(500):
                stage.record(0.001)

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snapshot = stage.snapshot()
        assert snapshot["count"] == 4000
        assert sum(n for _, n in snapshot["buckets"]) == 4000


class TestRouteMetrics:
    def test_request_and_variant_accounting(self):
        metrics = RouteMetrics()
        metrics.record_batch({"v1": 1}, 0.010)
        metrics.record_batch({"v2": 3}, 0.020)
        metrics.record_error()
        snapshot = metrics.snapshot()
        assert snapshot["requests"] == 5
        assert snapshot["errors"] == 1
        assert snapshot["by_variant"] == {"v1": 1, "v2": 3}
        assert snapshot["latency"]["count"] == 4

    def test_batch_accounting(self):
        metrics = RouteMetrics()
        metrics.record_batch({"v1": 7, "v2": 3}, 0.050)
        snapshot = metrics.snapshot()
        assert snapshot["requests"] == 10
        assert snapshot["by_variant"] == {"v1": 7, "v2": 3}
        assert snapshot["latency"]["count"] == 10

    def test_shadow_accounting(self):
        metrics = RouteMetrics()
        metrics.record_shadow("v2", agreements=8, disagreements=2)
        metrics.record_shadow_error()
        shadow = metrics.snapshot()["shadow"]
        assert shadow["requests"] == 10
        assert shadow["agreements"] == 8
        assert shadow["disagreements"] == 2
        assert shadow["errors"] == 1
        assert shadow["agreement_rate"] == pytest.approx(0.8)

    def test_no_shadow_traffic_rate_is_none(self):
        assert RouteMetrics().snapshot()["shadow"]["agreement_rate"] is None


class TestJSONSafeSnapshots:
    """``as_dict``/``snapshot`` payloads are plain-JSON with stable key order."""

    def test_counter_as_dict_sorted_plain_ints(self):
        counters = CounterSet()
        for name in ("zeta", "alpha", "mid"):
            counters.increment(name, 2)
        counters.increment("never", 0)  # zero-valued names are omitted
        payload = counters.as_dict()
        assert list(payload) == ["alpha", "mid", "zeta"]
        assert all(type(value) is int for value in payload.values())
        json.dumps(payload)  # JSON-safe by construction

    def test_latency_snapshot_json_safe_stable_order(self):
        latency = Histogram()
        latency.record(0.010)
        latency.record(0.020, count=3)
        payload = latency.snapshot()
        assert list(payload) == [
            "count", "total_seconds", "mean_ms", "max_ms",
            "p50_ms", "p95_ms", "p99_ms", "buckets",
        ]
        assert type(payload["count"]) is int
        assert all(
            type(payload[key]) is float
            for key in ("total_seconds", "mean_ms", "max_ms", "p50_ms", "p95_ms", "p99_ms")
        )
        assert all(
            type(index) is int and type(n) is int for index, n in payload["buckets"]
        )
        assert json.loads(json.dumps(payload)) == payload

    def test_route_metrics_snapshot_is_json_safe(self):
        metrics = RouteMetrics()
        metrics.record_batch({"v1": 1}, 0.005)
        metrics.record_shadow("v2", agreements=1, disagreements=0)
        json.dumps(metrics.snapshot())


class TestRenderMetricsText:
    def test_flatten_sort_and_sanitize(self):
        text = render_metrics_text(
            {
                "routes": {"cuisine": {"requests": 3, "by_variant": {"v1@x": 3}}},
                "healthy": True,
                "status": "ok",          # non-numeric leaves are skipped
                "latency": {"p50_ms": 1.5},
                "names": ["a", "b"],     # sequences are skipped too
            }
        )
        lines = text.splitlines()
        assert lines == sorted(lines)
        parsed = dict(line.rsplit(" ", 1) for line in lines)
        assert parsed["repro_healthy"] == "1"
        # ``v1@x`` needs sanitizing, so its name carries a hash suffix that
        # keeps it distinct from a literal ``v1_x`` variant.
        assert parsed["repro_routes_cuisine_by_variant_v1_x_b4fe7c"] == "3"
        assert parsed["repro_latency_p50_ms"] == "1.500000"
        assert not any("status" in line for line in lines)
        assert text.endswith("\n")

    def test_empty_snapshot_renders_empty(self):
        assert render_metrics_text({}) == ""

    def test_exemplars_attached_to_matching_lines_only(self):
        text = render_metrics_text(
            {"latency": {"p50_ms": 1.5, "p99_ms": 9.0}, "requests": 4},
            exemplars={"repro_latency_p50_ms": "ab" * 16},
        )
        lines = dict(
            (line.split(" # ", 1)[0].rsplit(" ", 1)[0], line)
            for line in text.splitlines()
        )
        assert lines["repro_latency_p50_ms"].endswith(
            f"# exemplar trace_id={'ab' * 16}"
        )
        assert "exemplar" not in lines["repro_latency_p99_ms"]
        assert "exemplar" not in lines["repro_requests"]


class TestSanitizeMetricName:
    def test_clean_keys_pass_through_unchanged(self):
        for key in ("requests", "p50_ms", "by_variant", "v1", "A9_z"):
            assert sanitize_metric_name(key) == key

    def test_illegal_characters_replaced_and_suffixed(self):
        name = sanitize_metric_name("v1@x")
        assert name.startswith("v1_x_")
        assert len(name) == len("v1_x_") + 6
        assert all(c.isalnum() or c == "_" for c in name)

    def test_colliding_keys_stay_distinct(self):
        # All three flatten to ``v1_x`` under plain substitution; the hash
        # suffix keeps each key's metric line distinct.
        names = {sanitize_metric_name(k) for k in ("v1@x", "v1-x", "v1.x", "v1 x")}
        assert len(names) == 4
        assert "v1_x" not in names  # none shadows a literal clean key

    def test_deterministic(self):
        assert sanitize_metric_name("v1@x") == sanitize_metric_name("v1@x")

    def test_flatten_uses_sanitized_names(self):
        text = render_metrics_text({"by_variant": {"v1@x": 1, "v1-x": 2}})
        parsed = dict(line.rsplit(" ", 1) for line in text.splitlines())
        assert len(parsed) == 2
        assert all(name.startswith("repro_by_variant_v1_x_") for name in parsed)


class TestProcessStats:
    def test_shape_and_types(self):
        stats = process_stats()
        assert set(stats) == {
            "pid", "uptime_seconds", "peak_rss_bytes", "minor_faults",
            "python_version",
        }
        assert stats["pid"] == os.getpid()
        assert stats["uptime_seconds"] > 0.0
        assert stats["peak_rss_bytes"] > 1024 * 1024  # a real interpreter RSS
        assert isinstance(stats["minor_faults"], int) and stats["minor_faults"] > 0
        assert stats["python_version"].count(".") == 2
        json.dumps(stats)

    def test_uptime_is_monotonic(self):
        first = process_stats()["uptime_seconds"]
        second = process_stats()["uptime_seconds"]
        assert second >= first

    @pytest.mark.parametrize(
        "platform_name, ru_maxrss, expected",
        [
            ("linux", 200_000, 200_000 * 1024),  # KiB
            ("darwin", 200_000_000, 200_000_000),  # bytes, under 4 GiB
            ("darwin", 6 << 30, 6 << 30),
        ],
    )
    def test_peak_rss_unit_follows_platform(
        self, monkeypatch, platform_name, ru_maxrss, expected
    ):
        class Usage:
            pass

        usage = Usage()
        usage.ru_maxrss = ru_maxrss
        usage.ru_minflt = 7
        monkeypatch.setattr(observability.sys, "platform", platform_name)
        monkeypatch.setattr(observability.resource, "getrusage", lambda who: usage)
        stats = process_stats()
        assert stats["peak_rss_bytes"] == expected
        assert stats["minor_faults"] == 7


class TestMergeEdgeCases:
    @staticmethod
    def _snapshot(values, *, seconds=True):
        histogram = Histogram()
        for value in values:
            histogram.record(value)
        return histogram.snapshot(seconds=seconds)

    def test_empty_inputs(self):
        assert merge_counter_dicts([]) == {}
        merged = merge_histograms([])
        assert merged["count"] == 0 and merged["mean"] == 0.0
        assert merged["buckets"] == []

    def test_single_snapshot_passes_through(self):
        snapshot = self._snapshot([0.010, 0.030])
        assert merge_histograms([snapshot]) == snapshot
        counters = {"requests": 3, "errors": 1}
        assert merge_counter_dicts([counters]) == counters

    def test_disjoint_counter_keys_union(self):
        merged = merge_counter_dicts([{"a": 1}, {"b": 2}, {"a": 4}])
        assert merged == {"a": 5, "b": 2}

    def test_zero_sums_omitted_and_keys_sorted(self):
        merged = merge_counter_dicts([{"z": 1, "gone": 0}, {"a": 2}])
        assert list(merged) == ["a", "z"]
        assert "gone" not in merged

    def test_malformed_counter_values_contribute_nothing(self):
        merged = merge_counter_dicts([{"a": 2, "bad": "oops"}, {"bad": None}])
        assert merged == {"a": 2}

    def test_malformed_latency_fields_degrade_to_defaults(self):
        good = self._snapshot([0.010, 0.010])
        bad = {
            "count": "not-a-number", "total_seconds": float("nan"),
            "mean_ms": None, "max_ms": "x", "p50_ms": object(),
            "buckets": [
                "junk", [1], [1, 2, 3], ["7", 4], [7, "4"], [7.0, 4], [True, 4],
                [7, 0], [7, -3], [10**9, 5], [None, 2.5], None,
            ],
        }
        merged = merge_histograms([good, bad, {"buckets": "not-a-list"}])
        assert merged["count"] == 2
        assert merged["total_seconds"] == pytest.approx(0.02)
        assert merged["max_ms"] == pytest.approx(10.0)
        assert merged["buckets"] == good["buckets"]
        assert merged["p50_ms"] == pytest.approx(10.0, rel=HISTOGRAM_ALPHA)

    def test_malformed_distribution_fields_degrade_to_defaults(self):
        good = self._snapshot([1, 2, 3, 2], seconds=False)
        merged = merge_histograms([good, {"count": [], "total": "x", "buckets": {}}])
        assert merged["count"] == 4
        assert merged["total"] == pytest.approx(8.0)
        assert merged["mean"] == pytest.approx(2.0)
        assert merged["buckets"] == good["buckets"]

    def test_merge_is_bucket_addition(self):
        first = self._snapshot([0.001, 0.002, 0.050])
        second = self._snapshot([0.002, 0.004])
        pooled = self._snapshot([0.001, 0.002, 0.050, 0.002, 0.004])
        merged = merge_histograms([first, second])
        assert merged["buckets"] == pooled["buckets"]
        for key in ("count", "max_ms", "p50_ms", "p95_ms", "p99_ms"):
            assert merged[key] == pooled[key]
        assert merged["total_seconds"] == pytest.approx(pooled["total_seconds"])
