"""Unit tests for fleet-wide health-snapshot merging."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.metrics import merge_health_snapshots
from repro.observability import HISTOGRAM_ALPHA, Histogram, merge_histograms


class TestScalarMerging:
    def test_integer_counters_sum(self):
        merged = merge_health_snapshots(
            [{"requests": 10}, {"requests": 4}, {"requests": 1}]
        )
        assert merged == {"requests": 15}

    def test_floats_average(self):
        merged = merge_health_snapshots(
            [{"mean_batch_size": 2.0}, {"mean_batch_size": 4.0}]
        )
        assert merged["mean_batch_size"] == pytest.approx(3.0)

    def test_booleans_or_except_healthy_ands(self):
        merged = merge_health_snapshots(
            [
                {"healthy": True, "draining": False},
                {"healthy": False, "draining": True},
            ]
        )
        assert merged["healthy"] is False  # one sick worker → sick fleet
        assert merged["draining"] is True  # some worker is draining

    def test_status_merges_worst_of(self):
        assert merge_health_snapshots([{"status": "ok"}, {"status": "ok"}]) == {
            "status": "ok"
        }
        merged = merge_health_snapshots([{"status": "ok"}, {"status": "degraded"}])
        assert merged["status"] == "degraded"

    def test_agreeing_strings_keep_value(self):
        merged = merge_health_snapshots([{"active": "v1"}, {"active": "v1"}])
        assert merged["active"] == "v1"

    def test_eval_code_merges_worst_of(self):
        """A rollback verdict on one worker is the fleet's verdict: +1 and -1
        must not cancel into a 0 that reads as "hold"."""
        merged = merge_health_snapshots(
            [
                {"routes": {"cuisine": {"eval": {"code": 1}}}},
                {"routes": {"cuisine": {"eval": {"code": -1}}}},
            ]
        )
        assert merged["routes"]["cuisine"]["eval"]["code"] == -1

    def test_disagreeing_strings_become_sorted_set(self):
        """Mid-rolling-restart the fleet may serve two versions at once."""
        merged = merge_health_snapshots([{"active": "v2"}, {"active": "v1"}])
        assert merged["active"] == ["v1", "v2"]


class TestStructure:
    def test_empty_input(self):
        assert merge_health_snapshots([]) == {}

    def test_nested_dicts_recurse(self):
        merged = merge_health_snapshots(
            [
                {"server": {"counters": {"requests_total": 7}}},
                {"server": {"counters": {"requests_total": 5}}},
            ]
        )
        assert merged == {"server": {"counters": {"requests_total": 12}}}

    def test_heterogeneous_keys_union(self):
        """A worker mid-restart may miss routes the others carry."""
        merged = merge_health_snapshots(
            [
                {"routes": {"cuisine": {"requests": 3}}},
                {"routes": {"cuisine": {"requests": 2}, "dessert": {"requests": 9}}},
            ]
        )
        assert merged["routes"]["cuisine"]["requests"] == 5
        assert merged["routes"]["dessert"]["requests"] == 9

    def test_worker_identity_dropped(self):
        merged = merge_health_snapshots(
            [{"worker_id": 0, "requests": 1}, {"worker_id": 1, "requests": 2}]
        )
        assert merged == {"requests": 3}

    def test_none_values_ignored(self):
        merged = merge_health_snapshots([{"active": None}, {"active": "v1"}])
        assert merged["active"] == "v1"
        assert merge_health_snapshots([{"active": None}]) == {"active": None}


class TestLatencyMerging:
    def _snapshot(self, samples):
        latency = Histogram()
        for seconds in samples:
            latency.record(seconds)
        return latency.snapshot()

    def test_latency_shaped_dicts_merge_not_sum(self):
        """A histogram snapshot must merge through merge_histograms —
        summing p95s across workers would be nonsense."""
        first = self._snapshot([0.010] * 9)
        second = self._snapshot([0.100])
        merged = merge_health_snapshots(
            [{"latency": first}, {"latency": second}]
        )
        assert merged["latency"] == merge_histograms([first, second])
        assert merged["latency"]["count"] == 10
        assert merged["latency"]["max_ms"] == pytest.approx(100.0)

    def test_exact_counts_and_totals(self):
        first = self._snapshot([0.001, 0.002, 0.003])
        second = self._snapshot([0.004, 0.005])
        merged = merge_health_snapshots([{"latency": first}, {"latency": second}])
        assert merged["latency"]["count"] == 5
        assert merged["latency"]["total_seconds"] == pytest.approx(0.015)

    def test_one_slow_worker_moves_fleet_p99(self):
        """Fleet quantiles come from pooled buckets, not averaged p99s."""
        fast = self._snapshot([0.001] * 1000)
        slow = self._snapshot([0.100] * 1000)
        merged = merge_health_snapshots(
            [{"server": {"latency": fast}}, {"server": {"latency": slow}}]
        )["server"]["latency"]
        pooled_ms = 1000.0 * np.array([0.001] * 1000 + [0.100] * 1000)
        assert merged["p99_ms"] == pytest.approx(
            np.quantile(pooled_ms, 0.99), rel=HISTOGRAM_ALPHA
        )
        assert merged["count"] == 2000
        assert merged["total_seconds"] == fast["total_seconds"] + slow["total_seconds"]
        assert merged["max_ms"] == slow["max_ms"]

    def test_malformed_worker_buckets_contribute_nothing(self):
        good = self._snapshot([0.002] * 10)
        bad = {"count": 0, "total_seconds": 0.0, "max_ms": 0.0,
               "buckets": [["x", 1], [3], [5, "many"], [10**12, 1], "junk"]}
        merged = merge_health_snapshots([{"latency": good}, {"latency": bad}])
        assert merged["latency"]["buckets"] == good["buckets"]
        assert merged["latency"]["count"] == 10


class TestProcessGaugeMerging:
    def test_pids_publish_as_sorted_list(self):
        merged = merge_health_snapshots(
            [{"process": {"pid": 310}}, {"process": {"pid": 42}}]
        )
        assert merged["process"]["pid"] == [42, 310]

    def test_single_worker_keeps_scalar_pid(self):
        merged = merge_health_snapshots([{"process": {"pid": 42}}])
        assert merged["process"]["pid"] == 42

    def test_uptime_is_fleet_max(self):
        # A worker replaced mid-rolling-restart must not drag fleet uptime
        # down: the fleet has been up as long as its oldest member.
        merged = merge_health_snapshots(
            [
                {"process": {"uptime_seconds": 3600.0}},
                {"process": {"uptime_seconds": 4.5}},
            ]
        )
        assert merged["process"]["uptime_seconds"] == 3600.0

    def test_largest_batch_is_fleet_max(self):
        merged = merge_health_snapshots(
            [
                {"service": {"largest_batch": 3}},
                {"service": {"largest_batch": 7}},
            ]
        )
        assert merged["service"]["largest_batch"] == 7

    def test_peak_rss_sums_and_versions_fold(self):
        merged = merge_health_snapshots(
            [
                {"process": {"peak_rss_bytes": 100, "python_version": "3.11.7"}},
                {"process": {"peak_rss_bytes": 250, "python_version": "3.11.7"}},
            ]
        )
        assert merged["process"]["peak_rss_bytes"] == 350
        assert merged["process"]["python_version"] == "3.11.7"


class TestRatioGauges:
    """Ratio gauges merge from their parts, weighted by each worker's traffic."""

    def test_mean_batch_size_weighs_workers_by_batches(self):
        merged = merge_health_snapshots(
            [
                {
                    "service": {
                        "batches_flushed": 1000,
                        "batched_requests": 1000,
                        "mean_batch_size": 1.0,
                    }
                },
                {
                    "service": {
                        "batches_flushed": 10,
                        "batched_requests": 320,
                        "mean_batch_size": 32.0,
                    }
                },
            ]
        )["service"]
        assert merged["mean_batch_size"] == 1320 / 1010  # not (1 + 32) / 2
        assert merged["batches_flushed"] == 1010

    def test_agreement_rate_weighs_workers_by_requests(self):
        merged = merge_health_snapshots(
            [
                {"shadow": {"requests": 1000, "agreements": 1000, "agreement_rate": 1.0}},
                {"shadow": {"requests": 10, "agreements": 0, "agreement_rate": 0.0}},
            ]
        )["shadow"]
        assert merged["agreement_rate"] == 1000 / 1010  # 0.99, not 0.5

    def test_zero_denominator(self):
        merged = merge_health_snapshots(
            [
                {
                    "service": {"batches_flushed": 0, "mean_batch_size": 0.0},
                    "shadow": {"requests": 0, "agreements": 0, "agreement_rate": None},
                },
                {
                    "service": {"batches_flushed": 0, "mean_batch_size": 0.0},
                    "shadow": {"requests": 0, "agreements": 0, "agreement_rate": None},
                },
            ]
        )
        assert merged["service"]["mean_batch_size"] == 0.0
        assert merged["shadow"]["agreement_rate"] is None
