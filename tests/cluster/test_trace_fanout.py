"""Cross-process trace stitching: balancer hop + worker spans, one id.

A predict through a balancer-mode fleet must produce a single trace whose
balancer ``balancer.relay`` span parents the worker's ``server.request``
chain, and the supervisor's control plane must serve the merged view.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterSupervisor
from tests.server.conftest import ServerClient

TRACE_HEADER = "x-repro-trace"


@pytest.fixture(scope="module")
def traced_fleet(cluster_export_dir, tmp_path_factory):
    supervisor = ClusterSupervisor(
        workers=2,
        export_dir=cluster_export_dir,
        route="cuisine",
        mode="balancer",
        workdir=tmp_path_factory.mktemp("traced-fleet"),
        worker_args=["--drain-timeout", "10.0"],
    )
    handle = supervisor.start_in_thread()
    try:
        yield supervisor, handle
    finally:
        handle.stop()


@pytest.fixture(scope="module")
def fanout_sequences(tiny_corpus):
    return [list(recipe.sequence) for recipe in tiny_corpus.recipes[:8]]


def predict_trace_id(handle, sequence, key):
    client = ServerClient(handle.port)
    try:
        status, body = client.request(
            "POST", "/routes/cuisine/predict", {"sequence": sequence, "key": key}
        )
        assert status == 200, body
        return client.last_headers.get(TRACE_HEADER)
    finally:
        client.close()


class TestFanout:
    def test_one_trace_spans_balancer_and_worker(self, traced_fleet, fanout_sequences):
        _, handle = traced_fleet
        trace_id = predict_trace_id(handle, fanout_sequences[0], "user-1")
        assert trace_id and len(trace_id) == 32

        control = ServerClient(handle.control_port)
        try:
            status, merged = control.request("GET", f"/debug/traces/{trace_id}")
        finally:
            control.close()
        assert status == 200
        assert merged["trace_id"] == trace_id
        assert "balancer" in merged["origins"]
        assert any(origin.startswith("worker-") for origin in merged["origins"])

        by_origin = {}
        for span in merged["spans"]:
            by_origin.setdefault(span["origin"], []).append(span)
        relay = by_origin["balancer"][0]
        assert relay["name"] == "balancer.relay"
        worker_spans = next(
            spans for origin, spans in by_origin.items() if origin != "balancer"
        )
        names = [span["name"] for span in worker_spans]
        assert names[0] == "server.request"
        assert "gateway.route" in names and "service.batch" in names
        # The worker root is stitched under the balancer's relay span.
        assert worker_spans[0]["parent_id"] == relay["span_id"]

    def test_fleet_listing_folds_origins(self, traced_fleet, fanout_sequences):
        _, handle = traced_fleet
        trace_id = predict_trace_id(handle, fanout_sequences[1], "user-2")
        control = ServerClient(handle.control_port)
        try:
            status, body = control.request("GET", "/debug/traces")
        finally:
            control.close()
        assert status == 200
        summary = next(s for s in body["traces"] if s["trace_id"] == trace_id)
        assert "balancer" in summary["origins"]
        assert summary["spans"] >= 2  # balancer relay + worker chain
        assert "balancer" in body["stats"]
        assert any(name.startswith("worker-") for name in body["stats"])

    def test_unknown_trace_is_404_fleet_wide(self, traced_fleet):
        _, handle = traced_fleet
        control = ServerClient(handle.control_port)
        try:
            status, body = control.request("GET", "/debug/traces/" + "e" * 32)
        finally:
            control.close()
        assert status == 404
        assert body["error"]["code"] == "unknown_trace"
