"""Fleet tracing: every worker's trace store, served from the control port.

A predict on the shared port echoes a trace id that resolves on the
supervisor's control port to the one worker that served it.  Workers share
one trace seed and count keys independently, so the worker id folded into
each id is what keeps two workers from minting one id for two requests.
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
    """One predict on a fresh connection; returns the echoed trace id."""
    client = ServerClient(handle.port)
    try:
        status, body = client.request(
            "POST", "/routes/cuisine/predict", {"sequence": sequence, "key": key}
        )
        assert status == 200, body
        return client.last_headers.get(TRACE_HEADER)
    finally:
        client.close()


def control_get(handle, path):
    control = ServerClient(handle.control_port)
    try:
        return control.request("GET", path)
    finally:
        control.close()


class TestFanout:
    def test_one_trace_resolves_to_its_worker(self, traced_fleet, fanout_sequences):
        _, handle = traced_fleet
        trace_id = predict_trace_id(handle, fanout_sequences[0], "user-1")
        assert trace_id and len(trace_id) == 32

        status, merged = control_get(handle, f"/debug/traces/{trace_id}")
        assert status == 200
        assert merged["trace_id"] == trace_id
        (origin,) = merged["origins"]
        assert origin.startswith("worker-")
        assert {span["origin"] for span in merged["spans"]} == {origin}
        names = [span["name"] for span in merged["spans"]]
        assert names[0] == "server.request"
        assert merged["spans"][0]["parent_id"] is None
        assert "gateway.route" in names and "service.batch" in names

    def test_fleet_listing_folds_origins(self, traced_fleet, fanout_sequences):
        _, handle = traced_fleet
        trace_id = predict_trace_id(handle, fanout_sequences[1], "user-2")
        status, body = control_get(handle, "/debug/traces")
        assert status == 200
        summary = next(s for s in body["traces"] if s["trace_id"] == trace_id)
        (origin,) = summary["origins"]
        assert origin.startswith("worker-")
        assert summary["spans"] >= 3  # server.request → gateway.route → service.batch
        assert set(body["stats"]) == {"worker-0", "worker-1"}

    def test_unknown_trace_is_404_fleet_wide(self, traced_fleet):
        _, handle = traced_fleet
        status, body = control_get(handle, "/debug/traces/" + "e" * 32)
        assert status == 404
        assert body["error"]["code"] == "unknown_trace"

    def test_one_key_on_fresh_connections_never_shares_an_id(
        self, traced_fleet, fanout_sequences
    ):
        """Each fresh connection lands on a kernel-chosen worker, so both
        workers count ``user-fresh`` from zero; the ids must still differ."""
        _, handle = traced_fleet
        n = 16
        ids = [
            predict_trace_id(handle, fanout_sequences[i % 2], "user-fresh")
            for i in range(n)
        ]
        assert len(set(ids)) == n

        status, body = control_get(handle, "/debug/traces")
        assert status == 200
        rows = [row for row in body["traces"] if row["key"] == "user-fresh"]
        assert sorted(row["trace_id"] for row in rows) == sorted(ids)
        assert all(len(row["origins"]) == 1 for row in rows)
        # Both workers took some of the connections, or the check is void.
        assert {row["origins"][0] for row in rows} == {"worker-0", "worker-1"}

        for trace_id in ids:
            status, merged = control_get(handle, f"/debug/traces/{trace_id}")
            assert status == 200
            roots = [
                span for span in merged["spans"]
                if span["name"] == "server.request" and span["parent_id"] is None
            ]
            assert len(roots) == 1, merged["origins"]
