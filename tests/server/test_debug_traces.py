"""End-to-end request tracing through a live server.

A predict request must yield one trace — retrievable by the id echoed in
the ``X-Repro-Trace`` response header — whose span chain walks the whole
serving stack: ``server.request`` → ``gateway.route`` → ``service.*``.
"""

from __future__ import annotations

import pytest

from repro.server import ModelServer
from tests.server.conftest import ServerClient, make_gateway, parse_metrics_text

TRACE_HEADER = "x-repro-trace"


@pytest.fixture()
def traced_server(server_export_dir):
    server = ModelServer(make_gateway(server_export_dir), max_inflight=32)
    handle = server.start_in_thread()
    try:
        yield server, handle
    finally:
        try:
            handle.stop()
        except TimeoutError:
            pass


@pytest.fixture()
def traced_client(traced_server):
    _, handle = traced_server
    client = ServerClient(handle.port)
    yield client
    client.close()


def predict(client, sequence, key="user-1"):
    status, body = client.request(
        "POST", "/routes/cuisine/predict", {"sequence": list(sequence), "key": key}
    )
    assert status == 200, body
    return client.last_headers.get(TRACE_HEADER)


class TestTraceRetrieval:
    @pytest.mark.parametrize("body", ["single", "batch"])
    def test_predict_echoes_trace_id_and_serves_span_chain(
        self, traced_client, server_sequences, body
    ):
        if body == "single":
            trace_id = predict(traced_client, server_sequences[0])
        else:
            sequences = [list(sequence) for sequence in server_sequences[:3]]
            status, payload = traced_client.request(
                "POST", "/routes/cuisine/predict",
                {"sequences": sequences, "keys": ["user-1"] * 3},
            )
            assert status == 200, payload
            trace_id = traced_client.last_headers.get(TRACE_HEADER)
        assert trace_id and len(trace_id) == 32
        status, trace = traced_client.request("GET", f"/debug/traces/{trace_id}")
        assert status == 200
        assert trace["trace_id"] == trace_id
        names = [span["name"] for span in trace["spans"]]
        assert names[:2] == ["server.request", "gateway.route"]
        assert "service.batch" in names
        # The per-stage service timings are children of the batch span.
        spans = {span["name"]: span for span in trace["spans"]}
        batch_id = spans["service.batch"]["span_id"]
        for stage in ("service.queue_wait", "service.featurize", "service.predict"):
            assert spans[stage]["parent_id"] == batch_id
            assert spans[stage]["duration_ms"] >= 0.0
        # One attribute set for both bodies (``pinned`` only when pinned).
        route_attrs = spans["gateway.route"]["attrs"]
        assert set(route_attrs) == {"route", "policy", "batch", "variants", "shadows"}
        assert route_attrs["variants"] == {"v1": 1 if body == "single" else 3}
        assert spans["server.request"]["parent_id"] is None

    @pytest.mark.parametrize("body", ["single", "batch"])
    def test_gateway_route_is_a_child_of_server_request(
        self, traced_client, server_sequences, body
    ):
        # The gateway runs on an executor thread; the trace context must
        # cross that hop so its span hangs under the request's root span.
        sequences = [list(sequence) for sequence in server_sequences[:2]]
        payload = {"sequence": sequences[0]} if body == "single" else {"sequences": sequences}
        status, _ = traced_client.request("POST", "/routes/cuisine/predict", payload)
        assert status == 200
        trace_id = traced_client.last_headers.get(TRACE_HEADER)
        _, trace = traced_client.request("GET", f"/debug/traces/{trace_id}")
        spans = {span["name"]: span for span in trace["spans"]}
        root_id = spans["server.request"]["span_id"]
        assert spans["gateway.route"]["parent_id"] == root_id
        assert spans["service.batch"]["parent_id"] == spans["gateway.route"]["span_id"]

    def test_repeat_key_hits_cache_and_traces_it(
        self, traced_client, server_sequences
    ):
        predict(traced_client, server_sequences[0], key="user-7")
        trace_id = predict(traced_client, server_sequences[0], key="user-7")
        _, trace = traced_client.request("GET", f"/debug/traces/{trace_id}")
        assert "service.cache_hit" in [span["name"] for span in trace["spans"]]

    def test_listing_and_stats(self, traced_client, server_sequences):
        seen = {predict(traced_client, seq, key=f"user-{i}")
                for i, seq in enumerate(server_sequences[:3])}
        status, body = traced_client.request("GET", "/debug/traces")
        assert status == 200
        listed = {summary["trace_id"] for summary in body["traces"]}
        assert seen <= listed
        assert body["stats"]["offered"] >= 3

    def test_unknown_trace_is_404(self, traced_client):
        status, body = traced_client.request("GET", "/debug/traces/" + "f" * 32)
        assert status == 404
        assert body["error"]["code"] == "unknown_trace"

    def test_trace_ids_are_deterministic_across_servers(
        self, server_export_dir, server_sequences
    ):
        ids = []
        for _ in range(2):
            server = ModelServer(make_gateway(server_export_dir), max_inflight=32)
            handle = server.start_in_thread()
            try:
                client = ServerClient(handle.port)
                try:
                    ids.append(predict(client, server_sequences[0], key="user-1"))
                finally:
                    client.close()
            finally:
                handle.stop()
        assert ids[0] == ids[1]

    def test_lone_server_mints_the_frozen_seeded_ids(self, traced_client, server_sequences):
        """``worker_id=None`` keeps the ids of a default-seeded replay."""
        ids = [
            predict(traced_client, server_sequences[0], key=key)
            for key in ("user-1", "user-1", "user-2")
        ]
        assert ids == [
            "61dc1a9a53500f93703ab103751c4f27",
            "401d287ef73bb46d150d4951a9763b88",
            "4aefeb08e836a605f7806dde897aa007",
        ]

    def test_upstream_header_is_adopted(self, traced_client, server_sequences):
        upstream_id = "ab" * 16
        status, _ = traced_client.request(
            "POST",
            "/routes/cuisine/predict",
            {"sequence": list(server_sequences[0]), "key": "user-1"},
            headers={"X-Repro-Trace": f"{upstream_id};sampled=1;parent=s1"},
        )
        assert status == 200
        assert traced_client.last_headers[TRACE_HEADER] == upstream_id
        _, trace = traced_client.request("GET", f"/debug/traces/{upstream_id}")
        root = trace["spans"][0]
        assert root["name"] == "server.request"
        assert root["parent_id"] == "s1"  # stitched under the upstream span


class TestSamplingBehaviour:
    def test_sampled_out_requests_keep_errors(self, server_export_dir):
        server = ModelServer(
            make_gateway(server_export_dir), max_inflight=32, trace_sample=0.0
        )
        handle = server.start_in_thread()
        try:
            client = ServerClient(handle.port)
            try:
                status, _ = client.request(
                    "POST", "/routes/cuisine/predict", {"sequence": ["x"], "key": "k"}
                )
                ok_id = client.last_headers.get(TRACE_HEADER)
                assert status == 200
                # clean + fast + sampled-out: dropped
                status, _ = client.request("GET", f"/debug/traces/{ok_id}")
                assert status == 404
                # an erroring request is captured regardless of the rate
                status, _ = client.request(
                    "POST", "/routes/nope/predict", {"sequence": ["x"], "key": "k"}
                )
                assert status == 404
                err_id = client.last_headers.get(TRACE_HEADER)
                status, trace = client.request("GET", f"/debug/traces/{err_id}")
                assert status == 200
                assert trace["error"] is True
            finally:
                client.close()
        finally:
            handle.stop()

    def test_disabled_tracing_has_no_header_and_empty_store(self, server_export_dir):
        server = ModelServer(
            make_gateway(server_export_dir), max_inflight=32, trace_sample=None
        )
        handle = server.start_in_thread()
        try:
            client = ServerClient(handle.port)
            try:
                status, _ = client.request(
                    "POST", "/routes/cuisine/predict", {"sequence": ["x"], "key": "k"}
                )
                assert status == 200
                assert TRACE_HEADER not in client.last_headers
                status, body = client.request("GET", "/debug/traces")
                assert status == 200
                assert body["traces"] == []
                status, health = client.request("GET", "/healthz")
                assert "trace" not in health
            finally:
                client.close()
        finally:
            handle.stop()


class TestMetricsExemplars:
    def test_latency_lines_carry_exemplar_trace_id(
        self, traced_client, server_sequences
    ):
        trace_id = predict(traced_client, server_sequences[0])
        status, text = traced_client.request("GET", "/metrics")
        assert status == 200
        text = text.decode() if isinstance(text, bytes) else text
        exemplar_lines = [
            line for line in text.splitlines() if "# exemplar trace_id=" in line
        ]
        assert exemplar_lines, "latency lines should carry an exemplar"
        assert all("repro_server_latency_" in line for line in exemplar_lines)
        assert any(line.endswith(trace_id) for line in exemplar_lines)
        # The exposition still parses cleanly with exemplars attached.
        parsed = parse_metrics_text(text)
        assert "repro_server_latency_p50_ms" in parsed

    def test_healthz_reports_trace_stats(self, traced_client, server_sequences):
        predict(traced_client, server_sequences[0])
        _, health = traced_client.request("GET", "/healthz")
        assert health["trace"]["offered"] >= 1
        assert health["trace"]["capacity"] == 256
