"""End-to-end behaviour of the HTTP serving frontier (happy paths).

Everything here talks to a real server over real sockets — the in-thread
:meth:`ModelServer.start_in_thread` harness, stdlib ``http.client`` on the
other side.
"""

from __future__ import annotations

import http.client
import json
import socket

import numpy as np
import pytest

from tests.server.conftest import ServerClient, parse_metrics_text

pytestmark = pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")


# ----------------------------------------------------------------------
# data plane
# ----------------------------------------------------------------------
def test_single_predict_matches_gateway(running_server, client, server_sequences):
    server, _ = running_server
    sequence = list(server_sequences[0])
    status, payload = client.request(
        "POST", "/routes/cuisine/predict", {"sequence": sequence}
    )
    assert status == 200
    expected = server.gateway.predict_proba("cuisine", sequence)
    assert payload["route"] == "cuisine"
    assert payload["label"] == server.gateway.predict("cuisine", sequence)
    assert np.allclose(payload["probabilities"], expected)


def test_batch_predict_with_keys(running_server, client, server_sequences):
    server, _ = running_server
    sequences = [list(s) for s in server_sequences[:5]]
    keys = [f"user-{i}" for i in range(5)]
    status, payload = client.request(
        "POST", "/routes/cuisine/predict", {"sequences": sequences, "keys": keys}
    )
    assert status == 200
    assert payload["count"] == 5
    assert len(payload["labels"]) == 5
    expected = server.gateway.predict_proba_batch("cuisine", sequences, keys=keys)
    assert np.allclose(payload["probabilities"], expected)


@pytest.mark.parametrize("version", ["v1", "v2"])  # logreg, naive_bayes
def test_response_bodies_are_byte_stable(running_server, server_sequences, version):
    """Single and batch bodies are, byte for byte, the wire shapes built from
    a direct model pass.  A statistical model's row does not depend on the
    batch it ran in, so a single body is the batch-of-one it is served as."""
    server, handle = running_server
    model = server.gateway.service._models[f"cuisine@{version}"]
    label_space = server.gateway.registry.label_space("cuisine")
    assert tuple(model.label_space) == tuple(label_space)
    sequences = [list(s) for s in server_sequences[:4]]
    rows = model.predict_proba_sequences(sequences)
    labels = [label_space[int(i)] for i in rows.argmax(axis=1)]
    probabilities = [[float(p) for p in row] for row in rows]
    cases = [
        (
            {"sequence": sequences[0], "version": version},
            {"route": "cuisine", "label": labels[0], "probabilities": probabilities[0]},
        ),
        (
            {"sequences": sequences, "version": version},
            {
                "route": "cuisine",
                "count": len(sequences),
                "labels": labels,
                "probabilities": probabilities,
            },
        ),
    ]
    connection = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=30)
    try:
        for request, expected in cases:
            connection.request("POST", "/routes/cuisine/predict", body=json.dumps(request))
            response = connection.getresponse()
            assert response.status == 200
            assert response.read() == json.dumps(expected, sort_keys=True).encode("utf-8")
    finally:
        connection.close()


def test_version_pinned_predict(client, server_sequences):
    sequence = list(server_sequences[0])
    status_v1, payload_v1 = client.request(
        "POST", "/routes/cuisine/predict", {"sequence": sequence, "version": "v1"}
    )
    status_v2, payload_v2 = client.request(
        "POST", "/routes/cuisine/predict", {"sequence": sequence, "version": "v2"}
    )
    assert status_v1 == status_v2 == 200
    # Different model families: the pinned dark version really served.
    assert payload_v1["probabilities"] != payload_v2["probabilities"]


def test_keep_alive_reuses_one_connection(client, server_sequences):
    sequence = list(server_sequences[0])
    for _ in range(3):
        status, _ = client.request(
            "POST", "/routes/cuisine/predict", {"sequence": sequence}
        )
        assert status == 200
    # http.client would raise on a dropped connection between requests; also
    # check the server saw one connection for all three requests.
    status, health = client.request("GET", "/healthz")
    assert status == 200
    assert health["server"]["counters"]["connections"] == 1


def test_pipelined_requests_answered_in_order(running_server, server_sequences):
    _, handle = running_server
    body = json.dumps({"sequence": list(server_sequences[0])}).encode()
    request = (
        b"POST /routes/cuisine/predict HTTP/1.1\r\n"
        b"Host: t\r\nContent-Type: application/json\r\n"
        b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
    )
    with socket.create_connection(("127.0.0.1", handle.port), timeout=30) as sock:
        sock.sendall(request * 3)  # three pipelined requests in one write
        sock.settimeout(30)
        received = b""
        while received.count(b"HTTP/1.1 200 OK") < 3:
            chunk = sock.recv(65536)
            assert chunk, f"connection closed early after {received!r}"
            received += chunk
    assert received.count(b'"label"') == 3


# ----------------------------------------------------------------------
# observability endpoints
# ----------------------------------------------------------------------
def test_healthz_reports_routes_and_server_block(client):
    status, payload = client.request("GET", "/healthz")
    assert status == 200
    assert payload["status"] == "ok"
    assert payload["routes"]["cuisine"]["active"] == "v1"
    server_block = payload["server"]
    assert server_block["draining"] is False
    assert server_block["max_inflight"] == 32
    assert "latency" in server_block


def test_metrics_text_export(client, server_sequences):
    client.request("POST", "/routes/cuisine/predict", {"sequence": list(server_sequences[0])})
    status, body = client.request("GET", "/metrics")
    assert status == 200
    text = body.decode() if isinstance(body, bytes) else str(body)
    metrics = parse_metrics_text(text)
    assert metrics["repro_healthy"] == 1
    assert metrics["repro_server_counters_predict_requests"] >= 1
    assert metrics["repro_routes_cuisine_requests"] >= 1
    assert "repro_server_latency_p99_ms" in metrics
    # Byte-stable ordering: lines arrive sorted by metric name.
    names = [line.rsplit(" ", 1)[0] for line in text.splitlines() if line.strip()]
    assert names == sorted(names)


# ----------------------------------------------------------------------
# admin control plane
# ----------------------------------------------------------------------
def test_admin_requires_token(client):
    status, payload = client.request(
        "POST", "/admin/routes/cuisine/swap", {"version": "v2"}
    )
    assert status == 401
    assert payload["error"]["code"] == "unauthorized"
    status, _ = client.request(
        "POST", "/admin/routes/cuisine/swap", {"version": "v2"},
        headers={"x-admin-token": "wrong"},
    )
    assert status == 401


def test_admin_disabled_without_token(server_export_dir, server_sequences):
    from tests.server.conftest import make_gateway
    from repro.server import ModelServer

    server = ModelServer(make_gateway(server_export_dir), admin_token=None)
    handle = server.start_in_thread()
    test_client = ServerClient(handle.port)
    try:
        status, payload = test_client.request(
            "POST", "/admin/routes/cuisine/swap", {"version": "v2"},
            headers={"x-admin-token": "anything"},
        )
        assert status == 403
        assert payload["error"]["code"] == "admin_disabled"
        # The data plane is unaffected.
        status, _ = test_client.request(
            "POST", "/routes/cuisine/predict", {"sequence": list(server_sequences[0])}
        )
        assert status == 200
    finally:
        test_client.close()
        handle.stop()


def test_admin_swap_rollback_retire_policy(running_server, client, server_export_dir):
    server, _ = running_server
    status, payload = client.admin("/admin/routes/cuisine/swap", {"version": "v2"})
    assert (status, payload["active"]) == (200, "v2")
    assert server.gateway.registry.active_version("cuisine") == "v2"

    status, payload = client.admin("/admin/routes/cuisine/rollback")
    assert (status, payload["active"]) == (200, "v1")

    status, payload = client.admin(
        "/admin/routes/cuisine/policy",
        {"policy": {"kind": "canary", "candidate": "v2", "fraction": 0.25}},
    )
    assert status == 200
    assert payload["policy"]["kind"] == "canary"
    assert server.gateway.registry.policy("cuisine").fraction == 0.25

    status, payload = client.admin("/admin/routes/cuisine/policy", {"policy": {"kind": "active"}})
    assert status == 200
    assert payload["policy"]["kind"] == "active"

    status, payload = client.admin("/admin/routes/cuisine/retire", {"version": "v2"})
    assert status == 200
    assert payload["versions"] == ["v1"]


def test_admin_deploy_new_version(running_server, client, server_export_dir):
    server, _ = running_server
    status, payload = client.admin(
        "/admin/routes/cuisine/deploy",
        {"version": "v3", "path": str(server_export_dir / "naive_bayes")},
    )
    assert status == 200
    assert payload["version"] == "v3"
    assert payload["active"] == "v1"  # deployed dark by default
    assert "v3" in server.gateway.registry.versions("cuisine")


@pytest.mark.parametrize("version", ["v2:rc1", "a->x"])
def test_admin_deploy_rejects_version_with_counter_separator(
    running_server, client, server_export_dir, version
):
    server, _ = running_server
    status, payload = client.admin(
        "/admin/routes/cuisine/deploy",
        {"version": version, "path": str(server_export_dir / "naive_bayes")},
    )
    assert status == 400
    assert payload["error"]["code"] == "bad_request"
    assert version not in server.gateway.registry.versions("cuisine")


def test_admin_errors_are_structured(client):
    status, payload = client.admin("/admin/routes/cuisine/swap", {"version": "ghost"})
    assert status == 404
    assert "ghost" in payload["error"]["message"]

    status, payload = client.admin("/admin/routes/cuisine/swap", {})
    assert (status, payload["error"]["field"]) == (400, "version")

    status, payload = client.admin(
        "/admin/routes/cuisine/policy", {"policy": {"kind": "warp"}}
    )
    assert (status, payload["error"]["field"]) == (400, "policy.kind")

    status, payload = client.admin(
        "/admin/routes/cuisine/policy", {"policy": {"kind": "canary", "candidate": "v2"}}
    )
    assert (status, payload["error"]["field"]) == (400, "policy.fraction")

    status, payload = client.admin("/admin/routes/cuisine/teleport", {})
    assert status == 404
