"""Malformed-input hardening, end to end through the real server.

Satellite bar: empty sequence batches, non-list JSON bodies, oversized
batches and unknown routes must come back as *structured* errors — a JSON
``{"error": {code, message, field?}}`` body with the right status — never a
traceback or a dropped connection.
"""

from __future__ import annotations

import socket

import pytest

from repro.server import ModelServer
from tests.server.conftest import ServerClient, make_gateway


def _assert_structured(payload):
    assert isinstance(payload, dict), f"non-JSON error body: {payload!r}"
    assert set(payload) == {"error"}
    assert "code" in payload["error"] and "message" in payload["error"]
    assert "Traceback" not in str(payload)


# ----------------------------------------------------------------------
# body shape
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "raw_body, expected_code",
    [
        ("[1, 2, 3]", "bad_body"),        # non-object JSON body (list)
        ('"just a string"', "bad_body"),  # non-object JSON body (scalar)
        ("42", "bad_body"),
        ("{not json", "invalid_json"),
        ("", "empty_body"),
    ],
)
def test_non_object_bodies(client, raw_body, expected_code):
    status, payload = client.request(
        "POST", "/routes/cuisine/predict", raw_body=raw_body
    )
    assert status == 400
    _assert_structured(payload)
    assert payload["error"]["code"] == expected_code


def test_missing_and_ambiguous_sequence_fields(client, server_sequences):
    status, payload = client.request("POST", "/routes/cuisine/predict", {"key": "u1"})
    assert status == 400
    _assert_structured(payload)

    sequence = list(server_sequences[0])
    status, payload = client.request(
        "POST", "/routes/cuisine/predict",
        {"sequence": sequence, "sequences": [sequence]},
    )
    assert status == 400
    assert "exactly one" in payload["error"]["message"]


@pytest.mark.parametrize(
    "sequence, expected_field",
    [
        ("pasta", "sequence"),            # not a list
        ({"0": "pasta"}, "sequence"),     # not a list
        ([], "sequence"),                 # empty
        (["pasta", 7], "sequence[1]"),    # non-string item
        ([None], "sequence[0]"),
    ],
)
def test_bad_single_sequences(client, sequence, expected_field):
    status, payload = client.request(
        "POST", "/routes/cuisine/predict", {"sequence": sequence}
    )
    assert status == 400
    _assert_structured(payload)
    assert payload["error"]["field"] == expected_field


@pytest.mark.parametrize(
    "batch, extra, expected_field",
    [
        (False, {"bogus": 1}, "bogus"),
        (False, {"kye": "user-1"}, "kye"),       # a misspelled key is not dropped
        (False, {"keys": ["user-1"]}, "keys"),   # batch-only field, single body
        (True, {"bogus": 1}, "bogus"),
        (True, {"key": "user-1"}, "key"),        # single-only field, batch body
    ],
)
def test_unknown_fields_rejected(client, server_sequences, batch, extra, expected_field):
    sequence = list(server_sequences[0])
    body = {"sequences": [sequence]} if batch else {"sequence": sequence}
    status, payload = client.request("POST", "/routes/cuisine/predict", {**body, **extra})
    assert status == 400
    _assert_structured(payload)
    assert payload["error"]["code"] == "bad_field"
    assert payload["error"]["field"] == expected_field


# ----------------------------------------------------------------------
# batches
# ----------------------------------------------------------------------
def test_empty_batch_rejected(client):
    status, payload = client.request(
        "POST", "/routes/cuisine/predict", {"sequences": []}
    )
    assert status == 400
    _assert_structured(payload)
    assert payload["error"]["field"] == "sequences"


def test_batch_with_empty_member_rejected(client, server_sequences):
    status, payload = client.request(
        "POST", "/routes/cuisine/predict",
        {"sequences": [list(server_sequences[0]), []]},
    )
    assert status == 400
    assert payload["error"]["field"] == "sequences[1]"


def test_batch_not_a_list_rejected(client):
    status, payload = client.request(
        "POST", "/routes/cuisine/predict", {"sequences": "pasta"}
    )
    assert status == 400
    assert payload["error"]["field"] == "sequences"


def test_keys_length_mismatch(client, server_sequences):
    status, payload = client.request(
        "POST", "/routes/cuisine/predict",
        {"sequences": [list(server_sequences[0])], "keys": ["a", "b"]},
    )
    assert status == 400
    assert payload["error"]["field"] == "keys"


def test_oversized_batch_rejected(server_export_dir, server_sequences):
    server = ModelServer(make_gateway(server_export_dir), max_batch_items=4)
    handle = server.start_in_thread()
    test_client = ServerClient(handle.port)
    try:
        sequences = [list(server_sequences[0])] * 5
        status, payload = test_client.request(
            "POST", "/routes/cuisine/predict", {"sequences": sequences}
        )
        assert status == 413
        _assert_structured(payload)
        assert payload["error"]["code"] == "batch_too_large"
        # Exactly at the limit is fine.
        status, payload = test_client.request(
            "POST", "/routes/cuisine/predict", {"sequences": sequences[:4]}
        )
        assert status == 200
    finally:
        test_client.close()
        handle.stop()


# ----------------------------------------------------------------------
# routing / protocol limits
# ----------------------------------------------------------------------
def test_unknown_route_and_version(client, server_sequences):
    sequence = list(server_sequences[0])
    status, payload = client.request(
        "POST", "/routes/nonexistent/predict", {"sequence": sequence}
    )
    assert status == 404
    _assert_structured(payload)
    assert "nonexistent" in payload["error"]["message"]

    status, payload = client.request(
        "POST", "/routes/cuisine/predict", {"sequence": sequence, "version": "v99"}
    )
    assert status == 404
    assert "v99" in payload["error"]["message"]


def test_unknown_path_and_wrong_method(client):
    status, payload = client.request("GET", "/definitely/not/here")
    assert status == 404
    _assert_structured(payload)

    status, payload = client.request("GET", "/routes/cuisine/predict")
    assert status == 405
    assert payload["error"]["code"] == "method_not_allowed"

    status, payload = client.request("POST", "/healthz", {})
    assert status == 405


def test_oversized_body_rejected(server_export_dir):
    server = ModelServer(make_gateway(server_export_dir), max_body_bytes=512)
    handle = server.start_in_thread()
    test_client = ServerClient(handle.port)
    try:
        status, payload = test_client.request(
            "POST", "/routes/cuisine/predict", {"sequence": ["x" * 2048]}
        )
        assert status == 413
        _assert_structured(payload)
        assert payload["error"]["code"] == "body_too_large"
    finally:
        test_client.close()
        handle.stop()


def test_oversized_headers_rejected(running_server):
    _, handle = running_server
    with socket.create_connection(("127.0.0.1", handle.port), timeout=30) as sock:
        sock.sendall(
            b"GET /healthz HTTP/1.1\r\nHost: t\r\n"
            + b"X-Padding: " + b"p" * 40000 + b"\r\n\r\n"
        )
        sock.settimeout(30)
        response = b""
        while b"\r\n\r\n" not in response:
            chunk = sock.recv(65536)
            if not chunk:
                break
            response += chunk
    assert b"431" in response.split(b"\r\n", 1)[0]


def test_chunked_transfer_encoding_unsupported(running_server):
    _, handle = running_server
    with socket.create_connection(("127.0.0.1", handle.port), timeout=30) as sock:
        sock.sendall(
            b"POST /routes/cuisine/predict HTTP/1.1\r\nHost: t\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
        )
        sock.settimeout(30)
        response = sock.recv(65536)
    assert b"501" in response.split(b"\r\n", 1)[0]
    assert b"chunked_unsupported" in response


# ----------------------------------------------------------------------
# framing errors are answered and counted like any other response
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "raw_request, status, code",
    [
        (
            b"POST /routes/cuisine/predict HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: 218\r\n\r\n" + b"x" * 218,
            413, b"body_too_large",
        ),
        (
            b"GET /healthz HTTP/1.1\r\nHost: t\r\n"
            + b"X-Padding: " + b"p" * 40000 + b"\r\n\r\n",
            431, b"headers_too_large",
        ),
        (b"GARBAGE\r\n\r\n", 400, b"bad_request_line"),
        (
            b"POST /routes/cuisine/predict HTTP/1.1\r\nHost: t\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n",
            501, b"chunked_unsupported",
        ),
    ],
    ids=["413", "431", "bad-request-line", "501"],
)
def test_framing_errors_are_counted(server_export_dir, raw_request, status, code):
    server = ModelServer(make_gateway(server_export_dir), max_body_bytes=64)
    handle = server.start_in_thread()
    test_client = ServerClient(handle.port)
    try:
        with socket.create_connection(("127.0.0.1", handle.port), timeout=30) as sock:
            sock.sendall(raw_request)
            sock.settimeout(30)
            response = b""
            while True:  # the server answers, then closes the connection
                chunk = sock.recv(65536)
                if not chunk:
                    break
                response += chunk
        assert response.startswith(f"HTTP/1.1 {status} ".encode("latin-1"))
        assert b"Connection: close" in response
        assert code in response

        health_status, health = test_client.request("GET", "/healthz")
        assert health_status == 200
        counters = health["server"]["counters"]
        assert counters[f"errors:{status}"] == 1
        assert counters["http_requests"] == 2  # the framing error + this probe
    finally:
        test_client.close()
        handle.stop()
