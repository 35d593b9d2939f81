"""The connection loop resolves its parse and serialize steps by name.

``perfbench/traced_server.py`` times ``server.parse`` and
``server.serialize`` by replacing ``repro.server.app.read_request`` and
``repro.server.app.json_response`` (and ``ModelServer._handle_predict``) by
attribute.  If the loop stopped looking those names up in ``app``'s module
globals, the benchmark's parse and serialize times would silently read zero;
this test fails instead.
"""

from __future__ import annotations

from collections import Counter

from repro.server import ModelServer, app
from tests.server.conftest import ServerClient, make_gateway


def test_loop_calls_hooks_replaced_on_the_app_module(
    monkeypatch, server_export_dir, server_sequences
):
    calls: Counter = Counter()
    read_request = app.read_request
    json_response = app.json_response
    handle_predict = ModelServer._handle_predict

    async def counting_read_request(reader, **kwargs):
        calls["read_request"] += 1
        return await read_request(reader, **kwargs)

    def counting_json_response(*args, **kwargs):
        calls["json_response"] += 1
        return json_response(*args, **kwargs)

    async def counting_handle_predict(self, route, request):
        calls["handle_predict"] += 1
        return await handle_predict(self, route, request)

    monkeypatch.setattr(app, "read_request", counting_read_request)
    monkeypatch.setattr(app, "json_response", counting_json_response)
    monkeypatch.setattr(ModelServer, "_handle_predict", counting_handle_predict)

    server = ModelServer(make_gateway(server_export_dir))
    handle = server.start_in_thread()
    client = ServerClient(handle.port)
    try:
        status, body = client.request(
            "POST", "/routes/cuisine/predict", {"sequence": list(server_sequences[0])}
        )
    finally:
        client.close()
        handle.stop()
    assert status == 200 and body["route"] == "cuisine"
    assert calls["read_request"] >= 1
    assert calls["json_response"] == 1
    assert calls["handle_predict"] == 1
