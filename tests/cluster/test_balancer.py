"""HashRing properties and the L7 relay, against in-process echo back-ends."""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro.cluster.balancer import ClusterBalancer, HashRing
from repro.loadgen.client import ConnectionPool
from repro.server.protocol import json_response, read_request
from tests.server.conftest import ServerClient


class TestHashRing:
    def test_lookup_is_deterministic(self):
        ring = HashRing(["a", "b", "c"])
        for key in ("user-1", "user-2", ""):
            assert ring.lookup(key) == ring.lookup(key)
        assert HashRing(["a", "b", "c"]).lookup("user-1") == ring.lookup("user-1")

    def test_empty_ring_returns_none(self):
        assert HashRing().lookup("anything") is None

    def test_members_sorted(self):
        assert HashRing(["b", "a"]).members == ("a", "b")

    def test_keys_spread_over_members(self):
        ring = HashRing(["a", "b", "c"])
        keys = [f"user-{i}" for i in range(300)]
        owners = {member: 0 for member in ring.members}
        for key in keys:
            owners[ring.lookup(key)] += 1
        # 64 virtual nodes per member keep the split roughly even; every
        # member must own a real share of the key space.
        assert all(count >= 30 for count in owners.values())

    def test_removal_moves_only_the_removed_members_keys(self):
        ring = HashRing(["a", "b", "c"])
        keys = [f"user-{i}" for i in range(300)]
        before = {key: ring.lookup(key) for key in keys}
        ring.remove("b")
        for key in keys:
            if before[key] != "b":
                assert ring.lookup(key) == before[key]
            else:
                assert ring.lookup(key) in ("a", "c")

    def test_addition_only_steals_keys_for_the_new_member(self):
        ring = HashRing(["a", "b"])
        keys = [f"user-{i}" for i in range(300)]
        before = {key: ring.lookup(key) for key in keys}
        ring.add("c")
        moved = [key for key in keys if ring.lookup(key) != before[key]]
        assert moved  # the new member owns ~1/3 of the space
        assert all(ring.lookup(key) == "c" for key in moved)

    def test_duplicate_add_and_missing_remove_are_noops(self):
        ring = HashRing(["a"])
        ring.add("a")
        ring.remove("ghost")
        assert ring.members == ("a",)

    def test_replicas_validated(self):
        with pytest.raises(ValueError, match="replicas"):
            HashRing(replicas=0)


class EchoBackend:
    """A minimal repro-protocol server echoing which back-end served."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.port: int | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread: threading.Thread | None = None

    async def _handle(self, reader, writer):
        try:
            while True:
                try:
                    request = await read_request(reader)
                except (ConnectionError, asyncio.IncompleteReadError):
                    break
                if request is None:
                    break
                payload = {
                    "backend": self.name,
                    "method": request.method,
                    "path": request.path,
                    "headers": dict(request.headers),
                    "body": json.loads(request.body) if request.body else None,
                }
                writer.write(json_response(200, payload, keep_alive=request.keep_alive))
                await writer.drain()
                if not request.keep_alive:
                    break
        finally:
            writer.close()

    async def _serve(self, started: threading.Event) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = await asyncio.start_server(self._handle, host="127.0.0.1", port=0)
        self.port = server.sockets[0].getsockname()[1]
        started.set()
        try:
            await self._stop.wait()
        finally:
            server.close()
            await server.wait_closed()

    def start(self) -> "EchoBackend":
        started = threading.Event()
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._serve(started)), daemon=True
        )
        self._thread.start()
        assert started.wait(10), "echo backend failed to start"
        return self

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(10)


@pytest.fixture()
def backends():
    pair = [EchoBackend("a").start(), EchoBackend("b").start()]
    yield pair
    for backend in pair:
        backend.stop()


@pytest.fixture()
def balancer(backends):
    balancer = ClusterBalancer(host="127.0.0.1", port=0)
    for backend in backends:
        balancer.add_backend(backend.name, "127.0.0.1", backend.port)
    handle = balancer.start_in_thread()
    client = ServerClient(handle.port)
    try:
        yield balancer, client
    finally:
        client.close()
        handle.stop()


class TestRelay:
    def test_key_affinity(self, balancer):
        _, client = balancer
        served = set()
        for _ in range(10):
            status, body = client.request(
                "POST", "/routes/cuisine/predict", {"sequence": ["x"], "key": "user-7"}
            )
            assert status == 200
            served.add(body["backend"])
        assert len(served) == 1

    def test_keys_list_uses_first_key(self, balancer):
        _, client = balancer
        _, single = client.request("POST", "/x", {"key": "user-3"})
        _, batch = client.request("POST", "/x", {"keys": ["user-3", "user-4"]})
        assert batch["backend"] == single["backend"]

    def test_keyless_requests_round_robin(self, balancer):
        _, client = balancer
        served = {client.request("GET", "/healthz")[1]["backend"] for _ in range(8)}
        assert served == {"a", "b"}

    def test_request_is_relayed_intact(self, balancer):
        bal, client = balancer
        payload = {"sequence": ["onion", "butter"], "key": "user-1"}
        status, body = client.request(
            "POST", "/routes/cuisine/predict", payload, headers={"x-custom": "yes"}
        )
        assert status == 200
        assert body["method"] == "POST"
        assert body["path"] == "/routes/cuisine/predict"
        assert body["body"] == payload
        assert body["headers"].get("x-custom") == "yes"
        # Hop-by-hop headers are re-framed per hop: the back-end must see
        # its own address in Host, not the balancer's.
        assert body["headers"].get("host") != f"127.0.0.1:{bal.port}"

    def test_removed_backend_stops_receiving(self, balancer, backends):
        bal, client = balancer
        keys = [f"user-{i}" for i in range(40)]
        bal.remove_backend("a")
        for key in keys:
            status, body = client.request("POST", "/x", {"key": key})
            assert status == 200
            assert body["backend"] == "b"

    def test_empty_fleet_returns_503(self):
        balancer = ClusterBalancer(host="127.0.0.1", port=0)
        handle = balancer.start_in_thread()
        client = ServerClient(handle.port)
        try:
            status, body = client.request("POST", "/x", {"key": "user-1"})
            assert status == 503
            assert body["error"]["code"] == "no_backends"
        finally:
            client.close()
            handle.stop()

    def test_dead_backend_returns_502(self, backends):
        balancer = ClusterBalancer(host="127.0.0.1", port=0)
        dead = EchoBackend("dead").start()
        dead.stop()  # port is now closed
        balancer.add_backend("dead", "127.0.0.1", dead.port)
        handle = balancer.start_in_thread()
        client = ServerClient(handle.port)
        try:
            status, body = client.request("POST", "/x", {"key": "user-1"})
            assert status == 502
            assert body["error"]["code"] == "bad_backend"
        finally:
            client.close()
            handle.stop()

    def test_unhandled_relay_error_returns_500(self, balancer, monkeypatch):
        _, client = balancer

        async def broken(self, *args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(ConnectionPool, "request", broken)
        status, body = client.request("POST", "/x", {"key": "user-1"})
        assert status == 500
        assert body["error"]["code"] == "internal_error"
        # The connection survives: the next request on it is answered too.
        monkeypatch.undo()
        status, body = client.request("POST", "/x", {"key": "user-1"})
        assert status == 200
