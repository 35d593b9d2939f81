"""End-to-end fleet tests: one supervisor babysitting two real worker
processes, shared by the whole module (workers cost ~a second each to
spawn).  Mutating tests (restart, resize, crash) run last and leave the
fleet back at two healthy workers."""

from __future__ import annotations

import os
import signal

import pytest

from repro.cluster import ClusterSupervisor
from tests.cluster.conftest import ADMIN_TOKEN, wait_until
from tests.server.conftest import ServerClient, parse_metrics_text


@pytest.fixture(scope="module")
def fleet(cluster_export_dir, tmp_path_factory):
    supervisor = ClusterSupervisor(
        workers=2,
        export_dir=cluster_export_dir,
        route="cuisine",
        admin_token=ADMIN_TOKEN,
        workdir=tmp_path_factory.mktemp("fleet"),
        worker_args=["--drain-timeout", "10.0"],
    )
    handle = supervisor.start_in_thread()
    try:
        yield supervisor, handle
    finally:
        handle.stop()


@pytest.fixture(scope="module")
def fleet_sequences(tiny_corpus):
    return [list(recipe.sequence) for recipe in tiny_corpus.recipes[:16]]


@pytest.fixture()
def control(fleet):
    _, handle = fleet
    client = ServerClient(handle.control_port)
    yield client
    client.close()


class TestServing:
    def test_predictions_served_across_keys(self, fleet, fleet_sequences):
        _, handle = fleet
        client = ServerClient(handle.port)
        try:
            for index, sequence in enumerate(fleet_sequences):
                status, body = client.request(
                    "POST",
                    "/routes/cuisine/predict",
                    {"sequence": sequence, "key": f"user-{index}"},
                )
                assert status == 200
                assert body["route"] == "cuisine"
                assert isinstance(body["label"], str)
        finally:
            client.close()

    def test_workers_individually_addressable(self, fleet):
        supervisor, handle = fleet
        health = handle.fleet_health()
        members = health["cluster"]["members"]
        assert len(members) == 2
        for member in members:
            client = ServerClient(member["control_port"])
            try:
                status, body = client.request("GET", "/healthz")
            finally:
                client.close()
            assert status == 200
            assert body["server"]["worker_id"] == member["worker"]


class TestFleetObservability:
    def test_fleet_health_document(self, fleet):
        supervisor, handle = fleet
        health = handle.fleet_health()
        assert health["status"] == "ok"
        cluster = health["cluster"]
        assert cluster["mode"] == supervisor.mode
        assert cluster["port"] == handle.port
        assert cluster["workers"] == 2
        assert cluster["target_workers"] == 2
        assert all(member["reachable"] for member in cluster["members"])
        # The merged document aggregates over the whole fleet: per-worker
        # identity is gone, per-route counters are present.
        assert "worker_id" not in health["server"]
        assert "cuisine" in health["routes"]

    def test_control_healthz_endpoint(self, control):
        status, body = control.request("GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["cluster"]["workers"] == 2

    def test_control_workers_endpoint(self, control):
        status, body = control.request("GET", "/workers")
        assert status == 200
        workers = body["workers"]
        assert [worker["worker"] for worker in workers] == [0, 1]
        assert all(worker["alive"] for worker in workers)

    def test_control_metrics_text(self, control):
        status, body = control.request("GET", "/metrics")
        assert status == 200
        metrics = parse_metrics_text(body.decode("utf-8"))
        assert metrics["repro_cluster_workers"] == 2
        assert metrics["repro_cluster_unreachable"] == 0
        assert metrics["repro_healthy"] == 1

    def test_unknown_endpoint_404(self, control):
        status, body = control.request("GET", "/nope")
        assert status == 404
        assert body["error"]["code"] == "not_found"


class TestAdminPlane:
    def test_fan_out_reaches_every_worker(self, control):
        status, body = control.admin(
            "/admin/routes/cuisine/swap", {"version": "v1"}
        )
        assert status == 200
        results = body["results"]
        assert [result["worker"] for result in results] == [0, 1]
        assert all(result["status"] == 200 for result in results)
        assert all(result["body"]["active"] == "v1" for result in results)

    def test_admin_token_never_on_a_worker_command_line(self, fleet):
        supervisor, _ = fleet
        for worker in supervisor._workers.values():
            assert not any(ADMIN_TOKEN in arg for arg in worker.process.args)
            assert worker.process.args[-2:] == ["--drain-timeout", "10.0"]

    def test_fan_out_rejects_malformed_json(self, control):
        status, body = control.request(
            "POST", "/admin/routes/cuisine/swap", raw_body="{not json",
            headers={"x-admin-token": ADMIN_TOKEN},
        )
        assert status == 400
        assert body["error"]["code"] == "invalid_json"

    def test_cluster_verbs_require_token(self, control):
        status, body = control.request("POST", "/cluster/restart")
        assert status == 401
        status, _ = control.request(
            "POST", "/cluster/resize", {"workers": 3},
            headers={"x-admin-token": "wrong"},
        )
        assert status == 401

    def test_resize_validates_body(self, control):
        status, body = control.admin("/cluster/resize", {"workers": "three"})
        assert status == 400
        status, body = control.admin("/cluster/resize", {"workers": 0})
        assert status == 400


class TestFleetMutations:
    """Ordered: each test restores a two-worker healthy fleet."""

    def test_resize_grows_and_shrinks(self, fleet, control):
        supervisor, handle = fleet
        status, body = control.admin("/cluster/resize", {"workers": 3})
        assert status == 200 and body == {"workers": 3}
        _, listing = control.request("GET", "/workers")
        assert [worker["worker"] for worker in listing["workers"]] == [0, 1, 2]
        assert handle.resize(2) == 2
        _, listing = control.request("GET", "/workers")
        assert [worker["worker"] for worker in listing["workers"]] == [0, 1]

    def test_rolling_restart_replaces_every_worker(self, fleet, control):
        supervisor, handle = fleet
        before = {
            worker["worker"]: worker["pid"]
            for worker in control.request("GET", "/workers")[1]["workers"]
        }
        status, body = control.admin("/cluster/restart")
        assert status == 200
        assert body["restarted"] == [0, 1]
        after = {
            worker["worker"]: worker["pid"]
            for worker in control.request("GET", "/workers")[1]["workers"]
        }
        assert set(after) == set(before)
        assert all(after[index] != before[index] for index in before)
        assert handle.fleet_health()["status"] == "ok"

    def test_crashed_worker_is_respawned(self, fleet, control):
        supervisor, handle = fleet
        victim = control.request("GET", "/workers")[1]["workers"][0]
        os.kill(victim["pid"], signal.SIGKILL)

        def respawned():
            workers = control.request("GET", "/workers")[1]["workers"]
            zero = next(w for w in workers if w["worker"] == 0)
            return zero["alive"] and zero["pid"] != victim["pid"]

        wait_until(respawned, timeout=60.0, interval=0.2)
        health = handle.fleet_health()
        assert health["status"] == "ok"
        assert health["cluster"]["respawns"] >= 1
