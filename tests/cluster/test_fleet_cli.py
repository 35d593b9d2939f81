"""``repro-cluster`` and ``repro-serve`` share one flag declaration.

``repro-cluster`` parses what to serve, where, the admin token and the log
level from the same declaration as ``repro-serve``, adds its four fleet
flags, and forwards every other ``repro-serve`` flag to the workers after
one parse in :class:`ClusterSupervisor`.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cluster import ClusterSupervisor
from repro.cluster import cli as cluster_cli
from repro.server import cli as serve_cli
from tests.cluster.conftest import wait_until
from tests.server.conftest import ServerClient

#: ``repro-serve``'s command line: option -> (dest, default, type, action).
#: perfbench and the fleet launch it, so none of this may drift.
SERVE_FLAGS = {
    "--export-dir": ("export_dir", None, None, "_StoreAction"),
    "--demo": ("demo", False, None, "_StoreTrueAction"),
    "--version": ("version", "v1", None, "_StoreAction"),
    "--route": ("route", None, None, "_StoreAction"),
    "--host": ("host", "127.0.0.1", None, "_StoreAction"),
    "--port": ("port", 8000, int, "_StoreAction"),
    "--socket-fd": ("socket_fd", None, int, "_StoreAction"),
    "--control-port": ("control_port", None, int, "_StoreAction"),
    "--worker-id": ("worker_id", None, int, "_StoreAction"),
    "--mmap-bundles": ("mmap_bundles", False, None, "_StoreTrueAction"),
    "--cache-size": ("cache_size", None, int, "_StoreAction"),
    "--max-batch-size": ("max_batch_size", None, int, "_StoreAction"),
    "--service-time": ("service_time", 0.0, float, "_StoreAction"),
    "--admin-token": ("admin_token", None, None, "_StoreAction"),
    "--max-inflight": ("max_inflight", 64, int, "_StoreAction"),
    "--max-batch-items": ("max_batch_items", 256, int, "_StoreAction"),
    "--max-body-bytes": ("max_body_bytes", 1048576, int, "_StoreAction"),
    "--drain-timeout": ("drain_timeout", 30.0, float, "_StoreAction"),
    "--trace-sample": ("trace_sample", 1.0, float, "_StoreAction"),
    "--trace-slow-ms": ("trace_slow_ms", 250.0, float, "_StoreAction"),
    "--trace-seed": ("trace_seed", 0, int, "_StoreAction"),
    "--no-trace": ("no_trace", False, None, "_StoreTrueAction"),
    "--demo-scale": ("demo_scale", 0.004, float, "_StoreAction"),
    "--demo-seed": ("demo_seed", 11, int, "_StoreAction"),
    "--ready-file": ("ready_file", None, None, "_StoreAction"),
    "--log-level": ("log_level", "INFO", None, "_StoreAction"),
}
#: Flags only a single ``repro-serve`` process takes (the supervisor sets them).
PER_PROCESS = {"--socket-fd", "--worker-id", "--control-port", "--mmap-bundles"}
CLUSTER_OWN = {"--workers", "--mode", "--control-port", "--no-mmap-bundles"}


def _options(parser) -> dict[str, object]:
    return {
        action.option_strings[0]: action
        for action in parser._actions
        if action.option_strings[0] != "-h"
    }


def _serve_tuning_actions():
    serve = _options(serve_cli.build_parser())
    cluster = _options(cluster_cli.build_parser())
    return [
        action for option, action in serve.items()
        if option not in cluster and option not in PER_PROCESS
    ]


def _run_cluster_main(monkeypatch, argv) -> list[ClusterSupervisor]:
    """``repro-cluster`` *argv* up to the point it would start serving."""
    built: list[ClusterSupervisor] = []
    monkeypatch.setattr(
        cluster_cli, "run_until_signal", lambda front_end, *_: built.append(front_end)
    )
    assert cluster_cli.main(argv) == 0
    return built


def test_repro_serve_flags_unchanged(monkeypatch):
    monkeypatch.delenv("REPRO_ADMIN_TOKEN", raising=False)
    actual = {
        option: (action.dest, action.default, action.type, type(action).__name__)
        for option, action in _options(serve_cli.build_parser()).items()
    }
    assert actual == SERVE_FLAGS


def test_cluster_declares_only_its_fleet_flags():
    serve = set(_options(serve_cli.build_parser()))
    cluster = set(_options(cluster_cli.build_parser()))
    assert cluster - serve == CLUSTER_OWN - {"--control-port"}
    shared = (cluster & serve) - {"--control-port"}
    forwarded = {action.option_strings[0] for action in _serve_tuning_actions()}
    assert forwarded == set(serve_cli.tuning_flags())
    assert shared | forwarded | PER_PROCESS == serve
    assert "--max-batch-items" in forwarded and "--max-body-bytes" in forwarded


@pytest.mark.parametrize(
    "action", _serve_tuning_actions(), ids=lambda action: action.option_strings[0]
)
def test_every_tuning_flag_parses_through_cluster(monkeypatch, action):
    flag = action.option_strings[0]
    if action.type is None:  # a store_true switch
        args, expected = [flag], True
    else:
        args = [flag, "3" if action.type is int else "0.5"]
        expected = action.type(args[1])
    (supervisor,) = _run_cluster_main(monkeypatch, ["--demo", "--log-level", "WARNING", *args])
    assert supervisor.worker_args == ("--log-level", "WARNING", *args)
    assert getattr(supervisor.worker_options, action.dest) == expected


@pytest.mark.parametrize(
    "worker_args",
    [
        ["--bogus-flag", "1"],
        ["--max-batch-items", "four"],
        # No abbreviations: --service-time or --socket-fd?  And --c must not
        # quietly become repro-cluster's --control-port.
        ["--s", "0.5"],
        ["--c", "4"],
        ["--socket-fd", "3"],  # set per worker by the supervisor
    ],
    ids=["unknown", "malformed", "abbreviated", "cluster-prefix", "per-process"],
)
def test_bad_worker_flag_exits_2_before_any_spawn(monkeypatch, capsys, worker_args):
    def no_spawn(*args, **kwargs):
        raise AssertionError("a worker was spawned")

    monkeypatch.setattr("repro.cluster.supervisor.subprocess.Popen", no_spawn)
    monkeypatch.setattr(cluster_cli, "run_until_signal", no_spawn)
    with pytest.raises(SystemExit) as exit_info:
        cluster_cli.main(["--demo", *worker_args])
    assert exit_info.value.code == 2
    assert "repro-cluster: error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "worker_args", [["--admin-token", "s3cret"], ["--admin-token=s3cret"]]
)
def test_admin_token_is_not_a_worker_flag(worker_args):
    with pytest.raises(ValueError, match="REPRO_ADMIN_TOKEN") as error:
        ClusterSupervisor(demo=True, worker_args=worker_args)
    assert "s3cret" not in str(error.value)


def test_balancer_takes_forwarded_max_body_bytes(cluster_export_dir, tmp_path):
    supervisor = ClusterSupervisor(
        workers=1,
        export_dir=cluster_export_dir,
        route="cuisine",
        mode="balancer",
        workdir=tmp_path,
        worker_args=["--max-body-bytes", "4096", "--drain-timeout", "5"],
    )
    handle = supervisor.start_in_thread()
    try:
        assert supervisor._balancer.max_body_bytes == 4096
        (worker,) = supervisor._workers.values()
        assert worker.process.args[-4:] == [
            "--max-body-bytes", "4096", "--drain-timeout", "5",
        ]
        client = ServerClient(handle.port)
        try:
            status, body = client.request(
                "POST", "/routes/cuisine/predict", {"sequence": ["salt"] * 1000}
            )
        finally:
            client.close()
        assert status == 413
        assert body["error"]["code"] == "body_too_large"
    finally:
        handle.stop()


def test_cluster_cli_forwards_max_batch_items(cluster_export_dir, tmp_path):
    """The whole command line: a forwarded flag reaches the workers, the
    ready-file describes the fleet, and SIGTERM drains it (exit 0)."""
    ready = tmp_path / "ready.json"
    src_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src_root, *filter(None, [os.environ.get("PYTHONPATH")])]
    ))
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cluster.cli",
            "--export-dir", str(cluster_export_dir), "--route", "cuisine",
            "--workers", "1", "--port", "0", "--ready-file", str(ready),
            "--log-level", "WARNING", "--max-batch-items", "4",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        wait_until(lambda: ready.exists() or process.poll() is not None, timeout=120)
        assert process.poll() is None, process.stdout.read()
        info = wait_until(lambda: _read_json(ready))
        assert info["workers"] == 1 and info["pid"] == process.pid
        client = ServerClient(info["port"])
        try:
            sequence = ["pasta", "tomato", "basil"]
            status, body = client.request(
                "POST", "/routes/cuisine/predict", {"sequences": [sequence] * 5}
            )
            assert status == 413 and body["error"]["code"] == "batch_too_large"
            status, body = client.request(
                "POST", "/routes/cuisine/predict", {"sequences": [sequence] * 4}
            )
            assert status == 200 and body["count"] == 4
        finally:
            client.close()
    finally:
        process.send_signal(signal.SIGTERM)
        output, _ = process.communicate(timeout=60)
    assert process.returncode == 0, output
    assert "repro-cluster drained cleanly" in output


def _read_json(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):  # not written yet, or mid-write
        return None
