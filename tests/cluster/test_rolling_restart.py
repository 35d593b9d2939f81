"""Satellite acceptance test: a full rolling restart under seeded
open-loop load loses **zero** requests.

The workload keeps firing at its scheduled arrival times while every
worker in the fleet is drained and replaced.  The open-loop runner issues
every scheduled request and awaits every response, so
``ok + shed + errors == n_requests`` attributes any loss to the serving
tier — and the assertion is that there is none: no 5xx, no dropped
connection that the keep-alive stale-socket retry could not absorb.
"""

from __future__ import annotations

import threading
import time

from repro.cluster import ClusterSupervisor
from repro.loadgen import HTTPTarget, build_workload, run_open_loop


def test_rolling_restart_drops_nothing(cluster_export_dir, tiny_corpus, tmp_path_factory):
    sequences = [recipe.sequence for recipe in tiny_corpus.recipes[:64]]
    workload = build_workload(
        sequences,
        n_requests=480,
        seed=7,
        rate=60.0,
        key_distribution="zipf",
    )
    supervisor = ClusterSupervisor(
        workers=2,
        export_dir=cluster_export_dir,
        route="cuisine",
        workdir=tmp_path_factory.mktemp("roll"),
        worker_args=["--drain-timeout", "15.0"],
    )
    handle = supervisor.start_in_thread()
    try:
        target = HTTPTarget(handle.host, handle.port, "cuisine")
        box: dict = {}

        def drive() -> None:
            box["report"] = run_open_loop(target, workload)

        load = threading.Thread(target=drive, daemon=True)
        load.start()
        time.sleep(1.0)  # let the open loop ramp onto the old fleet
        old_pids = {
            worker.index: worker.process.pid
            for worker in supervisor._workers.values()
        }
        restarted = handle.rolling_restart()
        load.join(180)
        assert not load.is_alive(), "load generator did not finish"
        report = box["report"]

        # Every worker really was replaced, mid-run.
        assert restarted == [0, 1]
        new_pids = {
            worker.index: worker.process.pid
            for worker in supervisor._workers.values()
        }
        assert set(new_pids) == set(old_pids)
        assert all(new_pids[index] != old_pids[index] for index in old_pids)

        # Zero loss: every scheduled request was answered, none with a 5xx
        # or a dropped connection.
        assert report.n_requests == len(workload)
        assert report.errors == 0
        assert report.ok + report.shed == report.n_requests
        assert report.ok > 0
    finally:
        handle.stop()
