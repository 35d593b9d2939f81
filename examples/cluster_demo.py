"""Train -> export -> prefork a worker fleet -> roll it under load.

Walks the scale-out story of the reproduction stack:

1. train a model and export it as a versioned bundle;
2. prefork a two-worker :class:`repro.cluster.ClusterSupervisor` over the
   export — one ``SO_REUSEPORT`` public port the kernel spreads across the
   workers, memory-mapped bundles so the workers share one physical copy
   of the model arrays;
3. read the fleet like an operator would — merged ``/healthz``,
   per-worker membership, flat-text ``/metrics`` — from the supervisor's
   control port;
4. replay a seeded open-loop workload with :mod:`repro.loadgen` and
   trigger a **rolling restart** mid-run: every worker is replaced
   spawn-before-drain, and zero requests are dropped;
5. print the loadgen report next to the fleet's merged latency
   quantiles, then drain the whole fleet gracefully.

Run with:  python examples/cluster_demo.py
"""

from __future__ import annotations

import http.client
import json
import tempfile
import threading

from repro.cluster import ClusterSupervisor
from repro.core.experiment import ExperimentConfig, ExperimentRunner
from repro.data import generate_recipedb
from repro.loadgen import HTTPTarget, build_workload, run_open_loop

ADMIN_TOKEN = "demo-admin-token"


def call(port: int, method: str, path: str, payload=None, headers=None):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        body = json.dumps(payload) if payload is not None else None
        connection.request(method, path, body=body, headers=headers or {})
        response = connection.getresponse()
        data = response.read()
        try:
            return response.status, json.loads(data)
        except ValueError:
            return response.status, data.decode()
    finally:
        connection.close()


def main() -> None:
    print("Generating a synthetic RecipeDB corpus (scale=0.02)...")
    corpus = generate_recipedb(scale=0.02, seed=7)
    pool = [recipe.sequence for recipe in corpus.recipes[:200]]

    with tempfile.TemporaryDirectory() as workdir:
        print("\n[1] Training logreg and exporting the bundle...")
        config = ExperimentConfig(
            models=("logreg",), seed=7, export_dir=f"{workdir}/export"
        )
        ExperimentRunner(config, corpus=corpus).run()

        print("\n[2] Preforking a two-worker fleet over the export...")
        supervisor = ClusterSupervisor(
            workers=2,
            export_dir=f"{workdir}/export",
            route="cuisine",
            admin_token=ADMIN_TOKEN,
            workdir=f"{workdir}/cluster",
        )
        handle = supervisor.start_in_thread()
        print(
            f"    data http://127.0.0.1:{handle.port} (SO_REUSEPORT), "
            f"control http://127.0.0.1:{handle.control_port}"
        )

        print("\n[3] Reading the fleet from the supervisor's control port:")
        status, health = call(handle.control_port, "GET", "/healthz")
        members = health["cluster"]["members"]
        print(
            f"    GET /healthz   -> {status} status={health['status']} "
            f"workers={health['cluster']['workers']}"
        )
        for member in members:
            print(
                f"      worker {member['worker']}: pid={member['pid']} "
                f"port={member['port']} control={member['control_port']}"
            )
        status, answer = call(
            handle.port, "POST", "/routes/cuisine/predict",
            {"sequence": list(pool[0]), "key": "user-0"},
        )
        print(f"    POST .../predict -> {status} label={answer['label']}")
        status, text = call(handle.control_port, "GET", "/metrics")
        print(f"    GET /metrics   -> {status} ({len(text.splitlines())} metrics)")

        print("\n[4] Open-loop loadgen + rolling restart mid-run...")
        workload = build_workload(
            pool, n_requests=600, seed=42, rate=120.0,
            key_distribution="zipf", n_keys=100,
        )

        def roll() -> None:
            restarted = handle.rolling_restart()
            print(f"    [mid-run] rolled workers {restarted} (spawn-before-drain)")

        roller = threading.Timer(1.0, roll)
        roller.start()
        report = run_open_loop(HTTPTarget("127.0.0.1", handle.port, "cuisine"), workload)
        roller.join()

        print(
            f"    completed {report.ok}/{report.n_requests} "
            f"(errors={report.errors}, shed={report.shed}) at "
            f"{report.throughput_rps:.0f} rps — zero dropped through the roll"
        )
        latency = report.latency
        print(
            f"    client latency        p50={latency['p50_ms']:.2f}ms "
            f"p95={latency['p95_ms']:.2f}ms p99={latency['p99_ms']:.2f}ms"
        )
        _, health = call(handle.control_port, "GET", "/healthz")
        merged = health["server"]["latency"]
        print(
            f"    fleet latency (merged) p50={merged['p50_ms']:.2f}ms "
            f"p95={merged['p95_ms']:.2f}ms p99={merged['p99_ms']:.2f}ms"
        )
        pids = [member["pid"] for member in health["cluster"]["members"]]
        print(f"    fleet after the roll  pids={pids} (all replaced)")

        print("\n[5] Draining the fleet gracefully...")
        handle.stop()
        print("    drained.")


if __name__ == "__main__":
    main()
