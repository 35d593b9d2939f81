"""Train -> export -> serve over HTTP -> measure with loadgen: the frontier flow.

Walks the full online story of the reproduction stack:

1. train two models and export them as versioned bundles;
2. stand up the asyncio HTTP server (:class:`repro.server.ModelServer`) over
   a gateway with ``cuisine@v1`` live and ``cuisine@v2`` dark;
3. speak to it like any client would — ``/healthz``, a JSON predict, the
   flat-text ``/metrics``;
4. replay a seeded open-loop workload (Zipf-hot keys, Poisson arrivals)
   with :mod:`repro.loadgen`, hot-swapping ``v2`` in mid-run through the
   admin API — zero requests dropped;
5. print the loadgen report next to the server's own latency quantiles and
   the service's batching / coalescing stats, then drain gracefully.

Run with:  python examples/http_serving_demo.py
"""

from __future__ import annotations

import http.client
import json
import tempfile
import threading

from repro.core.experiment import ExperimentConfig, ExperimentRunner
from repro.data import generate_recipedb
from repro.gateway import ModelGateway
from repro.loadgen import HTTPTarget, build_workload, run_open_loop
from repro.server import ModelServer

ADMIN_TOKEN = "demo-admin-token"


def call(port: int, method: str, path: str, payload=None, headers=None):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
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

    with tempfile.TemporaryDirectory() as export_dir:
        print("\n[1] Training logreg (v1) + naive_bayes (v2), exporting bundles...")
        config = ExperimentConfig(
            models=("logreg", "naive_bayes"), seed=7, export_dir=export_dir
        )
        ExperimentRunner(config, corpus=corpus).run()

        print("\n[2] Serving cuisine@v1 over HTTP (v2 deployed dark)...")
        # Natural batching: lone requests flush immediately, and requests
        # that queue while a batch runs share the next model pass.
        gateway = ModelGateway()
        gateway.deploy("cuisine", "v1", f"{export_dir}/logreg")
        gateway.deploy("cuisine", "v2", f"{export_dir}/naive_bayes", activate=False)
        # trace_capacity covers the whole loadgen run so the slowest
        # request's trace is still retrievable at the end.
        server = ModelServer(
            gateway, admin_token=ADMIN_TOKEN, max_inflight=128, trace_capacity=512
        )
        handle = server.start_in_thread()
        print(f"    listening on http://127.0.0.1:{handle.port}")

        print("\n[3] Talking to it like a client:")
        status, health = call(handle.port, "GET", "/healthz")
        print(f"    GET /healthz          -> {status} status={health['status']}")
        status, answer = call(
            handle.port, "POST", "/routes/cuisine/predict",
            {"sequence": list(pool[0]), "key": "user-0"},
        )
        print(f"    POST .../predict      -> {status} label={answer['label']}")
        status, text = call(handle.port, "GET", "/metrics")
        print(f"    GET /metrics          -> {status} ({len(text.splitlines())} metrics)")

        print("\n[4] Open-loop loadgen (Zipf keys, 400 rps offered) + mid-run hot swap...")
        workload = build_workload(
            pool, n_requests=400, seed=42, rate=400.0,
            key_distribution="zipf", n_keys=100,
        )

        def promote_v2() -> None:
            status, _ = call(
                handle.port, "POST", "/admin/routes/cuisine/swap",
                {"version": "v2"}, {"x-admin-token": ADMIN_TOKEN},
            )
            print(f"    [mid-run] admin swap to v2 -> {status}")

        swapper = threading.Timer(workload.duration / 2, promote_v2)
        swapper.start()
        report = run_open_loop(HTTPTarget("127.0.0.1", handle.port, "cuisine"), workload)
        swapper.join()

        print(
            f"    completed {report.ok}/{report.n_requests} "
            f"(errors={report.errors}, shed={report.shed}) at "
            f"{report.throughput_rps:.0f} rps"
        )
        latency = report.latency
        print(
            f"    client latency        p50={latency['p50_ms']:.2f}ms "
            f"p95={latency['p95_ms']:.2f}ms p99={latency['p99_ms']:.2f}ms"
        )
        _, health = call(handle.port, "GET", "/healthz")
        server_latency = health["server"]["latency"]
        print(
            f"    server latency        p50={server_latency['p50_ms']:.2f}ms "
            f"p95={server_latency['p95_ms']:.2f}ms p99={server_latency['p99_ms']:.2f}ms"
        )
        by_variant = health["routes"]["cuisine"]["by_variant"]
        print(f"    requests by variant   {by_variant} (swap dropped nothing)")
        # The prediction service splits each batch's wall clock into stage
        # histograms (also flattened into /metrics as service_stages_* lines);
        # unit-free queue_depth / batch_size histograms sit next to them.
        service_stats = health["service"]
        stages = service_stats["stages"]
        print("    service stages        " + "  ".join(
            f"{name}: mean={snapshot['mean_ms']:.2f}ms p99={snapshot['p99_ms']:.2f}ms"
            for name, snapshot in stages.items() if "mean_ms" in snapshot
        ))
        batch_size = stages["batch_size"]
        queue_depth = stages["queue_depth"]
        print(
            f"    natural batching      "
            f"batch p50={batch_size['p50']:.0f} max={batch_size['max']:.0f} "
            f"queue p99={queue_depth['p99']:.0f}"
        )
        print(
            f"    coalescing            hits={service_stats['coalesced_hits']} "
            f"(identical in-flight requests shared one model pass)"
        )

        print("\n[5] Tracing the slowest request of the run...")
        # Every response carried its trace id in the X-Repro-Trace header;
        # the load report kept the ids of the slowest requests, and the
        # server's debug plane can replay where each one spent its time.
        slowest = report.slow_traces[0]
        print(
            f"    slowest request       {slowest['latency_ms']:.2f}ms "
            f"trace_id={slowest['trace_id']}"
        )
        status, trace = call(
            handle.port, "GET", f"/debug/traces/{slowest['trace_id']}"
        )
        if status == 200:
            for span in trace["spans"]:
                indent = "  " if span["parent_id"] else ""
                duration = span["duration_ms"] or 0.0
                print(
                    f"      {indent}{span['name']:<26} "
                    f"start={span['start_ms']:7.2f}ms dur={duration:7.2f}ms"
                )
        else:
            # Evicted from the bounded ring by later traffic — the listing
            # still shows what the store retained.
            _, listing = call(handle.port, "GET", "/debug/traces")
            print(f"    (trace evicted; store stats: {listing['stats']})")

        print("\n[6] Draining gracefully (finish in-flight, close the service)...")
        handle.stop()
        print("    drained.")


if __name__ == "__main__":
    main()
