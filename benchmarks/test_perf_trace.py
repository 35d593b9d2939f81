"""Tracing-overhead benchmarks (CI smoke subset).

Two properties the tracing tentpole promises are held here, measured
against real servers whose model service time is pinned (an artificial
per-pass sleep), so the comparison measures the instrumentation, not
scheduler noise:

* **Head-sampled tracing is cheap** — at a 1% sample rate, p50 latency
  stays within a few percent of the same server with tracing disabled
  entirely (``--no-trace``, where every request pays only an ``is None``
  check).  The two servers run as ``repro-serve`` processes of their own,
  so threads left behind by earlier tests in this process cannot tax one
  of them more than the other.  The overhead is the median over several
  pairs of request blocks, each pair served to one sequential client that
  alternates between the two servers request by request.
* **Tail sampling is total** — with the head sampler effectively off
  (``trace_sample=0.0``), every slow request and every erroring request is
  still captured and retrievable from ``/debug/traces/<id>``.

The final test writes ``BENCH_trace.json`` at the repo root.
"""

from __future__ import annotations

import http.client
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

from benchmarks.bench_config import BENCH_SEED
from repro.core.experiment import ExperimentConfig, ExperimentRunner
from repro.data.generator import GeneratorConfig, RecipeDBGenerator
from repro.gateway import ModelGateway
from repro.loadgen import HTTPTarget, build_workload, run_closed_loop
from repro.server import ModelServer
from repro.serving import ModelBundle

MODEL = "logreg"
PINNED_SLEEP = 0.005  # seconds of artificial model service time per pass
BENCH_ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_trace.json"

RESULTS: dict[str, dict] = {}


@pytest.fixture(scope="module")
def trace_corpus():
    return RecipeDBGenerator(GeneratorConfig(scale=0.006, seed=BENCH_SEED)).generate()


@pytest.fixture(scope="module")
def export_dir(trace_corpus, tmp_path_factory):
    path = tmp_path_factory.mktemp("trace-bundles")
    config = ExperimentConfig(
        models=(MODEL,),
        seed=BENCH_SEED,
        statistical_kwargs={MODEL: {"max_iter": 40}},
        export_dir=str(path),
    )
    ExperimentRunner(config, corpus=trace_corpus).run()
    return path


@pytest.fixture(scope="module")
def request_pool(trace_corpus):
    return [recipe.sequence for recipe in trace_corpus.recipes[:40]]


def _pinned_gateway(export_dir, sleep_s: float = PINNED_SLEEP) -> ModelGateway:
    """A gateway whose model pays a fixed per-pass sleep (cache off, so
    every request does the pinned work).  Every model pass funnels through
    ``predict_proba_features``."""
    model = ModelBundle.load(export_dir / MODEL).model
    inner = model.predict_proba_features

    def pinned(features):
        time.sleep(sleep_s)
        return inner(features)

    model.predict_proba_features = pinned
    gateway = ModelGateway(cache_size=0)
    gateway.deploy("cuisine", "v1", model)
    return gateway


def _spawn_server(export_dir, workdir: Path, trace_args: list[str]):
    """Start ``repro-serve`` on the bundle in its own process, the model pass
    pinned by ``--service-time``; returns ``(process, port)``."""
    import repro

    env = os.environ.copy()
    src_root = str(Path(repro.__file__).resolve().parents[1])
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src_root + (os.pathsep + existing if existing else "")
    ready = workdir / "ready.json"
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.server.cli",
            "--export-dir", str(export_dir), "--route", "cuisine",
            "--port", "0", "--ready-file", str(ready),
            "--cache-size", "0", "--service-time", str(PINNED_SLEEP),
            "--log-level", "WARNING", *trace_args,
        ],
        env=env,
        stdout=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 60.0
    while True:
        try:
            return process, json.loads(ready.read_text())["port"]
        except (FileNotFoundError, json.JSONDecodeError, KeyError):
            pass
        if process.poll() is not None or time.monotonic() > deadline:
            process.kill()
            raise RuntimeError(f"repro-serve {trace_args} never became ready")
        time.sleep(0.05)


def _timed_predict(connection, request_pool, index: int) -> float:
    """One predict over a keep-alive connection; returns its latency in ms."""
    sequence = list(request_pool[index % len(request_pool)])
    body = json.dumps({"sequence": sequence, "key": f"user-{index % 80}"})
    start = time.perf_counter()
    connection.request("POST", "/routes/cuisine/predict", body=body)
    response = connection.getresponse()
    response.read()
    assert response.status == 200
    return 1000.0 * (time.perf_counter() - start)


#: Interleaved A/B pairs behind the tracing-overhead estimate, and the
#: requests each config answers per pair.
OVERHEAD_PAIRS = 7
PAIR_REQUESTS = 80


@pytest.mark.quick
def test_perf_trace_overhead_at_one_percent_sampling(
    export_dir, request_pool, tmp_path_factory
):
    # Two servers, tracing off and 1%-sampled, answer one sequential client
    # that alternates between them request by request (the order flipped
    # every request), so host drift hits both configs alike.  Each pair of
    # request blocks yields one relative p50 overhead; the median over the
    # pairs shrugs off a hiccup in any single block.
    configs = {"disabled": ["--no-trace"], "sampled": ["--trace-sample", "0.01"]}
    processes: list[subprocess.Popen] = []
    connections: dict[str, http.client.HTTPConnection] = {}
    p50s: dict[str, list[float]] = {name: [] for name in configs}
    try:
        for name, trace_args in configs.items():
            process, port = _spawn_server(
                export_dir, tmp_path_factory.mktemp(name), trace_args
            )
            processes.append(process)
            connections[name] = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        for index in range(40):  # warm both paths
            for connection in connections.values():
                _timed_predict(connection, request_pool, index)
        for pair in range(OVERHEAD_PAIRS):
            latencies: dict[str, list[float]] = {name: [] for name in configs}
            for step in range(PAIR_REQUESTS):
                order = ("disabled", "sampled") if step % 2 == 0 else ("sampled", "disabled")
                index = pair * PAIR_REQUESTS + step
                for name in order:
                    latencies[name].append(
                        _timed_predict(connections[name], request_pool, index)
                    )
            for name, samples in latencies.items():
                p50s[name].append(statistics.median(samples))
    finally:
        for connection in connections.values():
            connection.close()
        for process in processes:
            process.terminate()  # SIGTERM: drain and exit
            process.wait(timeout=30)
    overheads = [
        100.0 * (sampled - disabled) / disabled
        for disabled, sampled in zip(p50s["disabled"], p50s["sampled"])
    ]
    overhead_pct = statistics.median(overheads)
    # The bar from the tracing design: sampled-out requests pay only an id
    # check, so p50 at 1% head sampling stays within 5% of tracing-off.
    assert overhead_pct <= 5.0, (
        f"median 1%-sampled p50 overhead {overhead_pct:+.1f}% over "
        f"{OVERHEAD_PAIRS} pairs exceeds the 5% budget; per pair: "
        + ", ".join(f"{value:+.1f}%" for value in overheads)
    )
    RESULTS["overhead_1pct_head_sampling"] = {
        "pinned_service_time_ms": 1000.0 * PINNED_SLEEP,
        "p50_ms_disabled": statistics.median(p50s["disabled"]),
        "p50_ms_sampled_1pct": statistics.median(p50s["sampled"]),
        "p50_runs_disabled": p50s["disabled"],
        "p50_runs_sampled_1pct": p50s["sampled"],
        "overhead_pct_per_pair": overheads,
        "overhead_pct": overhead_pct,
        "budget_pct": 5.0,
    }


@pytest.mark.quick
def test_perf_tail_sampling_captures_slow_and_errors(export_dir, request_pool):
    # Head sampling off entirely; everything kept must come from the tail
    # verdicts. With a 1ms slow threshold against a 5ms pinned model, every
    # OK request is "slow" — all of them must be retrievable.
    server = ModelServer(
        _pinned_gateway(export_dir),
        max_inflight=64,
        trace_sample=0.0,
        trace_slow_ms=1.0,
    )
    handle = server.start_in_thread()
    try:
        target = HTTPTarget("127.0.0.1", handle.port, "cuisine")
        workload = build_workload(request_pool, n_requests=30, seed=BENCH_SEED)
        report = run_closed_loop(target, workload, concurrency=2)
        assert report.ok == 30 and report.errors == 0
        assert len(report.slow_traces) == 5  # ids of the slowest requests

        connection = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=30)
        try:
            connection.request("GET", "/debug/traces")
            stats = json.loads(connection.getresponse().read())["stats"]
            assert stats["kept_slow"] == 30, stats
            assert stats["kept_head"] == 0, stats
            # Every slow id the load report surfaced resolves to a stored
            # trace with the full span chain.
            for entry in report.slow_traces:
                connection.request("GET", f"/debug/traces/{entry['trace_id']}")
                response = connection.getresponse()
                trace = json.loads(response.read())
                assert response.status == 200
                assert trace["slow"] is True
                assert "service.predict" in [s["name"] for s in trace["spans"]]
            # An erroring request is captured too, sample rate regardless.
            connection.request(
                "POST",
                "/routes/missing/predict",
                body=json.dumps({"sequence": ["x"], "key": "oops"}),
            )
            response = connection.getresponse()
            response.read()
            assert response.status == 404
            error_id = dict(
                (k.lower(), v) for k, v in response.getheaders()
            )["x-repro-trace"]
            connection.request("GET", f"/debug/traces/{error_id}")
            response = connection.getresponse()
            trace = json.loads(response.read())
            assert response.status == 200 and trace["error"] is True
        finally:
            connection.close()
        RESULTS["tail_sampling_total_capture"] = {
            "head_sample": 0.0,
            "slow_ms_threshold": 1.0,
            "requests": 30,
            "kept_slow": stats["kept_slow"],
            "error_capture": True,
            "report": report.as_dict(),
        }
    finally:
        handle.stop()


@pytest.mark.quick
def test_emit_bench_trace_artifact():
    artifact = {
        "benchmark": "trace",
        "seed": BENCH_SEED,
        "corpus_scale": 0.006,
        "model": MODEL,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "results": RESULTS,
    }
    BENCH_ARTIFACT.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    assert BENCH_ARTIFACT.exists()
    emitted = json.loads(BENCH_ARTIFACT.read_text())
    assert "overhead_1pct_head_sampling" in emitted["results"]
