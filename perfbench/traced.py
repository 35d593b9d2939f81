"""The ``--trace 1`` run: the same phase untraced, then traced, per-layer metrics.

Set-up runs once and its steps are timed one by one.  The phase then runs
against the shipped server and, with the same payloads and schedule,
against the same bundle under ``traced_server.py``.  The p50 difference is
the cost of the benchmark's own spans.
"""

from __future__ import annotations

import json
import statistics

import numpy as np

from attribution import PATH, blocking_paths, per_item_ms
from session import Session, cache_hit_ratio
from stats import tail


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def run_traced(session: Session, seconds: float):
    server, timings = session.set_up(0)
    try:
        untraced = session.measure(server, seconds / 2)
    finally:
        server.stop()
    span_file = session.workdir / "spans.json"
    server = session.traced_server(span_file)
    try:
        traced = session.measure(server, seconds / 2, first=untraced.first)
        health = server.health()
    finally:
        server.stop()
    spans = json.loads(span_file.read_text())["spans"]
    tally = session.verify()

    ok = [record for record in traced.records if record.status == 200]
    paths = blocking_paths(spans, ok)
    window = (min(r.due for r in traced.records), max(r.done for r in traced.records))
    layers = per_item_ms(spans, window)
    latency = _mean(path["latency"] for path in paths)
    blocking = _mean(sum(path[name] for name in PATH) for path in paths)
    print(f"blocking path of {len(paths)} of {len(ok)} traced requests (mean ms):")
    for name in PATH:
        print(f"  {name:18s} {_mean(path[name] for path in paths):8.3f}")
    print(f"  {'unattributed':18s} {latency - blocking:8.3f} of {latency:.3f} client latency")

    service = health["service"]
    store = service["store"]
    store_hits = sum(store["hits"].values()) + sum(store["disk_hits"].values())
    store_lookups = store_hits + sum(store["misses"].values())
    counters = health["server"]["counters"]
    shed = counters.get("shed", 0)
    bundle_load = [end - start for name, start, end, *_ in spans if name == "setup.bundle_load"]
    percentile, p99 = tail(untraced.latencies)
    print(f"p99_ms is p{percentile:g} of {len(untraced.records)} untraced samples")
    metrics = {
        "loadgen.late_p99_ms": (tail([r.late_ms for r in untraced.records])[1], "ms"),
        "loadgen.connections": (session.connections, "count"),
        "p99_ms": (p99, "ms"),
        "server.parse_ms": (_mean(p["server.parse"] for p in paths), "ms"),
        "server.serialize_ms": (_mean(p["server.serialize"] for p in paths), "ms"),
        "server.self_ms": (_mean(p["server.self"] for p in paths), "ms"),
        "server.shed_ratio": (_ratio(shed, counters.get("predict_requests", 0) + shed), "ratio"),
        "gateway.self_ms": (_mean(p["gateway.self"] for p in paths), "ms"),
        "service.queue_wait_ms": (_mean(p["service.self"] for p in paths), "ms"),
        "service.cache_hit_ratio": (cache_hit_ratio(health), "ratio"),
        "service.coalesced_ratio": (_ratio(service["coalesced_hits"], service["requests"]), "ratio"),
        "service.mean_batch_size": (service["mean_batch_size"], "count"),
        "service.batches": (service["batches_flushed"], "count"),
        "featurize.ms_per_seq": (_ratio(layers["featurize"][0], layers["featurize"][1]), "ms"),
        "featurize.store_hit_ratio": (_ratio(store_hits, store_lookups), "ratio"),
        "encode.ms_per_seq": (_ratio(layers["encode"][0], layers["encode"][1]), "ms"),
        "model.ms_per_seq": (_ratio(layers["model"][0], layers["model"][1]), "ms"),
        "model.rows_per_pass": (_ratio(layers["model"][1], layers["model"][2]), "count"),
        "trace.ms_per_request": (_mean(p["trace"] for p in paths), "ms"),
        "trace.kept": (health["trace"]["kept"], "count"),
        "setup.corpus_s": (timings["corpus_s"], "s"),
        "setup.train_s": (timings["train_s"], "s"),
        "setup.export_s": (timings["export_s"], "s"),
        "setup.bundle_load_s": (_mean(bundle_load), "s"),
        "setup.server_ready_s": (timings["server_ready_s"], "s"),
        "setup.warmup_s": (timings["warmup_s"], "s"),
        "tracing.overhead_p50_ms": (
            float(np.percentile(traced.latencies, 50) - np.percentile(untraced.latencies, 50)),
            "ms",
        ),
        "path.unattributed_ms": (latency - blocking, "ms"),
        "path.attributed_share": (_ratio(blocking, latency), "ratio"),
        "error_ratio": (tally.error_ratio, "ratio"),
    }
    return metrics, session.self_check(health), tally
