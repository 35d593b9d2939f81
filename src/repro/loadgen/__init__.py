"""Seeded traffic generation against the serving frontier.

``repro.loadgen`` is the measurement half of the serving stack: it replays
deterministic synthetic recipe traffic against a live ``repro.server``
process (:class:`HTTPTarget`) or directly against an in-process
:class:`~repro.gateway.ModelGateway` (:class:`GatewayTarget`, the
no-network baseline), in open-loop (seeded Poisson arrivals at a target
rate) or closed-loop (fixed-concurrency) mode, and reports throughput,
p50/p95/p99 latency and error/shed counts as a JSON :class:`LoadReport` —
the artifact that seeds the ``BENCH_*.json`` perf trajectory.

* :mod:`repro.loadgen.workload` — seeded schedules: key distributions
  (uniform / Zipf hot keys), exponential inter-arrival times;
* :mod:`repro.loadgen.client` — minimal asyncio HTTP/1.1 client with a
  keep-alive connection pool;
* :mod:`repro.loadgen.harness` — open/closed-loop runners, targets and
  the report.
"""

from repro.loadgen.harness import (
    GatewayTarget,
    HTTPTarget,
    LoadReport,
    latency_summary,
    run_closed_loop,
    run_open_loop,
)
from repro.loadgen.workload import (
    ARRIVAL_SHAPES,
    KEY_DISTRIBUTIONS,
    SEQUENCE_DISTRIBUTIONS,
    Workload,
    WorkloadRequest,
    build_workload,
    zipf_weights,
)

__all__ = [
    "ARRIVAL_SHAPES",
    "GatewayTarget",
    "HTTPTarget",
    "KEY_DISTRIBUTIONS",
    "SEQUENCE_DISTRIBUTIONS",
    "LoadReport",
    "Workload",
    "WorkloadRequest",
    "build_workload",
    "latency_summary",
    "run_closed_loop",
    "run_open_loop",
    "zipf_weights",
]
