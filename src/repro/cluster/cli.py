"""``repro-cluster`` — prefork a worker fleet behind one port.

The cluster counterpart of ``repro-serve``:

* ``repro-cluster --export-dir runs/export --workers 4`` serves the export
  from four worker processes sharing one port (``SO_REUSEPORT``; a
  consistent-hash balancer where the platform lacks it);
* ``repro-cluster --demo --workers 2`` trains the demo model **once** and
  serves it as ``cuisine@v1`` from two workers.

The supervisor's control address (``--control-port``) serves the fleet
view: merged ``/healthz`` and ``/metrics``, ``/workers``, ``/admin``
fan-out, and — guarded by ``--admin-token`` — ``POST /cluster/restart``
(rolling, zero-downtime) and ``POST /cluster/resize``.  ``--ready-file``
writes ``{host, port, control_port, pid, workers}`` once the fleet is
serving.  SIGTERM/SIGINT drain every worker gracefully before exit.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import logging
import os
import signal
import sys
from pathlib import Path

from repro.cluster.supervisor import ClusterSupervisor

logger = logging.getLogger("repro.cluster")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cluster",
        description="Serve repro model bundles from a prefork worker fleet.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--export-dir",
        help="experiment export directory the workers serve",
    )
    source.add_argument(
        "--demo",
        action="store_true",
        help="train a demo model once and serve it as cuisine@v1 from the fleet",
    )
    parser.add_argument("--workers", type=int, default=2, help="fleet size")
    parser.add_argument("--version", default="v1", help="version label for deployed bundles")
    parser.add_argument(
        "--route",
        help="serve a single-bundle --export-dir under this route name",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8000, help="public data port (0 = ephemeral)"
    )
    parser.add_argument(
        "--control-port",
        type=int,
        default=0,
        help="supervisor control port for fleet health/metrics/admin "
        "(0 binds an ephemeral port, see --ready-file)",
    )
    parser.add_argument(
        "--mode",
        choices=("auto", "reuseport", "balancer"),
        default="auto",
        help="how the fleet shares the public port (auto: reuseport when "
        "the platform supports it, balancer otherwise)",
    )
    parser.add_argument(
        "--admin-token",
        default=os.environ.get("REPRO_ADMIN_TOKEN"),
        help="enable /admin fan-out and /cluster verbs guarded by this token "
        "(default: $REPRO_ADMIN_TOKEN; unset disables them)",
    )
    parser.add_argument(
        "--no-mmap-bundles",
        dest="mmap_bundles",
        action="store_false",
        help="load a private in-memory copy of the bundles per worker "
        "instead of memory-mapping one shared extracted copy",
    )
    parser.add_argument("--cache-size", type=int, help="per-worker result-cache entries")
    parser.add_argument(
        "--max-batch-size",
        type=int,
        help="per-worker micro-batch size cap",
    )
    parser.add_argument("--max-inflight", type=int)
    parser.add_argument(
        "--service-time",
        type=float,
        default=0.0,
        help="benchmark hook: synthetic per-pass service time, forwarded to "
        "every worker",
    )
    parser.add_argument("--drain-timeout", type=float, default=30.0)
    parser.add_argument(
        "--trace-sample",
        type=float,
        default=1.0,
        help="head-sampling rate for request tracing, forwarded to every "
        "worker and to the balancer (slow/error traces always kept)",
    )
    parser.add_argument(
        "--trace-slow-ms",
        type=float,
        default=250.0,
        help="latency threshold (ms) above which a trace is always kept",
    )
    parser.add_argument(
        "--trace-seed",
        type=int,
        default=0,
        help="seed of the deterministic trace-id / head-sampling hash",
    )
    parser.add_argument(
        "--no-trace",
        action="store_true",
        help="disable request tracing across the fleet",
    )
    parser.add_argument("--demo-scale", type=float, default=0.004)
    parser.add_argument("--demo-seed", type=int, default=11)
    parser.add_argument(
        "--ready-file",
        help="write {host, port, control_port, pid, workers} JSON here once "
        "the fleet is serving",
    )
    parser.add_argument("--log-level", default="INFO")
    return parser


async def _run(supervisor: ClusterSupervisor, ready_file: str | None) -> None:
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, supervisor.request_stop)
        except NotImplementedError:  # non-POSIX event loops
            pass

    def announce() -> None:
        print(
            f"repro-cluster: {len(supervisor._workers)} workers on "
            f"http://{supervisor.host}:{supervisor.port} "
            f"(control http://{supervisor.host}:{supervisor.control_port})",
            flush=True,
        )
        if ready_file:
            Path(ready_file).write_text(
                json.dumps(
                    {
                        "host": supervisor.host,
                        "port": supervisor.port,
                        "control_port": supervisor.control_port,
                        "pid": os.getpid(),
                        "workers": len(supervisor._workers),
                    }
                )
            )

    await supervisor.serve(ready=announce)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=getattr(logging, args.log_level.upper(), logging.INFO),
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    supervisor = ClusterSupervisor(
        workers=args.workers,
        host=args.host,
        port=args.port,
        control_port=args.control_port,
        export_dir=args.export_dir,
        demo=args.demo,
        demo_scale=args.demo_scale,
        demo_seed=args.demo_seed,
        route=args.route,
        version=args.version,
        admin_token=args.admin_token,
        mode=args.mode,
        mmap_bundles=args.mmap_bundles,
        cache_size=args.cache_size,
        max_batch_size=args.max_batch_size,
        service_time=args.service_time,
        max_inflight=args.max_inflight,
        drain_timeout=args.drain_timeout,
        log_level=args.log_level,
        trace_sample=None if args.no_trace else args.trace_sample,
        trace_slow_ms=args.trace_slow_ms,
        trace_seed=args.trace_seed,
    )
    try:
        asyncio.run(_run(supervisor, args.ready_file))
    except KeyboardInterrupt:
        pass
    print("repro-cluster drained cleanly", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
