"""``repro-serve`` — stand up the HTTP serving frontier from the command line.

Two ways to get models behind the server:

* ``repro-serve --export-dir runs/export`` deploys every bundle under an
  experiment export directory (one route per bundle name, all at
  ``--version``), exactly like ``ModelGateway.deploy_export_dir``;
* ``repro-serve --demo`` trains a small logistic-regression model on a
  synthetic corpus in-process and deploys it as ``cuisine@v1`` — zero
  artifacts needed, the smoke-test and quick-start path.

The process serves until SIGTERM/SIGINT, then drains gracefully: the
listener closes, in-flight requests finish, and the gateway (and its
prediction service) shut down before exit.  ``--ready-file`` writes a small
JSON document (host, port, pid) once the socket is bound, so scripts can
start the server on an ephemeral port (``--port 0``) and discover where it
landed.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import logging
import os
import signal
import socket
import sys
import tempfile
import time
from pathlib import Path

from repro.gateway.gateway import ModelGateway
from repro.server.app import ModelServer

logger = logging.getLogger("repro.server")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve repro model bundles over HTTP (asyncio, stdlib-only).",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--export-dir",
        help="experiment export directory; every bundle becomes a route",
    )
    source.add_argument(
        "--demo",
        action="store_true",
        help="train a small demo model in-process and serve it as cuisine@v1",
    )
    parser.add_argument("--version", default="v1", help="version label for deployed bundles")
    parser.add_argument(
        "--route",
        help="serve a single-bundle --export-dir under this route name "
        "instead of the bundle's model name",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8000, help="0 binds an ephemeral port")
    parser.add_argument(
        "--socket-fd",
        type=int,
        help="serve on this inherited listening socket instead of binding "
        "--host/--port (cluster worker mode; the fd must be a bound, "
        "listening TCP socket)",
    )
    parser.add_argument(
        "--control-port",
        type=int,
        help="also serve on a private host:control-port listener (0 binds an "
        "ephemeral port) so this process stays individually addressable "
        "behind a shared SO_REUSEPORT data port",
    )
    parser.add_argument(
        "--worker-id",
        type=int,
        help="fleet index reported in /healthz and /metrics server stats",
    )
    parser.add_argument(
        "--mmap-bundles",
        action="store_true",
        help="memory-map bundle arrays (read-only, page-shared across "
        "worker processes) instead of copying them per process",
    )
    parser.add_argument(
        "--cache-size",
        type=int,
        help="prediction result-cache entries (0 disables the cache)",
    )
    parser.add_argument(
        "--max-batch-size",
        type=int,
        help="most requests one micro-batch flush takes; the worker flushes "
        "at once with whatever is queued and never waits for a batch to fill",
    )
    parser.add_argument(
        "--service-time",
        type=float,
        default=0.0,
        help="benchmark hook: add this many seconds of synthetic work to "
        "every model pass, pinning per-process capacity independent of "
        "host CPU count",
    )
    parser.add_argument(
        "--admin-token",
        default=os.environ.get("REPRO_ADMIN_TOKEN"),
        help="enable /admin endpoints guarded by this token "
        "(default: $REPRO_ADMIN_TOKEN; unset disables admin)",
    )
    parser.add_argument("--max-inflight", type=int, default=64)
    parser.add_argument("--max-batch-items", type=int, default=256)
    parser.add_argument("--max-body-bytes", type=int, default=1048576)
    parser.add_argument("--drain-timeout", type=float, default=30.0)
    parser.add_argument(
        "--trace-sample",
        type=float,
        default=1.0,
        help="head-sampling rate for request tracing in [0, 1]; slow and "
        "error traces are always kept regardless (tail sampling)",
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
        help="disable request tracing entirely (requests pay only an "
        "is-enabled check; /debug/traces stays empty)",
    )
    parser.add_argument("--demo-scale", type=float, default=0.004)
    parser.add_argument("--demo-seed", type=int, default=11)
    parser.add_argument(
        "--ready-file",
        help="write {host, port, pid} JSON here once the socket is bound",
    )
    parser.add_argument("--log-level", default="INFO")
    return parser


def train_demo_export(scale: float, seed: int, workdir: str | Path) -> Path:
    """Train the demo logreg into *workdir*; returns the bundle directory.

    Shared by ``repro-serve --demo`` (one process, trains in-line) and
    ``repro-cluster --demo`` (the supervisor trains **once**, then every
    worker loads the same immutable bundle).
    """
    from repro.core.experiment import ExperimentConfig, ExperimentRunner
    from repro.data import generate_recipedb

    logger.info("demo mode: generating corpus (scale=%s) and training logreg", scale)
    corpus = generate_recipedb(scale=scale, seed=seed)
    config = ExperimentConfig(
        models=("logreg",),
        seed=seed,
        statistical_kwargs={"logreg": {"max_iter": 40}},
        export_dir=str(workdir),
    )
    ExperimentRunner(config, corpus=corpus).run()
    return Path(workdir) / "logreg"


def _demo_gateway(scale: float, seed: int, workdir: str, **gateway_kwargs) -> ModelGateway:
    """A gateway serving one quickly-trained logreg as ``cuisine@v1``."""
    bundle = train_demo_export(scale, seed, workdir)
    gateway = ModelGateway(**gateway_kwargs)
    gateway.deploy("cuisine", "v1", bundle)
    return gateway


def _export_gateway(
    export_dir: str, version: str, route: str | None = None, **gateway_kwargs
) -> ModelGateway:
    gateway = ModelGateway(**gateway_kwargs)
    if route is not None:
        from repro.serving.bundle import discover_bundles

        bundles = discover_bundles(export_dir)
        if len(bundles) != 1:
            gateway.close()
            raise SystemExit(
                f"--route needs exactly one bundle under {export_dir!r}, "
                f"found {sorted(bundles)}"
            )
        ((name, path),) = bundles.items()
        deployment = gateway.deploy(route, version, path)
        logger.info("deployed %s@%s from %s", route, deployment.version, path)
        return gateway
    deployed = gateway.deploy_export_dir(export_dir, version)
    if not deployed:
        gateway.close()
        raise SystemExit(f"no bundles found under {export_dir!r}")
    for route_name, deployment in sorted(deployed.items()):
        logger.info(
            "deployed %s@%s from %s", route_name, deployment.version, deployment.source
        )
    return gateway


def _inject_service_time(gateway: ModelGateway, seconds: float) -> None:
    """Pin every deployed model's pass time to at least *seconds*.

    A benchmark hook (``--service-time``): scale-out benchmarks need worker
    capacity bounded by a known per-request service time, not by how many
    host cores the CI machine happens to have.  Every model pass funnels
    through ``predict_proba_features``, so the sleep applies exactly once
    per pass.
    """
    registry = gateway.registry
    for route in registry.routes():
        for version in registry.versions(route):
            model = registry.resolve(route, version).model
            original = model.predict_proba_features

            def slowed(features, *, _original=original):
                time.sleep(seconds)
                return _original(features)

            model.predict_proba_features = slowed


async def _serve(server: ModelServer, ready_file: str | None) -> None:
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, server.request_stop)
        except NotImplementedError:  # non-POSIX event loops
            pass

    def announce() -> None:
        print(f"repro-serve listening on http://{server.host}:{server.port}", flush=True)
        if ready_file:
            payload = {"host": server.host, "port": server.port, "pid": os.getpid()}
            if server.control_port is not None:
                payload["control_port"] = server.control_port
            if server.worker_id is not None:
                payload["worker_id"] = server.worker_id
            Path(ready_file).write_text(json.dumps(payload))

    await server.serve(ready=announce)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=getattr(logging, args.log_level.upper(), logging.INFO),
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    gateway_kwargs: dict = {}
    if args.mmap_bundles:
        gateway_kwargs["mmap_bundles"] = True
    if args.cache_size is not None:
        gateway_kwargs["cache_size"] = args.cache_size
    if args.max_batch_size is not None:
        gateway_kwargs["max_batch_size"] = args.max_batch_size
    sock = None
    if args.socket_fd is not None:
        sock = socket.socket(fileno=args.socket_fd)
    with tempfile.TemporaryDirectory(prefix="repro-serve-demo-") as workdir:
        if args.demo:
            gateway = _demo_gateway(
                args.demo_scale, args.demo_seed, workdir, **gateway_kwargs
            )
        else:
            gateway = _export_gateway(
                args.export_dir, args.version, args.route, **gateway_kwargs
            )
        if args.service_time > 0:
            _inject_service_time(gateway, args.service_time)
        server = ModelServer(
            gateway,
            host=args.host,
            port=args.port,
            sock=sock,
            control_port=args.control_port,
            worker_id=args.worker_id,
            admin_token=args.admin_token,
            max_inflight=args.max_inflight,
            max_batch_items=args.max_batch_items,
            max_body_bytes=args.max_body_bytes,
            drain_timeout=args.drain_timeout,
            owns_gateway=True,
            trace_sample=None if args.no_trace else args.trace_sample,
            trace_slow_ms=args.trace_slow_ms,
            trace_seed=args.trace_seed,
        )
        try:
            asyncio.run(_serve(server, args.ready_file))
        except KeyboardInterrupt:
            pass
    print("repro-serve drained cleanly", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
