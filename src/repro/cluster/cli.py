"""``repro-cluster`` — prefork a worker fleet behind one port.

The cluster counterpart of ``repro-serve``:

* ``repro-cluster --export-dir runs/export --workers 4`` serves the export
  from four worker processes sharing one port (``SO_REUSEPORT``; a
  consistent-hash balancer where the platform lacks it);
* ``repro-cluster --demo --workers 2`` trains the demo model **once** and
  serves it as ``cuisine@v1`` from two workers.

It parses the flags it shares with ``repro-serve`` (what to serve, where,
``--admin-token``, ``--log-level``) from the same declaration, and adds only
``--workers``, ``--mode``, ``--control-port`` and ``--no-mmap-bundles``.
Every other ``repro-serve`` flag (``--cache-size``, ``--max-batch-items``,
the trace flags, ...) is a worker tuning flag: it is forwarded verbatim to
every worker, after one parse in the supervisor that rejects a malformed or
unknown flag before any worker starts.

The supervisor's control address (``--control-port``) serves the fleet
view: merged ``/healthz`` and ``/metrics``, ``/workers``, ``/admin``
fan-out, and — guarded by ``--admin-token`` — ``POST /cluster/restart``
(rolling, zero-downtime) and ``POST /cluster/resize``.  ``--ready-file``
writes ``{host, port, control_port, pid, workers}`` once the fleet is
serving.  SIGTERM/SIGINT drain every worker gracefully before exit.
"""

from __future__ import annotations

import argparse
import sys
import textwrap

from repro.cluster.supervisor import ClusterSupervisor
from repro.server.cli import (
    add_shared_arguments,
    configure_logging,
    run_until_signal,
    tuning_flags,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cluster",
        description="Serve repro model bundles from a prefork worker fleet.",
        # A prefix of one of its own flags must not swallow a worker flag.
        allow_abbrev=False,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=textwrap.fill(
            "Every other repro-serve flag is a worker tuning flag, forwarded "
            f"verbatim to each worker: {', '.join(tuning_flags())} (see "
            "repro-serve --help).",
            break_on_hyphens=False,
        ),
    )
    add_shared_arguments(parser)
    parser.add_argument("--workers", type=int, default=2, help="fleet size")
    parser.add_argument(
        "--mode",
        choices=("auto", "reuseport", "balancer"),
        default="auto",
        help="how the fleet shares the public port (auto: reuseport when "
        "the platform supports it, balancer otherwise)",
    )
    parser.add_argument(
        "--control-port",
        type=int,
        default=0,
        help="supervisor control port for fleet health/metrics/admin "
        "(0 binds an ephemeral port, see --ready-file)",
    )
    parser.add_argument(
        "--no-mmap-bundles",
        dest="mmap_bundles",
        action="store_false",
        help="load a private in-memory copy of the bundles per worker "
        "instead of memory-mapping one shared extracted copy",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, worker_args = parser.parse_known_args(argv)
    try:
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
            worker_args=["--log-level", args.log_level, *worker_args],
        )
    except ValueError as exc:
        parser.error(str(exc))
    configure_logging(args.log_level)

    def announce() -> tuple[str, dict]:
        workers = len(supervisor._workers)
        return (
            f"repro-cluster: {workers} workers on "
            f"http://{supervisor.host}:{supervisor.port} "
            f"(control http://{supervisor.host}:{supervisor.control_port})",
            {
                "host": supervisor.host,
                "port": supervisor.port,
                "control_port": supervisor.control_port,
                "workers": workers,
            },
        )

    run_until_signal(supervisor, args.ready_file, announce)
    print("repro-cluster drained cleanly", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
