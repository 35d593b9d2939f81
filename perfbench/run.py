"""The repository's serving benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout.  The program under test is the shipped
``repro-serve`` in its own process with its shipped defaults (5 ms batch
window, 100% request-trace head sampling, 2048-entry result cache).  This
process only generates load, over at most ``nproc`` keep-alive
connections, and checks every response against an in-process reference
computed from the same bundle after the timed phases.

Workloads (``perfbench/README.md`` says why each exists):

* ``online-miss``  -- logreg; open-loop Poisson single-sequence requests at
  100 rps, every payload a distinct unseen sequence; then a rate search.
* ``bulk-roberta`` -- roberta; a closed loop on one connection sending
  batches of 32 distinct unseen sequences (the explicit-batch path).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the timed
phase untraced and then under ``traced_server.py`` and prints the
per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

import numpy as np

from fixture import ROOT, SRC
from session import WORKLOADS, Session

#: Share of an online run spent at the fixed rate; the rest is the rate
#: search, on the last set-up's server.
FIXED_SHARE = 0.75
SETUP_REPEATS = 3


def run_untraced(session: Session, seconds: float):
    """End-to-end metrics over several full set-ups.

    Each set-up's server answers an equal share of the measured phase, and
    the latencies of all of them are pooled: a run then reports on several
    server processes, not on the luck of one.
    """
    closed = session.workload.closed
    measured = seconds if closed else seconds * FIXED_SHARE
    setups, rss, problems, phases = [], [], [], []
    for index in range(SETUP_REPEATS):
        server, timings = session.set_up(index)
        try:
            setups.append(timings["total_s"])
            phases.append(session.measure(server, measured / SETUP_REPEATS))
            health = server.health()
            rss.append(health["process"]["peak_rss_bytes"] / 2**20)
            if index == SETUP_REPEATS - 1 and not closed:
                fixed = [record for phase in phases for record in phase.records]
                max_rate, resolution = session.rate_search(server, fixed, seconds - measured)
                print(f"  highest passing rate {max_rate:.1f} rps, resolved to {resolution:.1%}")
                health = server.health()
            problems += session.self_check(health)
        finally:
            server.stop()
    print("set-up s: " + ", ".join(f"{s:.3f}" for s in setups))
    tally = session.verify()
    latencies = [latency for phase in phases for latency in phase.latencies]
    elapsed = sum(phase.elapsed for phase in phases)
    if closed:
        # One waiting caller on one connection: the highest rate it sustains.
        max_rate = sum(len(phase.records) for phase in phases) / elapsed
    print(f"  error_ratio {tally.error_ratio:.4f} ({tally.failed} of {tally.attempted}: "
          f"{tally.non_200} non-200, {tally.transport} transport, {tally.wrong} wrong)")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "p50_ms": (float(np.percentile(latencies, 50)), "ms"),
        "max_rate_rps": (max_rate, "req/s"),
        "sequences_per_s": (sum(sum(phase.correct) for phase in phases) * session.batch / elapsed, "seq/s"),
        "server_rss_mib": (statistics.median(rss), "MiB"),
    }
    return metrics, problems, tally


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Serving benchmark of repro-serve.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "server" / "cli.py").is_file():
        print(f"no repro sources under {SRC}: run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cache_dir = ROOT / ".perfbench"
    cache_dir.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=cache_dir))
    try:
        session = Session(args.workload, args.seed, workdir)
        if args.trace:
            from traced import run_traced

            metrics, problems, tally = run_traced(session, args.seconds)
        else:
            metrics, problems, tally = run_untraced(session, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for problem in problems:
        print(problem, file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
