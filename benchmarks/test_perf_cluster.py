"""Cluster scale-out performance benchmarks (CI smoke subset).

Two load-bearing properties of the multi-process tier are held here:

* **Preforking multiplies throughput** — with per-worker capacity pinned
  by a synthetic service time (``--service-time``, so the result does not
  depend on how many cores the CI machine has), a four-worker fleet must
  sustain at least 2.5x the throughput of a single worker on the same
  port.  The result cache is off and micro-batching is disabled
  (``max_batch_size=1``) so every request really costs one service-time
  pass.
* **Memory-mapped bundles are shared, and bitwise-identical** — N
  processes mapping one extracted bundle keep one physical copy of the
  arrays (measured as proportional-set-size via ``/proc/.../smaps_rollup``
  with all processes resident simultaneously), while full-copy loading
  pays the arrays per process; and both modes read the exact same bytes.

The final test writes ``BENCH_cluster.json`` at the repo root.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from benchmarks.bench_config import BENCH_SEED
from repro.cluster import ClusterSupervisor
from repro.core.experiment import ExperimentConfig, ExperimentRunner
from repro.data.generator import GeneratorConfig, RecipeDBGenerator
from repro.loadgen import HTTPTarget, build_workload, run_closed_loop
from repro.models.artifacts import extract_archive, write_bundle

MODEL = "logreg"
#: Synthetic per-pass service time pinning each worker's capacity (~50 rps).
SERVICE_TIME = 0.02
FLEET = 4
BENCH_ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_cluster.json"

#: Reports accumulated by the tests and emitted as BENCH_cluster.json.
RESULTS: dict[str, dict] = {}


@pytest.fixture(scope="module")
def cluster_corpus():
    return RecipeDBGenerator(GeneratorConfig(scale=0.006, seed=BENCH_SEED)).generate()


@pytest.fixture(scope="module")
def export_dir(cluster_corpus, tmp_path_factory):
    path = tmp_path_factory.mktemp("cluster-bundles")
    config = ExperimentConfig(
        models=(MODEL,),
        seed=BENCH_SEED,
        statistical_kwargs={MODEL: {"max_iter": 40}},
        export_dir=str(path),
    )
    ExperimentRunner(config, corpus=cluster_corpus).run()
    return path


@pytest.fixture(scope="module")
def request_pool(cluster_corpus):
    return [recipe.sequence for recipe in cluster_corpus.recipes[:40]]


def _fleet_report(export_dir, request_pool, workers, n_requests, workdir):
    """Closed-loop throughput of a *workers*-wide fleet, service-time pinned."""
    supervisor = ClusterSupervisor(
        workers=workers,
        export_dir=export_dir,
        route="cuisine",
        workdir=workdir,
        worker_args=[
            "--service-time", str(SERVICE_TIME),
            "--cache-size", "0",  # every request pays a real (pinned) model pass
            "--max-batch-size", "1",  # no micro-batching: capacity is 1/SERVICE_TIME each
            "--drain-timeout", "10.0",
        ],
    )
    handle = supervisor.start_in_thread()
    try:
        target = HTTPTarget(handle.host, handle.port, "cuisine")
        warm = build_workload(request_pool, n_requests=24, seed=1)
        run_closed_loop(target, warm, concurrency=8)
        workload = build_workload(
            request_pool,
            n_requests=n_requests,
            seed=BENCH_SEED,
            key_distribution="uniform",
            n_keys=100,
        )
        report = run_closed_loop(
            HTTPTarget(handle.host, handle.port, "cuisine"),
            workload,
            concurrency=24,
        )
    finally:
        handle.stop()
    return report


@pytest.mark.quick
def test_perf_fleet_throughput_scales(export_dir, request_pool, tmp_path_factory):
    single = _fleet_report(
        export_dir, request_pool, 1, 120, tmp_path_factory.mktemp("fleet-1")
    )
    quad = _fleet_report(
        export_dir, request_pool, FLEET, 360, tmp_path_factory.mktemp("fleet-4")
    )

    assert single.errors == 0 and quad.errors == 0
    assert single.shed == 0 and quad.shed == 0
    speedup = quad.throughput_rps / single.throughput_rps
    # Capacity is pinned at 1/SERVICE_TIME per worker, so the fleet must
    # scale close to linearly regardless of host core count.
    assert speedup >= 2.5, (
        f"{FLEET}-worker fleet only reached {speedup:.2f}x of one worker "
        f"({quad.throughput_rps:.0f} vs {single.throughput_rps:.0f} rps)"
    )
    RESULTS["fleet_throughput_scaling"] = {
        "service_time_ms": 1000.0 * SERVICE_TIME,
        "workers": FLEET,
        "single_worker": single.as_dict(),
        "fleet": quad.as_dict(),
        "speedup": speedup,
    }


# ----------------------------------------------------------------------
# shared-memory bundles
# ----------------------------------------------------------------------

#: Synthetic bundle arrays: big enough that per-process copies dominate
#: interpreter noise in the PSS accounting.
ARRAY_SHAPE = (2_000_000,)
ARRAY_COUNT = 3
ARRAY_BYTES = ARRAY_COUNT * ARRAY_SHAPE[0] * 8

_CHILD_SCRIPT = textwrap.dedent(
    """
    import json
    import sys

    import numpy as np

    from repro.models.artifacts import read_bundle


    def pss_kb() -> int:
        with open("/proc/self/smaps_rollup", encoding="ascii") as stream:
            for line in stream:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
        raise RuntimeError("no Pss line in smaps_rollup")


    def leaves(node):
        if isinstance(node, np.ndarray):
            yield node
        elif isinstance(node, dict):
            for value in node.values():
                yield from leaves(value)
        elif isinstance(node, (list, tuple)):
            for value in node:
                yield from leaves(value)


    path, mode = sys.argv[1], sys.argv[2]
    _, state = read_bundle(path, mmap=(mode == "mmap"))
    checksum = 0.0
    for array in leaves(state):
        checksum += float(array.sum())  # fault every page in
    print(json.dumps({"ready": True, "checksum": checksum}), flush=True)
    sys.stdin.readline()  # all siblings resident: now the PSS split is real
    print(json.dumps({"pss_kb": pss_kb()}), flush=True)
    """
)


def _measure_fleet_pss(bundle: Path, script: Path, mode: str, processes: int):
    """Mean per-process PSS of *processes* concurrent bundle loaders."""
    import repro

    env = os.environ.copy()
    src_root = str(Path(repro.__file__).resolve().parents[1])
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src_root + (os.pathsep + existing if existing else "")
    children = [
        subprocess.Popen(
            [sys.executable, str(script), str(bundle), mode],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        for _ in range(processes)
    ]
    try:
        checksums = [json.loads(child.stdout.readline())["checksum"] for child in children]
        for child in children:  # every loader is resident: sample the split
            child.stdin.write("go\n")
            child.stdin.flush()
        pss = [json.loads(child.stdout.readline())["pss_kb"] for child in children]
    finally:
        for child in children:
            child.stdin.close()
            child.wait(30)
    assert len(set(checksums)) == 1, "loaders disagreed on array content"
    return sum(pss) / len(pss), checksums[0]


@pytest.mark.quick
@pytest.mark.skipif(
    not Path("/proc/self/smaps_rollup").exists(),
    reason="PSS accounting needs /proc smaps_rollup (Linux)",
)
def test_perf_mmap_bundles_share_memory(tmp_path):
    rng = np.random.default_rng(BENCH_SEED)
    state = {
        f"weights_{index}": rng.standard_normal(ARRAY_SHAPE)
        for index in range(ARRAY_COUNT)
    }
    bundle = write_bundle(tmp_path / "big-bundle", {"model": "synthetic"}, state)
    # Extract once up front — the steady state every worker after the first
    # cold-start sees.  Concurrent cold extractors land byte-identical files
    # but may map different (atomically-replaced) inodes, which would defeat
    # the page-sharing this benchmark measures.
    manifest = json.loads((bundle / "manifest.json").read_text(encoding="utf-8"))
    extract_archive(bundle, manifest["arrays"])
    script = tmp_path / "load_and_report.py"
    script.write_text(_CHILD_SCRIPT, encoding="utf-8")

    copy_pss, copy_checksum = _measure_fleet_pss(bundle, script, "copy", FLEET)
    mmap_pss, mmap_checksum = _measure_fleet_pss(bundle, script, "mmap", FLEET)

    # Bitwise: both loading modes read the exact same array bytes.
    assert mmap_checksum == copy_checksum

    saved_bytes = (copy_pss - mmap_pss) * 1024
    # Full-copy loaders each pay the arrays privately; mmap loaders split
    # one resident copy FLEET ways.  Demand a conservative margin of the
    # ideal (1 - 1/FLEET) saving to stay robust against interpreter noise.
    assert saved_bytes > 0.4 * ARRAY_BYTES, (
        f"mmap loaders saved only {saved_bytes / 2**20:.1f} MiB per process "
        f"of {ARRAY_BYTES / 2**20:.1f} MiB of arrays "
        f"(copy {copy_pss:.0f} KiB vs mmap {mmap_pss:.0f} KiB)"
    )
    RESULTS["mmap_shared_memory"] = {
        "processes": FLEET,
        "array_bytes": ARRAY_BYTES,
        "copy_mean_pss_kb": copy_pss,
        "mmap_mean_pss_kb": mmap_pss,
        "saved_bytes_per_process": saved_bytes,
        "bitwise_identical": mmap_checksum == copy_checksum,
    }


@pytest.mark.quick
def test_emit_bench_cluster_artifact():
    """Write BENCH_cluster.json — the scale-out perf trajectory artifact."""
    artifact = {
        "benchmark": "cluster",
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
    assert "fleet_throughput_scaling" in emitted["results"]
