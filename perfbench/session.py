"""One benchmark run's state: workload, payload stream, server set-up, timed
phases and the correctness check shared by the untraced and traced runs."""

from __future__ import annotations

import gc
import json
import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from loadgen import Sent, closed_loop, open_loop, post
from fixture import ROUTE, ServerProcess, train_and_export, warm_up
from stats import ErrorTally, RateSearch, meets_limit

#: Pool of unseen request payloads: a corpus generated with its own seed, at
#: 0.2 scale (23.6k distinct sequences, over 10x the result cache).
POOL_SCALE = 0.2
POOL_SEED = 20231
RATE_RPS = 100.0
LATENCY_LIMIT_MS = 100.0
#: Every workload sends distinct unseen sequences, so the result cache must
#: answer less than this share of lookups.
MAX_CACHE_HIT_RATIO = 0.01
BULK_BATCH = 32
RATE_PROBES = 6


@dataclass(frozen=True)
class Workload:
    model: str
    closed: bool = False


WORKLOADS = {
    "online-miss": Workload("logreg"),
    "bulk-roberta": Workload("roberta", closed=True),
}


def connection_cap() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def load_pool(cache_dir: Path) -> list[tuple[str, ...]]:
    """The payload pool, generated once per checkout and cached."""
    path = cache_dir / f"pool-{POOL_SCALE}-{POOL_SEED}.json"
    if path.is_file():
        return [tuple(sequence) for sequence in json.loads(path.read_text())]
    from repro.data import generate_recipedb

    corpus = generate_recipedb(scale=POOL_SCALE, seed=POOL_SEED)
    pool = list(dict.fromkeys(tuple(sequence) for sequence in corpus.sequences))
    partial = path.with_suffix(f".{os.getpid()}.tmp")
    partial.write_text(json.dumps(pool))
    os.replace(partial, path)
    return pool


class Payloads:
    """The seed's request stream; request ``g`` is a pure function of ``g``."""

    def __init__(self, pool: list[tuple[str, ...]], seed: int, workload: Workload) -> None:
        self.pool = pool
        self.order = np.random.default_rng([seed, 1]).permutation(len(pool))
        self.workload = workload
        self.cursor = 0

    def sequences(self, g: int) -> list[tuple[str, ...]]:
        """The sequences of request ``g``.

        Past the end of the pool the order wraps around; a sequence then
        last came 23.6k requests earlier, long evicted from the 2048-entry
        result cache, so it is still a miss.
        """
        n = len(self.pool)
        if self.workload.closed:
            return [self.pool[self.order[i % n]] for i in range(g * BULK_BATCH, (g + 1) * BULK_BATCH)]
        return [self.pool[self.order[g % n]]]

    def request(self, g: int) -> bytes:
        sequences = self.sequences(g)
        if self.workload.closed:
            return post(f"/routes/{ROUTE}/predict", {"sequences": [list(s) for s in sequences]})
        return post(f"/routes/{ROUTE}/predict", {"sequence": list(sequences[0])})


@dataclass
class Phase:
    """The requests of one timed phase; request ``i`` carries payload ``first + i``."""

    records: list[Sent]
    first: int
    #: The bundle the server answering this phase was serving.
    bundle: Path
    correct: list[bool] = field(default_factory=list)

    @property
    def latencies(self) -> list[float]:
        return [record.latency_ms for record in self.records]

    @property
    def elapsed(self) -> float:
        """Seconds from the first request's due time to the last response."""
        return max(r.done for r in self.records) - min(r.due for r in self.records)


class Session:
    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.workdir = workdir
        self.connections = 1 if self.workload.closed else connection_cap()
        self.payloads = Payloads(load_pool(workdir.parent), seed, self.workload)
        self.phases: list[Phase] = []
        self.bundle: Path | None = None
        self.warm: list = []

    @property
    def batch(self) -> int:
        return BULK_BATCH if self.workload.closed else 1

    # -- set-up ---------------------------------------------------------
    def set_up(self, index: int) -> tuple[ServerProcess, dict[str, float]]:
        """One full set-up: corpus, training, export, server, warm-up."""
        started = time.perf_counter()
        export_dir = self.workdir / f"export-{index}"
        self.bundle, timings, self.warm = train_and_export(self.workload.model, export_dir)
        server = ServerProcess(export_dir, self.workdir)
        try:
            timings["server_ready_s"] = server.start()
            warm_started = time.perf_counter()
            warm_up(server, self.warm, self.batch)
            timings["warmup_s"] = time.perf_counter() - warm_started
        except BaseException:
            server.stop()
            raise
        timings["total_s"] = time.perf_counter() - started
        return server, timings

    def traced_server(self, span_file: Path) -> ServerProcess:
        """The last set-up's bundle served under ``traced_server.py``."""
        server = ServerProcess(self.bundle.parent, self.workdir, span_file=span_file)
        try:
            server.start()
            warm_up(server, self.warm, self.batch)
        except BaseException:
            server.stop()
            raise
        return server

    # -- timed phases ---------------------------------------------------
    def open_phase(self, server: ServerProcess, rate: float, seconds: float,
                   first: int | None = None, give_up: bool = False) -> Phase:
        """Poisson arrivals at *rate*: a fixed count placed uniformly over *seconds*."""
        count = max(1, round(rate * seconds))
        if first is None:
            first, self.payloads.cursor = self.payloads.cursor, self.payloads.cursor + count
        offsets = np.sort(np.random.default_rng([self.seed, 3, first]).uniform(0.0, seconds, count))
        connections = [server.connect() for _ in range(self.connections)]
        gc.disable()
        try:
            records = open_loop(
                connections, offsets, lambda i: self.payloads.request(first + i),
                limit_s=LATENCY_LIMIT_MS / 1000.0,
                give_up_after=int(count * 0.01) if give_up else None,
            )
        finally:
            gc.enable()
            for connection in connections:
                connection.close()
        phase = Phase(records, first, self.bundle)
        self.phases.append(phase)
        return phase

    def closed_phase(self, server: ServerProcess, seconds: float, first: int | None = None) -> Phase:
        first = self.payloads.cursor if first is None else first
        connection = server.connect()
        gc.disable()
        try:
            records = closed_loop(connection, seconds, lambda i: self.payloads.request(first + i))
        finally:
            gc.enable()
            connection.close()
        self.payloads.cursor = max(self.payloads.cursor, first + len(records))
        phase = Phase(records, first, self.bundle)
        self.phases.append(phase)
        return phase

    def measure(self, server: ServerProcess, seconds: float, first: int | None = None) -> Phase:
        if self.workload.closed:
            return self.closed_phase(server, seconds, first)
        return self.open_phase(server, RATE_RPS, seconds, first)

    def rate_search(self, server: ServerProcess, fixed: list[Sent], seconds: float) -> tuple[float, float]:
        """Highest Poisson rate whose p99 meets the limit: ``(rate, resolution)``.

        The bracket's top is 1.5x the rate the connections could carry at
        the *fixed* rate phase's median service time; a generator that falls
        behind shows as due-time latency, so it fails the probe too.
        """
        service_s = statistics.median(r.done - r.sent for r in fixed)
        if meets_limit([r.latency_ms for r in fixed], 0, LATENCY_LIMIT_MS):
            search = RateSearch(RATE_RPS, max(1.5 * self.connections / service_s, 2 * RATE_RPS))
        else:
            search = RateSearch(RATE_RPS / 8, RATE_RPS)
        probe_seconds = seconds / RATE_PROBES
        for _ in range(RATE_PROBES):
            rate = search.next_rate()
            probe = self.open_phase(server, rate, probe_seconds, give_up=True)
            planned = max(1, round(rate * probe_seconds))
            answered = [r.latency_ms for r in probe.records if r.status == 200]
            passed = len(probe.records) == planned and meets_limit(
                answered, len(probe.records) - len(answered), LATENCY_LIMIT_MS
            )
            search.record(rate, passed)
            print(f"  probe {rate:7.1f} rps: {'pass' if passed else 'fail'} "
                  f"({len(probe.records)}/{planned} sent)")
        return search.low, search.resolution

    # -- correctness ----------------------------------------------------
    def verify(self) -> ErrorTally:
        """Check every response against an in-process reference (untimed).

        Labels must match exactly and probabilities with ``np.allclose``:
        micro-batch composition may move the last ulp.  Each phase is
        checked against the bundle its server was serving.
        """
        from repro.models.base import CuisineModel

        tally = ErrorTally()
        for bundle in dict.fromkeys(phase.bundle for phase in self.phases):
            phases = [phase for phase in self.phases if phase.bundle == bundle]
            model = CuisineModel.load_bundle(bundle)
            wanted: dict[tuple[str, ...], None] = {}
            for phase in phases:
                for record in phase.records:
                    wanted.update(dict.fromkeys(self.payloads.sequences(phase.first + record.index)))
            unique = list(wanted)
            reference: dict[tuple[str, ...], np.ndarray] = {}
            for start in range(0, len(unique), 256):
                chunk = unique[start:start + 256]
                reference.update(zip(chunk, model.predict_proba_sequences(chunk)))
            for phase in phases:
                phase.correct = []
                for record in phase.records:
                    correct = False
                    if record.status == 200:
                        sequences = self.payloads.sequences(phase.first + record.index)
                        correct = _matches(record.body, self.workload.closed, model.label_space,
                                           np.array([reference[s] for s in sequences]))
                    phase.correct.append(correct)
                    tally.add(record.status, correct)
        return tally

    def self_check(self, health: dict) -> list[str]:
        """Distinct payloads must bypass the result cache."""
        ratio = cache_hit_ratio(health)
        if ratio < MAX_CACHE_HIT_RATIO:
            return []
        return [f"invalid run: cache hit ratio {ratio:.3f} not below {MAX_CACHE_HIT_RATIO}"]


def _matches(body: bytes, batch: bool, label_space, expected: np.ndarray) -> bool:
    """Whether a predict response body carries the reference labels and rows."""
    try:
        payload = json.loads(body)
        if batch:
            labels, probabilities = payload["labels"], payload["probabilities"]
        else:
            labels, probabilities = [payload["label"]], [payload["probabilities"]]
        return (
            labels == [label_space[i] for i in expected.argmax(axis=1)]
            and np.shape(probabilities) == expected.shape
            and bool(np.allclose(probabilities, expected))
        )
    except (ValueError, KeyError, TypeError):
        return False


def cache_hit_ratio(health: dict) -> float:
    service = health["service"]
    lookups = service["cache_hits"] + service["cache_misses"]
    return service["cache_hits"] / lookups if lookups else 0.0
