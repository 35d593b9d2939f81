"""The multi-process scale-out tier: a prefork supervisor over repro workers.

One :class:`ClusterSupervisor` owns a fleet of ``repro.server`` worker
**processes** serving the same bundles on one public address.  The
supervisor binds one ``SO_REUSEPORT`` listening socket *per worker* on the
same port and hands each worker its socket by file descriptor
(``repro-serve --socket-fd``).  The kernel spreads incoming connections
across the workers — no proxy hop on the data path.  A platform without
``SO_REUSEPORT`` cannot run a fleet.

Each worker also opens a private **control port** (the same HTTP surface on
a per-process address), which is what keeps a shared-port fleet manageable:
the supervisor aggregates every worker's ``/healthz`` into one fleet
document (:func:`~repro.cluster.metrics.merge_health_snapshots`), fans
``/admin`` calls out to all workers, and serves both — plus ``/metrics``
text and the ``/cluster/restart`` / ``/cluster/resize`` verbs — from its
own control server, which runs on the same
:class:`~repro.server.app.HTTPFrontEnd` as every worker.

Crashed workers are respawned with exponential backoff.  A **rolling
restart** replaces workers one at a time, spawn-before-drain: the
replacement is serving on the shared port *before* the
old worker gets SIGTERM and drains its in-flight requests — under a
keep-alive client with stale-socket retry, a full fleet roll drops zero
requests.

Workers load bundles memory-mapped by default (``--mmap-bundles``): the
bundle's arrays are paged from one extracted on-disk copy shared by every
worker, so fleet RSS grows far slower than linearly with worker count.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import logging
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from repro.cluster.metrics import merge_health_snapshots
from repro.loadgen.client import ClientConnection
from repro.observability import render_metrics_text
from repro.server.app import HTTPFrontEnd, ServerHandle
from repro.server.cli import parse_worker_args, train_demo_export
from repro.server.protocol import HTTPError, HTTPRequest

logger = logging.getLogger(__name__)

#: Seconds a worker must stay up for its crash-backoff counter to reset.
_STABLE_SECONDS = 30.0
_BACKOFF_BASE = 0.5
_BACKOFF_CAP = 8.0


@dataclass
class Worker:
    """One live worker process and where to reach it."""

    index: int
    process: subprocess.Popen
    port: int
    control_port: int
    started_at: float
    restarts: int = 0
    #: Deliberate shutdown in progress — the crash monitor must not respawn.
    stopping: bool = False

    @property
    def alive(self) -> bool:
        return self.process.poll() is None

    def info(self) -> dict:
        return {
            "worker": self.index,
            "pid": self.process.pid,
            "port": self.port,
            "control_port": self.control_port,
            "restarts": self.restarts,
            "alive": self.alive,
        }


class ClusterHandle(ServerHandle):
    """Thread-safe control handle for a supervisor in a background thread."""

    def _call(self, coroutine, timeout: float):
        loop = self.server._loop
        if loop is None:
            coroutine.close()
            raise RuntimeError("supervisor is not running")
        return asyncio.run_coroutine_threadsafe(coroutine, loop).result(timeout)

    def rolling_restart(self, timeout: float = 600.0) -> list[int]:
        """Replace every worker, one at a time, without dropping requests."""
        return self._call(self.server.rolling_restart(), timeout)

    def resize(self, workers: int, timeout: float = 600.0) -> int:
        return self._call(self.server.resize(workers), timeout)

    def fleet_health(self, timeout: float = 60.0) -> dict:
        return self._call(self.server.fleet_health(), timeout)


class ClusterSupervisor(HTTPFrontEnd):
    """Prefork and babysit N ``repro.server`` workers behind one address.

    Args:
        workers: Fleet size to start with (``resize`` changes it live).
        host / port: Public data address (``port=0`` picks an ephemeral
            port, published on :attr:`port` once the first socket binds).
        control_port: Supervisor's own HTTP address for fleet health,
            merged metrics, admin fan-out and cluster verbs (``0`` =
            ephemeral, published on :attr:`control_port`).
        export_dir / demo: What the workers serve — a bundle export
            directory, or a demo logreg the supervisor trains **once** and
            every worker loads (as route ``cuisine``).
        route: Serve a single-bundle export under this route name.
        mmap_bundles: Workers map bundle arrays from the shared extracted
            archive instead of copying them per process (default on — the
            point of a prefork fleet).
        admin_token: Enables ``/admin`` and ``/cluster`` verbs on the
            control server, and is handed to workers via the environment.
        workdir: Scratch directory for ready-files and demo training
            (a private temporary directory when ``None``).
        worker_args: ``repro-serve`` tuning flags (``--cache-size``,
            ``--max-batch-size``, ``--max-inflight``, ``--max-batch-items``,
            ``--max-body-bytes``, ``--service-time``, ``--drain-timeout``,
            the trace flags, ``--log-level``), appended verbatim to every
            worker's command.  They are parsed once here: a malformed or
            unknown flag, or ``--admin-token``, raises ``ValueError``.  The
            supervisor reads its own drain timeout from them.
    """

    handle_class = ClusterHandle

    def __init__(
        self,
        *,
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        control_port: int = 0,
        export_dir: str | Path | None = None,
        demo: bool = False,
        demo_scale: float = 0.004,
        demo_seed: int = 11,
        route: str | None = None,
        version: str = "v1",
        admin_token: str | None = None,
        mmap_bundles: bool = True,
        spawn_timeout: float = 120.0,
        workdir: str | Path | None = None,
        worker_args: Sequence[str] = (),
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if (export_dir is None) == (not demo):
            raise ValueError("exactly one of export_dir or demo is required")
        if not hasattr(socket, "SO_REUSEPORT"):
            raise ValueError("this platform has no SO_REUSEPORT to share the fleet's port")
        self.worker_args = tuple(worker_args)
        self.worker_options = parse_worker_args(self.worker_args)
        super().__init__(host, port)
        self.workers = workers
        self.control_port = control_port
        self.export_dir = str(export_dir) if export_dir is not None else None
        self.demo = demo
        self.demo_scale = demo_scale
        self.demo_seed = demo_seed
        self.route = route
        self.version = version
        self.admin_token = admin_token
        self.mmap_bundles = mmap_bundles
        self.drain_timeout = self.worker_options.drain_timeout
        self.spawn_timeout = spawn_timeout
        self.workdir = Path(workdir) if workdir is not None else None

        self._workers: dict[int, Worker] = {}
        self._crashes: dict[int, int] = {}
        self._respawns = 0
        self._spawn_serial = itertools.count()
        self._fleet_lock: asyncio.Lock | None = None
        self._monitor_task: asyncio.Task | None = None
        self._tmpdir: tempfile.TemporaryDirectory | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def _open(self) -> None:
        """Train (demo), prefork the fleet, open the control listener."""
        self._fleet_lock = asyncio.Lock()
        if self.workdir is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-cluster-")
            self.workdir = Path(self._tmpdir.name)
        self.workdir.mkdir(parents=True, exist_ok=True)
        if self.demo:
            export = self.workdir / "demo-export"
            bundle = await asyncio.to_thread(
                train_demo_export, self.demo_scale, self.demo_seed, export
            )
            self.export_dir = str(bundle.parent)
            if self.route is None:
                self.route = "cuisine"
        async with self._fleet_lock:
            for index in range(self.workers):
                self._workers[index] = await self._spawn(index)
        self.control_port = (await self._listen(self.control_port))[1]
        self._monitor_task = asyncio.create_task(self._monitor())
        logger.info(
            "repro.cluster: %d workers on %s:%d, control on :%d",
            len(self._workers), self.host, self.port, self.control_port,
        )

    async def _close(self) -> None:
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            try:
                await self._monitor_task
            except asyncio.CancelledError:
                pass
        workers = list(self._workers.values())
        self._workers.clear()
        for worker in workers:
            worker.stopping = True
        await asyncio.gather(
            *(self._terminate(worker) for worker in workers), return_exceptions=True
        )
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None
        logger.info("repro.cluster: stopped (%d workers drained)", len(workers))

    # ------------------------------------------------------------------
    # worker processes
    # ------------------------------------------------------------------
    def _listen_socket(self) -> socket.socket:
        """A fresh SO_REUSEPORT listening socket on the shared public port."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            sock.bind((self.host, self.port))
            sock.listen(128)
        except BaseException:
            sock.close()
            raise
        if self.port == 0:
            self.port = sock.getsockname()[1]
        return sock

    def _worker_env(self) -> dict[str, str]:
        env = os.environ.copy()
        # Workers must import repro from the same tree as the supervisor,
        # whether it is installed or run from a source checkout.
        import repro

        src_root = str(Path(repro.__file__).resolve().parents[1])
        existing = env.get("PYTHONPATH", "")
        if src_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (
                src_root + (os.pathsep + existing if existing else "")
            )
        if self.admin_token is not None:
            env["REPRO_ADMIN_TOKEN"] = self.admin_token
        return env

    async def _spawn(self, index: int) -> Worker:
        """Start one worker and wait until it is serving (ready-file)."""
        assert self.export_dir is not None
        ready_path = self.workdir / f"worker-{index}-{next(self._spawn_serial)}.ready.json"
        command = [
            sys.executable, "-m", "repro.server.cli",
            "--export-dir", self.export_dir,
            "--version", self.version,
            "--control-port", "0",
            "--worker-id", str(index),
            "--ready-file", str(ready_path),
        ]
        if self.route is not None:
            command += ["--route", self.route]
        if self.mmap_bundles:
            command += ["--mmap-bundles"]
        sock = self._listen_socket()
        command += ["--socket-fd", str(sock.fileno()), *self.worker_args]
        process = subprocess.Popen(command, pass_fds=(sock.fileno(),), env=self._worker_env())
        # The worker holds its own copy now; keeping ours open would leave a
        # dead listener accepting (and stranding) connections after the
        # worker exits.
        sock.close()
        info = await self._await_ready(process, ready_path)
        worker = Worker(
            index=index,
            process=process,
            port=int(info["port"]),
            control_port=int(info["control_port"]),
            started_at=time.monotonic(),
        )
        logger.info(
            "repro.cluster: worker %d up (pid %d, port %d, control %d)",
            index, process.pid, worker.port, worker.control_port,
        )
        return worker

    async def _await_ready(self, process: subprocess.Popen, ready_path: Path) -> dict:
        deadline = time.monotonic() + self.spawn_timeout
        while True:
            if ready_path.exists():
                try:
                    return json.loads(ready_path.read_text(encoding="utf-8"))
                except (json.JSONDecodeError, OSError):
                    pass  # mid-write; retry next tick
            if process.poll() is not None:
                raise RuntimeError(
                    f"worker exited with status {process.returncode} before ready"
                )
            if time.monotonic() > deadline:
                process.kill()
                raise TimeoutError(f"worker not ready within {self.spawn_timeout}s")
            await asyncio.sleep(0.05)

    async def _terminate(self, worker: Worker) -> None:
        """SIGTERM one worker and wait out its graceful drain."""
        worker.stopping = True
        try:
            worker.process.send_signal(signal.SIGTERM)
        except ProcessLookupError:
            return
        try:
            await asyncio.to_thread(worker.process.wait, self.drain_timeout + 15)
        except subprocess.TimeoutExpired:
            logger.warning(
                "repro.cluster: worker %d did not drain; killing", worker.index
            )
            worker.process.kill()
            await asyncio.to_thread(worker.process.wait, 10)

    async def _monitor(self) -> None:
        """Respawn crashed workers with exponential backoff."""
        assert self._fleet_lock is not None
        while True:
            await asyncio.sleep(0.2)
            async with self._fleet_lock:
                for index, worker in list(self._workers.items()):
                    if worker.alive or worker.stopping:
                        continue
                    if time.monotonic() - worker.started_at > _STABLE_SECONDS:
                        self._crashes[index] = 0
                    crashes = self._crashes.get(index, 0)
                    delay = min(_BACKOFF_BASE * (2 ** crashes), _BACKOFF_CAP)
                    self._crashes[index] = crashes + 1
                    logger.warning(
                        "repro.cluster: worker %d died (status %s); respawning in %.1fs",
                        index, worker.process.returncode, delay,
                    )
                    await asyncio.sleep(delay)
                    try:
                        replacement = await self._spawn(index)
                    except (RuntimeError, TimeoutError) as exc:
                        logger.error(
                            "repro.cluster: respawn of worker %d failed: %s", index, exc
                        )
                        continue
                    replacement.restarts = worker.restarts + 1
                    self._respawns += 1
                    self._workers[index] = replacement

    # ------------------------------------------------------------------
    # fleet operations
    # ------------------------------------------------------------------
    async def rolling_restart(self) -> list[int]:
        """Replace every worker one at a time, spawn-before-drain.

        The replacement worker is accepting on the shared port *before* the
        old worker is told to drain,
        so the fleet never has fewer than ``workers`` serving processes.
        """
        assert self._fleet_lock is not None
        restarted: list[int] = []
        async with self._fleet_lock:
            for index in sorted(self._workers):
                old = self._workers[index]
                replacement = await self._spawn(index)
                replacement.restarts = old.restarts + 1
                self._workers[index] = replacement  # old drains below
                await self._terminate(old)
                restarted.append(index)
                logger.info("repro.cluster: rolled worker %d", index)
        return restarted

    async def resize(self, target: int) -> int:
        """Grow or shrink the fleet to *target* workers (graceful drain)."""
        if target < 1:
            raise ValueError(f"workers must be >= 1, got {target}")
        assert self._fleet_lock is not None
        async with self._fleet_lock:
            for index in sorted(self._workers, reverse=True):
                if len(self._workers) <= target:
                    break
                worker = self._workers.pop(index)
                self._crashes.pop(index, None)
                await self._terminate(worker)
            index = 0
            while len(self._workers) < target:
                if index not in self._workers:
                    self._workers[index] = await self._spawn(index)
                index += 1
            self.workers = target
        return target

    # ------------------------------------------------------------------
    # fleet observability
    # ------------------------------------------------------------------
    async def _ask(
        self,
        worker: Worker,
        method: str,
        path: str,
        payload=None,
        headers: Mapping[str, str] | None = None,
        timeout: float = 10.0,
    ) -> dict:
        """One request to a worker's control port.

        Returns ``{"worker", "status", "body"}``, or ``{"worker", "status":
        502, "error"}`` naming the exception when the worker is unreachable,
        too slow, or answers something unreadable.
        """
        connection = ClientConnection(self.host, worker.control_port)
        try:
            response = await asyncio.wait_for(
                connection.request(method, path, payload, headers), timeout=timeout
            )
            body = response.json() if response.body else None
            return {"worker": worker.index, "status": response.status, "body": body}
        except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError, ValueError) as exc:
            return {"worker": worker.index, "status": 502, "error": type(exc).__name__}
        finally:
            connection.close()

    async def _ask_all(self, method: str, path: str, **kwargs) -> list[tuple[Worker, dict]]:
        """:meth:`_ask` every worker at once, in worker-index order."""
        workers = [self._workers[index] for index in sorted(self._workers)]
        answers = await asyncio.gather(
            *(self._ask(worker, method, path, **kwargs) for worker in workers)
        )
        return list(zip(workers, answers))

    async def _get_all(self, path: str) -> list[tuple[Worker, dict | None]]:
        """Every worker's JSON at *path*; ``None`` for a worker not answering 200."""
        return [
            (worker, answer["body"] if answer["status"] == 200 else None)
            for worker, answer in await self._ask_all("GET", path)
        ]

    async def fleet_health(self) -> dict:
        """Merged fleet ``/healthz`` plus a ``cluster`` membership block."""
        snapshots = await self._get_all("/healthz")
        merged = merge_health_snapshots([s for _, s in snapshots if s is not None])
        members = []
        for worker, snapshot in snapshots:
            info = worker.info()
            info["reachable"] = snapshot is not None
            members.append(info)
        merged.setdefault("status", "empty")
        if any(not member["reachable"] for member in members):
            merged["status"] = "degraded"
        merged["cluster"] = {
            "port": self.port,
            "workers": sum(1 for worker, _ in snapshots if worker.alive),
            "target_workers": self.workers,
            "respawns": self._respawns,
            "members": members,
        }
        return merged

    async def fleet_metrics_payload(self) -> dict:
        merged = await self.fleet_health()
        cluster = {
            key: value
            for key, value in merged.get("cluster", {}).items()
            if key != "members"
        }
        cluster["unreachable"] = sum(
            1 for member in merged.get("cluster", {}).get("members", ())
            if not member["reachable"]
        )
        return {
            "healthy": merged.get("status") == "ok",
            "routes": merged.get("routes", {}),
            "service": merged.get("service", {}),
            "server": merged.get("server", {}),
            "cluster": cluster,
        }

    async def fleet_traces(self) -> dict:
        """Fleet-wide trace summaries from every worker's store.

        Workers mint distinct ids, so a row normally has one origin.  A
        client that sends its own ``X-Repro-Trace`` id on requests landing
        on several workers gets one row listing every origin that holds a
        piece of that trace.
        """
        payloads = await self._get_all("/debug/traces")
        by_id: dict[str, dict] = {}
        stats = {}
        for worker, payload in payloads:
            if payload is None:
                continue
            origin = f"worker-{worker.index}"
            if "stats" in payload:
                stats[origin] = payload["stats"]
            for summary in payload.get("traces", ()):
                trace_id = summary.get("trace_id")
                if not trace_id:
                    continue
                merged = by_id.get(trace_id)
                if merged is None:
                    merged = by_id[trace_id] = dict(summary)
                    merged["origins"] = []
                else:
                    merged["spans"] = merged.get("spans", 0) + summary.get("spans", 0)
                    merged["error"] = bool(merged.get("error")) or bool(summary.get("error"))
                    merged["slow"] = bool(merged.get("slow")) or bool(summary.get("slow"))
                    merged["duration_ms"] = max(
                        merged.get("duration_ms") or 0.0, summary.get("duration_ms") or 0.0
                    )
                merged["origins"].append(origin)
        return {"traces": list(by_id.values()), "stats": stats}

    async def fleet_trace(self, trace_id: str) -> dict | None:
        """One trace from every worker holding spans under *trace_id*, each
        span annotated with its origin."""
        pieces = [
            (f"worker-{worker.index}", payload)
            for worker, payload in await self._get_all(f"/debug/traces/{trace_id}")
            if payload is not None
        ]
        if not pieces:
            return None
        merged: dict = {
            "trace_id": trace_id,
            "key": pieces[0][1].get("key"),
            "sampled": any(piece.get("sampled") for _, piece in pieces),
            "error": any(piece.get("error") for _, piece in pieces),
            "slow": any(piece.get("slow") for _, piece in pieces),
            # Each origin measures on its own monotonic clock, so durations
            # compare but span start offsets only order *within* an origin.
            "duration_ms": max(
                float(piece.get("duration_ms") or 0.0) for _, piece in pieces
            ),
            "origins": [origin for origin, _ in pieces],
        }
        spans = []
        for origin, piece in pieces:
            for span in piece.get("spans", ()):
                span = dict(span)
                span["origin"] = origin
                spans.append(span)
        merged["spans"] = spans
        return merged

    # ------------------------------------------------------------------
    # control plane HTTP
    # ------------------------------------------------------------------
    async def _fan_out_admin(self, request: HTTPRequest):
        """Replay one ``/admin`` request on every worker's control port."""
        payload = request.json() if request.body else None
        headers = {"x-admin-token": request.headers.get("x-admin-token", "")}
        answers = await self._ask_all(
            request.method, request.path, payload=payload, headers=headers, timeout=60.0
        )
        results = [answer for _, answer in answers]
        status = 200 if results and all(r["status"] == 200 for r in results) else 502
        return status, {"results": results}

    async def _dispatch(self, request: HTTPRequest):
        segments = request.segments
        if segments == ("healthz",):
            return 200, await self.fleet_health()
        if segments == ("metrics",):
            return 200, render_metrics_text(await self.fleet_metrics_payload())
        if segments == ("workers",):
            return 200, {"workers": [self._workers[i].info() for i in sorted(self._workers)]}
        if segments == ("debug", "traces"):
            return 200, await self.fleet_traces()
        if len(segments) == 3 and segments[:2] == ("debug", "traces"):
            merged = await self.fleet_trace(segments[2])
            if merged is None:
                raise HTTPError(
                    404, "unknown_trace",
                    f"no worker holds a trace {segments[2]!r}",
                )
            return 200, merged
        if len(segments) == 4 and segments[:2] == ("admin", "routes"):
            return await self._fan_out_admin(request)
        if segments == ("cluster", "restart"):
            self._require_admin(request)
            restarted = await self.rolling_restart()
            return 200, {"restarted": restarted, "workers": len(self._workers)}
        if segments == ("cluster", "resize"):
            self._require_admin(request)
            body = request.json()
            if not isinstance(body, Mapping) or not isinstance(body.get("workers"), int):
                raise HTTPError(
                    400, "bad_field", "'workers' must be an integer", field="workers"
                )
            try:
                target = await self.resize(body["workers"])
            except ValueError as exc:
                raise HTTPError(400, "bad_field", str(exc), field="workers") from None
            return 200, {"workers": target}
        raise HTTPError(404, "not_found", f"no cluster endpoint at {request.path!r}")
