"""Benchmark-owned load generator: open-loop and closed-loop HTTP/1.1 clients.

Why the benchmark does not use ``repro.loadgen.run_open_loop``: that generator
starts a request's clock when its task starts and opens one connection per
in-flight request.  A server stall then delays later sends without showing
in their latency, and the connection count grows with the load.  This generator
times every open-loop request from when it was *due*, sends over a fixed set
of keep-alive connections (the benchmark caps it at the core count), and
keeps the send time so the report can say how late the generator ran.

Workers are plain threads on blocking sockets: ``time.sleep`` wakes within
tens of microseconds of a due time, where an asyncio timer rounds up to the
next millisecond.
"""

from __future__ import annotations

import ctypes
import json
import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

#: Seconds a socket read may block before the exchange counts as failed.
SOCKET_TIMEOUT = 30.0


@dataclass
class Sent:
    """One request as the client saw it; times are ``perf_counter`` seconds."""

    index: int
    due: float
    sent: float
    done: float
    status: int  # < 0: transport error
    body: bytes
    trace_id: str | None

    @property
    def latency_ms(self) -> float:
        """Latency from when the request was due, which counts any send delay."""
        return (self.done - self.due) * 1000.0

    @property
    def late_ms(self) -> float:
        return (self.sent - self.due) * 1000.0


def post(path: str, payload) -> bytes:
    """Bytes of one ``POST`` with a JSON body."""
    body = json.dumps(payload).encode("utf-8")
    head = (
        f"POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


def get(path: str) -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("latin-1")


class HttpConnection:
    """One keep-alive connection; reconnects after a close or an error."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._sock: socket.socket | None = None
        self._pending = b""

    def _socket(self) -> socket.socket:
        if self._sock is None:
            sock = socket.create_connection((self.host, self.port), timeout=SOCKET_TIMEOUT)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
            self._pending = b""
        return self._sock

    def exchange(self, request: bytes) -> tuple[int, bytes, str | None]:
        """Send *request*; return ``(status, body, X-Repro-Trace value)``."""
        sock = self._socket()
        sock.sendall(request)
        buffer = self._pending
        while b"\r\n\r\n" not in buffer:
            buffer += self._recv(sock)
        head, _, rest = buffer.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length, trace_id, close = 0, None, False
        for line in lines[1:]:
            name, _, value = line.partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value)
            elif name == "x-repro-trace":
                trace_id = value.strip()
            elif name == "connection":
                close = value.strip().lower() == "close"
        while len(rest) < length:
            rest += self._recv(sock)
        body, self._pending = rest[:length], rest[length:]
        if close:
            self.close()
        return status, body, trace_id

    @staticmethod
    def _recv(sock: socket.socket) -> bytes:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection mid-response")
        return chunk

    def get_json(self, path: str):
        status, body, _ = self.exchange(get(path))
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}: {body[:200]!r}")
        return json.loads(body)

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None


def _tighten_timer_slack() -> None:
    """Let ``time.sleep`` on this thread wake at its deadline (Linux).

    The default 50 us timer slack adds to every due-time latency.
    """
    try:
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        prctl.restype = ctypes.c_int
        prctl(29, 1, 0, 0, 0)  # PR_SET_TIMERSLACK, 1 ns
    except (AttributeError, OSError):
        pass


def _exchange(connection: HttpConnection, request: bytes) -> tuple[int, bytes, str | None]:
    try:
        return connection.exchange(request)
    except (OSError, ValueError, IndexError):
        connection.close()
        return -1, b"", None


def open_loop(
    connections: Sequence[HttpConnection],
    offsets: Sequence[float],
    build: Callable[[int], bytes],
    *,
    limit_s: float | None = None,
    give_up_after: int | None = None,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> list[Sent]:
    """Send request ``i`` at ``offsets[i]`` seconds after the start.

    Each connection takes the next request in due order as soon as it is
    free, so when every connection is busy the next request waits and its
    latency, timed from its due time, shows the wait.  With *limit_s* and
    *give_up_after*, no new request is claimed once more than
    *give_up_after* requests missed the limit (a rate-search probe that has
    already failed).  Returns the attempted requests in index order.
    """
    lock = threading.Lock()
    state = {"next": 0, "over": 0}
    results: list[Sent] = []
    start = clock() + 0.005

    def claim() -> int | None:
        with lock:
            index = state["next"]
            if index >= len(offsets):
                return None
            if give_up_after is not None and state["over"] > give_up_after:
                return None
            state["next"] = index + 1
            return index

    def send(connection: HttpConnection, index: int) -> None:
        request = build(index)
        due = start + offsets[index]
        delay = due - clock()
        if delay > 0:
            sleep(delay)
        sent = clock()
        status, body, trace_id = _exchange(connection, request)
        record = Sent(index, due, sent, clock(), status, body, trace_id)
        with lock:
            results.append(record)
            if limit_s is not None and (status != 200 or record.done - record.due > limit_s):
                state["over"] += 1

    def worker(connection: HttpConnection) -> None:
        _tighten_timer_slack()
        try:
            while (index := claim()) is not None:
                send(connection, index)
        except BaseException as exc:  # re-raised by the caller after join
            errors.append(exc)

    errors: list[BaseException] = []
    threads = [
        threading.Thread(target=worker, args=(connection,), daemon=True)
        for connection in connections
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    results.sort(key=lambda record: record.index)
    return results


def closed_loop(
    connection: HttpConnection,
    seconds: float,
    build: Callable[[int], bytes],
    *,
    clock: Callable[[], float] = time.perf_counter,
) -> list[Sent]:
    """Send request after request on one connection for *seconds*.

    A closed-loop request is due when it is sent.
    """
    results: list[Sent] = []
    deadline = clock() + seconds
    index = 0
    while clock() < deadline:
        request = build(index)
        sent = clock()
        status, body, trace_id = _exchange(connection, request)
        results.append(Sent(index, sent, sent, clock(), status, body, trace_id))
        index += 1
    return results
