"""HTTPTarget's single connection-level retry."""

from __future__ import annotations

import asyncio

import pytest

from repro.loadgen.client import ClientResponse
from repro.loadgen.harness import ERROR, OK, SHED, HTTPTarget


class FlakyPool:
    """A stand-in pool scripted to fail N times before answering."""

    def __init__(self, failures, status: int = 200) -> None:
        self._failures = list(failures)
        self._status = status
        self.calls = 0

    async def request(self, method, path, payload, headers=None):
        self.calls += 1
        if self._failures:
            raise self._failures.pop(0)
        return ClientResponse(status=self._status, headers={}, body=b"{}")

    def close(self) -> None:
        pass


def _target_with_pool(pool) -> HTTPTarget:
    target = HTTPTarget("127.0.0.1", 1, "cuisine")
    target._pool = pool
    return target


class TestHTTPTargetRetry:
    def test_connection_reset_is_retried_once(self):
        pool = FlakyPool([ConnectionResetError()])
        target = _target_with_pool(pool)
        assert asyncio.run(target.predict(("x",), "user-1")) == (OK, None)
        assert pool.calls == 2
        assert target.retries == 1

    @pytest.mark.parametrize(
        "failure",
        [ConnectionResetError(), asyncio.IncompleteReadError(b"", 1), OSError()],
        ids=["reset", "eof", "oserror"],
    )
    def test_every_transport_failure_kind_is_retryable(self, failure):
        target = _target_with_pool(FlakyPool([failure]))
        assert asyncio.run(target.predict(("x",), "user-1")) == (OK, None)

    def test_second_failure_is_an_error(self):
        pool = FlakyPool([ConnectionResetError(), ConnectionResetError()])
        target = _target_with_pool(pool)
        assert asyncio.run(target.predict(("x",), "user-1")) == (ERROR, None)
        assert pool.calls == 2  # exactly one re-send, never a loop
        assert target.retries == 1

    def test_non_transport_failure_is_not_retried(self):
        pool = FlakyPool([ValueError("bad payload")])
        target = _target_with_pool(pool)
        assert asyncio.run(target.predict(("x",), "user-1")) == (ERROR, None)
        assert pool.calls == 1
        assert target.retries == 0

    def test_statuses_still_classified(self):
        assert asyncio.run(
            _target_with_pool(FlakyPool([], status=429)).predict(("x",), "k")
        ) == (SHED, None)
        assert asyncio.run(
            _target_with_pool(FlakyPool([], status=500)).predict(("x",), "k")
        ) == (ERROR, None)

    def test_retry_after_shed_status_never_happens(self):
        """A 429 is a *response*, not a transport failure — no re-send."""
        pool = FlakyPool([], status=429)
        target = _target_with_pool(pool)
        asyncio.run(target.predict(("x",), "k"))
        assert pool.calls == 1
