"""Fixtures for driving the micro-batch worker deterministically."""

from __future__ import annotations

import threading
import time

import pytest

#: Upper bound on any wait below; only reached when the service is broken.
WAIT_SECONDS = 30.0


class PassGate:
    """Holds every model pass of one served model until :meth:`release`.

    While the worker is parked inside a pass, requests submitted meanwhile
    pile up in the service queue, so the next flush's contents are known
    exactly.  ``rows`` records the number of rows of each pass, in order.
    """

    def __init__(self, service, model_name: str) -> None:
        self.service = service
        self.model = service._models[model_name]
        self.entered = threading.Event()
        self._released = threading.Event()
        self.rows: list[int] = []
        self._original = self.model.predict_proba_features

        def gated(features, *, _original=self._original):
            self.entered.set()
            self._released.wait(WAIT_SECONDS)
            result = _original(features)
            self.rows.append(len(result))
            return result

        self.model.predict_proba_features = gated

    def wait_entered(self) -> None:
        assert self.entered.wait(WAIT_SECONDS), "the worker never reached the model pass"

    def wait_queued(self, count: int) -> None:
        """Block until *count* requests wait in the service queue."""
        deadline = time.monotonic() + WAIT_SECONDS
        while self.service._queue.qsize() < count:
            assert time.monotonic() < deadline, "requests never reached the queue"
            time.sleep(0.001)

    def release(self) -> None:
        self._released.set()

    def restore(self) -> None:
        self.release()
        self.model.predict_proba_features = self._original


@pytest.fixture()
def gate_pass():
    """``gate_pass(service, model_name)`` -> a :class:`PassGate`, undone after the test."""
    gates: list[PassGate] = []

    def make(service, model_name: str) -> PassGate:
        gate = PassGate(service, model_name)
        gates.append(gate)
        return gate

    yield make
    for gate in gates:
        gate.restore()
