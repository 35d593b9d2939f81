"""Pure helpers of the serving benchmark: tail percentiles, latency limits,
error accounting, self time and the rate search.

Nothing here touches a clock, a socket or a process, so every rule the
benchmark reports by is unit-tested in ``test_perfbench_helpers.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

#: A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def supported_percentile(n: int, target: float = 99.0) -> float | None:
    """The highest percentile <= *target* with >= ``MIN_BEYOND`` of *n* samples beyond it.

    Rounded down to 0.1; ``None`` when *n* is too small for any tail at all.
    """
    if n <= MIN_BEYOND:
        return None
    highest = 100.0 * (1.0 - MIN_BEYOND / n)
    return min(target, math.floor(highest * 10.0 + 1e-9) / 10.0)


def tail(values: Sequence[float], target: float = 99.0) -> tuple[float, float]:
    """``(percentile, value)`` of the highest supported percentile of *values*."""
    percentile = supported_percentile(len(values), target)
    if percentile is None:
        raise ValueError(f"{len(values)} samples support no tail percentile")
    return percentile, float(np.percentile(values, percentile))


def meets_limit(latencies_ms: Sequence[float], failures: int, limit_ms: float) -> bool:
    """Whether the 99th percentile of a probe stays within *limit_ms*.

    A failed request counts as missing the limit.  The test is on counts:
    at most 1% of the attempts may exceed the limit.
    """
    attempts = len(latencies_ms) + failures
    if attempts == 0:
        return False
    over = failures + sum(1 for value in latencies_ms if value > limit_ms)
    return over <= math.floor(attempts * 0.01)


@dataclass
class ErrorTally:
    """Requests attempted and the three ways one can fail."""

    attempted: int = 0
    non_200: int = 0
    transport: int = 0
    wrong: int = 0

    def add(self, status: int, correct: bool) -> None:
        """Count one attempt; *status* < 0 marks a transport error."""
        self.attempted += 1
        if status < 0:
            self.transport += 1
        elif status != 200:
            self.non_200 += 1
        elif not correct:
            self.wrong += 1

    @property
    def failed(self) -> int:
        return self.non_200 + self.transport + self.wrong

    @property
    def error_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def covered(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of *intervals*."""
    clipped = sorted(
        (max(start, a), min(end, b)) for a, b in intervals if b > start and a < end
    )
    total = 0.0
    cursor = start
    for a, b in clipped:
        if b <= cursor:
            continue
        total += b - max(a, cursor)
        cursor = b
    return total


def self_time(span: tuple[float, float], children: Iterable[tuple[float, float]]) -> float:
    """A span's duration minus the part of it that its child spans cover."""
    start, end = span
    return (end - start) - covered(start, end, children)


class RateSearch:
    """Bisection in log space for the highest rate that meets a latency limit.

    *low* must be a rate known to pass and *high* one expected to fail; each
    probe halves the log-ratio between them, so after ``k`` probes the answer
    is resolved to ``(high / low) ** (1 / 2**k)``.
    """

    def __init__(self, low: float, high: float) -> None:
        if not 0 < low < high:
            raise ValueError(f"need 0 < low < high, got {low}, {high}")
        self.low = low
        self.high = high

    def next_rate(self) -> float:
        return math.sqrt(self.low * self.high)

    def record(self, rate: float, passed: bool) -> None:
        if passed:
            self.low = max(self.low, rate)
        else:
            self.high = min(self.high, rate)

    @property
    def resolution(self) -> float:
        """Relative width of the bracket the answer lies in."""
        return self.high / self.low - 1.0
