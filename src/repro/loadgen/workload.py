"""Deterministic synthetic workloads: who asks what, when.

A :class:`Workload` is a fully materialized, seeded request schedule — the
sequence pool indices, the per-request routing keys and (for open-loop
runs) the arrival times are all drawn up front from one
``numpy.random.default_rng(seed)``, so the same configuration replays the
identical traffic on every run, on every machine.  The harness
(:mod:`repro.loadgen.harness`) only *executes* a workload; it never draws
randomness of its own.

Key distributions model user populations:

* ``"uniform"`` — every key equally likely (cold caches, worst case);
* ``"zipf"`` — key rank *r* weighted ``r**-s``: a few hot keys dominate,
  the realistic shape for user traffic (and the one that exercises result
  caches and deterministic per-key routing).

The same two shapes apply independently to the **payload** pool
(``sequence_distribution``): Zipf-skewed sequences create the hot-key
request traffic that exercises result caches and single-flight coalescing
(many concurrent requests for literally the same sequence).

Arrival processes model *when* requests land:

* ``"poisson"`` — memoryless exponential gaps at the target rate, the
  steady-state baseline;
* ``"burst"`` — a seeded on/off modulated Poisson process (a Markov
  modulated Poisson process with two phases): exponential-length ON
  phases fire at ``burst_factor ×`` the base rate, OFF phases at a
  compensating lower rate, so the time-averaged rate stays close to
  ``rate`` while short bursts pile requests into the service's queue —
  the shape that exercises natural batching and coalescing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

KEY_DISTRIBUTIONS = ("uniform", "zipf")
SEQUENCE_DISTRIBUTIONS = ("uniform", "zipf")
ARRIVAL_SHAPES = ("poisson", "burst")


@dataclass(frozen=True)
class WorkloadRequest:
    """One scheduled request: payload, routing key, open-loop arrival time."""

    sequence: tuple[str, ...]
    key: str
    arrival: float  # seconds from workload start; 0.0 in closed-loop runs


@dataclass(frozen=True)
class Workload:
    """A materialized, replayable traffic schedule."""

    requests: tuple[WorkloadRequest, ...]
    seed: int
    rate: float | None  # open-loop target rate (requests/second), if any
    arrival: str = "poisson"  # arrival shape the schedule was drawn with

    def __len__(self) -> int:
        return len(self.requests)

    @property
    def duration(self) -> float:
        """Scheduled span of the arrival process (0.0 for closed-loop)."""
        return self.requests[-1].arrival if self.requests else 0.0

    def key_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for request in self.requests:
            counts[request.key] = counts.get(request.key, 0) + 1
        return counts


def zipf_weights(n_keys: int, s: float) -> np.ndarray:
    """Normalized Zipf probabilities over ranks ``1..n_keys`` (weight r**-s)."""
    ranks = np.arange(1, n_keys + 1, dtype=np.float64)
    weights = ranks**-s
    return weights / weights.sum()


def _burst_arrivals(
    rng: np.random.Generator,
    n_requests: int,
    rate: float,
    *,
    on_seconds: float,
    off_seconds: float,
    factor: float,
) -> np.ndarray:
    """Seeded on/off (two-phase Markov modulated) Poisson arrival times.

    ON phases (mean length *on_seconds*) fire at ``factor * rate``; OFF
    phases (mean *off_seconds*) at the rate that balances the phase-weighted
    average back to *rate* — clamped to at least 2% of *rate* when the duty
    cycle and factor would demand a non-positive OFF rate.  Each
    inter-arrival gap is drawn at the rate of the phase active when the
    previous request landed (a slight smoothing at phase boundaries, so the
    realized average rate tracks *rate* only approximately); phase flips are
    drawn from the same generator, so the whole schedule replays bit-for-bit
    from one seed.
    """
    duty = on_seconds / (on_seconds + off_seconds)
    on_rate = factor * rate
    off_duty = 1.0 - duty
    off_rate = (
        max((rate - duty * on_rate) / off_duty, 0.02 * rate) if off_duty > 0 else rate
    )
    arrivals = np.empty(n_requests, dtype=np.float64)
    now = 0.0
    in_burst = True
    phase_end = rng.exponential(on_seconds)
    for i in range(n_requests):
        now += rng.exponential(1.0 / (on_rate if in_burst else off_rate))
        while now >= phase_end:
            in_burst = not in_burst
            phase_end += rng.exponential(on_seconds if in_burst else off_seconds)
        arrivals[i] = now
    return arrivals


def build_workload(
    sequences: Sequence[Sequence[str]],
    *,
    n_requests: int,
    seed: int,
    rate: float | None = None,
    key_distribution: str = "uniform",
    n_keys: int = 100,
    zipf_s: float = 1.1,
    sequence_distribution: str = "uniform",
    arrival: str = "poisson",
    burst_on_seconds: float = 0.05,
    burst_off_seconds: float = 0.2,
    burst_factor: float = 4.0,
) -> Workload:
    """Draw a seeded request schedule over a pool of recipe sequences.

    Args:
        sequences: Pool of raw item sequences requests sample from.
        n_requests: Total requests in the schedule.
        seed: RNG seed; same seed → identical schedule, bit for bit.
        rate: Open-loop arrival rate in requests/second — arrivals are the
            cumulative sum of seeded exponential inter-arrival gaps (a
            Poisson process).  ``None`` leaves every arrival at 0.0
            (closed-loop runs ignore arrivals).
        key_distribution: ``"uniform"`` or ``"zipf"`` over ``n_keys`` user
            keys (``"user-0"`` is the hottest Zipf rank).
        n_keys: Size of the synthetic user-key population.
        zipf_s: Zipf exponent (larger → more skew); shared by the key and
            sequence distributions.
        sequence_distribution: ``"uniform"`` (default, the historical
            behaviour) or ``"zipf"`` over the *pool* — rank 0 of
            *sequences* is the hottest payload.  Zipf payloads are what
            exercise result caches and single-flight coalescing.
        arrival: ``"poisson"`` (default) or ``"burst"`` — see the module
            docstring.  Only meaningful with a *rate*.
        burst_on_seconds / burst_off_seconds: Mean burst / quiet phase
            lengths of the ``"burst"`` shape (exponentially distributed).
        burst_factor: ON-phase rate multiplier of the ``"burst"`` shape
            (must be > 1; the OFF rate compensates to preserve the
            time-averaged *rate*).
    """
    if not sequences:
        raise ValueError("need a non-empty sequence pool")
    if n_requests < 1:
        raise ValueError(f"n_requests must be >= 1, got {n_requests}")
    if n_keys < 1:
        raise ValueError(f"n_keys must be >= 1, got {n_keys}")
    if rate is not None and not rate > 0:
        raise ValueError(f"rate must be positive, got {rate}")
    if key_distribution not in KEY_DISTRIBUTIONS:
        raise ValueError(
            f"unknown key_distribution {key_distribution!r}; "
            f"known: {KEY_DISTRIBUTIONS}"
        )
    if sequence_distribution not in SEQUENCE_DISTRIBUTIONS:
        raise ValueError(
            f"unknown sequence_distribution {sequence_distribution!r}; "
            f"known: {SEQUENCE_DISTRIBUTIONS}"
        )
    if arrival not in ARRIVAL_SHAPES:
        raise ValueError(f"unknown arrival {arrival!r}; known: {ARRIVAL_SHAPES}")
    if arrival == "burst":
        if rate is None:
            raise ValueError("arrival='burst' needs a rate")
        if not burst_factor > 1:
            raise ValueError(f"burst_factor must be > 1, got {burst_factor}")
        if not burst_on_seconds > 0 or not burst_off_seconds > 0:
            raise ValueError(
                "burst_on_seconds and burst_off_seconds must be positive, got "
                f"{burst_on_seconds} / {burst_off_seconds}"
            )

    pool = [tuple(str(item) for item in sequence) for sequence in sequences]
    rng = np.random.default_rng(seed)
    # Draw order is part of the determinism contract: sequences, then keys,
    # then arrivals — a historical configuration (uniform sequences, poisson
    # arrivals) replays bit-for-bit what it always produced.
    if sequence_distribution == "zipf":
        sequence_indices = rng.choice(
            len(pool), size=n_requests, p=zipf_weights(len(pool), zipf_s)
        )
    else:
        sequence_indices = rng.integers(0, len(pool), size=n_requests)
    if key_distribution == "zipf":
        key_ranks = rng.choice(n_keys, size=n_requests, p=zipf_weights(n_keys, zipf_s))
    else:
        key_ranks = rng.integers(0, n_keys, size=n_requests)
    if rate is None:
        arrivals = np.zeros(n_requests)
    elif arrival == "burst":
        arrivals = _burst_arrivals(
            rng,
            n_requests,
            rate,
            on_seconds=burst_on_seconds,
            off_seconds=burst_off_seconds,
            factor=burst_factor,
        )
    else:
        arrivals = np.cumsum(rng.exponential(1.0 / rate, size=n_requests))

    requests = tuple(
        WorkloadRequest(
            sequence=pool[int(sequence_indices[i])],
            key=f"user-{int(key_ranks[i])}",
            arrival=float(arrivals[i]),
        )
        for i in range(n_requests)
    )
    return Workload(requests=requests, seed=seed, rate=rate, arrival=arrival)
