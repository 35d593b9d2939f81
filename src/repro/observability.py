"""Shared observability primitives for the serving/gateway stack.

Every traffic-carrying component — the deployment gateway's routes, the
:class:`~repro.serving.service.PredictionService` underneath them and the
HTTP server in front — records its counters and distributions through the
same two primitives:

* :class:`CounterSet` — a thread-safe bag of named monotonic counters;
* :class:`Histogram` — lifetime count/total/max plus p50/p95/p99 over fixed
  relative-error log buckets, so per-worker snapshots merge exactly
  (:func:`merge_histograms`).

:class:`RouteMetrics` composes the two into the per-route unit the gateway
aggregates into its ``health_snapshot()``.

This module lives *below* every traffic layer (stdlib only), so
`repro.serving`, `repro.gateway` and `repro.server` all depend on it
downward.  :func:`render_metrics_text` turns any nested snapshot dict into
the flat text exposition format served by ``repro.server``'s ``/metrics``.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import re
import sys
import threading
import time
from collections import Counter
from typing import Mapping

try:  # pragma: no cover - absent only on non-POSIX platforms
    import resource
except ImportError:  # pragma: no cover
    resource = None  # type: ignore[assignment]

#: Quantiles reported by every histogram snapshot.
LATENCY_QUANTILES: tuple[float, ...] = (0.50, 0.95, 0.99)

#: Relative accuracy of every :class:`Histogram` quantile.  Bucket ``i``
#: holds the values in ``(GAMMA**(i-1), GAMMA**i]`` and reports the one
#: value within ``HISTOGRAM_ALPHA`` of all of them (DDSketch, Masson et al.,
#: VLDB 2019, arXiv:1908.10693).
HISTOGRAM_ALPHA = 0.01
_GAMMA = (1.0 + HISTOGRAM_ALPHA) / (1.0 - HISTOGRAM_ALPHA)
_LOG_GAMMA = math.log(_GAMMA)
#: Bucket indices beyond this (values outside ~1e-260 .. 1e260) are treated
#: as malformed when merging snapshots from other processes.
_MAX_BUCKET_INDEX = 30_000


class CounterSet:
    """A thread-safe set of named monotonic counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: Counter = Counter()

    def increment(self, name: str, by: int = 1) -> None:
        with self._lock:
            self._counts[name] += by

    def value(self, name: str) -> int:
        with self._lock:
            return self._counts[name]

    def as_dict(self) -> dict[str, int]:
        """All counters as a JSON-safe plain dict, keys sorted.

        Zero-valued names are omitted; values are plain ``int``.  The sorted
        key order is stable across processes and runs, so serialized
        snapshots diff cleanly.
        """
        with self._lock:
            items = sorted(self._counts.items())
        return {name: int(count) for name, count in items if count}


def _bucket_index(value: float) -> int | None:
    """The log bucket holding *value*; ``None`` is the bucket for zero."""
    if value <= 0.0:
        return None
    return math.ceil(math.log(value) / _LOG_GAMMA)


def _bucket_value(index: int | None) -> float:
    """The value bucket *index* reports (0.0 for the zero bucket)."""
    if index is None:
        return 0.0
    return 2.0 * _GAMMA**index / (_GAMMA + 1.0)


class Histogram:
    """Lifetime value distribution over fixed relative-error log buckets.

    ``record(value, count=n)`` attributes one observed value to *n* logical
    requests (a batch): the value enters the buckets once, while ``count``
    advances by *n* — the way the prediction service has always counted
    batched latency.  Quantiles are lifetime (cumulative, as in Prometheus
    histograms) and each lies within :data:`HISTOGRAM_ALPHA` of the exact
    sample quantile; ``count``, ``total`` and ``max`` are exact.

    The snapshot keeps the sparse buckets, so snapshots from many processes
    merge by bucket addition (:func:`merge_histograms`) with the same error
    bound as one process.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._buckets: Counter = Counter()
        self._count = 0
        self._total = 0.0
        self._max = 0.0

    def record(self, value: float, count: int = 1) -> None:
        index = _bucket_index(value)
        with self._lock:
            self._buckets[index] += 1
            self._count += count
            self._total += value
            self._max = max(self._max, value)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def snapshot(self, *, seconds: bool = True) -> dict:
        """Totals, quantiles and buckets as a JSON-safe dict.

        With ``seconds`` (values recorded in seconds) the keys are
        ``count``, ``total_seconds``, ``mean_ms``, ``max_ms``, ``p50_ms``,
        ``p95_ms``, ``p99_ms``, ``buckets``; unit-free histograms (batch
        sizes, queue depths) drop the ``_ms`` suffixes and report
        ``total``.  ``buckets`` lists ``[index, observations]`` pairs in
        value order, the zero bucket's index being ``None``.
        """
        with self._lock:
            buckets = dict(self._buckets)
            count, total, maximum = self._count, self._total, self._max
        peak = 1000.0 * maximum if seconds else float(maximum)
        return _histogram_payload(count, total, peak, buckets, seconds=seconds)


def _histogram_payload(
    count: int, total: float, peak: float, buckets: Mapping, *, seconds: bool
) -> dict:
    """One histogram snapshot; *peak* is already in the payload's unit."""
    scale, suffix = (1000.0, "_ms") if seconds else (1.0, "")
    ranked = sorted(buckets.items(), key=lambda item: _bucket_value(item[0]))
    observations = sum(buckets.values())
    payload = {
        "count": int(count),
        "total_seconds" if seconds else "total": float(total),
        f"mean{suffix}": (scale * total / count) if count else 0.0,
        f"max{suffix}": float(peak),
    }
    for q in LATENCY_QUANTILES:
        value = 0.0
        if observations:
            rank, seen = q * (observations - 1), 0
            for index, n in ranked:
                seen += n
                if seen > rank:
                    break
            # The top bucket can overshoot the exact maximum by up to alpha.
            value = min(peak, scale * _bucket_value(index))
        payload[f"p{int(q * 100)}{suffix}"] = value
    payload["buckets"] = [[index, int(n)] for index, n in ranked]
    return payload


class RouteMetrics:
    """Counters + latency for one gateway route.

    Counter names used by the gateway:

    * ``requests`` / ``errors`` — primary-path totals;
    * ``variant:<version>`` — requests served by each deployed version;
    * ``shadow_requests`` / ``shadow_agreements`` / ``shadow_disagreements``
      / ``shadow_errors`` — mirrored-traffic accounting;
    * ``shadow_agree:<shadow>`` / ``shadow_disagree:<shadow>`` — agreement
      attributed to each shadow version;
    * ``shadow_pair_agree:<primary>-><shadow>`` (and ``_disagree``) —
      agreement attributed to the exact (primary, shadow) version pair the
      mirrored request resolved, so a hot-swap mid-traffic starts a fresh
      pair instead of polluting the old one;
    * ``shadow_class_agree:<shadow>:<label>`` (and ``_disagree``) —
      per-class agreement, keyed by the **primary's** predicted label, the
      signal the eval gate's canary analyzer uses to catch class-skewed
      regressions an aggregate rate would hide.
    """

    def __init__(self) -> None:
        self.counters = CounterSet()
        self.latency = Histogram()

    def record_batch(self, variant_counts: Mapping[str, int], seconds: float) -> None:
        """One request of N >= 1 sequences: per-variant counts, one latency
        observation."""
        total = sum(variant_counts.values())
        self.counters.increment("requests", total)
        for version, count in variant_counts.items():
            self.counters.increment(f"variant:{version}", count)
        self.latency.record(seconds, count=total)

    def record_error(self, count: int = 1) -> None:
        self.counters.increment("requests", count)
        self.counters.increment("errors", count)

    def record_shadow(
        self,
        version: str,
        agreements: int,
        disagreements: int,
        *,
        primary: str | None = None,
        by_class: "Mapping[str, tuple[int, int]] | None" = None,
    ) -> None:
        """Record one mirrored batch's label agreement with the primary.

        Args:
            version: The shadow version that served the mirror.
            agreements / disagreements: Aggregate label (dis)agreement counts.
            primary: The primary version the mirrored requests resolved;
                when given, agreement is additionally attributed to the
                ``<primary>-><shadow>`` pair (hot-swap-safe attribution).
            by_class: ``label -> (agreements, disagreements)`` keyed by the
                primary's predicted label, for per-class skew detection.
        """
        self.counters.increment("shadow_requests", agreements + disagreements)
        self.counters.increment(f"shadow:{version}", agreements + disagreements)
        if agreements:
            self.counters.increment("shadow_agreements", agreements)
            self.counters.increment(f"shadow_agree:{version}", agreements)
        if disagreements:
            self.counters.increment("shadow_disagreements", disagreements)
            self.counters.increment(f"shadow_disagree:{version}", disagreements)
        if primary is not None:
            pair = f"{primary}->{version}"
            if agreements:
                self.counters.increment(f"shadow_pair_agree:{pair}", agreements)
            if disagreements:
                self.counters.increment(f"shadow_pair_disagree:{pair}", disagreements)
        if by_class:
            for label, (agree, disagree) in by_class.items():
                if agree:
                    self.counters.increment(f"shadow_class_agree:{version}:{label}", agree)
                if disagree:
                    self.counters.increment(
                        f"shadow_class_disagree:{version}:{label}", disagree
                    )

    def record_shadow_error(self, count: int = 1) -> None:
        self.counters.increment("shadow_errors", count)

    @staticmethod
    def _rated(agreements: int, disagreements: int) -> dict:
        total = agreements + disagreements
        return {
            "requests": total,
            "agreements": agreements,
            "disagreements": disagreements,
            "agreement_rate": (agreements / total) if total else None,
        }

    def snapshot(self) -> dict:
        counters = self.counters.as_dict()
        variants = {
            name.split(":", 1)[1]: count
            for name, count in counters.items()
            if name.startswith("variant:")
        }
        # Reassemble the flat shadow counters into (dis)agreement pairs per
        # shadow version, per (primary, shadow) pair and per predicted class.
        by_version: dict[str, list[int]] = {}
        pairs: dict[str, list[int]] = {}
        by_class: dict[str, dict[str, list[int]]] = {}
        for name, count in counters.items():
            if name.startswith(("shadow_agree:", "shadow_disagree:")):
                prefix, version = name.split(":", 1)
                slot = by_version.setdefault(version, [0, 0])
                slot[0 if prefix == "shadow_agree" else 1] += count
            elif name.startswith(("shadow_pair_agree:", "shadow_pair_disagree:")):
                prefix, pair = name.split(":", 1)
                slot = pairs.setdefault(pair, [0, 0])
                slot[0 if prefix == "shadow_pair_agree" else 1] += count
            elif name.startswith(("shadow_class_agree:", "shadow_class_disagree:")):
                prefix, rest = name.split(":", 1)
                version, label = rest.split(":", 1)
                slot = by_class.setdefault(version, {}).setdefault(label, [0, 0])
                slot[0 if prefix == "shadow_class_agree" else 1] += count
        shadow_requests = counters.get("shadow_requests", 0)
        return {
            "requests": counters.get("requests", 0),
            "errors": counters.get("errors", 0),
            "by_variant": variants,
            "shadow": {
                "requests": shadow_requests,
                "agreements": counters.get("shadow_agreements", 0),
                "disagreements": counters.get("shadow_disagreements", 0),
                "errors": counters.get("shadow_errors", 0),
                "agreement_rate": (
                    counters.get("shadow_agreements", 0) / shadow_requests
                    if shadow_requests
                    else None
                ),
                "by_version": {
                    version: self._rated(agree, disagree)
                    for version, (agree, disagree) in sorted(by_version.items())
                },
                "pairs": {
                    pair: self._rated(agree, disagree)
                    for pair, (agree, disagree) in sorted(pairs.items())
                },
                "by_class": {
                    version: {
                        label: self._rated(agree, disagree)
                        for label, (agree, disagree) in sorted(labels.items())
                    }
                    for version, labels in sorted(by_class.items())
                },
            },
            "latency": self.latency.snapshot(),
        }


# ----------------------------------------------------------------------
# fleet-wide merging
# ----------------------------------------------------------------------
def _as_int(value, default: int = 0) -> int:
    """Coerce a snapshot field to int, tolerating malformed values.

    Fleet snapshots cross process and JSON boundaries; a worker mid-restart
    or a hand-edited payload must degrade to the default, never throw inside
    a merge that other healthy workers depend on.
    """
    try:
        return int(value)
    except (TypeError, ValueError):
        return default


def _as_float(value, default: float = 0.0) -> float:
    """Float twin of :func:`_as_int`; NaN is treated as malformed too."""
    try:
        result = float(value)
    except (TypeError, ValueError):
        return default
    return result if result == result else default


def merge_counter_dicts(dicts: "list[Mapping[str, int]] | tuple[Mapping[str, int], ...]") -> dict[str, int]:
    """Sum per-worker :meth:`CounterSet.as_dict` snapshots into one.

    Counters are monotonic, so the fleet-wide value of each name is exactly
    the sum across workers; zero-valued names stay omitted and keys stay
    sorted (the same invariants one worker's snapshot has).  Non-numeric
    values contribute nothing rather than poisoning the merge.
    """
    merged: Counter = Counter()
    for snapshot in dicts:
        for name, count in snapshot.items():
            merged[name] += _as_int(count)
    return {name: count for name, count in sorted(merged.items()) if count}


def _bucket_entry(entry) -> tuple[int | None, int] | None:
    """``(index, observations)`` of a well-formed snapshot bucket, else None."""
    if not isinstance(entry, (list, tuple)) or len(entry) != 2:
        return None
    index, observations = entry
    if index is not None and (type(index) is not int or abs(index) > _MAX_BUCKET_INDEX):
        return None
    if type(observations) is not int or observations < 1:
        return None
    return index, observations


def merge_histograms(snapshots: "list[Mapping] | tuple[Mapping, ...]") -> dict:
    """Merge per-worker :meth:`Histogram.snapshot` payloads into one.

    Bucket counts add, so every merged quantile is within
    :data:`HISTOGRAM_ALPHA` of the quantile of the pooled samples — one slow
    worker moves the fleet p99 as it would move a single process's.
    ``count`` and the total sum exactly and the max is the fleet maximum.
    Snapshots carrying ``total_seconds`` make a latency merge (``_ms``
    keys), otherwise the merge is unit-free.  Malformed fields and bucket
    entries contribute nothing rather than failing the merge.
    """
    seconds = any("total_seconds" in snapshot for snapshot in snapshots)
    total_key, suffix = ("total_seconds", "_ms") if seconds else ("total", "")
    buckets: Counter = Counter()
    for snapshot in snapshots:
        entries = snapshot.get("buckets")
        for entry in entries if isinstance(entries, list) else ():
            parsed = _bucket_entry(entry)
            if parsed is not None:
                buckets[parsed[0]] += parsed[1]
    return _histogram_payload(
        sum(_as_int(snapshot.get("count", 0)) for snapshot in snapshots),
        sum(_as_float(snapshot.get(total_key, 0.0)) for snapshot in snapshots),
        max((_as_float(snapshot.get(f"max{suffix}", 0.0)) for snapshot in snapshots), default=0.0),
        buckets,
        seconds=seconds,
    )


_METRIC_NAME_SANITIZER = re.compile(r"[^0-9A-Za-z_]")

#: Monotonic instant this process first imported the module — the origin for
#: the ``uptime_seconds`` process gauge.  Monotonic, so NTP steps and clock
#: slew cannot make uptime jump or run backwards.
_PROCESS_START_MONOTONIC = time.monotonic()


def process_stats() -> dict:
    """Process-level gauges for ``health_snapshot()`` / ``/healthz``.

    ``uptime_seconds`` counts from module import (monotonic clock),
    ``peak_rss_bytes`` is the high-water resident set (``ru_maxrss``,
    which macOS reports in bytes and Linux in KiB), ``minor_faults`` the
    page faults served without I/O so far (``ru_minflt``), plus ``pid`` and
    the interpreter version.  The fleet merge treats ``pid`` as a list,
    ``uptime_seconds`` as the max and sums the counters — see
    ``repro.cluster.metrics``.
    """
    peak_rss_bytes = minor_faults = 0
    if resource is not None:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        ru_maxrss = int(usage.ru_maxrss)
        peak_rss_bytes = ru_maxrss if sys.platform == "darwin" else ru_maxrss * 1024
        minor_faults = int(usage.ru_minflt)
    return {
        "pid": os.getpid(),
        "uptime_seconds": time.monotonic() - _PROCESS_START_MONOTONIC,
        "peak_rss_bytes": peak_rss_bytes,
        "minor_faults": minor_faults,
        "python_version": platform.python_version(),
    }


def sanitize_metric_name(key: str) -> str:
    """Map an arbitrary snapshot key to a ``[a-zA-Z0-9_]`` metric-name part.

    Illegal characters become ``_``; when that substitution changed anything,
    a 6-hex-digit BLAKE2b suffix of the *original* key is appended so
    distinct keys can never collide after sanitization (``v1@x`` and
    ``v1-x`` both flatten to ``v1_x`` without it).  Keys that are already
    clean pass through byte-identical, keeping historical metric names
    stable.  Deterministic across processes and runs.
    """
    key = str(key)
    sanitized = _METRIC_NAME_SANITIZER.sub("_", key)
    if sanitized == key:
        return sanitized
    suffix = hashlib.blake2b(key.encode("utf-8"), digest_size=3).hexdigest()
    return f"{sanitized}_{suffix}"


def _flatten_metrics(prefix: str, value, lines: list[tuple[str, float]]) -> None:
    if isinstance(value, Mapping):
        for key, nested in value.items():
            part = sanitize_metric_name(key)
            _flatten_metrics(f"{prefix}_{part}" if prefix else part, nested, lines)
    elif isinstance(value, bool):
        lines.append((prefix, int(value)))
    elif isinstance(value, (int, float)) and not isinstance(value, complex):
        lines.append((prefix, value))
    # Non-numeric leaves (strings, None, lists) have no place in a flat
    # numeric exposition; callers export them through JSON endpoints instead.


def render_metrics_text(
    snapshot: Mapping,
    prefix: str = "repro",
    *,
    exemplars: "Mapping[str, str] | None" = None,
) -> str:
    """Serialize a nested snapshot dict as flat ``name value`` text lines.

    The exposition format is Prometheus-style: one metric per line, names
    built by joining nested dict keys with ``_`` (non-identifier characters
    sanitized via :func:`sanitize_metric_name`, which suffixes a short hash
    whenever it had to rewrite a key so distinct keys never collide), numeric
    leaves only (booleans become 0/1; strings, ``None`` and sequences are
    skipped), lines sorted by name so the output is byte-stable for a given
    snapshot.  Used by ``repro.server``'s ``GET /metrics``.

    ``exemplars`` maps flat metric names to trace ids; matching lines get an
    ``# exemplar trace_id=...`` comment appended, linking an aggregate
    latency line to one concrete stored trace (``/debug/traces/<id>``).
    """
    lines: list[tuple[str, float]] = []
    _flatten_metrics(prefix, snapshot, lines)
    rendered = []
    for name, value in sorted(lines):
        if isinstance(value, float) and not value.is_integer():
            line = f"{name} {value:.6f}"
        else:
            line = f"{name} {int(value)}"
        if exemplars:
            trace_id = exemplars.get(name)
            if trace_id:
                line += f" # exemplar trace_id={trace_id}"
        rendered.append(line)
    return "\n".join(rendered) + ("\n" if rendered else "")
