"""Fleet-wide aggregation of per-worker health snapshots.

Every :class:`~repro.server.app.ModelServer` worker exposes the same
``/healthz`` document (gateway routes + service stats + server stats).
:func:`merge_health_snapshots` folds N of them into one fleet view by
structural recursion:

* dicts shaped like a :class:`~repro.observability.RollingLatency` snapshot
  merge through :func:`~repro.observability.merge_latency_snapshots`
  (exact counts/totals/max, count-weighted quantiles); the unit-free
  :class:`~repro.observability.RollingDistribution` shape (batch sizes,
  queue depths) routes likewise to
  :func:`~repro.observability.merge_distribution_snapshots`;
* integer leaves (request/error/cache counters, capacities, in-flight
  gauges) **sum** — the fleet serves the union of the workers' traffic —
  except per-worker maxima (``uptime_seconds``, ``largest_batch``), which
  take the fleet **max**;
* float leaves (``mean_batch_size``, ``agreement_rate``) **average** over
  the workers reporting a value — an unweighted approximation, exact when
  traffic spreads evenly;
* ``status`` merges worst-of (any non-``ok`` worker degrades the fleet);
  other strings keep the common value, or the sorted set of distinct
  values when workers disagree (e.g. mid-rolling-restart ``active``
  versions);
* booleans ``or`` together (``draining`` means *some* worker is draining),
  except ``healthy`` which ``and``s.

Per-worker identity (``worker_id``) is dropped from the merged document —
the supervisor publishes the unmerged per-worker snapshots alongside.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.observability import (
    DISTRIBUTION_SNAPSHOT_KEYS,
    LATENCY_SNAPSHOT_KEYS,
    merge_counter_dicts,
    merge_distribution_snapshots,
    merge_latency_snapshots,
)

__all__ = [
    "merge_health_snapshots",
    "merge_counter_dicts",
    "merge_distribution_snapshots",
    "merge_latency_snapshots",
]

#: Keys that identify a single worker and are meaningless fleet-wide.
_PER_WORKER_KEYS = frozenset({"worker_id"})

#: Keys with dedicated merge semantics: summing or averaging pids is
#: meaningless, averaging uptimes hides the oldest worker mid-rolling-restart,
#: and the fleet's largest batch is the largest any worker flushed.
_PID_KEYS = frozenset({"pid"})
_MAX_KEYS = frozenset({"uptime_seconds", "largest_batch"})


def _is_latency_snapshot(value: object) -> bool:
    return (
        isinstance(value, Mapping)
        and "count" in value
        and set(value.keys()) <= LATENCY_SNAPSHOT_KEYS
    )


def _is_distribution_snapshot(value: object) -> bool:
    # "mean" (unit-free, vs "mean_ms") separates the two snapshot shapes;
    # without the explicit route a distribution would fall through to the
    # generic merge, which *sums* integer leaves — fleet-wide "max batch
    # size" must be the max, not the sum.
    return (
        isinstance(value, Mapping)
        and "count" in value
        and "mean" in value
        and set(value.keys()) <= DISTRIBUTION_SNAPSHOT_KEYS
    )


def merge_health_snapshots(snapshots: Sequence[Mapping]) -> dict:
    """One fleet-wide health document from per-worker ``/healthz`` snapshots.

    Tolerates a heterogeneous fleet (a worker mid-restart may miss routes
    the others carry): every key present in *any* snapshot appears in the
    merge, aggregated over the workers that report it.
    """
    nodes = [snapshot for snapshot in snapshots if isinstance(snapshot, Mapping)]
    if not nodes:
        return {}
    return _merge_nodes(nodes)


def _merge_nodes(nodes: Sequence[Mapping]) -> dict:
    keys: list = []
    for node in nodes:  # first-seen key order, union over the fleet
        for key in node:
            if key not in keys:
                keys.append(key)
    merged: dict = {}
    for key in keys:
        if key in _PER_WORKER_KEYS:
            continue
        merged[key] = _merge_values(key, [node[key] for node in nodes if key in node])
    return merged


def _merge_values(key: str, values: list):
    present = [value for value in values if value is not None]
    if not present:
        return None
    if key in _PID_KEYS and all(isinstance(value, int) for value in present):
        # The fleet has N pids, not one: publish the sorted list (a single
        # worker keeps its scalar so one-node views stay unchanged).
        return present[0] if len(present) == 1 else sorted(present)
    if key in _MAX_KEYS and all(
        isinstance(value, (int, float)) and not isinstance(value, bool)
        for value in present
    ):
        # Fleet uptime is the oldest worker's — averaging would dip on every
        # rolling restart even though the fleet never went down.  Likewise a
        # fleet's largest batch is one worker's, never a sum of maxima.
        return max(present)
    if all(_is_latency_snapshot(value) for value in present):
        return merge_latency_snapshots(present)
    if all(_is_distribution_snapshot(value) for value in present):
        return merge_distribution_snapshots(present)
    if all(isinstance(value, Mapping) for value in present):
        return _merge_nodes(present)
    if all(isinstance(value, bool) for value in present):
        return all(present) if key == "healthy" else any(present)
    if all(isinstance(value, int) and not isinstance(value, bool) for value in present):
        return sum(present)
    if all(
        isinstance(value, (int, float)) and not isinstance(value, bool)
        for value in present
    ):
        return sum(present) / len(present)
    if key == "status":
        return (
            "ok"
            if all(value == "ok" for value in present)
            else next(value for value in present if value != "ok")
        )
    if all(isinstance(value, str) for value in present):
        distinct = sorted(set(present))
        return distinct[0] if len(distinct) == 1 else distinct
    return present[0]
