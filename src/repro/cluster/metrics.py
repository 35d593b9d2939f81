"""Fleet-wide aggregation of per-worker health snapshots.

Every :class:`~repro.server.app.ModelServer` worker exposes the same
``/healthz`` document (gateway routes + service stats + server stats).
:func:`merge_health_snapshots` folds N of them into one fleet view by
structural recursion:

* :class:`~repro.observability.Histogram` snapshots — every dict that
  declares ``buckets`` — merge through
  :func:`~repro.observability.merge_histograms`: bucket addition, so fleet
  quantiles are within the histogram's relative accuracy of the pooled
  samples' quantiles, and counts/totals/max are exact;
* integer leaves (request/error/cache counters, capacities, in-flight
  gauges) **sum** — the fleet serves the union of the workers' traffic —
  except per-worker maxima (``uptime_seconds``, ``largest_batch``), which
  take the fleet **max**, and the eval verdict ``code``, which takes the
  fleet **min** (worst-of: rollback −1 < hold 0 < promote +1);
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

from repro.observability import merge_counter_dicts, merge_histograms

__all__ = ["merge_health_snapshots", "merge_counter_dicts", "merge_histograms"]

#: Keys that identify a single worker and are meaningless fleet-wide.
_PER_WORKER_KEYS = frozenset({"worker_id"})

#: Keys with dedicated merge semantics: summing or averaging pids is
#: meaningless, averaging uptimes hides the oldest worker mid-rolling-restart,
#: and the fleet's largest batch is the largest any worker flushed.
_PID_KEYS = frozenset({"pid"})
_MAX_KEYS = frozenset({"uptime_seconds", "largest_batch"})
#: Worst-of keys: one worker's rollback verdict (-1) must not be averaged or
#: summed away by another worker's promote (+1).
_MIN_KEYS = frozenset({"code"})


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
    numeric = all(
        isinstance(value, (int, float)) and not isinstance(value, bool)
        for value in present
    )
    if key in _MAX_KEYS and numeric:
        # Fleet uptime is the oldest worker's — averaging would dip on every
        # rolling restart even though the fleet never went down.  Likewise a
        # fleet's largest batch is one worker's, never a sum of maxima.
        return max(present)
    if key in _MIN_KEYS and numeric:
        return min(present)
    if all(isinstance(value, Mapping) and "buckets" in value for value in present):
        return merge_histograms(present)
    if all(isinstance(value, Mapping) for value in present):
        return _merge_nodes(present)
    if all(isinstance(value, bool) for value in present):
        return all(present) if key == "healthy" else any(present)
    if all(isinstance(value, int) and not isinstance(value, bool) for value in present):
        return sum(present)
    if numeric:
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
