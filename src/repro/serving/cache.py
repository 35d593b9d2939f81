"""The prediction service's result map: cached rows and in-flight work.

One lock guards one ``OrderedDict`` keyed by ``(model_name, sequence)``.
Each entry is either

* a **row** (:class:`_Row`): a cached probability row and the model epoch
  that computed it, kept in LRU order, at most ``capacity`` of them; or
* a **pending** entry (:class:`_Pending`): the queued unit that is
  computing the sequence right now, and the row index it lands at in
  ``unit.result``.

A call *claims* its distinct sequences (:meth:`ResultCache.claim`).  Each
is a hit (a row of the current epoch), a follow of another call's pending
unit of the same epoch (single-flight coalescing), or a miss, which the
call appends to its own unit and, with coalescing on, marks pending.  A
follower waits on the unit's ``done`` event and copies its row out of
``unit.result``, so a 32-row miss is one event, not 32.

The batch worker completes a unit in one locked step
(:meth:`ResultCache.complete`): its pending entries become rows, or are
dropped when the unit failed, when its epoch was retired meanwhile, or when
caching is off; then its waiters wake.

Per-model epochs keep a retired model's rows from being served.
:meth:`ResultCache.invalidate` only bumps the epoch, with no sweep: rows of
an older epoch are never returned, the next miss of their key overwrites
them, and the rest age out through the LRU.
"""

from __future__ import annotations

import threading
from collections import Counter, OrderedDict
from typing import Any, NamedTuple, Sequence

import numpy as np

__all__ = ["ResultCache"]


class _Row(NamedTuple):
    epoch: int
    value: np.ndarray


class _Pending(NamedTuple):
    #: The queued unit computing the sequence: it has ``model_name``,
    #: ``epoch``, ``sequences``, ``result``, ``error`` and a ``done`` event.
    unit: Any
    index: int


class ResultCache:
    """An epoch-guarded LRU of probability rows plus the in-flight registry.

    Args:
        capacity: Bound on cached rows (0 disables caching; pending entries
            are not rows, so coalescing works either way).
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict = OrderedDict()
        #: Row entries of any epoch; the other entries are pending.
        self._rows = 0
        #: Per-model epochs, bumped on hot-swap/removal.
        self._epochs: Counter = Counter()
        #: Per-model count of rows of the current epoch: the rows ``get``
        #: would serve.
        self._live: Counter = Counter()

    # ------------------------------------------------------------------
    # internals; every one of them runs with the lock held
    # ------------------------------------------------------------------
    def _hit(self, key: tuple) -> np.ndarray | None:
        entry = self._entries.get(key)
        if type(entry) is not _Row or entry.epoch != self._epochs[key[0]]:
            return None
        self._entries.move_to_end(key)
        return entry.value.copy()

    def _replace(self, key: tuple, entry: "_Row | _Pending | None") -> None:
        """Set the entry of *key* at the LRU's recent end (``None`` deletes
        it), keeping the row counts.  Rows are only ever set at the current
        epoch."""
        old = self._entries.pop(key, None)
        if type(old) is _Row:
            self._rows -= 1
            if old.epoch == self._epochs[key[0]]:
                self._live[key[0]] -= 1
        if entry is not None:
            self._entries[key] = entry
            if type(entry) is _Row:
                self._rows += 1
                self._live[key[0]] += 1

    def _store(self, key: tuple, epoch: int, value: np.ndarray) -> bool:
        if not self.capacity or epoch != self._epochs[key[0]]:
            return False
        self._replace(key, _Row(epoch, value.copy()))
        while self._rows > self.capacity:
            oldest, entry = next(iter(self._entries.items()))
            if type(entry) is _Pending:
                self._entries.move_to_end(oldest)  # in flight: not the LRU's
            else:
                self._replace(oldest, None)
        return True

    # ------------------------------------------------------------------
    # rows
    # ------------------------------------------------------------------
    def get(self, model_name: str, sequence: tuple[str, ...]) -> np.ndarray | None:
        """The current-epoch row for ``(model_name, sequence)``, as a copy."""
        with self._lock:
            return self._hit((model_name, sequence))

    def put(
        self,
        model_name: str,
        sequence: tuple[str, ...],
        value: np.ndarray,
        epoch: int | None = None,
    ) -> bool:
        """Cache a copy of *value*; returns whether it was stored.

        A *value* computed under an *epoch* that is no longer the model's
        current one is dropped: the model that computed it was retired.
        """
        with self._lock:
            if epoch is None:
                epoch = self._epochs[model_name]
            return self._store((model_name, sequence), epoch, value)

    # ------------------------------------------------------------------
    # claim and complete
    # ------------------------------------------------------------------
    def claim(
        self, unit, sequences: Sequence[tuple[str, ...]], *, coalesce: bool = True
    ) -> "tuple[dict, dict]":
        """Sort *sequences* (distinct) of a call into hits, follows and misses.

        *unit* is the call's own, still empty, unit for
        ``unit.model_name`` at ``unit.epoch``.  Returns ``(hits, follows)``:
        ``hits`` maps a sequence to a copy of its row, ``follows`` maps a
        sequence to the ``(unit, index)`` of another call's unit of the
        same epoch that is computing it.  Every other sequence is a miss,
        appended to ``unit.sequences`` and, with *coalesce*, marked pending
        on *unit*, displacing a pending entry of another epoch.  The caller
        must run *unit* through :meth:`complete`, or its followers hang.
        """
        hits: dict = {}
        follows: dict = {}
        with self._lock:
            for sequence in sequences:
                key = (unit.model_name, sequence)
                row = self._hit(key)
                if row is not None:
                    hits[sequence] = row
                    continue
                entry = self._entries.get(key)
                if type(entry) is _Pending and entry.unit.epoch == unit.epoch:
                    follows[sequence] = entry
                    continue
                if coalesce:
                    self._replace(key, _Pending(unit, len(unit.sequences)))
                unit.sequences.append(sequence)
        return hits, follows

    def complete(self, unit) -> None:
        """Publish a finished unit (``result`` or ``error`` set) and wake it.

        Its pending entries become rows when it succeeded under the current
        epoch and caching is on, and are dropped otherwise; an entry a
        newer-epoch unit took over is left to that unit.
        """
        with self._lock:
            for index, sequence in enumerate(unit.sequences):
                key = (unit.model_name, sequence)
                entry = self._entries.get(key)
                if type(entry) is _Pending:
                    if entry.unit is not unit:
                        continue
                    self._replace(key, None)
                if unit.error is None:
                    self._store(key, unit.epoch, unit.result[index])
        unit.done.set()

    # ------------------------------------------------------------------
    # epochs and invalidation
    # ------------------------------------------------------------------
    def epoch(self, model_name: str) -> int:
        with self._lock:
            return self._epochs[model_name]

    def invalidate(self, model_name: str) -> int:
        """Retire every row of *model_name*; returns how many were live.

        O(1): the epoch bump alone makes them unservable, and a unit still
        computing under the old epoch caches nothing when it completes.
        """
        with self._lock:
            self._epochs[model_name] += 1
            return self._live.pop(model_name, 0)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Rows ``get`` would serve (retired rows are not counted)."""
        with self._lock:
            return sum(self._live.values())

    def inflight_count(self) -> int:
        """Sequences currently pending on a unit (diagnostics)."""
        with self._lock:
            return len(self._entries) - self._rows

    def stats(self) -> dict:
        """JSON-safe snapshot of the rows and in-flight sequences."""
        return {
            "entries": len(self),
            "capacity": self.capacity,
            "in_flight": self.inflight_count(),
        }
