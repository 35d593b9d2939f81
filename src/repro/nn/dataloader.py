"""Mini-batch iteration over padded id matrices."""

from __future__ import annotations

from typing import Iterator

import numpy as np


def trim_padding(mask: np.ndarray, *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Cut a padded minibatch to its last real column.

    Padding sits at the end of every row, and padded positions get exactly
    zero attention weight and freeze the LSTM state, so the columns after
    the batch's longest real row change no output.  At least one column is
    kept, so a batch whose rows are all padding still runs.

    Args:
        mask: ``(batch, length)`` array; nonzero over real positions.
        arrays: Further ``(batch, length, ...)`` arrays to cut alike.

    Returns:
        ``(mask, *arrays)``, each sliced to ``[:, :width]`` (views).
    """
    real = np.flatnonzero(np.asarray(mask).any(axis=0))
    width = int(real[-1]) + 1 if real.size else 1
    return (mask[:, :width],) + tuple(array[:, :width] for array in arrays)


class BatchIterator:
    """Yields shuffled mini-batches of (ids, mask, labels) arrays.

    Each batch is cut to its longest real row (:func:`trim_padding`).

    Args:
        ids: Integer id matrix of shape ``(n, length)``.
        mask: Attention mask of the same shape.
        labels: Integer labels of shape ``(n,)`` (optional; MLM pretraining
            iterates without labels).
        batch_size: Batch size.
        shuffle: Reshuffle every epoch.
        seed: Shuffle seed.
        drop_last: Drop the final incomplete batch.
    """

    def __init__(
        self,
        ids: np.ndarray,
        mask: np.ndarray,
        labels: np.ndarray | None = None,
        batch_size: int = 32,
        shuffle: bool = True,
        seed: int = 0,
        drop_last: bool = False,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        ids = np.asarray(ids)
        mask = np.asarray(mask)
        if ids.shape != mask.shape:
            raise ValueError(f"ids and mask shapes differ: {ids.shape} != {mask.shape}")
        if labels is not None:
            labels = np.asarray(labels)
            if labels.shape[0] != ids.shape[0]:
                raise ValueError("labels length does not match ids")
        self.ids = ids
        self.mask = mask
        self.labels = labels
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.drop_last = drop_last
        self._rng = np.random.default_rng(seed)

    def __len__(self) -> int:
        n_batches, remainder = divmod(self.ids.shape[0], self.batch_size)
        if remainder and not self.drop_last:
            n_batches += 1
        return n_batches

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray | None]]:
        n = self.ids.shape[0]
        order = self._rng.permutation(n) if self.shuffle else np.arange(n)
        for start in range(0, n, self.batch_size):
            batch_idx = order[start : start + self.batch_size]
            if self.drop_last and len(batch_idx) < self.batch_size:
                break
            labels = self.labels[batch_idx] if self.labels is not None else None
            mask, ids = trim_padding(self.mask[batch_idx], self.ids[batch_idx])
            yield ids, mask, labels
