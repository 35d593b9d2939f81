"""Supervised training loop for the sequence classifiers.

Provides mini-batch training with validation after every epoch, gradient
clipping, an optional warmup/decay schedule, early stopping on validation
loss, and a :class:`TrainingHistory` record — the latter is what regenerates
the paper's training-loss and validation-loss figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.nn.dataloader import BatchIterator, trim_padding
from repro.nn.losses import accuracy_from_logits, cross_entropy_logits
from repro.nn.module import Module
from repro.nn.optim import Optimizer
from repro.nn.schedules import Schedule
from repro.nn.tensor import clip_gradients, no_grad


@dataclass
class TrainingHistory:
    """Per-epoch metrics collected during training.

    The train/validation loss curves reproduce the paper's ``loss_training``
    and ``loss_val`` figures.
    """

    train_loss: list[float] = field(default_factory=list)
    train_accuracy: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)

    @property
    def epochs(self) -> int:
        return len(self.train_loss)

    @property
    def best_epoch(self) -> int:
        """Epoch (0-based) with the lowest validation loss."""
        if not self.val_loss:
            return max(self.epochs - 1, 0)
        return int(np.argmin(self.val_loss))

    def as_dict(self) -> dict[str, list[float]]:
        """Plain-dict view (JSON-serialisable)."""
        return {
            "train_loss": list(self.train_loss),
            "train_accuracy": list(self.train_accuracy),
            "val_loss": list(self.val_loss),
            "val_accuracy": list(self.val_accuracy),
        }


@dataclass(frozen=True)
class TrainerConfig:
    """Hyper-parameters of the supervised training loop."""

    epochs: int = 5
    batch_size: int = 32
    clip_norm: float = 1.0
    early_stopping_patience: int | None = None
    shuffle_seed: int = 0
    verbose: bool = False


class Trainer:
    """Trains a classification model that maps (ids, mask) batches to logits."""

    def __init__(
        self,
        model: Module,
        optimizer: Optimizer,
        schedule: Schedule | None = None,
        config: TrainerConfig | None = None,
        loss_fn: Callable = cross_entropy_logits,
    ) -> None:
        self.model = model
        self.optimizer = optimizer
        self.schedule = schedule
        self.config = config or TrainerConfig()
        self.loss_fn = loss_fn
        self.history = TrainingHistory()

    # ------------------------------------------------------------------
    def fit(
        self,
        train_ids: np.ndarray,
        train_mask: np.ndarray,
        train_labels: np.ndarray,
        val_ids: np.ndarray | None = None,
        val_mask: np.ndarray | None = None,
        val_labels: np.ndarray | None = None,
    ) -> TrainingHistory:
        """Train for the configured number of epochs.

        Returns the accumulated :class:`TrainingHistory`.
        """
        cfg = self.config
        iterator = BatchIterator(
            train_ids,
            train_mask,
            labels=np.asarray(train_labels),
            batch_size=cfg.batch_size,
            seed=cfg.shuffle_seed,
        )
        best_val = np.inf
        best_state: dict[str, np.ndarray] | None = None
        epochs_without_improvement = 0

        for epoch in range(cfg.epochs):
            self.model.train()
            batch_losses: list[float] = []
            batch_accuracies: list[float] = []
            for ids, mask, labels in iterator:
                if self.schedule is not None:
                    self.schedule.step()
                self.model.zero_grad()
                logits = self.model(ids, mask=mask)
                loss = self.loss_fn(logits, labels)
                loss.backward()
                clip_gradients(self.model.parameters(), cfg.clip_norm)
                self.optimizer.step()
                batch_losses.append(loss.item())
                batch_accuracies.append(accuracy_from_logits(logits, labels))

            self.history.train_loss.append(float(np.mean(batch_losses)))
            self.history.train_accuracy.append(float(np.mean(batch_accuracies)))

            if val_ids is not None and val_labels is not None:
                val_loss, val_accuracy = self.evaluate(val_ids, val_mask, val_labels)
                self.history.val_loss.append(val_loss)
                self.history.val_accuracy.append(val_accuracy)
                if cfg.verbose:  # pragma: no cover - console output
                    print(
                        f"epoch {epoch + 1}/{cfg.epochs} "
                        f"train_loss={self.history.train_loss[-1]:.4f} "
                        f"val_loss={val_loss:.4f} val_acc={val_accuracy:.4f}"
                    )
                if val_loss < best_val - 1e-6:
                    best_val = val_loss
                    best_state = self.model.state_dict()
                    epochs_without_improvement = 0
                else:
                    epochs_without_improvement += 1
                    if (
                        cfg.early_stopping_patience is not None
                        and epochs_without_improvement > cfg.early_stopping_patience
                    ):
                        break
            elif cfg.verbose:  # pragma: no cover - console output
                print(
                    f"epoch {epoch + 1}/{cfg.epochs} "
                    f"train_loss={self.history.train_loss[-1]:.4f}"
                )

        if best_state is not None:
            self.model.load_state_dict(best_state)
        return self.history

    # ------------------------------------------------------------------
    def evaluate(
        self,
        ids: np.ndarray,
        mask: np.ndarray | None,
        labels: np.ndarray,
        batch_size: int | None = None,
    ) -> tuple[float, float]:
        """Mean loss and accuracy over a dataset (no gradient tracking)."""
        labels = np.asarray(labels)
        logits = self.predict_logits(ids, mask, batch_size=batch_size)
        with no_grad():
            loss = self.loss_fn(_to_tensor(logits), labels).item()
        accuracy = accuracy_from_logits(logits, labels)
        return float(loss), float(accuracy)

    def predict_logits(
        self,
        ids: np.ndarray,
        mask: np.ndarray | None,
        batch_size: int | None = None,
    ) -> np.ndarray:
        """Model logits for every row of *ids* (evaluation mode, batched).

        With a *mask*, rows are sorted by real length (stably), run in
        chunks of *batch_size* each cut to its longest real row
        (:func:`~repro.nn.dataloader.trim_padding`), and the logits are
        returned in input order.  Without one, rows run in input order at
        full width.

        Leaves the model in evaluation mode.  ``eval()`` is idempotent, so
        threads predicting on one model concurrently all run without
        dropout; switching back to training mode here would turn dropout on
        in the middle of another thread's forward pass.  :meth:`fit` calls
        ``train()`` at the start of every epoch.
        """
        batch_size = batch_size or self.config.batch_size
        self.model.eval()
        n = ids.shape[0]
        if mask is None:
            order = np.arange(n)
        else:
            order = np.argsort(np.count_nonzero(mask, axis=1), kind="stable")
        outputs: list[np.ndarray] = []
        with no_grad():
            for start in range(0, n, batch_size):
                rows = order[start : start + batch_size]
                batch_ids, batch_mask = ids[rows], None
                if mask is not None:
                    batch_mask, batch_ids = trim_padding(mask[rows], batch_ids)
                outputs.append(self.model(batch_ids, mask=batch_mask).data)
        sorted_logits = np.concatenate(outputs, axis=0)
        logits = np.empty_like(sorted_logits)
        logits[order] = sorted_logits
        return logits


def _to_tensor(array: np.ndarray):
    from repro.nn.tensor import Tensor

    return Tensor(array)
