"""Learning-rate schedules."""

from __future__ import annotations

import abc

from repro.nn.optim import Optimizer


class Schedule(abc.ABC):
    """Base learning-rate schedule driving an :class:`Optimizer`."""

    def __init__(self, optimizer: Optimizer) -> None:
        self.optimizer = optimizer
        self.step_count = 0

    @abc.abstractmethod
    def learning_rate(self, step: int) -> float:
        """Learning rate at *step* (0-based)."""

    def step(self) -> float:
        """Advance one step and apply the new learning rate."""
        lr = self.learning_rate(self.step_count)
        self.optimizer.set_lr(lr)
        self.step_count += 1
        return lr


class LinearWarmupDecay(Schedule):
    """Linear warmup followed by linear decay to zero.

    This is the schedule BERT-style pretraining and fine-tuning use.
    """

    def __init__(
        self,
        optimizer: Optimizer,
        peak_lr: float,
        warmup_steps: int,
        total_steps: int,
        floor: float = 0.0,
    ) -> None:
        super().__init__(optimizer)
        if warmup_steps < 0 or total_steps <= 0:
            raise ValueError("warmup_steps must be >= 0 and total_steps > 0")
        if warmup_steps > total_steps:
            raise ValueError("warmup_steps cannot exceed total_steps")
        self.peak_lr = peak_lr
        self.warmup_steps = warmup_steps
        self.total_steps = total_steps
        self.floor = floor

    def learning_rate(self, step: int) -> float:
        if self.warmup_steps > 0 and step < self.warmup_steps:
            return self.peak_lr * (step + 1) / self.warmup_steps
        remaining = max(self.total_steps - step, 0)
        decay_span = max(self.total_steps - self.warmup_steps, 1)
        return max(self.floor, self.peak_lr * remaining / decay_span)
