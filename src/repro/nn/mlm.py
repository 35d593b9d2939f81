"""Masked-language-model pretraining (the BERT/RoBERTa objective).

BERT masks 15 % of the tokens once, statically, when the data is prepared;
RoBERTa applies *dynamic masking*, drawing a fresh mask every epoch, and
pretrains for more steps.  Both behaviours are supported here and are exactly
what distinguishes the paper's two transformer rows (Section V-F).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.dataloader import trim_padding
from repro.nn.losses import masked_cross_entropy_logits
from repro.nn.optim import AdamW
from repro.nn.schedules import LinearWarmupDecay
from repro.nn.tensor import clip_gradients
from repro.nn.transformer import TransformerForMaskedLM
from repro.text.vocabulary import Vocabulary


@dataclass(frozen=True)
class MLMConfig:
    """Hyper-parameters of the MLM pretraining loop.

    Attributes:
        mask_probability: Fraction of (non-special) tokens selected per
            sequence.
        mask_token_rate: Of the selected tokens, fraction replaced by
            ``[MASK]`` (the rest are replaced by a random token or kept, per
            the 80/10/10 BERT recipe).
        random_token_rate: Fraction of selected tokens replaced by a random
            vocabulary token.
        dynamic: Re-draw the mask every epoch (RoBERTa) instead of once
            (BERT).
        epochs: Pretraining epochs over the corpus.
        batch_size: Pretraining batch size.
        peak_lr: Peak learning rate of the warmup/decay schedule.
        warmup_fraction: Fraction of total steps used for warmup.
        weight_decay: AdamW weight decay.
        clip_norm: Gradient clipping norm.
        seed: PRNG seed.
    """

    mask_probability: float = 0.15
    mask_token_rate: float = 0.8
    random_token_rate: float = 0.1
    dynamic: bool = True
    epochs: int = 2
    batch_size: int = 32
    peak_lr: float = 5e-3
    warmup_fraction: float = 0.1
    weight_decay: float = 0.01
    clip_norm: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.mask_probability < 1.0:
            raise ValueError("mask_probability must be in (0, 1)")
        if self.mask_token_rate + self.random_token_rate > 1.0:
            raise ValueError("mask_token_rate + random_token_rate must be <= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")


def apply_mlm_masking(
    ids: np.ndarray,
    attention_mask: np.ndarray,
    vocabulary: Vocabulary,
    config: MLMConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Produce masked inputs and MLM targets for a batch.

    Returns:
        ``(masked_ids, targets, loss_mask)`` — ``targets`` holds the original
        token ids, ``loss_mask`` is 1.0 on the positions that were selected
        for prediction.
    """
    ids = np.asarray(ids, dtype=np.int64)
    attention_mask = np.asarray(attention_mask, dtype=np.float64)
    masked = ids.copy()
    special = np.isin(ids, np.asarray(vocabulary.special_ids))
    eligible = (attention_mask > 0) & ~special

    selection = (rng.random(ids.shape) < config.mask_probability) & eligible
    # Guarantee at least one masked position per sequence with any eligible
    # token, so every example contributes to the loss.
    for row in range(ids.shape[0]):
        if eligible[row].any() and not selection[row].any():
            candidates = np.flatnonzero(eligible[row])
            selection[row, rng.choice(candidates)] = True

    replace_roll = rng.random(ids.shape)
    mask_positions = selection & (replace_roll < config.mask_token_rate)
    random_positions = selection & (
        (replace_roll >= config.mask_token_rate)
        & (replace_roll < config.mask_token_rate + config.random_token_rate)
    )
    masked[mask_positions] = vocabulary.mask_id
    if random_positions.any():
        n_special = len(vocabulary.special_ids)
        random_ids = rng.integers(n_special, len(vocabulary), size=int(random_positions.sum()))
        masked[random_positions] = random_ids

    loss_mask = selection.astype(np.float64)
    return masked, ids, loss_mask


@dataclass
class MLMPretrainingResult:
    """Loss history of an MLM pretraining run."""

    losses_per_epoch: list[float]
    total_steps: int

    @property
    def final_loss(self) -> float:
        return self.losses_per_epoch[-1] if self.losses_per_epoch else float("nan")


def pretrain_mlm(
    model: TransformerForMaskedLM,
    ids: np.ndarray,
    attention_mask: np.ndarray,
    vocabulary: Vocabulary,
    config: MLMConfig | None = None,
) -> MLMPretrainingResult:
    """Pretrain *model* on the corpus with the MLM objective.

    Args:
        model: The masked-LM model to train in place.
        ids: Padded id matrix of the pretraining corpus.
        attention_mask: Matching attention mask.
        vocabulary: Vocabulary providing the special-token ids.
        config: Pretraining hyper-parameters.

    Returns:
        The per-epoch loss history.
    """
    config = config or MLMConfig()
    rng = np.random.default_rng(config.seed)
    model.train()

    if config.epochs == 0:
        return MLMPretrainingResult(losses_per_epoch=[], total_steps=0)

    ids = np.asarray(ids, dtype=np.int64)
    attention_mask = np.asarray(attention_mask, dtype=np.float64)
    n = ids.shape[0]
    n_batches = int(np.ceil(n / config.batch_size))
    total_steps = max(1, n_batches * config.epochs)

    optimizer = AdamW(model.parameters(), lr=config.peak_lr, weight_decay=config.weight_decay)
    schedule = LinearWarmupDecay(
        optimizer,
        peak_lr=config.peak_lr,
        warmup_steps=max(1, int(total_steps * config.warmup_fraction)),
        total_steps=total_steps,
    )

    # Static masking (BERT): one mask drawn up front and reused every epoch.
    # Dynamic masking (RoBERTa): a fresh mask per epoch.
    if not config.dynamic:
        static = apply_mlm_masking(ids, attention_mask, vocabulary, config, rng)

    losses: list[float] = []
    steps = 0
    for _ in range(config.epochs):
        if config.dynamic:
            masked_ids, targets, loss_mask = apply_mlm_masking(
                ids, attention_mask, vocabulary, config, rng
            )
        else:
            masked_ids, targets, loss_mask = static
        order = rng.permutation(n)
        epoch_losses: list[float] = []
        for start in range(0, n, config.batch_size):
            rows = order[start : start + config.batch_size]
            schedule.step()
            model.zero_grad()
            batch_mask, batch_ids, batch_targets, batch_loss_mask = trim_padding(
                attention_mask[rows], masked_ids[rows], targets[rows], loss_mask[rows]
            )
            logits = model(batch_ids, mask=batch_mask)
            loss = masked_cross_entropy_logits(logits, batch_targets, batch_loss_mask)
            loss.backward()
            clip_gradients(model.parameters(), config.clip_norm)
            optimizer.step()
            epoch_losses.append(loss.item())
            steps += 1
        losses.append(float(np.mean(epoch_losses)) if epoch_losses else float("nan"))
    return MLMPretrainingResult(losses_per_epoch=losses, total_steps=steps)
