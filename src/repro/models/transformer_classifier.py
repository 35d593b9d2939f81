"""BERT- and RoBERTa-style transformer cuisine classifiers (Table IV).

Both models share the same bidirectional Transformer encoder; they differ in
pretraining, mirroring the actual difference between BERT and RoBERTa that the
paper cites ("RoBERTa was trained on longer sequences for more training steps
than BERT", with dynamic masking):

* the **BERT preset** pretrains with static masking for fewer epochs;
* the **RoBERTa preset** pretrains with dynamic masking for more epochs and a
  slightly larger masked fraction.

Pretraining runs on the recipe corpus itself (masked-language modelling over
recipe item sequences) because the original web-scale pretraining corpora are
unavailable offline; the mechanism exercised — transfer from bidirectional
MLM pretraining into fine-tuned classification — is the same.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

from repro.data.cuisines import CUISINES
from repro.models.base import CuisineModel
from repro.nn.mlm import MLMConfig, MLMPretrainingResult, pretrain_mlm
from repro.nn.optim import AdamW
from repro.nn.schedules import LinearWarmupDecay
from repro.nn.trainer import Trainer, TrainerConfig, TrainingHistory
from repro.nn.transformer import (
    TransformerConfig,
    TransformerForMaskedLM,
    TransformerForSequenceClassification,
)
from repro.pipeline.specs import ModelInputs, SequenceSpec
from repro.text.pipeline import PipelineConfig
from repro.text.sequences import EncodedBatch, SequenceEncoder
from repro.text.vocabulary import Vocabulary


@dataclass(frozen=True)
class TransformerClassifierConfig:
    """Hyper-parameters of a transformer cuisine classifier.

    Attributes:
        dim / num_heads / num_layers / ffn_dim / dropout: Encoder size.
        max_length: Maximum (truncated) sequence length including ``[CLS]``.
        min_token_freq / max_vocab_size: Vocabulary construction.
        pretrain_epochs: MLM pretraining epochs (0 disables pretraining).
        pretrain_dynamic_masking: RoBERTa-style dynamic masking if true,
            BERT-style static masking if false.
        pretrain_mask_probability: Fraction of tokens masked during MLM.
        pretrain_lr / pretrain_batch_size: MLM optimisation.
        epochs / batch_size / learning_rate / warmup_fraction / weight_decay:
            Fine-tuning optimisation.
        early_stopping_patience: Fine-tuning early stopping on validation loss.
        seed: PRNG seed.
    """

    dim: int = 64
    num_heads: int = 4
    num_layers: int = 2
    ffn_dim: int = 128
    dropout: float = 0.1
    max_length: int = 48
    min_token_freq: int = 2
    max_vocab_size: int | None = 20000
    pretrain_epochs: int = 2
    pretrain_dynamic_masking: bool = True
    pretrain_mask_probability: float = 0.15
    pretrain_lr: float = 3e-3
    pretrain_batch_size: int = 32
    epochs: int = 6
    batch_size: int = 32
    learning_rate: float = 2e-3
    warmup_fraction: float = 0.1
    weight_decay: float = 0.01
    clip_norm: float = 1.0
    early_stopping_patience: int | None = 2
    seed: int = 0


class TransformerCuisineClassifier(CuisineModel):
    """A transformer encoder fine-tuned for cuisine classification."""

    name = "transformer"
    DEFAULT_DTYPE_POLICY = "float32"

    def __init__(
        self,
        label_space: Sequence[str] = CUISINES,
        config: TransformerClassifierConfig | None = None,
    ) -> None:
        super().__init__(label_space)
        self.config = config or TransformerClassifierConfig()
        self.vocabulary: Vocabulary | None = None
        self.encoder: SequenceEncoder | None = None
        self.network: TransformerForSequenceClassification | None = None
        self.trainer: Trainer | None = None
        self.history: TrainingHistory | None = None
        self.pretraining_result: MLMPretrainingResult | None = None

    # ------------------------------------------------------------------
    def feature_spec(self) -> SequenceSpec:
        cfg = self.config
        return SequenceSpec(
            pipeline=PipelineConfig(split_items=False),
            min_token_freq=cfg.min_token_freq,
            max_vocab_size=cfg.max_vocab_size,
            max_length=cfg.max_length,
            add_cls=True,
        )

    def fit_features(
        self, train: ModelInputs, validation: ModelInputs | None = None
    ) -> "TransformerCuisineClassifier":
        cfg = self.config
        self.vocabulary = train.vocabulary
        self.encoder = SequenceEncoder(self.vocabulary, max_length=cfg.max_length, add_cls=True)
        train_batch: EncodedBatch = train.features
        train_labels = train.labels

        encoder_config = TransformerConfig(
            vocab_size=len(self.vocabulary),
            max_length=cfg.max_length,
            dim=cfg.dim,
            num_heads=cfg.num_heads,
            num_layers=cfg.num_layers,
            ffn_dim=cfg.ffn_dim,
            dropout=cfg.dropout,
            seed=cfg.seed,
        )

        # Phase 1 — masked-language-model pretraining on the training corpus.
        pretrained_state: dict[str, np.ndarray] | None = None
        if cfg.pretrain_epochs > 0:
            mlm_model = TransformerForMaskedLM(encoder_config)
            mlm_config = MLMConfig(
                mask_probability=cfg.pretrain_mask_probability,
                dynamic=cfg.pretrain_dynamic_masking,
                epochs=cfg.pretrain_epochs,
                batch_size=cfg.pretrain_batch_size,
                peak_lr=cfg.pretrain_lr,
                seed=cfg.seed,
            )
            self.pretraining_result = pretrain_mlm(
                mlm_model, train_batch.ids, train_batch.mask, self.vocabulary, mlm_config
            )
            pretrained_state = mlm_model.encoder.state_dict()

        # Phase 2 — supervised fine-tuning with the [CLS] classification head.
        self.network = TransformerForSequenceClassification(encoder_config, self.n_classes)
        if pretrained_state is not None:
            self.network.encoder.load_state_dict(pretrained_state)

        n_batches = int(np.ceil(len(train_labels) / cfg.batch_size))
        total_steps = max(1, n_batches * cfg.epochs)
        optimizer = AdamW(
            self.network.parameters(), lr=cfg.learning_rate, weight_decay=cfg.weight_decay
        )
        schedule = LinearWarmupDecay(
            optimizer,
            peak_lr=cfg.learning_rate,
            warmup_steps=max(1, int(total_steps * cfg.warmup_fraction)),
            total_steps=total_steps,
        )
        self.trainer = Trainer(
            self.network,
            optimizer,
            schedule=schedule,
            config=TrainerConfig(
                epochs=cfg.epochs,
                batch_size=cfg.batch_size,
                clip_norm=cfg.clip_norm,
                early_stopping_patience=cfg.early_stopping_patience,
                shuffle_seed=cfg.seed,
            ),
        )

        val_args: tuple = (None, None, None)
        if validation is not None and len(validation) > 0:
            val_batch: EncodedBatch = validation.features
            val_args = (val_batch.ids, val_batch.mask, validation.labels)

        self.history = self.trainer.fit(
            train_batch.ids, train_batch.mask, train_labels, *val_args
        )
        return self

    def predict_proba_features(self, features: EncodedBatch) -> np.ndarray:
        if self.trainer is None:
            raise RuntimeError(f"{type(self).__name__} is not fitted; call fit() first")
        logits = self.trainer.predict_logits(features.ids, features.mask)
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=1, keepdims=True)

    # ------------------------------------------------------------------
    # the artifact protocol
    # ------------------------------------------------------------------
    def encode_tokens(self, token_lists) -> EncodedBatch:
        if self.encoder is None:
            raise RuntimeError(f"{type(self).__name__} is not fitted; call fit() first")
        return self.encoder.encode(token_lists)

    def get_state(self) -> dict:
        if self.network is None:
            raise RuntimeError(f"{type(self).__name__} is not fitted; call fit() first")
        return {
            "config": asdict(self.config),
            "vocabulary": self.vocabulary.get_state(),
            "network": self.network.state_dict(),
        }

    def set_state(self, state: dict) -> "TransformerCuisineClassifier":
        # The saved config is the preset-transformed one (e.g. RoBERTa's
        # doubled pretraining epochs), so it is restored verbatim rather than
        # re-derived through the subclass constructor.
        self.config = TransformerClassifierConfig(**state["config"])
        cfg = self.config
        self.vocabulary = Vocabulary.from_state(state["vocabulary"])
        self.encoder = SequenceEncoder(self.vocabulary, max_length=cfg.max_length, add_cls=True)
        encoder_config = TransformerConfig(
            vocab_size=len(self.vocabulary),
            max_length=cfg.max_length,
            dim=cfg.dim,
            num_heads=cfg.num_heads,
            num_layers=cfg.num_layers,
            ffn_dim=cfg.ffn_dim,
            dropout=cfg.dropout,
            seed=cfg.seed,
        )
        self.network = TransformerForSequenceClassification(encoder_config, self.n_classes)
        self.network.load_state_dict(dict(state["network"]))
        # A trainer is (re)attached purely for its batched predict_logits path.
        self.trainer = Trainer(
            self.network,
            AdamW(self.network.parameters(), lr=cfg.learning_rate, weight_decay=cfg.weight_decay),
            config=TrainerConfig(epochs=cfg.epochs, batch_size=cfg.batch_size),
        )
        self.history = None
        self.pretraining_result = None
        return self


class BERTCuisineClassifier(TransformerCuisineClassifier):
    """Table IV "BERT" — static masking, shorter pretraining."""

    name = "bert"

    def __init__(
        self,
        label_space: Sequence[str] = CUISINES,
        config: TransformerClassifierConfig | None = None,
    ) -> None:
        base = config or TransformerClassifierConfig()
        bert_config = replace(
            base,
            pretrain_dynamic_masking=False,
            pretrain_epochs=max(1, base.pretrain_epochs // 2) if base.pretrain_epochs else 0,
        )
        super().__init__(label_space, bert_config)


class RoBERTaCuisineClassifier(TransformerCuisineClassifier):
    """Table IV "RoBERTa" — dynamic masking, longer pretraining."""

    name = "roberta"

    def __init__(
        self,
        label_space: Sequence[str] = CUISINES,
        config: TransformerClassifierConfig | None = None,
    ) -> None:
        base = config or TransformerClassifierConfig()
        roberta_config = replace(
            base,
            pretrain_dynamic_masking=True,
            pretrain_epochs=max(base.pretrain_epochs, 1) * 2 if base.pretrain_epochs else 0,
        )
        super().__init__(label_space, roberta_config)
