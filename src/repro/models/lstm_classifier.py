"""The 2-layer LSTM cuisine classifier (Table IV column "LSTM").

Recipes are encoded as item-level token sequences (the sequential
preprocessing of Section IV), embedded, run through a stacked LSTM, and the
final hidden state (at the last real token) is classified with a linear head.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from repro.data.cuisines import CUISINES
from repro.models.base import CuisineModel
from repro.nn.layers import Dropout, Embedding, Linear
from repro.nn.module import Module
from repro.nn.optim import Adam
from repro.nn.rnn import LSTM
from repro.nn.tensor import Tensor
from repro.nn.trainer import Trainer, TrainerConfig, TrainingHistory
from repro.pipeline.specs import ModelInputs, SequenceSpec
from repro.text.pipeline import PipelineConfig
from repro.text.sequences import EncodedBatch, SequenceEncoder
from repro.text.vocabulary import Vocabulary


@dataclass(frozen=True)
class LSTMClassifierConfig:
    """Hyper-parameters of the LSTM cuisine classifier.

    The defaults are scaled to the synthetic corpus used by the benchmarks;
    the paper's full-scale run uses larger dimensions but the same topology
    (a "simple 2-layer LSTM").
    """

    embedding_dim: int = 48
    hidden_dim: int = 64
    num_layers: int = 2
    dropout: float = 0.15
    max_length: int = 48
    min_token_freq: int = 2
    max_vocab_size: int | None = 20000
    epochs: int = 6
    batch_size: int = 32
    learning_rate: float = 2e-3
    clip_norm: float = 1.0
    early_stopping_patience: int | None = 2
    seed: int = 0


class _LSTMNetwork(Module):
    """Embedding -> stacked LSTM -> final-state linear classifier."""

    def __init__(self, vocab_size: int, num_classes: int, config: LSTMClassifierConfig) -> None:
        super().__init__()
        self.embedding = Embedding(vocab_size, config.embedding_dim, seed=config.seed, pad_id=0)
        self.lstm = LSTM(
            config.embedding_dim,
            config.hidden_dim,
            num_layers=config.num_layers,
            dropout=config.dropout,
            seed=config.seed + 1,
        )
        self.dropout = Dropout(config.dropout, seed=config.seed + 2)
        self.classifier = Linear(config.hidden_dim, num_classes, seed=config.seed + 3)

    def forward(self, ids: np.ndarray, mask: np.ndarray | None = None) -> Tensor:
        embedded = self.embedding(ids)
        _, final_hidden = self.lstm(embedded, mask=mask)
        return self.classifier(self.dropout(final_hidden))


class LSTMCuisineClassifier(CuisineModel):
    """Table IV "LSTM" — the sequential recurrent baseline."""

    name = "lstm"
    DEFAULT_DTYPE_POLICY = "float32"

    def __init__(
        self,
        label_space: Sequence[str] = CUISINES,
        config: LSTMClassifierConfig | None = None,
    ) -> None:
        super().__init__(label_space)
        self.config = config or LSTMClassifierConfig()
        self.vocabulary: Vocabulary | None = None
        self.encoder: SequenceEncoder | None = None
        self.network: _LSTMNetwork | None = None
        self.trainer: Trainer | None = None
        self.history: TrainingHistory | None = None

    # ------------------------------------------------------------------
    def feature_spec(self) -> SequenceSpec:
        cfg = self.config
        return SequenceSpec(
            pipeline=PipelineConfig(split_items=False),
            min_token_freq=cfg.min_token_freq,
            max_vocab_size=cfg.max_vocab_size,
            max_length=cfg.max_length,
            add_cls=False,
        )

    def fit_features(
        self, train: ModelInputs, validation: ModelInputs | None = None
    ) -> "LSTMCuisineClassifier":
        cfg = self.config
        self.vocabulary = train.vocabulary
        self.encoder = SequenceEncoder(
            self.vocabulary, max_length=cfg.max_length, add_cls=False
        )
        train_batch: EncodedBatch = train.features
        train_labels = train.labels

        self.network = _LSTMNetwork(len(self.vocabulary), self.n_classes, cfg)
        optimizer = Adam(self.network.parameters(), lr=cfg.learning_rate)
        self.trainer = Trainer(
            self.network,
            optimizer,
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
            raise RuntimeError("LSTMCuisineClassifier is not fitted; call fit() first")
        logits = self.trainer.predict_logits(features.ids, features.mask)
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=1, keepdims=True)

    # ------------------------------------------------------------------
    # the artifact protocol
    # ------------------------------------------------------------------
    def encode_tokens(self, token_lists) -> EncodedBatch:
        if self.encoder is None:
            raise RuntimeError("LSTMCuisineClassifier is not fitted; call fit() first")
        return self.encoder.encode(token_lists)

    def get_state(self) -> dict:
        if self.network is None:
            raise RuntimeError("LSTMCuisineClassifier is not fitted; call fit() first")
        return {
            "config": asdict(self.config),
            "vocabulary": self.vocabulary.get_state(),
            "network": self.network.state_dict(),
        }

    def set_state(self, state: dict) -> "LSTMCuisineClassifier":
        self.config = LSTMClassifierConfig(**state["config"])
        cfg = self.config
        self.vocabulary = Vocabulary.from_state(state["vocabulary"])
        self.encoder = SequenceEncoder(self.vocabulary, max_length=cfg.max_length, add_cls=False)
        self.network = _LSTMNetwork(len(self.vocabulary), self.n_classes, cfg)
        self.network.load_state_dict(dict(state["network"]))
        # A trainer is (re)attached purely for its batched predict_logits path.
        self.trainer = Trainer(
            self.network,
            Adam(self.network.parameters(), lr=cfg.learning_rate),
            config=TrainerConfig(epochs=cfg.epochs, batch_size=cfg.batch_size),
        )
        self.history = None
        return self
