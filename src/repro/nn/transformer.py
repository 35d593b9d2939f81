"""Transformer encoder (Section V-F of the paper).

A BERT-style bidirectional encoder: token embeddings + learned positional
embeddings, a stack of pre-norm encoder blocks (multi-head self-attention and
a GELU feed-forward network with residual connections), and two heads — a
masked-language-model head for pretraining and a ``[CLS]``-pooled
classification head for fine-tuning.

The "BERT" and "RoBERTa" configurations of the paper differ in how they are
*pretrained* (RoBERTa: longer, with dynamic masking, no next-sentence
prediction); the encoder itself is shared.  See
:mod:`repro.models.transformer_classifier` for the two presets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.layers import Dropout, Embedding, LayerNorm, Linear
from repro.nn.module import Module
from repro.nn.tensor import Tensor


@dataclass(frozen=True)
class TransformerConfig:
    """Architecture hyper-parameters of the encoder.

    Attributes:
        vocab_size: Token vocabulary size (including special tokens).
        max_length: Maximum sequence length (positional table size).
        dim: Model dimension.
        num_heads: Attention heads per block.
        num_layers: Number of encoder blocks.
        ffn_dim: Hidden width of the feed-forward network.
        dropout: Dropout rate used throughout.
        seed: Initialisation seed.
    """

    vocab_size: int
    max_length: int = 64
    dim: int = 64
    num_heads: int = 4
    num_layers: int = 2
    ffn_dim: int = 128
    dropout: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.vocab_size < 5:
            raise ValueError("vocab_size must include the special tokens")
        if self.dim % self.num_heads != 0:
            raise ValueError("dim must be divisible by num_heads")
        if self.num_layers < 1:
            raise ValueError("num_layers must be >= 1")


class EncoderBlock(Module):
    """One pre-norm transformer encoder block."""

    def __init__(self, config: TransformerConfig, seed: int) -> None:
        super().__init__()
        self.attention = MultiHeadSelfAttention(
            config.dim, config.num_heads, dropout=config.dropout, seed=seed
        )
        self.attention_norm = LayerNorm(config.dim)
        self.ffn_norm = LayerNorm(config.dim)
        self.ffn_in = Linear(config.dim, config.ffn_dim, seed=seed + 11)
        self.ffn_out = Linear(config.ffn_dim, config.dim, seed=seed + 12)
        self.dropout = Dropout(config.dropout, seed=seed + 13)

    def forward(
        self, x: Tensor, mask: np.ndarray | None = None, cls_only: bool = False
    ) -> Tensor:
        """Return ``(batch, length, dim)``; with *cls_only*, ``(batch, 1, dim)``
        for position 0 alone, which still attends over every position."""
        attended = self.attention(self.attention_norm(x), mask=mask, cls_only=cls_only)
        if cls_only:
            x = x[:, :1, :]
        x = x + self.dropout(attended)
        transformed = self.ffn_out(self.ffn_in(self.ffn_norm(x)).gelu())
        return x + self.dropout(transformed)


class TransformerEncoder(Module):
    """Token + positional embeddings followed by a stack of encoder blocks."""

    def __init__(self, config: TransformerConfig) -> None:
        super().__init__()
        self.config = config
        self.token_embedding = Embedding(config.vocab_size, config.dim, seed=config.seed, pad_id=0)
        self.position_embedding = Embedding(config.max_length, config.dim, seed=config.seed + 1)
        self.embedding_norm = LayerNorm(config.dim)
        self.embedding_dropout = Dropout(config.dropout, seed=config.seed + 2)
        self.blocks = [
            EncoderBlock(config, seed=config.seed + 100 * (i + 1))
            for i in range(config.num_layers)
        ]
        self.final_norm = LayerNorm(config.dim)

    def forward(
        self, ids: np.ndarray, mask: np.ndarray | None = None, cls_only: bool = False
    ) -> Tensor:
        """Encode a padded id batch into contextual vectors.

        Args:
            ids: Integer array ``(batch, length)``.
            mask: Attention mask ``(batch, length)``.
            cls_only: Return position 0 (``[CLS]``) only.  The last block
                then computes that one row, attending over every position;
                the other rows of its output feed nothing, so the values
                and gradients of position 0 are those of the full pass.

        Returns:
            Tensor of shape ``(batch, length, dim)``, or ``(batch, 1, dim)``
            with *cls_only*.
        """
        ids = np.asarray(ids, dtype=np.int64)
        batch, length = ids.shape
        if length > self.config.max_length:
            raise ValueError(
                f"sequence length {length} exceeds max_length {self.config.max_length}"
            )
        positions = np.broadcast_to(np.arange(length), (batch, length))
        x = self.token_embedding(ids) + self.position_embedding(positions)
        x = self.embedding_dropout(self.embedding_norm(x))
        *inner, last = self.blocks
        for block in inner:
            x = block(x, mask=mask)
        x = last(x, mask=mask, cls_only=cls_only)
        return self.final_norm(x)


class TransformerForSequenceClassification(Module):
    """Encoder + ``[CLS]``-pooled classification head."""

    def __init__(self, config: TransformerConfig, num_classes: int) -> None:
        super().__init__()
        if num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        self.encoder = TransformerEncoder(config)
        self.pooler = Linear(config.dim, config.dim, seed=config.seed + 7)
        self.classifier_dropout = Dropout(config.dropout, seed=config.seed + 8)
        self.classifier = Linear(config.dim, num_classes, seed=config.seed + 9)
        self.num_classes = num_classes

    def forward(self, ids: np.ndarray, mask: np.ndarray | None = None) -> Tensor:
        """Return classification logits of shape ``(batch, num_classes)``."""
        hidden = self.encoder(ids, mask=mask, cls_only=True)
        cls = hidden[:, 0, :]
        pooled = self.pooler(cls).tanh()
        return self.classifier(self.classifier_dropout(pooled))


class TransformerForMaskedLM(Module):
    """Encoder + masked-language-model head (tied projection back to vocab)."""

    def __init__(self, config: TransformerConfig) -> None:
        super().__init__()
        self.encoder = TransformerEncoder(config)
        self.transform = Linear(config.dim, config.dim, seed=config.seed + 21)
        self.transform_norm = LayerNorm(config.dim)
        self.vocab_projection = Linear(config.dim, config.vocab_size, seed=config.seed + 22)

    def forward(self, ids: np.ndarray, mask: np.ndarray | None = None) -> Tensor:
        """Return per-position vocabulary logits ``(batch, length, vocab)``."""
        hidden = self.encoder(ids, mask=mask)
        transformed = self.transform_norm(self.transform(hidden).gelu())
        return self.vocab_projection(transformed)
