"""Multi-head self-attention (Vaswani et al., 2017), used by the transformers."""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Dropout, Linear
from repro.nn.module import Module
from repro.nn.tensor import Tensor


class MultiHeadSelfAttention(Module):
    """Bidirectional multi-head self-attention over a padded batch.

    Args:
        dim: Model (embedding) dimension.
        num_heads: Number of attention heads; must divide ``dim``.
        dropout: Dropout on the attention weights.
        seed: Initialisation seed.
    """

    def __init__(self, dim: int, num_heads: int, dropout: float = 0.1, seed: int = 0) -> None:
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim ({dim}) must be divisible by num_heads ({num_heads})")
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.query = Linear(dim, dim, seed=seed)
        self.key = Linear(dim, dim, seed=seed + 1)
        self.value = Linear(dim, dim, seed=seed + 2)
        self.output = Linear(dim, dim, seed=seed + 3)
        self.attention_dropout = Dropout(dropout, seed=seed + 4)

    def forward(
        self, x: Tensor, mask: np.ndarray | None = None, cls_only: bool = False
    ) -> Tensor:
        """Apply self-attention.

        Args:
            x: Tensor of shape ``(batch, length, dim)``.
            mask: Optional ``(batch, length)`` array; 0 marks padding
                positions which are excluded from attention.
            cls_only: Take the queries from position 0 (``[CLS]``) only;
                keys and values still come from every position.

        Returns:
            Tensor of shape ``(batch, length, dim)``, or ``(batch, 1, dim)``
            with *cls_only*.
        """
        weights = self.attention_dropout(self._weights(x, mask, cls_only))
        context = weights @ self._split_heads(self.value(x))  # (batch, heads, queries, head_dim)
        batch, _, queries, _ = context.shape
        context = context.transpose(0, 2, 1, 3).reshape(batch, queries, self.dim)
        return self.output(context)

    def attention_weights(self, x: Tensor, mask: np.ndarray | None = None) -> np.ndarray:
        """Return the attention weight matrix for inspection (no dropout)."""
        return self._weights(x, mask).data

    def _split_heads(self, t: Tensor) -> Tensor:
        batch, length, _ = t.shape
        return t.reshape(batch, length, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def _weights(self, x: Tensor, mask: np.ndarray | None, cls_only: bool = False) -> Tensor:
        """Softmax attention weights of shape ``(batch, heads, queries, length)``."""
        queries = x[:, :1, :] if cls_only else x
        q = self._split_heads(self.query(queries))
        k = self._split_heads(self.key(x))
        scores = (q @ k.transpose(0, 1, 3, 2)) * self.head_dim**-0.5
        if mask is not None:
            # Broadcast the padding mask over heads and query positions.
            pad = (np.asarray(mask) == 0.0)[:, None, None, :]
            scores = scores.masked_fill(np.broadcast_to(pad, scores.shape), -1e9)
        return scores.softmax(axis=-1)
