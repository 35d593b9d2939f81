"""Standard neural-network layers built on the autograd Tensor."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor


def _glorot(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform initialisation."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class Linear(Module):
    """Affine transformation ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True, seed: int = 0) -> None:
        super().__init__()
        if in_features < 1 or out_features < 1:
            raise ValueError("feature dimensions must be positive")
        rng = np.random.default_rng(seed)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(_glorot(in_features, out_features, rng), name="weight")
        self.bias = Parameter(np.zeros(out_features), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim > 2:
            # One GEMM over the flattened leading dimensions instead of one
            # per leading index; gradients flow back through the reshapes.
            flat = self.forward(x.reshape(-1, self.in_features))
            return flat.reshape(*x.shape[:-1], self.out_features)
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    """Token-id to vector lookup table."""

    def __init__(self, num_embeddings: int, dim: int, seed: int = 0, pad_id: int | None = None) -> None:
        super().__init__()
        if num_embeddings < 1 or dim < 1:
            raise ValueError("embedding dimensions must be positive")
        rng = np.random.default_rng(seed)
        table = rng.normal(0.0, 0.02, size=(num_embeddings, dim))
        if pad_id is not None:
            table[pad_id] = 0.0
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.pad_id = pad_id
        self.weight = Parameter(table, name="embedding")

    def forward(self, ids: np.ndarray) -> Tensor:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.min(initial=0) < 0 or ids.max(initial=0) >= self.num_embeddings:
            raise ValueError("token id out of range for the embedding table")
        return self.weight.embedding_lookup(ids)


class LayerNorm(Module):
    """Layer normalisation over the last dimension."""

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gain = Parameter(np.ones(dim), name="gain")
        self.shift = Parameter(np.zeros(dim), name="shift")

    def forward(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        variance = (centered * centered).mean(axis=-1, keepdims=True)
        normalised = centered * ((variance + self.eps) ** -0.5)
        return normalised * self.gain + self.shift


class Dropout(Module):
    """Inverted dropout; active only in training mode."""

    def __init__(self, rate: float = 0.1, seed: int = 0) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = np.random.default_rng(seed)

    def forward(self, x: Tensor) -> Tensor:
        return x.dropout(self.rate, self._rng, self.training)


class Sequential(Module):
    """Apply modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.steps = list(modules)

    def forward(self, x):
        for module in self.steps:
            x = module(x)
        return x

    def __len__(self) -> int:
        return len(self.steps)

    def __getitem__(self, index: int) -> Module:
        return self.steps[index]
