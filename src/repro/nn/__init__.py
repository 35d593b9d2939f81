"""Minimal neural-network framework on NumPy.

The paper's sequential models (a 2-layer LSTM and BERT/RoBERTa-style
Transformer encoders) need a deep-learning stack; PyTorch is not available
offline, so this package provides a small but complete one:

* :mod:`repro.nn.tensor` — reverse-mode autograd over NumPy arrays;
* :mod:`repro.nn.module` / :mod:`repro.nn.layers` — parameter containers and
  the standard layers (Linear, Embedding, LayerNorm, Dropout);
* :mod:`repro.nn.rnn` — LSTM cell and stacked LSTM;
* :mod:`repro.nn.attention` / :mod:`repro.nn.transformer` — multi-head
  self-attention and the Transformer encoder used for BERT/RoBERTa;
* :mod:`repro.nn.mlm` — masked-language-model pretraining;
* :mod:`repro.nn.optim` / :mod:`repro.nn.schedules` — SGD/Adam/AdamW and
  the linear warmup/decay schedule;
* :mod:`repro.nn.trainer` — mini-batch training loop with history and early
  stopping.
"""

from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.dataloader import BatchIterator
from repro.nn.layers import Dropout, Embedding, LayerNorm, Linear, Sequential
from repro.nn.losses import cross_entropy_logits, masked_cross_entropy_logits
from repro.nn.module import Module, Parameter
from repro.nn.optim import SGD, Adam, AdamW, Optimizer
from repro.nn.rnn import LSTM, LSTMCell
from repro.nn.schedules import LinearWarmupDecay
from repro.nn.tensor import Tensor, no_grad
from repro.nn.trainer import Trainer, TrainingHistory
from repro.nn.transformer import TransformerConfig, TransformerEncoder

__all__ = [
    "Tensor",
    "no_grad",
    "Module",
    "Parameter",
    "Linear",
    "Embedding",
    "LayerNorm",
    "Dropout",
    "Sequential",
    "LSTMCell",
    "LSTM",
    "MultiHeadSelfAttention",
    "TransformerConfig",
    "TransformerEncoder",
    "cross_entropy_logits",
    "masked_cross_entropy_logits",
    "Optimizer",
    "SGD",
    "Adam",
    "AdamW",
    "LinearWarmupDecay",
    "Trainer",
    "TrainingHistory",
    "BatchIterator",
]
