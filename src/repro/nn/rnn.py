"""LSTM (Section V-E of the paper).

The paper's recurrent baseline is "a simple 2-layer LSTM".  This module
implements the LSTM cell with the standard input/forget/output gates plus a
stacked multi-layer wrapper that consumes padded batches and returns either
the full hidden-state sequence or the masked final state for classification.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Dropout
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor


class LSTMCell(Module):
    """A single LSTM cell.

    Gates are computed jointly: ``[i, f, g, o] = x W_x + h W_h + b`` with the
    forget-gate bias initialised to 1.0, the standard trick that keeps memory
    flowing early in training.
    """

    def __init__(self, input_dim: int, hidden_dim: int, seed: int = 0) -> None:
        super().__init__()
        if input_dim < 1 or hidden_dim < 1:
            raise ValueError("dimensions must be positive")
        rng = np.random.default_rng(seed)
        scale = 1.0 / np.sqrt(hidden_dim)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.weight_x = Parameter(
            rng.uniform(-scale, scale, size=(input_dim, 4 * hidden_dim)), name="weight_x"
        )
        self.weight_h = Parameter(
            rng.uniform(-scale, scale, size=(hidden_dim, 4 * hidden_dim)), name="weight_h"
        )
        bias = np.zeros(4 * hidden_dim)
        bias[hidden_dim : 2 * hidden_dim] = 1.0  # forget gate bias
        self.bias = Parameter(bias, name="bias")

    def forward(self, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
        """One time step.

        Args:
            x: Input of shape ``(batch, input_dim)``.
            h: Previous hidden state ``(batch, hidden_dim)``.
            c: Previous cell state ``(batch, hidden_dim)``.

        Returns:
            ``(h_next, c_next)``.
        """
        gates = x @ self.weight_x + h @ self.weight_h + self.bias
        d = self.hidden_dim
        i_gate = gates[:, 0:d].sigmoid()
        f_gate = gates[:, d : 2 * d].sigmoid()
        g_gate = gates[:, 2 * d : 3 * d].tanh()
        o_gate = gates[:, 3 * d : 4 * d].sigmoid()
        c_next = f_gate * c + i_gate * g_gate
        h_next = o_gate * c_next.tanh()
        return h_next, c_next


class LSTM(Module):
    """Stacked (multi-layer) LSTM over padded batches.

    Args:
        input_dim: Dimensionality of the input vectors.
        hidden_dim: Hidden state size of every layer.
        num_layers: Number of stacked layers (the paper uses 2).
        dropout: Dropout applied between layers (not after the last).
        seed: Initialisation seed.
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        num_layers: int = 2,
        dropout: float = 0.0,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.num_layers = num_layers
        self.cells = [
            LSTMCell(input_dim if layer == 0 else hidden_dim, hidden_dim, seed=seed + layer)
            for layer in range(num_layers)
        ]
        self.dropouts = [
            Dropout(dropout, seed=seed + 101 + layer) for layer in range(max(num_layers - 1, 0))
        ]

    def forward(self, inputs: Tensor, mask: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
        """Run the stack over a padded batch.

        Args:
            inputs: Tensor of shape ``(batch, length, input_dim)``.
            mask: Optional float array ``(batch, length)``; 1 over real
                tokens, 0 over padding.  Hidden/cell states freeze on padded
                positions so the "final" state corresponds to the last real
                token.

        Returns:
            ``(outputs, final_hidden)`` where ``outputs`` has shape
            ``(batch, length, hidden_dim)`` (top layer) and ``final_hidden``
            has shape ``(batch, hidden_dim)``.
        """
        batch, length, _ = inputs.shape
        dtype = inputs.data.dtype
        if mask is not None:
            mask = np.asarray(mask, dtype=dtype)
        layer_input = inputs
        final_hidden: Tensor | None = None
        outputs: Tensor | None = None

        for layer_index, cell in enumerate(self.cells):
            h = Tensor(np.zeros((batch, self.hidden_dim), dtype=dtype))
            c = Tensor(np.zeros((batch, self.hidden_dim), dtype=dtype))
            step_outputs: list[Tensor] = []
            for t in range(length):
                x_t = layer_input[:, t, :]
                h_new, c_new = cell(x_t, h, c)
                if mask is not None:
                    m = Tensor(mask[:, t : t + 1])
                    h = h_new * m + h * (1.0 - m)
                    c = c_new * m + c * (1.0 - m)
                else:
                    h, c = h_new, c_new
                step_outputs.append(h)
            outputs = Tensor.stack(step_outputs, axis=1)
            final_hidden = h
            if layer_index < len(self.cells) - 1:
                outputs = self.dropouts[layer_index](outputs)
            layer_input = outputs

        assert outputs is not None and final_hidden is not None
        return outputs, final_hidden
