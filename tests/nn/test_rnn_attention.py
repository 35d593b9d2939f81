"""Tests for the LSTM and multi-head self-attention."""

import numpy as np
import pytest

from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.layers import Embedding
from repro.nn.rnn import LSTM, LSTMCell
from repro.nn.tensor import Tensor


class TestLSTMCell:
    def test_output_shapes(self):
        cell = LSTMCell(input_dim=6, hidden_dim=4, seed=0)
        h, c = cell(Tensor(np.ones((3, 6))), Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 4))))
        assert h.shape == (3, 4)
        assert c.shape == (3, 4)

    def test_forget_gate_bias_initialised_to_one(self):
        cell = LSTMCell(4, 5)
        assert np.allclose(cell.bias.data[5:10], 1.0)
        assert np.allclose(cell.bias.data[:5], 0.0)

    def test_hidden_state_bounded_by_tanh(self):
        cell = LSTMCell(3, 4, seed=1)
        h, _ = cell(
            Tensor(np.full((2, 3), 100.0)), Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 4)))
        )
        assert np.all(np.abs(h.data) <= 1.0)

    def test_gradients_reach_all_parameters(self):
        cell = LSTMCell(3, 4, seed=2)
        h, c = cell(Tensor(np.ones((2, 3))), Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 4))))
        (h.sum() + c.sum()).backward()
        assert cell.weight_x.grad is not None
        assert cell.weight_h.grad is not None
        assert cell.bias.grad is not None

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            LSTMCell(0, 4)


class TestLSTM:
    def test_output_shapes(self):
        lstm = LSTM(input_dim=5, hidden_dim=7, num_layers=2, seed=0)
        inputs = Tensor(np.random.default_rng(0).normal(size=(3, 6, 5)))
        outputs, final_hidden = lstm(inputs)
        assert outputs.shape == (3, 6, 7)
        assert final_hidden.shape == (3, 7)

    def test_final_state_equals_last_output_without_mask(self):
        lstm = LSTM(4, 5, num_layers=1, seed=1)
        inputs = Tensor(np.random.default_rng(1).normal(size=(2, 5, 4)))
        outputs, final_hidden = lstm(inputs)
        assert np.allclose(outputs.data[:, -1, :], final_hidden.data)

    def test_mask_freezes_state_on_padding(self):
        lstm = LSTM(4, 5, num_layers=1, seed=2)
        rng = np.random.default_rng(2)
        real = rng.normal(size=(1, 3, 4))
        padded = np.concatenate([real, rng.normal(size=(1, 2, 4))], axis=1)
        mask = np.array([[1.0, 1.0, 1.0, 0.0, 0.0]])
        _, final_with_padding = lstm(Tensor(padded), mask=mask)
        _, final_real_only = lstm(Tensor(real), mask=np.ones((1, 3)))
        assert np.allclose(final_with_padding.data, final_real_only.data, atol=1e-10)

    def test_two_layers_have_separate_parameters(self):
        lstm = LSTM(4, 5, num_layers=2)
        assert len(lstm.cells) == 2
        assert lstm.cells[0].input_dim == 4
        assert lstm.cells[1].input_dim == 5

    def test_gradients_flow_through_time(self):
        lstm = LSTM(3, 4, num_layers=2, seed=3)
        embedding = Embedding(10, 3, seed=4)
        ids = np.array([[1, 2, 3, 4]])
        outputs, final_hidden = lstm(embedding(ids))
        final_hidden.sum().backward()
        assert embedding.weight.grad is not None
        assert lstm.cells[0].weight_x.grad is not None

    def test_invalid_layer_count(self):
        with pytest.raises(ValueError):
            LSTM(3, 4, num_layers=0)


class TestMultiHeadSelfAttention:
    def test_output_shape_preserved(self):
        attention = MultiHeadSelfAttention(dim=16, num_heads=4, seed=0)
        x = Tensor(np.random.default_rng(0).normal(size=(2, 5, 16)))
        assert attention(x).shape == (2, 5, 16)

    def test_dim_must_divide_heads(self):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(dim=10, num_heads=3)

    def test_attention_weights_rows_sum_to_one(self):
        attention = MultiHeadSelfAttention(dim=8, num_heads=2, dropout=0.0, seed=1)
        x = Tensor(np.random.default_rng(1).normal(size=(2, 4, 8)))
        weights = attention.attention_weights(x)
        assert weights.shape == (2, 2, 4, 4)
        assert np.allclose(weights.sum(axis=-1), 1.0)

    def test_padding_positions_get_zero_attention(self):
        attention = MultiHeadSelfAttention(dim=8, num_heads=2, dropout=0.0, seed=2)
        x = Tensor(np.random.default_rng(2).normal(size=(1, 4, 8)))
        mask = np.array([[1.0, 1.0, 0.0, 0.0]])
        weights = attention.attention_weights(x, mask=mask)
        assert np.allclose(weights[..., 2:], 0.0, atol=1e-6)

    def test_masked_outputs_independent_of_padding_content(self):
        attention = MultiHeadSelfAttention(dim=8, num_heads=2, dropout=0.0, seed=3)
        attention.eval()
        rng = np.random.default_rng(3)
        base = rng.normal(size=(1, 4, 8))
        variant = base.copy()
        variant[0, 3, :] = rng.normal(size=8) * 50
        mask = np.array([[1.0, 1.0, 1.0, 0.0]])
        out_base = attention(Tensor(base), mask=mask).data
        out_variant = attention(Tensor(variant), mask=mask).data
        # Outputs at real positions must not depend on the padded position's content.
        assert np.allclose(out_base[0, :3], out_variant[0, :3], atol=1e-8)

    def test_cls_only_equals_row_zero_of_full_pass(self):
        attention = MultiHeadSelfAttention(dim=8, num_heads=2, dropout=0.0, seed=5)
        x = Tensor(np.random.default_rng(5).normal(size=(3, 6, 8)))
        mask = (np.arange(6)[None, :] < np.array([[6], [2], [4]])).astype(float)
        full = attention(x, mask=mask).data
        cls = attention(x, mask=mask, cls_only=True).data
        assert cls.shape == (3, 1, 8)
        np.testing.assert_allclose(cls[:, 0], full[:, 0], rtol=0.0, atol=1e-14)

    def test_gradients_reach_projections(self):
        attention = MultiHeadSelfAttention(dim=8, num_heads=2, seed=4)
        x = Tensor(np.random.default_rng(4).normal(size=(2, 3, 8)))
        attention(x).sum().backward()
        assert attention.query.weight.grad is not None
        assert attention.output.weight.grad is not None
