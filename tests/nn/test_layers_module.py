"""Tests for Module bookkeeping and the standard layers."""

import numpy as np
import pytest

from repro.nn.layers import Dropout, Embedding, LayerNorm, Linear, Sequential
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor

from tests.nn.test_tensor import check_gradient


class _TwoLayer(Module):
    def __init__(self):
        super().__init__()
        self.first = Linear(4, 8, seed=0)
        self.second = Linear(8, 2, seed=1)
        self.scale = Parameter(np.array([1.0]))

    def forward(self, x):
        return self.second(self.first(x).relu()) * self.scale


def _shifted_state() -> dict[str, np.ndarray]:
    """A full state dict for ``_TwoLayer`` whose every value differs from a fresh one's."""
    return {name: value + 1.0 for name, value in _TwoLayer().state_dict().items()}


def _snapshot(model: Module) -> dict[str, bytes]:
    return {name: parameter.data.tobytes() for name, parameter in model.named_parameters()}


class TestModule:
    def test_named_parameters_cover_tree(self):
        model = _TwoLayer()
        names = dict(model.named_parameters())
        assert "first.weight" in names and "second.bias" in names and "scale" in names
        assert len(model.parameters()) == 5

    def test_num_parameters(self):
        model = _TwoLayer()
        assert model.num_parameters() == 4 * 8 + 8 + 8 * 2 + 2 + 1

    def test_zero_grad_clears_all(self):
        model = _TwoLayer()
        out = model(Tensor(np.ones((3, 4)))).sum()
        out.backward()
        assert any(p.grad is not None for p in model.parameters())
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())

    def test_train_eval_toggle_propagates(self):
        model = Sequential(Linear(3, 3), Dropout(0.5), Linear(3, 2))
        model.eval()
        assert all(not module.training for module in model.modules())
        model.train()
        assert all(module.training for module in model.modules())

    def test_state_dict_roundtrip(self):
        model_a = _TwoLayer()
        model_b = _TwoLayer()
        model_b.first.weight.data += 1.0
        model_b.load_state_dict(model_a.state_dict())
        assert np.allclose(model_b.first.weight.data, model_a.first.weight.data)

    def test_state_dict_strict_mismatch_raises(self):
        model = _TwoLayer()
        with pytest.raises(ValueError):
            model.load_state_dict({"nonexistent": np.zeros(1)})

    def test_state_dict_shape_mismatch_raises(self):
        model = _TwoLayer()
        state = model.state_dict()
        state["first.weight"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_state_dict_strict_mismatch_names_both_key_sets(self):
        model = _TwoLayer()
        state = _shifted_state()
        state["third.weight"] = state.pop("second.weight")
        before = _snapshot(model)
        with pytest.raises(ValueError) as excinfo:
            model.load_state_dict(state)
        message = str(excinfo.value)
        assert "missing keys ['second.weight']" in message
        assert "unexpected keys ['third.weight']" in message
        assert _snapshot(model) == before

    def test_state_dict_shape_mismatch_modifies_no_parameter(self):
        """Shapes are checked for every key before any assignment, so the
        parameters ahead of the bad one in tree order keep their bytes."""
        model = _TwoLayer()
        state = _shifted_state()
        state["second.weight"] = np.zeros((8, 3))
        before = _snapshot(model)
        with pytest.raises(ValueError, match="no parameters were modified") as excinfo:
            model.load_state_dict(state)
        assert "second.weight: saved (8, 3) != model (8, 2)" in str(excinfo.value)
        assert _snapshot(model) == before

    def test_state_dict_non_strict_loads_intersection(self):
        model = _TwoLayer()
        state = _shifted_state()
        del state["scale"]
        state["extra"] = np.zeros(3)
        model.load_state_dict(state, strict=False)
        loaded = model.state_dict()
        for name, value in state.items():
            if name != "extra":
                np.testing.assert_array_equal(loaded[name], value)
        np.testing.assert_array_equal(loaded["scale"], [1.0])

    def test_state_dict_non_strict_still_checks_shapes(self):
        model = _TwoLayer()
        state = _shifted_state()
        state["second.weight"] = np.zeros((8, 3))
        before = _snapshot(model)
        with pytest.raises(ValueError, match="shape mismatch"):
            model.load_state_dict(state, strict=False)
        assert _snapshot(model) == before

    def test_parameters_inside_lists_found(self):
        class WithList(Module):
            def __init__(self):
                super().__init__()
                self.blocks = [Linear(2, 2, seed=0), Linear(2, 2, seed=1)]

            def forward(self, x):
                return x

        assert len(WithList().parameters()) == 4


class TestLinear:
    def test_output_shape(self):
        layer = Linear(5, 3)
        out = layer(Tensor(np.ones((7, 5))))
        assert out.shape == (7, 3)

    def test_no_bias_option(self):
        layer = Linear(4, 2, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_gradients_flow(self):
        layer = Linear(3, 2, seed=2)
        out = layer(Tensor(np.ones((4, 3)))).sum()
        out.backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            Linear(0, 3)

    def test_three_dimensional_input_matches_per_slice_product(self):
        layer = Linear(4, 5, seed=3)
        x = np.random.default_rng(4).normal(size=(2, 3, 4))
        out = layer(Tensor(x))
        assert out.shape == (2, 3, 5)
        for i in range(2):
            expected = x[i] @ layer.weight.data + layer.bias.data
            assert np.allclose(out.data[i], expected)

    def test_three_dimensional_input_gradient(self):
        layer = Linear(4, 5, seed=3)
        weights = Tensor(np.random.default_rng(5).normal(size=(2, 3, 5)))
        check_gradient(lambda p: (layer(p) * weights).sum(), (2, 3, 4))
        layer.zero_grad()
        x = Parameter(np.random.default_rng(6).normal(size=(2, 3, 4)))
        (layer(x) * weights).sum().backward()
        expected_bias = weights.data.sum(axis=(0, 1))
        assert np.allclose(layer.bias.grad, expected_bias)
        expected_weight = sum(x.data[i].T @ weights.data[i] for i in range(2))
        assert np.allclose(layer.weight.grad, expected_weight)


class TestEmbedding:
    def test_lookup_shape(self):
        embedding = Embedding(10, 4)
        out = embedding(np.array([[1, 2], [3, 4]]))
        assert out.shape == (2, 2, 4)

    def test_pad_row_initialised_to_zero(self):
        embedding = Embedding(10, 4, pad_id=0)
        assert np.allclose(embedding.weight.data[0], 0.0)

    def test_out_of_range_ids_rejected(self):
        embedding = Embedding(5, 4)
        with pytest.raises(ValueError):
            embedding(np.array([[7]]))

    def test_load_pretrained(self):
        embedding = Embedding(6, 3)
        matrix = np.arange(18, dtype=float).reshape(6, 3)
        embedding.load_pretrained(matrix)
        assert np.allclose(embedding.weight.data, matrix)

    def test_load_pretrained_shape_mismatch(self):
        embedding = Embedding(6, 3)
        with pytest.raises(ValueError):
            embedding.load_pretrained(np.zeros((5, 3)))


class TestLayerNorm:
    def test_normalises_last_dimension(self):
        norm = LayerNorm(8)
        x = Tensor(np.random.default_rng(0).normal(3.0, 2.0, size=(4, 8)))
        out = norm(x).data
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        assert np.allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_gain_and_shift_trainable(self):
        norm = LayerNorm(4)
        out = norm(Tensor(np.random.default_rng(1).normal(size=(3, 4)))).sum()
        out.backward()
        assert norm.gain.grad is not None
        assert norm.shift.grad is not None


class TestDropout:
    def test_identity_in_eval_mode(self):
        dropout = Dropout(0.5, seed=0)
        dropout.eval()
        x = Tensor(np.ones((10, 10)))
        assert np.allclose(dropout(x).data, 1.0)

    def test_drops_roughly_expected_fraction_in_train_mode(self):
        dropout = Dropout(0.4, seed=0)
        x = Tensor(np.ones((100, 100)))
        out = dropout(x).data
        dropped_fraction = np.mean(out == 0.0)
        assert 0.3 < dropped_fraction < 0.5

    def test_inverted_scaling_preserves_expectation(self):
        dropout = Dropout(0.25, seed=1)
        x = Tensor(np.ones((200, 200)))
        out = dropout(x).data
        assert out.mean() == pytest.approx(1.0, abs=0.02)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestSequential:
    def test_applies_in_order_and_indexes(self):
        model = Sequential(Linear(3, 5, seed=0), Linear(5, 2, seed=1))
        out = model(Tensor(np.ones((4, 3))))
        assert out.shape == (4, 2)
        assert len(model) == 2
        assert isinstance(model[0], Linear)
