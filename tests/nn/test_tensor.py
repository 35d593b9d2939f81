"""Tests for the autograd Tensor, including numerical gradient checks."""

import numpy as np
import pytest

from repro.nn.module import Parameter
from repro.nn.tensor import Tensor, clip_gradients, no_grad, parameters_norm


def numerical_gradient(fn, value: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of an array."""
    gradient = np.zeros_like(value)
    flat = value.reshape(-1)
    grad_flat = gradient.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = fn(value)
        flat[i] = original - eps
        minus = fn(value)
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return gradient


def check_gradient(build, shape, seed=0, atol=1e-5):
    """Compare autograd and numerical gradients of `build(Parameter)` -> scalar Tensor."""
    rng = np.random.default_rng(seed)
    value = rng.normal(size=shape)
    parameter = Parameter(value.copy())
    output = build(parameter)
    output.backward()
    numeric = numerical_gradient(lambda v: float(build(Tensor(v)).data), value.copy())
    assert parameter.grad is not None
    np.testing.assert_allclose(parameter.grad, numeric, atol=atol, rtol=1e-4)


class TestBasicOps:
    def test_add_and_scalar_broadcast(self):
        a = Parameter(np.array([1.0, 2.0]))
        out = (a + 3.0).sum()
        out.backward()
        assert np.allclose(a.grad, [1.0, 1.0])

    def test_mul_gradient(self):
        check_gradient(lambda p: (p * p).sum(), (3, 2))

    def test_sub_and_div_gradients(self):
        check_gradient(lambda p: ((p - 2.0) / 3.0).sum(), (4,))
        check_gradient(lambda p: (1.0 / (p + 5.0)).sum(), (4,))

    def test_pow_gradient(self):
        check_gradient(lambda p: ((p + 3.0) ** 2).sum(), (3,))

    def test_matmul_gradient(self):
        rng = np.random.default_rng(1)
        other = Tensor(rng.normal(size=(4, 3)))
        check_gradient(lambda p: (p @ other).sum(), (2, 4))

    def test_batched_matmul_gradient(self):
        rng = np.random.default_rng(2)
        other = Tensor(rng.normal(size=(2, 4, 3)))
        check_gradient(lambda p: (p @ other).sum(), (2, 5, 4))

    def test_broadcast_add_gradient(self):
        rng = np.random.default_rng(3)
        other = Tensor(rng.normal(size=(5, 3)))
        check_gradient(lambda p: (other + p).sum(), (3,))

    def test_rsub_and_rtruediv(self):
        a = Parameter(np.array([2.0, 4.0]))
        out = (8.0 - a).sum() + (8.0 / a).sum()
        out.backward()
        expected = -1.0 - 8.0 / np.array([2.0, 4.0]) ** 2
        assert np.allclose(a.grad, expected)


class TestReductionsAndShapes:
    def test_sum_axis_gradient(self):
        check_gradient(lambda p: (p.sum(axis=0) ** 2).sum(), (3, 4))

    def test_mean_gradient(self):
        check_gradient(lambda p: (p.mean(axis=1) ** 2).sum(), (3, 4))

    def test_reshape_gradient(self):
        check_gradient(lambda p: (p.reshape(6) ** 2).sum(), (2, 3))

    def test_transpose_gradient(self):
        rng = np.random.default_rng(4)
        other = Tensor(rng.normal(size=(3, 2)))
        check_gradient(lambda p: (p.transpose(1, 0) * other).sum(), (2, 3))

    def test_getitem_gradient(self):
        a = Parameter(np.arange(6, dtype=float).reshape(2, 3))
        out = (a[:, 1] ** 2).sum()
        out.backward()
        expected = np.zeros((2, 3))
        expected[:, 1] = 2 * a.data[:, 1]
        assert np.allclose(a.grad, expected)

    def test_concat_gradient(self):
        a = Parameter(np.ones((2, 2)))
        b = Parameter(np.full((2, 3), 2.0))
        out = (Tensor.concat([a, b], axis=1) ** 2).sum()
        out.backward()
        assert np.allclose(a.grad, 2.0)
        assert np.allclose(b.grad, 4.0)

    def test_stack_gradient(self):
        a = Parameter(np.ones(3))
        b = Parameter(np.full(3, 2.0))
        out = (Tensor.stack([a, b], axis=0) ** 2).sum()
        out.backward()
        assert np.allclose(a.grad, 2.0)
        assert np.allclose(b.grad, 4.0)


class TestNonlinearities:
    @pytest.mark.parametrize(
        "op", ["exp", "tanh", "sigmoid", "relu", "gelu"]
    )
    def test_elementwise_gradients(self, op):
        check_gradient(lambda p: getattr(p, op)().sum(), (3, 3), seed=hash(op) % 100)

    def test_log_gradient(self):
        check_gradient(lambda p: (p.exp() + 1.0).log().sum(), (4,))

    def test_softmax_gradient(self):
        rng = np.random.default_rng(5)
        weights = Tensor(rng.normal(size=(4,)))
        check_gradient(lambda p: (p.softmax(axis=-1) * weights).sum(), (2, 4))

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        probabilities = Tensor(rng.normal(size=(5, 7))).softmax(axis=-1)
        assert np.allclose(probabilities.data.sum(axis=1), 1.0)

    def test_gelu_matches_reference_tanh_formula(self):
        rng = np.random.default_rng(11)
        x = np.concatenate([[0.0, -10.0, 10.0], rng.uniform(-10.0, 10.0, size=997)])
        c = np.sqrt(2.0 / np.pi)
        reference = 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * np.power(x, 3))))
        out = Tensor(x).gelu().data
        assert out[0] == 0.0
        np.testing.assert_allclose(out, reference, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("axis", [-1, 0])
    def test_softmax_byte_equal_to_three_temporary_reference(self, axis):
        rng = np.random.default_rng(12)
        x = rng.normal(scale=4.0, size=(6, 9))
        x[2, 5:] = -1e9  # masked entries, as attention writes them
        original = x.copy()
        shifted = x - x.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        reference = exp / exp.sum(axis=axis, keepdims=True)
        out = Tensor(x).softmax(axis=axis).data
        assert out.tobytes() == reference.tobytes()
        assert x.tobytes() == original.tobytes()

    def test_masked_fill(self):
        a = Parameter(np.array([[1.0, 2.0], [3.0, 4.0]]))
        mask = np.array([[True, False], [False, True]])
        out = a.masked_fill(mask, -100.0).sum()
        out.backward()
        assert np.allclose(a.grad, (~mask).astype(float))

    def test_embedding_lookup_gradient(self):
        table = Parameter(np.arange(12, dtype=float).reshape(4, 3))
        ids = np.array([[0, 2], [2, 2]])
        out = table.embedding_lookup(ids).sum()
        out.backward()
        expected = np.zeros((4, 3))
        expected[0] = 1.0
        expected[2] = 3.0
        assert np.allclose(table.grad, expected)


class TestGraphMechanics:
    def test_gradient_accumulates_over_multiple_uses(self):
        a = Parameter(np.array([2.0]))
        out = (a * a + a).sum()
        out.backward()
        assert np.allclose(a.grad, 2 * 2.0 + 1.0)

    def test_zero_grad(self):
        a = Parameter(np.array([1.0]))
        (a * 2).sum().backward()
        a.zero_grad()
        assert a.grad is None

    def test_backward_requires_scalar_or_seed(self):
        a = Parameter(np.ones((2, 2)))
        out = a * 2
        with pytest.raises(RuntimeError):
            out.backward()
        out.backward(np.ones((2, 2)))
        assert np.allclose(a.grad, 2.0)

    def test_backward_on_graphless_tensor_raises(self):
        with pytest.raises(RuntimeError):
            Tensor(np.ones(3)).backward()

    def test_no_grad_disables_graph(self):
        a = Parameter(np.ones(3))
        with no_grad():
            out = (a * 2).sum()
        assert out._parents == ()

    def test_detach_cuts_graph(self):
        a = Parameter(np.ones(3))
        detached = (a * 2).detach()
        out = (detached * 3).sum()
        assert out._parents == ()

    def test_clip_gradients(self):
        a = Parameter(np.ones(4))
        (a * 100.0).sum().backward()
        norm_before = parameters_norm([a])
        clipped_norm = clip_gradients([a], max_norm=1.0)
        assert clipped_norm == pytest.approx(norm_before)
        assert parameters_norm([a]) == pytest.approx(1.0)

    def test_shapes_and_item(self):
        a = Tensor(np.zeros((2, 3)))
        assert a.shape == (2, 3)
        assert a.ndim == 2
        assert a.size == 6
        assert Tensor(np.array([3.5])).item() == 3.5

    def test_factory_helpers(self):
        assert Tensor.zeros(2, 2).data.sum() == 0.0
        assert Tensor.ones(2, 2).data.sum() == 4.0
        assert Tensor.randn(3, 3, seed=1).shape == (3, 3)
