"""Reverse-mode automatic differentiation over NumPy arrays.

A :class:`Tensor` wraps an ``ndarray`` and records the operations applied to
it; :meth:`Tensor.backward` walks the recorded graph in reverse topological
order accumulating gradients.  The op set covers exactly what the LSTM and
Transformer models need: elementwise arithmetic with broadcasting, matmul,
reductions, indexing/embedding lookup, softmax, common activations, dropout
masks and concatenation.
"""

from __future__ import annotations

import contextlib
import math
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

# Thread-local so that concurrently trained models (the experiment runner's
# n_jobs mode) cannot disable each other's graph construction: one thread
# evaluating under no_grad() must not affect another thread's backward pass.
_GRAD_STATE = threading.local()


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction (for evaluation)."""
    previous = grad_enabled()
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = previous


def grad_enabled() -> bool:
    """Whether operations currently record the autograd graph (per thread)."""
    return getattr(_GRAD_STATE, "enabled", True)


#: The GELU constant sqrt(2 / pi), a Python float so that it stays weak under
#: NEP 50 (an ``np.float64`` scalar would run a ``float32`` GELU in float64).
_GELU_C = math.sqrt(2.0 / math.pi)


def _unbroadcast(gradient: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum *gradient* down to *shape* (reverse of NumPy broadcasting)."""
    if gradient.shape == shape:
        return gradient
    # Sum over leading dimensions added by broadcasting.
    while gradient.ndim > len(shape):
        gradient = gradient.sum(axis=0)
    # Sum over dimensions that were 1 in the original shape.
    for axis, size in enumerate(shape):
        if size == 1 and gradient.shape[axis] != 1:
            gradient = gradient.sum(axis=axis, keepdims=True)
    return gradient.reshape(shape)


class Tensor:
    """A NumPy array with optional gradient tracking.

    A tensor computes in ``float64`` (training, exact bundles) or
    ``float32`` (the forward of a float32 bundle): ``float32`` data is kept
    as is, anything else is cast to ``float64``.  Python scalar operands stay
    NumPy-weak, so they never widen a ``float32`` operation.

    Attributes:
        data: The underlying ``float64`` or ``float32`` array.
        grad: Accumulated gradient (same shape as ``data``) after backward.
        requires_grad: Whether gradients flow into this tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")
    __array_priority__ = 100  # make ndarray defer to Tensor in mixed ops

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward: Callable[[np.ndarray], None] | None = None,
        name: str | None = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else data.astype(np.float64, copy=False)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad and grad_enabled()
        self._parents = _parents if self.requires_grad or _parents else ()
        self._backward = _backward
        self.name = name

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape), requires_grad=requires_grad)

    @staticmethod
    def randn(
        *shape: int, std: float = 1.0, seed: int | None = None, requires_grad: bool = False
    ) -> "Tensor":
        rng = np.random.default_rng(seed)
        return Tensor(rng.normal(0.0, std, size=shape), requires_grad=requires_grad)

    # ------------------------------------------------------------------
    # graph bookkeeping
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        label = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad}{label})"

    def detach(self) -> "Tensor":
        """A new tensor sharing data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def numpy(self) -> np.ndarray:
        """The underlying array (not a copy)."""
        return self.data

    def item(self) -> float:
        """The single scalar value of a 0-d/1-element tensor."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    def _accumulate(self, gradient: np.ndarray) -> None:
        if self.grad is None:
            self.grad = gradient.copy()
        else:
            self.grad += gradient

    def backward(self, gradient: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor.

        Args:
            gradient: Seed gradient; defaults to 1.0 for scalar tensors.
        """
        if not self.requires_grad and not self._parents:
            raise RuntimeError("backward() called on a tensor with no graph attached")
        if gradient is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without a gradient requires a scalar tensor")
            gradient = np.ones_like(self.data)
        gradient = np.asarray(gradient, dtype=np.float64)

        # Topological order over the recorded graph.
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): gradient}
        for node in reversed(order):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node.requires_grad:
                node._accumulate(node_grad)
            if node._backward is None:
                continue
            parent_grads = node._backward(node_grad)
            for parent, parent_grad in zip(node._parents, parent_grads):
                if parent_grad is None:
                    continue
                existing = grads.get(id(parent))
                grads[id(parent)] = (
                    parent_grad if existing is None else existing + parent_grad
                )

    # ------------------------------------------------------------------
    # op plumbing
    # ------------------------------------------------------------------
    def _lift(self, value) -> "Tensor":
        """*value* as a tensor; a Python scalar takes this tensor's dtype.

        Under NEP 50 a Python scalar is weak but a 0-d ``float64`` array is
        not: lifting ``0.25`` to ``Tensor(0.25)`` would turn ``x * 0.25``
        into a ``float64`` result for ``float32`` *x*.  Casting the scalar
        to this tensor's dtype gives the bytes NumPy's weak scalar gives.
        """
        if isinstance(value, Tensor):
            return value
        if isinstance(value, (int, float)):
            return Tensor(np.asarray(value, dtype=self.data.dtype))
        return Tensor(value)

    def _make(self, data: np.ndarray, parents: tuple["Tensor", ...], backward) -> "Tensor":
        requires = grad_enabled() and any(
            p.requires_grad or p._parents for p in parents
        )
        if not requires:
            return Tensor(data)
        out = Tensor(data, requires_grad=False, _parents=parents, _backward=backward)
        # The output itself doesn't own a grad unless a leaf; mark that it
        # participates in the graph via _parents.
        return out

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = self._lift(other)
        data = self.data + other.data

        def backward(gradient: np.ndarray):
            return (
                _unbroadcast(gradient, self.data.shape),
                _unbroadcast(gradient, other.data.shape),
            )

        return self._make(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(gradient: np.ndarray):
            return (-gradient,)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        other = self._lift(other)
        data = self.data - other.data

        def backward(gradient: np.ndarray):
            return (
                _unbroadcast(gradient, self.data.shape),
                _unbroadcast(-gradient, other.data.shape),
            )

        return self._make(data, (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        return self._lift(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = self._lift(other)
        data = self.data * other.data

        def backward(gradient: np.ndarray):
            return (
                _unbroadcast(gradient * other.data, self.data.shape),
                _unbroadcast(gradient * self.data, other.data.shape),
            )

        return self._make(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._lift(other)
        data = self.data / other.data

        def backward(gradient: np.ndarray):
            return (
                _unbroadcast(gradient / other.data, self.data.shape),
                _unbroadcast(-gradient * self.data / (other.data**2), other.data.shape),
            )

        return self._make(data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return self._lift(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        data = self.data**exponent

        def backward(gradient: np.ndarray):
            return (gradient * exponent * self.data ** (exponent - 1),)

        return self._make(data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = self._lift(other)
        data = self.data @ other.data

        def backward(gradient: np.ndarray):
            a, b = self.data, other.data
            if a.ndim == 2 and b.ndim == 2:
                return gradient @ b.T, a.T @ gradient
            # Batched matmul: contract over the batch dimensions.
            grad_a = gradient @ np.swapaxes(b, -1, -2)
            grad_b = np.swapaxes(a, -1, -2) @ gradient
            return (
                _unbroadcast(grad_a, a.shape),
                _unbroadcast(grad_b, b.shape),
            )

        return self._make(data, (self, other), backward)

    # ------------------------------------------------------------------
    # reductions and shaping
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(gradient: np.ndarray):
            grad = gradient
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis=axis)
            return (np.broadcast_to(grad, self.data.shape).copy(),)

        return self._make(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[a] for a in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape: int) -> "Tensor":
        data = self.data.reshape(*shape)

        def backward(gradient: np.ndarray):
            return (gradient.reshape(self.data.shape),)

        return self._make(data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        axes_tuple = axes if axes else tuple(reversed(range(self.data.ndim)))
        data = self.data.transpose(axes_tuple)
        inverse = np.argsort(axes_tuple)

        def backward(gradient: np.ndarray):
            return (gradient.transpose(inverse),)

        return self._make(data, (self,), backward)

    def __getitem__(self, key) -> "Tensor":
        data = self.data[key]

        def backward(gradient: np.ndarray):
            full = np.zeros_like(self.data)
            np.add.at(full, key, gradient)
            return (full,)

        return self._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        data = np.exp(np.clip(self.data, -60.0, 60.0))

        def backward(gradient: np.ndarray):
            return (gradient * data,)

        return self._make(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(np.maximum(self.data, 1e-12))

        def backward(gradient: np.ndarray):
            return (gradient / np.maximum(self.data, 1e-12),)

        return self._make(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(gradient: np.ndarray):
            return (gradient * (1.0 - data**2),)

        return self._make(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -35.0, 35.0)))

        def backward(gradient: np.ndarray):
            return (gradient * data * (1.0 - data),)

        return self._make(data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(gradient: np.ndarray):
            return (gradient * mask,)

        return self._make(self.data * mask, (self,), backward)

    def gelu(self) -> "Tensor":
        """Gaussian error linear unit (tanh approximation, as in BERT)."""
        x = self.data
        c = _GELU_C
        # c * (x + 0.044715 * x**3), in place on one buffer.  The cube is a
        # product: NumPy's scalar-power fast path covers 2, 0.5 and -1 but
        # not 3, so ``x**3`` runs libm ``pow`` on every element.
        tanh_inner = x * x
        tanh_inner *= x
        tanh_inner *= 0.044715
        tanh_inner += x
        tanh_inner *= c
        np.tanh(tanh_inner, out=tanh_inner)
        # 0.5 * x * (1 + tanh), keeping that association.
        data = 0.5 * x
        data *= 1.0 + tanh_inner

        def backward(gradient: np.ndarray):
            sech2 = 1.0 - tanh_inner**2
            d_inner = c * (1.0 + 3 * 0.044715 * x**2)
            derivative = 0.5 * (1.0 + tanh_inner) + 0.5 * x * sech2 * d_inner
            return (gradient * derivative,)

        return self._make(data, (self,), backward)

    def softmax(self, axis: int = -1) -> "Tensor":
        data = self.data - self.data.max(axis=axis, keepdims=True)
        np.exp(data, out=data)
        data /= data.sum(axis=axis, keepdims=True)

        def backward(gradient: np.ndarray):
            dot = (gradient * data).sum(axis=axis, keepdims=True)
            return (data * (gradient - dot),)

        return self._make(data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    # ------------------------------------------------------------------
    # structural ops used by the models
    # ------------------------------------------------------------------
    @staticmethod
    def concat(tensors: Sequence["Tensor"], axis: int = -1) -> "Tensor":
        tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
        data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.data.shape[axis] for t in tensors]
        splits = np.cumsum(sizes)[:-1]

        def backward(gradient: np.ndarray):
            return tuple(np.split(gradient, splits, axis=axis))

        probe = tensors[0]
        return probe._make(data, tuple(tensors), backward)

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
        data = np.stack([t.data for t in tensors], axis=axis)

        def backward(gradient: np.ndarray):
            pieces = np.split(gradient, len(tensors), axis=axis)
            return tuple(np.squeeze(piece, axis=axis) for piece in pieces)

        probe = tensors[0]
        return probe._make(data, tuple(tensors), backward)

    def embedding_lookup(self, indices: np.ndarray) -> "Tensor":
        """Row lookup ``self[indices]`` for an embedding matrix.

        *indices* is an integer array of any shape; the result has shape
        ``indices.shape + (embedding_dim,)``.
        """
        indices = np.asarray(indices, dtype=np.int64)
        data = self.data[indices]

        def backward(gradient: np.ndarray):
            full = np.zeros_like(self.data)
            np.add.at(full, indices.reshape(-1), gradient.reshape(-1, self.data.shape[-1]))
            return (full,)

        return self._make(data, (self,), backward)

    def masked_fill(self, mask: np.ndarray, value: float) -> "Tensor":
        """Replace entries where *mask* is true with *value* (no grad through them)."""
        mask = np.asarray(mask, dtype=bool)
        data = np.where(mask, value, self.data)

        def backward(gradient: np.ndarray):
            return (np.where(mask, 0.0, gradient),)

        return self._make(data, (self,), backward)

    def dropout(self, rate: float, rng: np.random.Generator, training: bool) -> "Tensor":
        """Inverted dropout; identity when not training or rate == 0."""
        if not training or rate <= 0.0:
            return self
        keep = 1.0 - rate
        mask = (rng.random(self.data.shape) < keep) / keep

        def backward(gradient: np.ndarray):
            return (gradient * mask,)

        return self._make(self.data * mask, (self,), backward)


def parameters_norm(parameters: Iterable[Tensor]) -> float:
    """Global L2 norm of the gradients of *parameters* (0 for missing grads)."""
    total = 0.0
    for parameter in parameters:
        if parameter.grad is not None:
            total += float(np.sum(parameter.grad**2))
    return float(np.sqrt(total))


def clip_gradients(parameters: Iterable[Tensor], max_norm: float) -> float:
    """Clip gradients to a global L2 norm of *max_norm*; returns the pre-clip norm."""
    parameters = list(parameters)
    norm = parameters_norm(parameters)
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for parameter in parameters:
            if parameter.grad is not None:
                parameter.grad *= scale
    return norm
