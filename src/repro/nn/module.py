"""Module/parameter containers, mirroring the familiar torch.nn.Module API."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.nn.tensor import Tensor


class Parameter(Tensor):
    """A trainable tensor (always ``requires_grad=True``)."""

    def __init__(self, data, name: str | None = None) -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for every layer and model.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; :meth:`parameters` and :meth:`named_parameters` walk the tree.
    ``training`` toggles dropout behaviour via :meth:`train` / :meth:`eval`.
    """

    def __init__(self) -> None:
        self.training = True

    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(name, parameter)`` pairs for the whole module tree."""
        for attr_name, attr in vars(self).items():
            if attr_name.startswith("_modules_list"):
                continue
            full_name = f"{prefix}{attr_name}"
            if isinstance(attr, Parameter):
                yield full_name, attr
            elif isinstance(attr, Module):
                yield from attr.named_parameters(prefix=f"{full_name}.")
            elif isinstance(attr, (list, tuple)):
                for index, element in enumerate(attr):
                    if isinstance(element, Parameter):
                        yield f"{full_name}.{index}", element
                    elif isinstance(element, Module):
                        yield from element.named_parameters(prefix=f"{full_name}.{index}.")

    def parameters(self) -> list[Parameter]:
        """All trainable parameters of the module tree."""
        return [parameter for _, parameter in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        """Yield this module and every submodule."""
        yield self
        for attr in vars(self).values():
            if isinstance(attr, Module):
                yield from attr.modules()
            elif isinstance(attr, (list, tuple)):
                for element in attr:
                    if isinstance(element, Module):
                        yield from element.modules()

    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        """Clear gradients of every parameter."""
        for parameter in self.parameters():
            parameter.zero_grad()

    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects dropout)."""
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        """Set evaluation mode recursively."""
        return self.train(False)

    # ------------------------------------------------------------------
    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return int(sum(parameter.data.size for parameter in self.parameters()))

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter keyed by its tree name."""
        return {name: parameter.data.copy() for name, parameter in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray], strict: bool = True) -> None:
        """Load parameter values saved by :meth:`state_dict`.

        With ``strict=True`` the key sets must match exactly; a mismatch
        raises listing every missing and unexpected key.  Shapes are always
        validated for *all* keys before any parameter is assigned, so a
        failed load never leaves the module partially overwritten.

        The module then runs one dtype: ``float32`` when every parameter it
        ends up with is ``float32`` (a float32 bundle), ``float64``
        otherwise.  A partly downcast state is cast up once here, so the
        forward never mixes the two.
        """
        own = dict(self.named_parameters())
        missing = sorted(set(own) - set(state))
        unexpected = sorted(set(state) - set(own))
        if strict and (missing or unexpected):
            raise ValueError(
                "state dict key mismatch: "
                f"missing keys {missing or 'none'}, unexpected keys {unexpected or 'none'} "
                "(pass strict=False to load the intersection)"
            )
        prepared: dict[str, np.ndarray] = {}
        mismatched: list[str] = []
        for name, parameter in own.items():
            if name not in state:
                continue
            value = np.asarray(state[name])
            if value.shape != parameter.data.shape:
                mismatched.append(f"{name}: saved {value.shape} != model {parameter.data.shape}")
            else:
                prepared[name] = value
        if mismatched:
            raise ValueError(
                "state dict shape mismatch, no parameters were modified: "
                + "; ".join(mismatched)
            )
        final = [prepared.get(name, parameter.data) for name, parameter in own.items()]
        dtype = np.float32 if all(v.dtype == np.float32 for v in final) else np.float64
        for name, value in prepared.items():
            own[name].data = value.astype(dtype)
