"""Module/Parameter abstractions for the numpy NN engine.

Mirrors the familiar container pattern: a :class:`Module` owns
:class:`Parameter` tensors and sub-modules, exposes recursive parameter
iteration, train/eval mode flags (used by dropout and the stochastic LSTM
layers), and flat state-dict serialization.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import tensor as _tensor
from .tensor import Tensor


class Parameter(Tensor):
    """A trainable tensor; always created with ``requires_grad=True``."""

    def __init__(self, data, name: Optional[str] = None) -> None:
        super().__init__(np.asarray(data, dtype=np.float64), requires_grad=True, name=name)


class Module:
    """Base class for neural network components."""

    def __init__(self) -> None:
        self._parameters: Dict[str, Parameter] = {}
        self._modules: Dict[str, "Module"] = {}
        self.training = True

    # ------------------------------------------------------------------
    # Attribute routing
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def parameters(self) -> List[Parameter]:
        """Return all parameters of this module and its children."""
        return [param for _, param in self.named_parameters()]

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield prefix + name, param
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix + name + ".")

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    # Modes
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.grad = None

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Flat mapping from dotted parameter name to a copied array."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load a state dict produced by :meth:`state_dict` (strict)."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"expected {param.data.shape}, got {value.shape}"
                )
            param.data = value.copy()

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        observer = _tensor._observer
        if observer is not None:
            return observer.call_module(self, args, kwargs)
        return self.forward(*args, **kwargs)
