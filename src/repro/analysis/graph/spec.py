"""Contract specification language for the symbolic graph verifier.

This module is deliberately a *leaf*: it imports nothing from ``repro.nn``
or the rest of :mod:`repro.analysis.graph`, so model modules can decorate
themselves with :func:`contract` without creating an import cycle (the
tracer imports the model packages, which import this file).

The pieces:

* :class:`Dim` — an ``int`` subclass carrying a symbolic ``name`` (``"L"``,
  ``"H"``, ``"N_ch"``…) and an ``origin`` tag describing where a size-1 axis
  came from.  Being an ``int`` means symbolic shapes pass straight through
  numpy interop in traced forwards (``rng.normal(size=shape)``,
  ``range(steps)``, ``np.zeros((b, h))``).
* :class:`Spec` — one tensor's expected shape (named dims / literal ints /
  a leading ``"..."`` ellipsis), plus optional dtype and requires_grad.
* :data:`ANY` — "do not check this value".
* :class:`Contract` + the :func:`contract` decorator — a module's entry
  method, its input/output spec trees, and the ``dims`` mapping that binds
  symbolic names to the concrete architecture (ints, dotted attribute
  paths, or callables on the module instance).
* :class:`DimEnv` — the binding environment of one verification run: known
  name→value bindings, fresh probe values for free dims, and the reverse
  value→name map used to name dims of arrays lifted mid-trace.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union

import numpy as np

__all__ = ["ANY", "Contract", "Dim", "DimEnv", "Spec", "contract", "render_dims"]


class _Any:
    """Sentinel: skip checking/building this input or output."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "ANY"


ANY = _Any()

#: ``origin`` values of a size-1 axis that may legitimately broadcast.
#: Anything else (a plain 1 from a reshape/slice) is flagged as accidental.
INTENTIONAL_ORIGINS = ("external", "keepdims", "spec")


class Dim(int):
    """A symbolic dimension: an ``int`` with a name and an origin tag.

    Arithmetic on Dims degrades to plain ints (``b * n_c`` loses the names),
    which is correct: derived sizes are re-named, when unambiguous, through
    :meth:`DimEnv.lookup`.
    """

    def __new__(
        cls, value: int, name: Optional[str] = None, origin: Optional[str] = None
    ) -> "Dim":
        self = super().__new__(cls, int(value))
        self.name = name
        self.origin = origin
        return self

    def render(self) -> str:
        if self.name:
            return self.name
        return str(int(self))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.name:
            return f"Dim({int(self)}, {self.name!r})"
        return f"Dim({int(self)})"


def render_dims(dims: Iterable[Any]) -> str:
    """``[B, L, 28]``-style rendering of a symbolic or concrete shape."""
    parts = []
    for d in dims:
        parts.append(d.render() if isinstance(d, Dim) else str(int(d)))
    return "[" + ", ".join(parts) + "]"


ShapeEntry = Union[str, int]


class Spec:
    """Expected shape (and optionally dtype / requires_grad) of one tensor.

    ``Spec("B", "L", "H")`` — three named dims; names bind per contract
    check, so ``"B"`` unifies across every input/output of one module call.
    ``Spec("...", "N_env")`` — any leading rank, last dim must be N_env.
    Literal ints check exact sizes (``Spec("B", 1)``).

    ``array=True`` marks an input that the module consumes as a plain
    ``np.ndarray`` rather than a Tensor (several baselines do this); the
    default probe builder then materializes a numpy array.
    """

    __slots__ = ("shape", "dtype", "requires_grad", "array")

    def __init__(
        self,
        *shape: ShapeEntry,
        dtype: Optional[Any] = None,
        requires_grad: Optional[bool] = None,
        array: bool = False,
    ) -> None:
        if "..." in shape[1:]:
            raise ValueError("'...' is only supported as the leading entry")
        self.shape: Tuple[ShapeEntry, ...] = shape
        self.dtype = None if dtype is None else np.dtype(dtype)
        self.requires_grad = requires_grad
        self.array = array

    @property
    def has_ellipsis(self) -> bool:
        return bool(self.shape) and self.shape[0] == "..."

    @property
    def fixed(self) -> Tuple[ShapeEntry, ...]:
        """Shape entries excluding the leading ellipsis."""
        return self.shape[1:] if self.has_ellipsis else self.shape

    def render(self, binding: Optional[Mapping[str, int]] = None) -> str:
        parts = [str(entry) for entry in self.shape]
        text = "[" + ", ".join(parts) + "]"
        if binding:
            bound = [
                f"{entry}={binding[entry]}"
                for entry in self.shape
                if isinstance(entry, str) and entry in binding and entry != "..."
            ]
            if bound:
                text += " with " + ", ".join(bound)
        return text

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Spec{self.shape!r}"


SpecTree = Any  # Spec | ANY | tuple/list/dict of SpecTree
DimValue = Union[int, str, Callable[[Any], int]]


class Contract:
    """A module's graph contract: entry method, input/output specs, dims."""

    __slots__ = ("method", "inputs", "outputs", "dims", "build_inputs", "audit")

    def __init__(
        self,
        inputs: Optional[Mapping[str, SpecTree]] = None,
        outputs: SpecTree = None,
        dims: Optional[Mapping[str, DimValue]] = None,
        method: str = "forward",
        build_inputs: Optional[Callable[[Any, "DimEnv"], Tuple[tuple, dict]]] = None,
        audit: bool = True,
    ) -> None:
        self.method = method
        self.inputs: Dict[str, SpecTree] = dict(inputs or {})
        self.outputs = outputs
        self.dims: Dict[str, DimValue] = dict(dims or {})
        self.build_inputs = build_inputs
        self.audit = audit

    def bind_dims(self, module: Any) -> Dict[str, int]:
        """Evaluate the ``dims`` mapping against a concrete module instance."""
        bound: Dict[str, int] = {}
        for name, value in self.dims.items():
            if isinstance(value, int):
                bound[name] = value
            elif isinstance(value, str):
                target = module
                for part in value.split("."):
                    target = getattr(target, part)
                bound[name] = int(target)
            elif callable(value):
                bound[name] = int(value(module))
            else:
                raise TypeError(
                    f"contract dim {name!r} must be int, attribute path or "
                    f"callable, got {type(value).__name__}"
                )
        return bound

    def signature_names(self, module: Any) -> List[str]:
        """Positional parameter names of the entry method (without self)."""
        fn = getattr(type(module), self.method)
        names = []
        for pname, param in inspect.signature(fn).parameters.items():
            if pname == "self":
                continue
            if param.kind in (
                inspect.Parameter.VAR_POSITIONAL,
                inspect.Parameter.VAR_KEYWORD,
            ):
                continue
            names.append(pname)
        return names


def contract(
    inputs: Optional[Mapping[str, SpecTree]] = None,
    outputs: SpecTree = None,
    dims: Optional[Mapping[str, DimValue]] = None,
    method: str = "forward",
    build_inputs: Optional[Callable[[Any, "DimEnv"], Tuple[tuple, dict]]] = None,
    audit: bool = True,
):
    """Class decorator attaching a :class:`Contract` as ``__graph_contract__``.

    The verifier checks the contract whenever the module is *called* during
    a symbolic trace (nested modules included) and uses it to build probe
    inputs when the module is verified standalone.
    """

    spec = Contract(
        inputs=inputs,
        outputs=outputs,
        dims=dims,
        method=method,
        build_inputs=build_inputs,
        audit=audit,
    )

    def decorate(cls):
        cls.__graph_contract__ = spec
        return cls

    return decorate


#: Fresh-dim probe candidates.  Distinct small primes so free dims (B, L,
#: N_c…) rarely collide with architecture sizes; collisions degrade only
#: the cosmetic reverse naming, never the value checks.
_PROBE_CANDIDATES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)


class DimEnv:
    """Name→value bindings plus the reverse map for one verification run."""

    def __init__(self) -> None:
        self.bindings: Dict[str, int] = {}
        self._reverse: Dict[int, Optional[str]] = {}  # None == ambiguous

    def bind(self, name: str, value: int) -> Dim:
        value = int(value)
        existing = self.bindings.get(name)
        if existing is not None and existing != value:
            raise ValueError(
                f"dim {name!r} bound to both {existing} and {value}"
            )
        self.bindings[name] = value
        if value > 1:  # never reverse-map size 1; it is too common
            if value in self._reverse and self._reverse[value] != name:
                self._reverse[value] = None  # ambiguous
            else:
                self._reverse[value] = name
        return Dim(value, name=name, origin="spec")

    def bind_all(self, bound: Mapping[str, int]) -> None:
        for name, value in bound.items():
            self.bind(name, value)

    def fresh(self, name: str) -> Dim:
        """Bind ``name`` to an unused probe value (or return its binding)."""
        if name in self.bindings:
            return Dim(self.bindings[name], name=name, origin="spec")
        used = set(self.bindings.values())
        for candidate in _PROBE_CANDIDATES:
            if candidate not in used:
                return self.bind(name, candidate)
        raise RuntimeError("probe candidates exhausted")  # pragma: no cover

    def lookup(self, value: int) -> Optional[str]:
        """Unambiguous name for a concrete size, if any."""
        return self._reverse.get(int(value))

    def name_shape(self, shape: Iterable[int], origin: Optional[str] = None) -> Tuple[Dim, ...]:
        """Symbolic dims for a concrete shape via the reverse map.

        Size-1 axes get the given ``origin`` (lifted external arrays pass
        ``"external"`` so their broadcast-1s are treated as intentional).
        """
        dims = []
        for size in shape:
            size = int(size)
            if size == 1:
                dims.append(Dim(1, origin=origin))
            else:
                dims.append(Dim(size, name=self.lookup(size)))
        return tuple(dims)
