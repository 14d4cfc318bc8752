"""Trace sessions: run a real ``Module.forward`` over symbolic tensors.

A :class:`TraceSession` is the engine's :class:`~repro.nn.tensor.Observer`
for the duration of one verification run:

* ``Tensor(...)`` construction inside traced code lifts the data into a
  :class:`SymbolicTensor`, real tensor ops report their outputs for
  parameter-lineage bookkeeping, and the ``concat``/``stack``/``where``/
  ``lstm_sequence`` free functions dispatch to their symbolic counterparts
  when any operand is symbolic;
* every ``module(...)`` call is routed through
  :meth:`TraceSession.call_module`, which records the dotted module path
  (for violation messages) and checks the module's ``@contract``
  declaration against the actual symbolic inputs/outputs.

No real compute happens beyond tiny probe-sized shadow arrays; the shipped
forwards run unmodified.
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ...nn import tensor as tensor_mod
from ...nn.module import Module
from ...nn.tensor import Observer, Tensor, is_grad_enabled
from ...runtime.errors import GraphContractError
from .spec import ANY, Contract, Dim, DimEnv, Spec, render_dims
# The sym_* rules are reached by name from TraceSession.dispatch.
from .symbolic import SymbolicTensor, sym_concat, sym_lstm_sequence, sym_stack, sym_where

__all__ = ["TraceSession"]

_EMPTY = frozenset()


class TraceSession(Observer):
    """One symbolic trace of a module tree: observer, paths, lineage, checks."""

    def __init__(self, root: Module, env: Optional[DimEnv] = None, audit: bool = True) -> None:
        self.root = root
        self.env = env if env is not None else DimEnv()
        self.audit = audit
        # Dotted-path stack of modules currently executing (innermost last).
        self.path_stack: List[str] = [type(root).__name__]
        self.paths: Dict[int, str] = {}
        self._name_modules(root, type(root).__name__)
        self.param_names: Dict[int, str] = {
            id(param): name for name, param in root.named_parameters()
        }
        # Lineage of *real* tensors created during the trace (e.g. weight.T):
        # id -> (grad_roots, data_roots).  ``_keep`` pins the objects so ids
        # are never recycled while the session lives.
        self.lineage: Dict[int, Tuple[frozenset, frozenset]] = {}
        self._keep: List[Tensor] = []
        #: First sever event per parameter: root name -> (op, module path).
        self.severed: Dict[str, Tuple[str, str]] = {}

    def _name_modules(self, module: Module, path: str) -> None:
        self.paths[id(module)] = path
        for name, child in module._modules.items():
            self._name_modules(child, f"{path}.{name}")

    # ------------------------------------------------------------------
    # Session state used by the symbolic ops
    # ------------------------------------------------------------------
    def current_path(self) -> str:
        return self.path_stack[-1]

    def record_sever(self, op: str, roots: frozenset) -> None:
        for root in roots:
            self.severed.setdefault(root, (op, self.current_path()))

    def roots_of(self, value: Any) -> Tuple[frozenset, frozenset]:
        """(grad_roots, data_roots) reaching a real or symbolic tensor."""
        if isinstance(value, SymbolicTensor):
            return value.grad_roots, value.data_roots
        name = self.param_names.get(id(value))
        if name is not None:
            roots = frozenset((name,))
            return roots, roots
        return self.lineage.get(id(value), (_EMPTY, _EMPTY))

    def coerce(self, value: Any) -> SymbolicTensor:
        """Lift any operand (symbolic, real tensor, array, scalar) to symbolic."""
        if isinstance(value, SymbolicTensor):
            return value
        if isinstance(value, Tensor):
            grad_roots, data_roots = self.roots_of(value)
            shadow = np.asarray(value.data, dtype=np.float64)
            return SymbolicTensor(
                dims=self.env.name_shape(shadow.shape, origin="external"),
                shadow=shadow,
                requires_grad=value.requires_grad and is_grad_enabled(),
                grad_roots=grad_roots,
                data_roots=data_roots,
                session=self,
            )
        shadow = np.asarray(value, dtype=np.float64)
        return SymbolicTensor(
            dims=self.env.name_shape(shadow.shape, origin="external"),
            shadow=shadow,
            session=self,
        )

    # ------------------------------------------------------------------
    # Observer protocol (see repro.nn.tensor.Observer)
    # ------------------------------------------------------------------
    def lift_new(self, data: Any, requires_grad: bool) -> SymbolicTensor:
        """Intercept ``Tensor(data)`` construction inside traced code."""
        sym = self.coerce(data)
        if requires_grad and is_grad_enabled() and not sym.requires_grad:
            sym = SymbolicTensor(
                dims=sym.dims,
                shadow=sym.shadow,
                requires_grad=True,
                grad_roots=sym.grad_roots,
                data_roots=sym.data_roots,
                session=self,
            )
        return sym

    def note_op(self, out: Tensor, parents: Sequence[Any]) -> None:
        """Track parameter lineage through ops on *real* tensors."""
        grad_roots: frozenset = _EMPTY
        data_roots: frozenset = _EMPTY
        for parent in parents:
            g, d = self.roots_of(parent)
            grad_roots = grad_roots | g
            data_roots = data_roots | d
        if not data_roots:
            return
        if not is_grad_enabled():
            if grad_roots and self.audit:
                self.record_sever("no_grad", grad_roots)
            grad_roots = _EMPTY
        self.lineage[id(out)] = (grad_roots, data_roots)
        self._keep.append(out)

    def dispatch(self, op: str, *args: Any) -> Any:
        """Run ``sym_<op>`` when any operand (or sequence item) is symbolic."""
        operands = (
            item
            for arg in args
            for item in (arg if isinstance(arg, (list, tuple)) else (arg,))
        )
        if not any(isinstance(v, SymbolicTensor) for v in operands):
            return None
        # Looked up per call, so the rules stay patchable on this module.
        return globals()[f"sym_{op}"](self, *args)

    def call_module(self, module: Module, args: tuple, kwargs: dict):
        path = self.paths.get(id(module), type(module).__name__)
        self.path_stack.append(path)
        try:
            contract = getattr(type(module), "__graph_contract__", None)
            binding: Optional[Dict[str, int]] = None
            checked = contract is not None and contract.method == "forward"
            if checked:
                binding = dict(contract.bind_dims(module))
                self.check_inputs(module, contract, args, kwargs, binding)
            out = module.forward(*args, **kwargs)
            if checked and contract.outputs is not None:
                self.check_value(out, contract.outputs, binding, "output", contract.method)
            return out
        finally:
            self.path_stack.pop()

    # ------------------------------------------------------------------
    # Contract checking
    # ------------------------------------------------------------------
    def check_inputs(
        self,
        module: Module,
        contract: Contract,
        args: tuple,
        kwargs: dict,
        binding: Dict[str, int],
    ) -> None:
        names = contract.signature_names(module)
        bound = dict(zip(names, args))
        bound.update(kwargs)
        for name, spec_tree in contract.inputs.items():
            if name not in bound or bound[name] is None:
                continue  # defaulted argument: nothing to check
            self.check_value(bound[name], spec_tree, binding, name, contract.method)

    def _fail_contract(
        self, method: str, label: str, detail: str,
        expected: Optional[str] = None, actual: Optional[str] = None,
    ) -> None:
        path = self.current_path()
        message = f"{path}.{method}: '{label}' {detail}"
        if expected is not None:
            message += f" (expected {expected}, got {actual})"
        raise GraphContractError(
            message,
            module_path=path,
            op=f"{method}:{label}",
            expected=expected,
            actual=actual,
        )

    def check_value(
        self, value: Any, spec_tree: Any, binding: Dict[str, int],
        label: str, method: str,
    ) -> None:
        """Check a value against a spec tree, unifying named dims via ``binding``."""
        if spec_tree is None or spec_tree is ANY:
            return
        if isinstance(spec_tree, Spec):
            self._check_tensor(value, spec_tree, binding, label, method)
            return
        if isinstance(spec_tree, Mapping):
            if not isinstance(value, Mapping):
                self._fail_contract(
                    method, label,
                    f"expected a mapping of tensors, got {type(value).__name__}",
                )
            # Intersection semantics: optional keys (e.g. a disabled ResGen's
            # mu/log_sigma) are not required, but present keys must conform.
            for key, sub in spec_tree.items():
                if key in value:
                    self.check_value(value[key], sub, binding, f"{label}[{key!r}]", method)
            return
        if isinstance(spec_tree, (tuple, list)):
            if not isinstance(value, (tuple, list)) or len(value) != len(spec_tree):
                got = (
                    f"a {len(value)}-element {type(value).__name__}"
                    if isinstance(value, (tuple, list))
                    else type(value).__name__
                )
                self._fail_contract(
                    method, label,
                    f"expected a {len(spec_tree)}-element sequence, got {got}",
                )
            for i, (item, sub) in enumerate(zip(value, spec_tree)):
                self.check_value(item, sub, binding, f"{label}[{i}]", method)
            return
        raise TypeError(f"unsupported spec tree entry for {label!r}: {spec_tree!r}")

    @staticmethod
    def _dims_of(value: Any) -> Optional[Tuple[Tuple[Dim, ...], Any, Optional[bool]]]:
        """(dims, dtype, requires_grad) of a checkable value, else None."""
        if isinstance(value, SymbolicTensor):
            return value.dims, value.shadow.dtype, value.requires_grad
        if isinstance(value, Tensor):
            dims = tuple(Dim(int(s)) for s in value.data.shape)
            return dims, value.data.dtype, value.requires_grad
        if isinstance(value, np.ndarray):
            return tuple(Dim(int(s)) for s in value.shape), value.dtype, None
        if isinstance(value, (int, float, np.floating, np.integer)):
            return (), np.asarray(value).dtype, None
        return None

    def _check_tensor(
        self, value: Any, spec: Spec, binding: Dict[str, int],
        label: str, method: str,
    ) -> None:
        described = self._dims_of(value)
        if described is None:
            self._fail_contract(
                method, label, f"expected a tensor, got {type(value).__name__}"
            )
        dims, dtype, requires_grad = described
        fixed = spec.fixed
        if spec.has_ellipsis:
            if len(dims) < len(fixed):
                self._fail_contract(
                    method, label,
                    f"rank drift: needs at least rank {len(fixed)}, got rank {len(dims)}",
                    expected=spec.render(binding), actual=render_dims(dims),
                )
            tail = dims[len(dims) - len(fixed):] if fixed else ()
        else:
            if len(dims) != len(fixed):
                self._fail_contract(
                    method, label,
                    f"rank drift: expected rank {len(fixed)}, got rank {len(dims)}",
                    expected=spec.render(binding), actual=render_dims(dims),
                )
            tail = dims
        for entry, dim in zip(fixed, tail):
            if isinstance(entry, str):
                expected_value = binding.get(entry)
                if expected_value is None:
                    binding[entry] = int(dim)
                elif int(dim) != expected_value:
                    self._fail_contract(
                        method, label,
                        f"dim {entry!r} should be {expected_value}, got {int(dim)}",
                        expected=spec.render(binding), actual=render_dims(dims),
                    )
            elif int(entry) != int(dim):
                self._fail_contract(
                    method, label,
                    f"fixed dim should be {int(entry)}, got {int(dim)}",
                    expected=spec.render(binding), actual=render_dims(dims),
                )
        if spec.dtype is not None:
            actual_dtype = np.dtype(dtype)
            if actual_dtype != spec.dtype:
                detail = f"dtype should be {spec.dtype}, got {actual_dtype}"
                if actual_dtype.itemsize < spec.dtype.itemsize:
                    detail += " (precision truncation, e.g. float64 -> float32)"
                self._fail_contract(method, label, detail)
        if spec.requires_grad is not None and requires_grad is not None:
            if bool(requires_grad) != spec.requires_grad:
                self._fail_contract(
                    method, label,
                    f"requires_grad should be {spec.requires_grad}, got {bool(requires_grad)}",
                )

    # ------------------------------------------------------------------
    # Probe construction for standalone verification
    # ------------------------------------------------------------------
    def build_probe_inputs(self, module: Module, contract: Contract) -> Tuple[tuple, dict]:
        """Probe (args, kwargs) for the contract's entry method."""
        if contract.build_inputs is not None:
            return contract.build_inputs(module, self.env)
        kwargs = {}
        for name in contract.signature_names(module):
            if name in contract.inputs:
                kwargs[name] = self._build_value(contract.inputs[name], name)
        return (), kwargs

    def _build_value(self, spec_tree: Any, label: str) -> Any:
        if isinstance(spec_tree, Spec):
            dims: List[Dim] = []
            for entry in spec_tree.shape:
                if entry == "...":
                    dims.append(self.env.fresh("B"))
                elif isinstance(entry, str):
                    dims.append(self.env.fresh(entry))
                else:
                    dims.append(Dim(int(entry), origin="spec"))
            shadow = np.zeros(
                tuple(int(d) for d in dims),
                dtype=spec_tree.dtype if spec_tree.dtype is not None else np.float64,
            )
            if spec_tree.array:
                return shadow
            return SymbolicTensor(
                dims=tuple(dims),
                shadow=shadow,
                requires_grad=bool(spec_tree.requires_grad),
                session=self,
            )
        if isinstance(spec_tree, (tuple, list)):
            return tuple(
                self._build_value(sub, f"{label}[{i}]") for i, sub in enumerate(spec_tree)
            )
        if isinstance(spec_tree, Mapping):
            return {
                key: self._build_value(sub, f"{label}[{key!r}]")
                for key, sub in spec_tree.items()
            }
        raise GraphContractError(
            f"cannot build a probe for input {label!r} declared as {spec_tree!r}; "
            "give the contract a build_inputs callable",
            module_path=self.current_path(),
            op=f"probe:{label}",
        )

    # ------------------------------------------------------------------
    # Observer lifecycle
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def active(self):
        """Install this session as the engine's observer for the trace.

        Whatever observer it replaces (e.g. anomaly detection) is suspended
        for the trace and restored afterwards.
        """
        previous = tensor_mod._set_observer(self)
        if isinstance(previous, TraceSession):
            tensor_mod._set_observer(previous)
            raise RuntimeError("a symbolic trace is already active; traces do not nest")
        try:
            yield self
        finally:
            tensor_mod._set_observer(previous)
