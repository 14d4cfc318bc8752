"""Reverse-mode automatic differentiation on numpy arrays.

This module provides the :class:`Tensor` class, a small tape-based autodiff
engine sufficient to train the LSTM/GNN/GAN models used by GenDT.  It exists
because the reproduction environment has no deep-learning framework
installed; the design deliberately mirrors the subset of the PyTorch tensor
API that the rest of the code base needs (``matmul``, ``sigmoid``, ``tanh``,
reductions, indexing, concatenation) so the model code reads conventionally.

Gradients flow through a dynamically-recorded DAG.  Calling
:meth:`Tensor.backward` topologically sorts the graph reachable from the
output and accumulates ``.grad`` arrays on every tensor created with
``requires_grad=True``.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]

_grad_enabled = True


class no_grad:
    """Context manager that disables graph recording (like torch.no_grad)."""

    def __enter__(self) -> "no_grad":
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc) -> None:
        global _grad_enabled
        _grad_enabled = self._prev


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autodiff graph."""
    return _grad_enabled


class Observer:
    """Base class for whatever watches the engine from the observer slot.

    At most one observer is installed at a time (:func:`_set_observer`);
    anomaly detection (:mod:`repro.nn.anomaly`) and the symbolic tracer
    (:mod:`repro.analysis.graph.trace`) are the two in use.  Every method
    here is a no-op, so a subclass overrides only what it watches.
    """

    def lift_new(self, data, requires_grad):
        """Replace ``Tensor(data)`` construction; ``None`` keeps it real."""
        return None

    def note_op(self, out, parents) -> None:
        """Called by every op with its freshly built output."""

    def check_backward(self, node) -> None:
        """Called after ``node``'s backward function wrote its gradients."""

    def dispatch(self, op, *args):
        """Replace the free function ``op``; ``None`` runs the real one."""
        return None

    def call_module(self, module, args, kwargs):
        """Run ``module.forward`` on behalf of ``Module.__call__``."""
        return module.forward(*args, **kwargs)


# The single observer slot; ``None`` (the off-path) outside anomaly
# detection and symbolic traces.
_observer: Optional[Observer] = None


def _set_observer(observer: Optional[Observer]) -> Optional[Observer]:
    """Install (or clear, with None) the observer; returns the previous one."""
    global _observer
    previous = _observer
    _observer = observer
    return previous


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were broadcast from size 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor with reverse-mode autodiff support."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name", "_anomaly_ctx")

    __array_priority__ = 100  # ensure ndarray + Tensor dispatches to Tensor

    def __new__(cls, data=None, requires_grad=False, _parents=(), name=None):
        # During a symbolic trace, plain Tensor construction lifts into a
        # SymbolicTensor so shapes stay named through the whole forward.
        # Parameter (and other subclasses) stay real: tracing works on the
        # module's actual weights via their shadow arrays.
        if _observer is not None and cls is Tensor:
            lifted = _observer.lift_new(data, requires_grad)
            if lifted is not None:
                return lifted
        return object.__new__(cls)

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Sequence["Tensor"] = (),
        name: Optional[str] = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and _grad_enabled
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = tuple(_parents)
        self.name = name

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_tag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4)}{grad_tag})"

    def item(self) -> float:
        return float(self.data.item())

    def numpy(self) -> np.ndarray:
        """Return the underlying array (a detached view)."""
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(value: ArrayLike) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def _make(
        self,
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = _grad_enabled and any(p.requires_grad for p in parents)
        # Raw construction: bypasses the symbolic lifting in __new__ so real
        # op outputs stay real even while a trace is installed (mixed
        # real/symbolic expressions report their lineage via note_op).
        out = object.__new__(Tensor)
        Tensor.__init__(out, data, requires_grad=False)
        if _observer is not None:
            _observer.note_op(out, parents)
        if requires:
            out.requires_grad = True
            out._parents = tuple(p for p in parents if p.requires_grad)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return self._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return self._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data**2), other.shape)
                )

        return self._make(out_data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return self._make(out_data, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return self.matmul(other)

    def matmul(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    g = np.outer(grad, other.data) if grad.ndim == 1 else grad[..., None] * other.data
                    self._accumulate(_unbroadcast(np.asarray(g), self.shape))
                else:
                    g = grad @ np.swapaxes(other.data, -1, -2)
                    self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                if self.data.ndim == 1:
                    g = np.outer(self.data, grad) if grad.ndim == 1 else self.data[..., None] @ grad[..., None, :]
                    other._accumulate(_unbroadcast(np.asarray(g), other.shape))
                else:
                    g = np.swapaxes(self.data, -1, -2) @ grad
                    other._accumulate(_unbroadcast(g, other.shape))

        return self._make(out_data, (self, other), backward)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return self._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return self._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self**0.5

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data**2))

        return self._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return self._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return self._make(self.data * mask, (self,), backward)

    def leaky_relu(self, negative_slope: float = 0.2) -> "Tensor":
        mask = self.data > 0
        scale = np.where(mask, 1.0, negative_slope)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * scale)

        return self._make(self.data * scale, (self,), backward)

    def softplus(self) -> "Tensor":
        clipped = np.clip(self.data, -60.0, 60.0)
        out_data = np.log1p(np.exp(-np.abs(clipped))) + np.maximum(clipped, 0.0)
        sig = 1.0 / (1.0 + np.exp(-clipped))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * sig)

        return self._make(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * sign)

        return self._make(np.abs(self.data), (self,), backward)

    def clip(self, lo: float, hi: float) -> "Tensor":
        mask = (self.data >= lo) & (self.data <= hi)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return self._make(np.clip(self.data, lo, hi), (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = np.asarray(grad)
            if axis is None:
                self._accumulate(np.broadcast_to(g, self.shape).copy())
                return
            if not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return self._make(out_data, (self,), backward)

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        elif isinstance(axis, int):
            count = self.shape[axis]
        else:
            count = int(np.prod([self.shape[a] for a in axis]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old_shape = self.shape
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(old_shape))

        return self._make(out_data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes_tuple: Optional[Tuple[int, ...]] = None
            out_data = self.data.T
        else:
            axes_tuple = tuple(axes)
            out_data = self.data.transpose(axes_tuple)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            if axes_tuple is None:
                self._accumulate(grad.T)
            else:
                self._accumulate(grad.transpose(np.argsort(axes_tuple)))

        return self._make(out_data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self._accumulate(full)

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor without grad")
        if grad is None:
            if self.size != 1:
                raise RuntimeError("grad must be supplied for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)

        order: List[Tensor] = []
        seen = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                if _observer is not None:
                    _observer.check_backward(node)
                # Free intermediate grads/graph to bound memory; keep leaf grads.
                if node._parents:
                    node.grad = None
        # Release the graph so repeated forward passes don't leak memory.
        for node in order:
            node._backward = None
            node._parents = ()


# ----------------------------------------------------------------------
# Free functions operating on tensors
# ----------------------------------------------------------------------
def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    if _observer is not None:
        symbolic = _observer.dispatch("concat", tensors, axis)
        if symbolic is not None:
            return symbolic
    tensors = [Tensor._coerce(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(index)])

    proto = tensors[0]
    return proto._make(out_data, tensors, backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient support."""
    if _observer is not None:
        symbolic = _observer.dispatch("stack", tensors, axis)
        if symbolic is not None:
            return symbolic
    tensors = [Tensor._coerce(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        slabs = np.moveaxis(grad, axis, 0)
        for tensor, slab in zip(tensors, slabs):
            if tensor.requires_grad:
                tensor._accumulate(slab)

    proto = tensors[0]
    return proto._make(out_data, tensors, backward)


def where(condition: np.ndarray, a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise select with gradient flowing to both branches."""
    if _observer is not None:
        symbolic = _observer.dispatch("where", condition, a, b)
        if symbolic is not None:
            return symbolic
    a = Tensor._coerce(a)
    b = Tensor._coerce(b)
    cond = np.asarray(condition, dtype=bool)
    out_data = np.where(cond, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad * cond, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad * ~cond, b.shape))

    return a._make(out_data, (a, b), backward)


def as_tensor(value: ArrayLike) -> Tensor:
    """Coerce ``value`` to a (non-differentiable) Tensor."""
    return Tensor._coerce(value)


def zeros(shape: Union[int, Tuple[int, ...]], requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(shape: Union[int, Tuple[int, ...]], requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=requires_grad)
