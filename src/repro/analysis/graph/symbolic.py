"""Symbolic tensors: shape/dtype/grad-lineage shadows of ``repro.nn.Tensor``.

A :class:`SymbolicTensor` mirrors the full op vocabulary of
:mod:`repro.nn.tensor` but records *symbolic* shapes (tuples of
:class:`~repro.analysis.graph.spec.Dim`) and gradient lineage (which
parameters reach this value, and through which grad-carrying paths) instead
of an autodiff tape.  It also carries a tiny concrete ``shadow`` array —
shipped forwards interleave numpy side-computation (``state.data``,
``base.numpy()``), so a pure shape-only trace cannot execute them; the
shadow keeps that code running on probe-sized data while every tensor op is
checked symbolically.

Checks performed per op:

* elementwise broadcast unification — rank extension and *intentional*
  size-1 axes (external inputs, ``keepdims`` reductions, spec-declared) are
  allowed; a plain size-1 axis manufactured by a reshape/slice broadcasting
  against a real dimension raises an accidental-broadcast violation;
* named-dim alignment — two dims that happen to share a size but carry
  different bound names cannot be elementwise-combined;
* matmul inner-dimension agreement, reshape element-count conservation;
* float64→float32 truncation at contract boundaries (via dtype tracking).

Violations raise :class:`repro.runtime.errors.GraphContractError`
immediately, carrying the dotted module path of the op that failed.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

import numpy as np

from ...nn.lstm import _lstm_forward
from ...nn.tensor import is_grad_enabled
from ...runtime.errors import GraphContractError
from .spec import Dim, INTENTIONAL_ORIGINS, render_dims

__all__ = [
    "DIFFERENTIABLE_OPS",
    "SymbolicTensor",
    "broadcast_dims",
    "sym_concat",
    "sym_lstm_sequence",
    "sym_stack",
    "sym_where",
]

#: Ops through which the real engine propagates gradients.  The gradcheck
#: sweep in ``tests/test_tensor_gradcheck.py`` asserts it covers exactly this
#: set, so the symbolic table and the real backward passes cannot drift.
DIFFERENTIABLE_OPS = frozenset(
    {
        "add", "neg", "sub", "mul", "div", "pow", "sqrt", "matmul",
        "exp", "log", "tanh", "sigmoid", "relu", "leaky_relu", "softplus",
        "abs", "clip", "sum", "mean", "var",
        "reshape", "transpose", "getitem", "concat", "stack", "where",
        "lstm_sequence",
    }
)

#: Ops that deliberately sever the gradient path.
NON_DIFFERENTIABLE_OPS = frozenset({"detach"})


def _fail(
    session,
    op: str,
    message: str,
    expected: Optional[str] = None,
    actual: Optional[str] = None,
) -> None:
    path = session.current_path()
    detail = f"{path}: op {op!r}: {message}"
    if expected is not None:
        detail += f" (expected {expected}, got {actual})"
    raise GraphContractError(
        detail, module_path=path, op=op, expected=expected, actual=actual
    )


def _merge_equal(da: Dim, db: Dim) -> Dim:
    """Pick the more informative of two same-valued aligned dims."""
    if int(da) == 1:
        if da.origin in INTENTIONAL_ORIGINS:
            return da
        if db.origin in INTENTIONAL_ORIGINS:
            return db
        return da
    if da.name:
        return da
    return db


def broadcast_dims(
    a: Tuple[Dim, ...],
    b: Tuple[Dim, ...],
    op: str,
    session,
    strict_ones: bool = True,
) -> Tuple[Dim, ...]:
    """Numpy broadcast rules over symbolic dims, with accident detection.

    ``strict_ones=False`` relaxes the accidental-broadcast check (used for
    matmul *batch* dims, where numpy broadcasts stacks by design).
    """
    la, lb = len(a), len(b)
    n = max(la, lb)
    out = []
    for i in range(n):
        ia, ib = i - (n - la), i - (n - lb)
        da = a[ia] if ia >= 0 else None
        db = b[ib] if ib >= 0 else None
        if da is None or db is None:
            # Rank extension (e.g. adding a bias vector) is always fine.
            out.append(da if db is None else db)
            continue
        va, vb = int(da), int(db)
        if va == vb:
            if da.name and db.name and da.name != db.name:
                _fail(
                    session, op,
                    f"axis {i - n} aligns dim {da.render()} with "
                    f"{db.render()}: same size ({va}) but different named "
                    "dimensions — likely a transposed or mis-ordered operand",
                    expected=render_dims(a), actual=render_dims(b),
                )
            out.append(_merge_equal(da, db))
        elif va == 1 or vb == 1:
            one, other = (da, db) if va == 1 else (db, da)
            if strict_ones and one.origin not in INTENTIONAL_ORIGINS:
                _fail(
                    session, op,
                    f"accidental broadcast on axis {i - n}: a size-1 axis "
                    "(not an input or keepdims reduction) is being "
                    f"broadcast against {other.render()}",
                    expected=render_dims(a), actual=render_dims(b),
                )
            out.append(other)
        else:
            _fail(
                session, op,
                "operands are not broadcast-compatible",
                expected=render_dims(a), actual=render_dims(b),
            )
    return tuple(out)


def _union(parents: Sequence["SymbolicTensor"], attr: str) -> frozenset:
    roots: frozenset = frozenset()
    for p in parents:
        roots = roots | getattr(p, attr)
    return roots


def _result(
    session,
    op: str,
    dims: Tuple[Dim, ...],
    shadow: np.ndarray,
    parents: Sequence["SymbolicTensor"],
    differentiable: bool = True,
) -> "SymbolicTensor":
    grad_on = differentiable and is_grad_enabled()
    data_roots = _union(parents, "data_roots")
    if grad_on:
        grad_roots = _union(parents, "grad_roots")
        requires = bool(grad_roots) or any(p.requires_grad for p in parents)
    else:
        grad_roots = frozenset()
        requires = False
        cut = _union(parents, "grad_roots")
        if cut and session.audit:
            session.record_sever(op, cut)
    return SymbolicTensor(
        dims=dims,
        shadow=shadow,
        requires_grad=requires,
        grad_roots=grad_roots,
        data_roots=data_roots,
        session=session,
    )


class SymbolicTensor:
    """A traced tensor: symbolic dims + shadow data + parameter lineage."""

    __slots__ = ("dims", "shadow", "requires_grad", "grad_roots", "data_roots", "session")

    __array_priority__ = 200  # beat both ndarray and Tensor in mixed ops

    def __init__(
        self,
        dims: Tuple[Dim, ...],
        shadow: np.ndarray,
        requires_grad: bool = False,
        grad_roots: frozenset = frozenset(),
        data_roots: frozenset = frozenset(),
        session=None,
    ) -> None:
        self.dims = tuple(dims)
        self.shadow = np.asarray(shadow)
        self.requires_grad = requires_grad
        self.grad_roots = grad_roots
        self.data_roots = data_roots
        self.session = session
        if self.shadow.shape != tuple(int(d) for d in self.dims):  # pragma: no cover
            raise AssertionError(
                f"shadow shape {self.shadow.shape} disagrees with symbolic "
                f"dims {render_dims(self.dims)}"
            )

    # ------------------------------------------------------------------
    # Tensor-compatible protocol
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[Dim, ...]:
        return self.dims

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def size(self) -> int:
        return int(self.shadow.size)

    @property
    def dtype(self) -> np.dtype:
        return self.shadow.dtype

    @property
    def data(self) -> np.ndarray:
        return self.shadow

    @property
    def grad(self) -> None:
        return None

    @property
    def T(self) -> "SymbolicTensor":
        return self.transpose()

    def __len__(self) -> int:
        return int(self.dims[0])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SymbolicTensor({render_dims(self.dims)}, dtype={self.shadow.dtype})"

    def item(self) -> float:
        return float(self.shadow.item())

    def numpy(self) -> np.ndarray:
        return self.shadow

    def detach(self) -> "SymbolicTensor":
        if self.grad_roots and self.session.audit:
            self.session.record_sever("detach", self.grad_roots)
        return SymbolicTensor(
            dims=self.dims,
            shadow=self.shadow,
            requires_grad=False,
            grad_roots=frozenset(),
            data_roots=self.data_roots,
            session=self.session,
        )

    def zero_grad(self) -> None:
        return None

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        _fail(self.session, "backward", "backward() is not available during symbolic tracing")

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _coerce(self, value: Any) -> "SymbolicTensor":
        return self.session.coerce(value)

    def _elementwise(
        self, other: Any, op: str, fn, differentiable: bool = True
    ) -> "SymbolicTensor":
        other = self._coerce(other)
        dims = broadcast_dims(self.dims, other.dims, op, self.session)
        shadow = fn(self.shadow, other.shadow)
        return _result(self.session, op, dims, shadow, (self, other), differentiable)

    def _unary(
        self, op: str, fn, dims: Optional[Tuple[Dim, ...]] = None
    ) -> "SymbolicTensor":
        shadow = fn(self.shadow)
        return _result(
            self.session, op, self.dims if dims is None else dims, shadow, (self,)
        )

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: Any) -> "SymbolicTensor":
        return self._elementwise(other, "add", lambda a, b: a + b)

    __radd__ = __add__

    def __neg__(self) -> "SymbolicTensor":
        return self._unary("neg", lambda a: -a)

    def __sub__(self, other: Any) -> "SymbolicTensor":
        return self._elementwise(other, "sub", lambda a, b: a - b)

    def __rsub__(self, other: Any) -> "SymbolicTensor":
        return self._coerce(other) - self

    def __mul__(self, other: Any) -> "SymbolicTensor":
        return self._elementwise(other, "mul", lambda a, b: a * b)

    __rmul__ = __mul__

    def __truediv__(self, other: Any) -> "SymbolicTensor":
        return self._elementwise(other, "div", lambda a, b: a / b)

    def __rtruediv__(self, other: Any) -> "SymbolicTensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "SymbolicTensor":
        return self._unary("pow", lambda a: a**exponent)

    def __matmul__(self, other: Any) -> "SymbolicTensor":
        return self.matmul(other)

    def matmul(self, other: Any) -> "SymbolicTensor":
        other = self._coerce(other)
        a, b = self.dims, other.dims
        op = "matmul"
        if not a or not b:
            _fail(self.session, op, "matmul requires at least 1-D operands",
                  expected=render_dims(a), actual=render_dims(b))
        if len(b) == 1:
            if int(a[-1]) != int(b[0]):
                _fail(self.session, op,
                      f"inner dimensions disagree: {a[-1].render()} vs {b[0].render()}",
                      expected=render_dims(a), actual=render_dims(b))
            dims = a[:-1]
        elif len(a) == 1:
            if int(a[0]) != int(b[-2]):
                _fail(self.session, op,
                      f"inner dimensions disagree: {a[0].render()} vs {b[-2].render()}",
                      expected=render_dims(a), actual=render_dims(b))
            dims = b[:-2] + b[-1:]
        else:
            if int(a[-1]) != int(b[-2]):
                _fail(self.session, op,
                      f"inner dimensions disagree: {a[-1].render()} vs {b[-2].render()}",
                      expected=render_dims(a), actual=render_dims(b))
            batch = broadcast_dims(a[:-2], b[:-2], op, self.session, strict_ones=False)
            dims = batch + (a[-2], b[-1])
        shadow = self.shadow @ other.shadow
        return _result(self.session, op, dims, shadow, (self, other))

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "SymbolicTensor":
        return self._unary("exp", np.exp)

    def log(self) -> "SymbolicTensor":
        return self._unary("log", lambda a: np.log(np.where(a > 0, a, 1.0)))

    def sqrt(self) -> "SymbolicTensor":
        return self._unary("sqrt", lambda a: np.sqrt(np.abs(a)))

    def tanh(self) -> "SymbolicTensor":
        return self._unary("tanh", np.tanh)

    def sigmoid(self) -> "SymbolicTensor":
        return self._unary("sigmoid", lambda a: 1.0 / (1.0 + np.exp(-np.clip(a, -60.0, 60.0))))

    def relu(self) -> "SymbolicTensor":
        return self._unary("relu", lambda a: np.maximum(a, 0.0))

    def leaky_relu(self, negative_slope: float = 0.2) -> "SymbolicTensor":
        return self._unary("leaky_relu", lambda a: np.where(a > 0, a, negative_slope * a))

    def softplus(self) -> "SymbolicTensor":
        return self._unary("softplus", lambda a: np.log1p(np.exp(-np.abs(a))) + np.maximum(a, 0.0))

    def abs(self) -> "SymbolicTensor":
        return self._unary("abs", np.abs)

    def clip(self, lo: float, hi: float) -> "SymbolicTensor":
        return self._unary("clip", lambda a: np.clip(a, lo, hi))

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def _reduce_dims(self, axis, keepdims: bool) -> Tuple[Dim, ...]:
        if axis is None:
            if keepdims:
                return tuple(Dim(1, origin="keepdims") for _ in self.dims)
            return ()
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        axes = tuple(a % len(self.dims) for a in axes)
        out = []
        for i, d in enumerate(self.dims):
            if i in axes:
                if keepdims:
                    out.append(Dim(1, name=d.name, origin="keepdims"))
            else:
                out.append(d)
        return tuple(out)

    def sum(self, axis=None, keepdims: bool = False) -> "SymbolicTensor":
        dims = self._reduce_dims(axis, keepdims)
        shadow = self.shadow.sum(axis=axis, keepdims=keepdims)
        return _result(self.session, "sum", dims, shadow, (self,))

    def mean(self, axis=None, keepdims: bool = False) -> "SymbolicTensor":
        dims = self._reduce_dims(axis, keepdims)
        shadow = self.shadow.mean(axis=axis, keepdims=keepdims)
        return _result(self.session, "mean", dims, shadow, (self,))

    def var(self, axis=None, keepdims: bool = False) -> "SymbolicTensor":
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "SymbolicTensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        known = [int(s) for s in shape if int(s) != -1]
        n_wild = sum(1 for s in shape if int(s) == -1)
        total = int(self.shadow.size)
        if n_wild > 1:
            _fail(self.session, "reshape", "at most one -1 allowed in reshape")
        if n_wild == 1:
            block = int(np.prod(known)) if known else 1
            if block == 0 or total % block != 0:
                _fail(self.session, "reshape",
                      "element count is not divisible by the known dims",
                      expected=render_dims(self.dims), actual=str(tuple(shape)))
        elif int(np.prod(known)) != total and total != 0:
            _fail(self.session, "reshape",
                  f"element count changes: {total} -> {int(np.prod(known))}",
                  expected=render_dims(self.dims), actual=str(tuple(shape)))
        env = self.session.env
        dims = []
        for s in shape:
            if isinstance(s, Dim):
                dims.append(s)
            elif int(s) == -1:
                block = int(np.prod(known)) if known else 1
                value = total // block if block else 0
                dims.append(Dim(value, name=env.lookup(value)))
            elif int(s) == 1:
                dims.append(Dim(1))
            else:
                dims.append(Dim(int(s), name=env.lookup(int(s))))
        shadow = self.shadow.reshape(tuple(int(d) for d in dims))
        return _result(self.session, "reshape", tuple(dims), shadow, (self,))

    def transpose(self, *axes) -> "SymbolicTensor":
        if not axes:
            dims = tuple(reversed(self.dims))
            shadow = self.shadow.T
        else:
            axes_tuple = tuple(int(a) for a in axes)
            dims = tuple(self.dims[a] for a in axes_tuple)
            shadow = self.shadow.transpose(axes_tuple)
        return _result(self.session, "transpose", dims, shadow, (self,))

    def _index_dims(self, index) -> Optional[Tuple[Dim, ...]]:
        """Symbolic result dims for basic indexing; None for advanced."""
        items = list(index) if isinstance(index, tuple) else [index]
        if any(isinstance(it, (list, np.ndarray, SymbolicTensor)) for it in items):
            return None
        n_concrete = sum(1 for it in items if it is not None and it is not Ellipsis)
        if Ellipsis in items:
            pos = items.index(Ellipsis)
            fill = len(self.dims) - n_concrete
            items[pos : pos + 1] = [slice(None)] * fill
        out = []
        di = 0
        for it in items:
            if it is None:
                # A None-inserted axis is a *plain* 1: broadcasting it later
                # is exactly the accident this verifier exists to catch.
                out.append(Dim(1))
                continue
            if di >= len(self.dims):
                return None
            d = self.dims[di]
            if isinstance(it, (int, np.integer)):
                di += 1
            elif isinstance(it, slice):
                length = len(range(*it.indices(int(d))))
                out.append(d if length == int(d) else Dim(length))
                di += 1
            else:
                return None
        out.extend(self.dims[di:])
        return tuple(out)

    def __getitem__(self, index) -> "SymbolicTensor":
        shadow = self.shadow[index]
        dims = self._index_dims(index)
        if dims is None or tuple(int(d) for d in dims) != shadow.shape:
            dims = self.session.env.name_shape(shadow.shape)
        return _result(self.session, "getitem", dims, shadow, (self,))


# ----------------------------------------------------------------------
# Free functions (dispatched from repro.nn.tensor during a trace)
# ----------------------------------------------------------------------
def sym_concat(session, tensors: Sequence[Any], axis: int = -1) -> SymbolicTensor:
    parts = [session.coerce(t) for t in tensors]
    rank = parts[0].ndim
    ax = axis % rank
    ref = parts[0].dims
    for p in parts[1:]:
        if p.ndim != rank:
            _fail(session, "concat", "rank mismatch between concatenated tensors",
                  expected=render_dims(ref), actual=render_dims(p.dims))
        for i in range(rank):
            if i == ax:
                continue
            if int(ref[i]) != int(p.dims[i]):
                _fail(session, "concat",
                      f"non-axis dim {i} differs between concatenated tensors",
                      expected=render_dims(ref), actual=render_dims(p.dims))
    joined = sum(int(p.dims[ax]) for p in parts)
    dims = list(ref)
    for i in range(rank):
        if i == ax:
            continue
        for p in parts[1:]:
            dims[i] = _merge_equal(dims[i], p.dims[i])
    dims[ax] = Dim(joined, name=session.env.lookup(joined))
    shadow = np.concatenate([p.shadow for p in parts], axis=axis)
    return _result(session, "concat", tuple(dims), shadow, parts)


def sym_stack(session, tensors: Sequence[Any], axis: int = 0) -> SymbolicTensor:
    parts = [session.coerce(t) for t in tensors]
    ref = parts[0].dims
    for p in parts[1:]:
        if tuple(int(d) for d in p.dims) != tuple(int(d) for d in ref):
            _fail(session, "stack", "stacked tensors must share their shape",
                  expected=render_dims(ref), actual=render_dims(p.dims))
    new = Dim(len(parts), name=session.env.lookup(len(parts)))
    ax = axis % (len(ref) + 1)
    dims = ref[:ax] + (new,) + ref[ax:]
    shadow = np.stack([p.shadow for p in parts], axis=axis)
    return _result(session, "stack", dims, shadow, parts)


def sym_where(session, condition: Any, a: Any, b: Any) -> SymbolicTensor:
    cond = session.coerce(np.asarray(condition, dtype=bool))
    a = session.coerce(a)
    b = session.coerce(b)
    dims = broadcast_dims(a.dims, b.dims, "where", session)
    dims = broadcast_dims(dims, cond.dims, "where", session)
    shadow = np.where(cond.shadow, a.shadow, b.shadow)
    return _result(session, "where", dims, shadow, (a, b))


def sym_lstm_sequence(session, x, h0, c0, w_ih, w_hh, bias, noise=None):
    """Symbolic ``lstm_sequence``: ``[B, T, I]`` -> (``[B, T, H]``, ``c_T [B, H]``).

    Checks the state against the batch and the three weights (and the noise
    uniforms) against the gate layout, then runs the real kernel on the
    shadows.  The hidden output carries lineage to every operand; ``c_T``
    carries data lineage only, as it has no gradient in the engine.
    """
    op = "lstm_sequence"
    parts = tuple(session.coerce(v) for v in (x, h0, c0, w_ih, w_hh, bias))
    x, h0, c0, w_ih, w_hh, bias = parts
    if x.ndim != 3 or h0.ndim != 2:
        _fail(session, op, "expects x [B, T, I] and a state [B, H]",
              expected="[B, T, I], [B, H]",
              actual=f"{render_dims(x.dims)}, {render_dims(h0.dims)}")
    batch, steps, features = x.dims
    state = (batch, h0.dims[1])
    for name, operand in (("h0", h0), ("c0", c0)):
        if tuple(int(d) for d in operand.dims) != tuple(int(d) for d in state):
            _fail(session, op, f"{name} must be [B, H] for x's batch",
                  expected=render_dims(state), actual=render_dims(operand.dims))
        state = broadcast_dims(state, operand.dims, op, session)
    hidden = state[1]
    gates = 4 * int(hidden)
    layout = [
        ("w_ih", w_ih.shape, (gates, int(features))),
        ("w_hh", w_hh.shape, (gates, int(hidden))),
        ("bias", bias.shape, (gates,)),
    ]
    if noise is not None:
        layout.append(("noise", np.shape(noise[0]), (int(steps), 2, int(batch), int(hidden))))
    for name, shape, expected in layout:
        if tuple(int(d) for d in shape) != expected:
            _fail(session, op,
                  f"{name} does not fit an [i, f, g, o] LSTM with input "
                  f"{features.render()} and hidden {hidden.render()}",
                  expected=str(expected), actual=str(tuple(int(d) for d in shape)))
    out, c_last, _ = _lstm_forward(
        x.shadow, h0.shadow, c0.shadow, w_ih.shadow, w_hh.shadow, bias.shadow,
        noise, record=False,
    )
    c_out = SymbolicTensor(
        dims=state, shadow=c_last, data_roots=_union(parts, "data_roots"), session=session
    )
    return _result(session, op, (batch, steps, hidden), out, parts), c_out
