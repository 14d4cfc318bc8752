"""Finite-difference gradcheck for every differentiable op in repro.nn.tensor.

The symbolic verifier (repro.analysis.graph) carries its own table of which
ops propagate gradients (``DIFFERENTIABLE_OPS``).  This suite does two
things:

* checks each op's analytic backward against a central-difference numeric
  gradient, and
* asserts the gradcheck case table covers *exactly* the symbolic op table,
  so adding an op to one without the other fails loudly instead of letting
  the two drift apart.

Inputs are chosen away from kinks (relu/abs at 0, clip at its bounds) so
the central difference is valid.

``lstm_sequence`` with SRNN noise is checked against a plain-numpy
reference with ``mean(s)`` and the renorm denominator frozen at the
unperturbed inputs: the op's backward (like the per-step tape before it)
treats both as constants, so that frozen function is the one it
differentiates exactly.
"""

import numpy as np
import pytest

from repro.analysis.graph.symbolic import DIFFERENTIABLE_OPS, NON_DIFFERENTIABLE_OPS
from repro.nn.lstm import lstm_sequence
from repro.nn.tensor import Tensor, concat, no_grad, stack, where

EPS = 1e-6
ATOL = 1e-4
RTOL = 1e-4

# Fixed boolean mask for the `where` case (shape (2, 3)).
_WHERE_COND = np.array([[True, False, True], [False, True, False]])

# Fixed SRNN uniforms ([T, 2, B, H]) and intensities for the noisy
# `lstm_sequence` variant.
_LSTM_NOISE = (np.random.default_rng(35).uniform(size=(3, 2, 2, 3)), 2.0, 1.5)


def _weights(shape):
    """Deterministic non-uniform loss weights so gradcheck isn't just sum()."""
    n = int(np.prod(shape, dtype=int))
    return (np.arange(n, dtype=np.float64) * 0.173 + 0.31).reshape(shape)


def _smooth(shape, seed, lo=-1.5, hi=1.5):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=shape)


def _away_from_zero(shape, seed, margin=0.25):
    """Values with |x| >= margin — safe for relu/abs/leaky_relu kinks."""
    data = _smooth(shape, seed)
    return np.where(data >= 0, data + margin, data - margin)


def _positive(shape, seed, lo=0.3, hi=2.0):
    return _smooth(shape, seed, lo, hi)


class Case:
    def __init__(self, make_inputs, fn, numeric_fn=None):
        self.make_inputs = make_inputs
        self.fn = fn
        # The function the finite difference runs, if not ``fn`` itself.
        self.numeric_fn = numeric_fn or fn


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _srnn_forward(x, h0, c0, w_ih, w_hh, bias, frozen=None):
    """Plain-numpy SRNN layer under ``_LSTM_NOISE``: (hidden, constants).

    ``constants`` are each step's ``mean(s)`` and renorm denominator;
    passing them back as ``frozen`` holds them fixed.
    """
    u, a_h, a_c = _LSTM_NOISE
    intensity = np.array([a_h, a_c]).reshape(2, 1, 1)
    hs = h0.shape[-1]
    state = np.stack([h0, c0])
    hidden, constants = [], []
    for t in range(x.shape[1]):
        if frozen is None:
            mean = state.mean(axis=-1, keepdims=True)
            den = (state + intensity * u[t] * mean).sum(axis=-1, keepdims=True)
        else:
            mean, den = frozen[t]
        constants.append((mean, den))
        state = (state + intensity * u[t] * mean) * state.sum(axis=-1, keepdims=True) / den
        gates = x[:, t] @ w_ih.T + state[0] @ w_hh.T + bias
        i, f, g, o = (gates[:, k * hs : (k + 1) * hs] for k in range(4))
        c = _sigmoid(f) * state[1] + _sigmoid(i) * np.tanh(g)
        h = _sigmoid(o) * np.tanh(c)
        hidden.append(h)
        state = np.stack([h, c])
    return np.stack(hidden, axis=1), constants


def _lstm_inputs():
    # x [B=2, T=3, I=2], h0/c0 [B, H=3], w_ih [4H, I], w_hh [4H, H], bias
    # [4H].  Positive initial states keep the renorm denominators far from
    # the guard.
    return [
        _smooth((2, 3, 2), 36),
        _positive((2, 3), 37),
        _positive((2, 3), 38),
        _smooth((12, 2), 39, -0.8, 0.8),
        _smooth((12, 3), 40, -0.8, 0.8),
        _smooth((12,), 41, -0.5, 0.5),
    ]


def _lstm_both(*args):
    """Plain and SRNN-noise hidden states side by side."""
    plain, _ = lstm_sequence(*args)
    noisy, _ = lstm_sequence(*args, noise=_LSTM_NOISE)
    return concat([plain, noisy], axis=1)


def _lstm_both_frozen(*args):
    """``_lstm_both`` with the noise path's constants frozen at the inputs."""
    _, frozen = _srnn_forward(*_lstm_inputs())
    plain, _ = lstm_sequence(*args)
    noisy, _ = _srnn_forward(*(a.data for a in args), frozen=frozen)
    return concat([plain, Tensor(noisy)], axis=1)


CASES = {
    "add": Case(
        lambda: [_smooth((2, 3), 1), _smooth((3,), 2)],
        lambda a, b: a + b,
    ),
    "neg": Case(lambda: [_smooth((2, 3), 3)], lambda a: -a),
    "sub": Case(
        lambda: [_smooth((2, 3), 4), _smooth((1, 3), 5)],
        lambda a, b: a - b,
    ),
    "mul": Case(
        lambda: [_smooth((2, 3), 6), _smooth((2, 1), 7)],
        lambda a, b: a * b,
    ),
    "div": Case(
        lambda: [_smooth((2, 3), 8), _positive((3,), 9)],
        lambda a, b: a / b,
    ),
    "pow": Case(lambda: [_positive((2, 3), 10)], lambda a: a**1.7),
    "sqrt": Case(lambda: [_positive((2, 3), 11)], lambda a: a.sqrt()),
    "matmul": Case(
        lambda: [_smooth((2, 3), 12), _smooth((3, 4), 13)],
        lambda a, b: a @ b,
    ),
    "exp": Case(lambda: [_smooth((2, 3), 14)], lambda a: a.exp()),
    "log": Case(lambda: [_positive((2, 3), 15)], lambda a: a.log()),
    "tanh": Case(lambda: [_smooth((2, 3), 16)], lambda a: a.tanh()),
    "sigmoid": Case(lambda: [_smooth((2, 3), 17)], lambda a: a.sigmoid()),
    "relu": Case(lambda: [_away_from_zero((2, 3), 18)], lambda a: a.relu()),
    "leaky_relu": Case(
        lambda: [_away_from_zero((2, 3), 19)],
        lambda a: a.leaky_relu(negative_slope=0.1),
    ),
    "softplus": Case(lambda: [_smooth((2, 3), 20)], lambda a: a.softplus()),
    "abs": Case(lambda: [_away_from_zero((2, 3), 21)], lambda a: a.abs()),
    "clip": Case(
        # Data in (-1.5, 1.5) minus (-0.1, 0.1); bounds at ±0.9 leave every
        # sample at least 0.15 from a clip kink for seed 22.
        lambda: [_away_from_zero((2, 3), 22)],
        lambda a: a.clip(-0.9, 0.9),
    ),
    "sum": Case(lambda: [_smooth((2, 3, 4), 23)], lambda a: a.sum(axis=1)),
    "mean": Case(
        lambda: [_smooth((2, 3, 4), 24)],
        lambda a: a.mean(axis=0, keepdims=True),
    ),
    "var": Case(lambda: [_smooth((2, 5), 25)], lambda a: a.var(axis=1)),
    "reshape": Case(lambda: [_smooth((2, 6), 26)], lambda a: a.reshape(3, 4)),
    "transpose": Case(
        lambda: [_smooth((2, 3, 4), 27)], lambda a: a.transpose(2, 0, 1)
    ),
    "getitem": Case(lambda: [_smooth((4, 5), 28)], lambda a: a[1:3, ::2]),
    "concat": Case(
        lambda: [_smooth((2, 3), 29), _smooth((2, 2), 30)],
        lambda a, b: concat([a, b], axis=1),
    ),
    "stack": Case(
        lambda: [_smooth((2, 3), 31), _smooth((2, 3), 32)],
        lambda a, b: stack([a, b], axis=1),
    ),
    "where": Case(
        lambda: [_smooth((2, 3), 33), _smooth((2, 3), 34)],
        lambda a, b: where(_WHERE_COND, a, b),
    ),
    "lstm_sequence": Case(_lstm_inputs, _lstm_both, numeric_fn=_lstm_both_frozen),
}


def test_case_table_matches_symbolic_op_table():
    # The anti-drift contract: every op the symbolic tracer claims is
    # differentiable has a gradcheck, and vice versa.
    assert set(CASES) == set(DIFFERENTIABLE_OPS)
    assert "detach" in NON_DIFFERENTIABLE_OPS
    assert not set(CASES) & set(NON_DIFFERENTIABLE_OPS)


def _numeric_grad(fn, arrays, arg_index, weights):
    """Central-difference gradient of sum(fn(*arrays) * weights) wrt one arg."""

    def loss(candidate_arrays):
        with no_grad():
            out = fn(*[Tensor(arr) for arr in candidate_arrays])
        return float((out.numpy() * weights).sum())

    target = arrays[arg_index]
    grad = np.zeros_like(target, dtype=np.float64)
    for idx in np.ndindex(target.shape):
        bumped = [arr.copy() for arr in arrays]
        bumped[arg_index][idx] = target[idx] + EPS
        hi = loss(bumped)
        bumped[arg_index][idx] = target[idx] - EPS
        lo = loss(bumped)
        grad[idx] = (hi - lo) / (2 * EPS)
    return grad


@pytest.mark.parametrize("op_name", sorted(CASES))
def test_backward_matches_finite_difference(op_name):
    case = CASES[op_name]
    arrays = case.make_inputs()
    tensors = [Tensor(arr.copy(), requires_grad=True) for arr in arrays]
    out = case.fn(*tensors)
    weights = _weights(out.shape)
    (out * Tensor(weights)).sum().backward()
    for i, (tensor, arr) in enumerate(zip(tensors, arrays)):
        assert tensor.grad is not None, f"{op_name}: arg {i} got no gradient"
        numeric = _numeric_grad(case.numeric_fn, arrays, i, weights)
        np.testing.assert_allclose(
            tensor.grad,
            numeric,
            rtol=RTOL,
            atol=ATOL,
            err_msg=f"{op_name}: analytic grad of arg {i} != finite difference",
        )


def test_detach_blocks_gradients():
    a = Tensor(_smooth((2, 3), 40), requires_grad=True)
    b = Tensor(_smooth((2, 3), 41), requires_grad=True)
    (a.detach() * b).sum().backward()
    # b sees the detached values as constants; a's path is severed.
    assert a.grad is None
    np.testing.assert_allclose(b.grad, a.numpy())
