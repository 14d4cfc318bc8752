"""LSTM cells and sequence modules.

Provides the plain :class:`LSTMCell`/:class:`LSTM` used by the discriminator
and the LSTM-GNN baseline; GenDT's stochastic variant (SRNN layers, paper
§4.3.4 and §A.2) lives in :mod:`repro.core.stochastic_lstm`.

Every sequence module runs on :func:`lstm_sequence`: one layer over the
whole sequence as a single tape node, with a plain numpy loop over time in
the forward pass and hand-written backpropagation through time.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..analysis.graph.spec import ANY, Spec, contract
from . import init
from . import tensor as _tensor
from .module import Module, Parameter
from .tensor import Tensor, is_grad_enabled

#: SRNN noise for :func:`lstm_sequence`: uniforms ``u`` of shape
#: ``[T, 2, B, H]`` (h then c at each step) and the intensities ``a_h, a_c``.
Noise = Tuple[np.ndarray, float, float]


def _lstm_forward(x, h0, c0, w_ih, w_hh, bias, noise: Optional[Noise], record: bool):
    """Numpy forward of one LSTM layer; returns ``(hidden, c_T, cache)``.

    ``cache`` holds the per-step activations BPTT needs (``None`` unless
    ``record``).  Each value goes through the same floating-point operations
    as the per-step composition of :meth:`LSTMCell.forward` and the SRNN
    renorm, so the outputs are bit-identical to it.
    """
    batch, steps, _ = x.shape
    hs = h0.shape[-1]
    slots = steps if record else 1
    states = np.empty((slots, 2, batch, hs))  # (h, c) entering each step's cell
    acts = np.empty((slots, batch, 4 * hs))  # sigmoid(i, f, o) and tanh(g)
    tanh_c = np.empty((slots, batch, hs))
    hidden = np.empty((batch, steps, hs))
    if noise is not None:
        u, a_h, a_c = noise
        intensity = np.array([a_h, a_c]).reshape(2, 1, 1)
        noisy = np.empty((slots, 2, batch, hs))
        scale = np.empty((slots, 2, batch, 1))
        den = np.empty((slots, 2, batch, 1))
    w_ih_t, w_hh_t = w_ih.T, w_hh.T
    i_, f_, g_, o_ = (slice(k * hs, (k + 1) * hs) for k in range(4))
    state = np.stack([h0, c0])
    for t in range(steps):
        k = t if record else 0
        if noise is not None:
            # Adaptive noise U[0, mean(s)] and sum-preserving renorm; the
            # mean (numpy's is exactly sum / H) and the guarded denominator
            # are constants for BPTT.
            row_sum = state.sum(axis=-1, keepdims=True)
            np.add(state, intensity * (u[t] * (row_sum / hs)), out=noisy[k])
            total = noisy[k].sum(axis=-1, keepdims=True)
            den[k] = np.where(np.abs(total) < 1e-6, 1.0, total)
            np.divide(row_sum, den[k], out=scale[k])
            state = np.multiply(noisy[k], scale[k], out=states[k])
        else:
            states[k] = state
        h_in, c_in = states[k]
        gates = x[:, t] @ w_ih_t
        gates += h_in @ w_hh_t
        gates += bias
        act = acts[k]
        np.maximum(gates, -60.0, out=act)
        np.minimum(act, 60.0, out=act)
        np.negative(act, out=act)
        # exp and tanh write fresh arrays, as the per-step ops did, so numpy
        # picks the same kernels for them.
        act[...] = np.exp(act)
        act += 1.0
        np.divide(1.0, act, out=act)
        act[:, g_] = np.tanh(gates[:, g_])
        state = np.empty((2, batch, hs))
        h, c = state
        np.multiply(act[:, f_], c_in, out=c)
        c += act[:, i_] * act[:, g_]
        tanh_c[k] = np.tanh(c)
        np.multiply(act[:, o_], tanh_c[k], out=h)
        hidden[:, t] = h
    if not record:
        return hidden, state[1], None
    cache = (states, acts, tanh_c, (noisy, scale, den) if noise is not None else None)
    return hidden, state[1], cache


def lstm_sequence(
    x: Tensor,
    h0: Tensor,
    c0: Tensor,
    w_ih: Tensor,
    w_hh: Tensor,
    bias: Tensor,
    noise: Optional[Noise] = None,
) -> Tuple[Tensor, Tensor]:
    """Run one LSTM layer over a whole sequence as a single tape node.

    ``x`` is ``[B, T, I]`` and ``h0``/``c0`` are ``[B, H]``; the weights use
    :class:`LSTMCell`'s fused ``[input, forget, cell, output]`` gate layout.
    Returns the hidden states ``[B, T, H]``, differentiable with respect to
    all six inputs, and the final memory ``c_T`` ``[B, H]`` without gradient.

    ``noise=(u, a_h, a_c)`` perturbs the state before every step, h and c
    stacked (see :mod:`repro.core.stochastic_lstm`):
    ``s' = (s + a * u_t * mean(s)) * sum(s) / sum(s + a * u_t * mean(s))``.
    The backward pass treats ``mean(s)`` and the denominator as constants,
    so ``dL/ds = g * scale + sum(g * noisy) / den``.
    """
    observer = _tensor._observer
    if observer is not None:
        symbolic = observer.dispatch("lstm_sequence", x, h0, c0, w_ih, w_hh, bias, noise)
        if symbolic is not None:
            return symbolic
    inputs = tuple(Tensor._coerce(t) for t in (x, h0, c0, w_ih, w_hh, bias))
    x, h0, c0, w_ih, w_hh, bias = inputs
    record = is_grad_enabled() and any(t.requires_grad for t in inputs)
    hidden, c_last, cache = _lstm_forward(
        x.data, h0.data, c0.data, w_ih.data, w_hh.data, bias.data, noise, record
    )

    def backward(grad: np.ndarray) -> None:
        states, acts, tanh_c, noise_cache = cache
        batch, steps, hs = grad.shape
        i_, f_, g_, o_ = (slice(k * hs, (k + 1) * hs) for k in range(4))
        # Everything that does not depend on the recurrence, all steps at
        # once: d(gate pre-activation) = coef * [dc, dc, dc, dh] for the
        # gates [i, f, g, o], and dc_t picks up dh_t * o_t * (1 - tanh(c_t)^2).
        coef = 1.0 - acts
        coef *= acts
        np.multiply(acts[..., g_], acts[..., g_], out=coef[..., g_])
        np.subtract(1.0, coef[..., g_], out=coef[..., g_])
        coef[..., i_] *= acts[..., g_]
        coef[..., f_] *= states[:, 1]
        coef[..., g_] *= acts[..., i_]
        coef[..., o_] *= tanh_c
        dc_from_h = 1.0 - tanh_c * tanh_c
        dc_from_h *= acts[..., o_]
        if noise_cache is not None:
            noisy, scale, den = noise_cache
            noisy_over_den = noisy / den
        dgates = np.empty_like(acts)
        ds = np.empty((2, batch, hs))
        dh = np.zeros((batch, hs))
        dc = np.zeros((batch, hs))
        for t in reversed(range(steps)):
            dh = dh + grad[:, t]
            dc = dc + dh * dc_from_h[t]
            np.multiply(coef[t], np.concatenate([dc, dc, dc, dh], axis=1), out=dgates[t])
            np.matmul(dgates[t], w_hh.data, out=ds[0])
            np.multiply(dc, acts[t, :, f_], out=ds[1])
            if noise_cache is None:
                dh, dc = ds
            else:
                weighted = (ds * noisy_over_den[t]).sum(axis=-1, keepdims=True)
                dh, dc = ds * scale[t] + weighted
        flat = dgates.reshape(steps * batch, 4 * hs)
        if w_ih.requires_grad:
            x_flat = x.data.transpose(1, 0, 2).reshape(steps * batch, -1)
            w_ih._accumulate(flat.T @ x_flat)
        if w_hh.requires_grad:
            w_hh._accumulate(flat.T @ states[:, 0].reshape(steps * batch, hs))
        if bias.requires_grad:
            bias._accumulate(flat.sum(axis=0))
        if x.requires_grad:
            x._accumulate((flat @ w_ih.data).reshape(steps, batch, -1).transpose(1, 0, 2))
        if h0.requires_grad:
            h0._accumulate(dh)
        if c0.requires_grad:
            c0._accumulate(dc)

    return x._make(hidden, inputs, backward), Tensor(c_last)


@contract(
    inputs={
        "x": Spec("B", "I"),
        "state": (Spec("B", "H"), Spec("B", "H")),
    },
    outputs=(Spec("B", "H"), Spec("B", "H")),
    dims={"I": "input_size", "H": "hidden_size"},
)
class LSTMCell(Module):
    """Single LSTM cell with fused gate weights.

    Gate layout along the output dimension is ``[input, forget, cell, output]``.
    The forget-gate bias is initialized to 1, the standard trick to ease
    gradient flow early in training.  The sequence modules hold their
    weights in cells but run them through :func:`lstm_sequence`.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.weight_ih = Parameter(init.xavier_uniform((4 * hidden_size, input_size), rng))
        self.weight_hh = Parameter(
            np.concatenate(
                [init.orthogonal((hidden_size, hidden_size), rng) for _ in range(4)], axis=0
            )
        )
        bias = np.zeros(4 * hidden_size)
        bias[hidden_size : 2 * hidden_size] = 1.0
        self.bias = Parameter(bias)

    def forward(
        self, x: Tensor, state: Tuple[Tensor, Tensor]
    ) -> Tuple[Tensor, Tensor]:
        """Advance one step: ``x`` is ``[B, input_size]``; returns ``(h, c)``."""
        h_prev, c_prev = state
        gates = x.matmul(self.weight_ih.T) + h_prev.matmul(self.weight_hh.T) + self.bias
        hs = self.hidden_size
        i = gates[:, 0 * hs : 1 * hs].sigmoid()
        f = gates[:, 1 * hs : 2 * hs].sigmoid()
        g = gates[:, 2 * hs : 3 * hs].tanh()
        o = gates[:, 3 * hs : 4 * hs].sigmoid()
        c = f * c_prev + i * g
        h = o * c.tanh()
        return h, c

    def zero_state(self, batch_size: int) -> Tuple[Tensor, Tensor]:
        zeros = np.zeros((batch_size, self.hidden_size))
        return Tensor(zeros), Tensor(zeros.copy())


@contract(
    inputs={"x": Spec("B", "T", "I")},
    outputs=(Spec("B", "T", "H"), ANY),
    dims={"I": "input_size", "H": "hidden_size"},
)
class LSTM(Module):
    """Unidirectional (optionally stacked) LSTM over a full sequence.

    Input is ``[B, T, input_size]``; output is ``[B, T, hidden_size]`` (the
    hidden states of the top layer at every step) plus the final state
    ``(h_T, c_T)`` of each layer.  ``h_T`` is that layer's
    ``hidden[:, -1]`` and carries gradient; ``c_T`` does not.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: np.random.Generator,
        num_layers: int = 1,
    ) -> None:
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        self._cells: List[LSTMCell] = []
        for layer in range(num_layers):
            cell = LSTMCell(input_size if layer == 0 else hidden_size, hidden_size, rng)
            setattr(self, f"cell{layer}", cell)
            self._cells.append(cell)

    def forward(
        self,
        x: Tensor,
        state: Optional[List[Tuple[Tensor, Tensor]]] = None,
    ) -> Tuple[Tensor, List[Tuple[Tensor, Tensor]]]:
        if state is None:
            state = [cell.zero_state(x.shape[0]) for cell in self._cells]
        final: List[Tuple[Tensor, Tensor]] = []
        for cell, (h0, c0) in zip(self._cells, state):
            x, c_last = lstm_sequence(x, h0, c0, cell.weight_ih, cell.weight_hh, cell.bias)
            final.append((x[:, -1], c_last))
        return x, final


@contract(
    inputs={"x": Spec("B", "T", "I")},
    outputs=Spec("B", "T", "O"),
    dims={"I": "lstm.input_size", "O": "head.out_features"},
)
class LSTMRegressor(Module):
    """LSTM followed by a per-step linear head: ``[B,T,in] -> [B,T,out]``."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        output_size: int,
        rng: np.random.Generator,
        num_layers: int = 1,
    ) -> None:
        super().__init__()
        from .layers import Linear  # local import to avoid a cycle

        self.lstm = LSTM(input_size, hidden_size, rng, num_layers=num_layers)
        self.head = Linear(hidden_size, output_size, rng)

    def forward(self, x: Tensor) -> Tensor:
        hidden, _ = self.lstm(x)
        return self.head(hidden)
