"""Per-step reference for the fused ``lstm_sequence`` op.

This is the LSTM composition the sequence modules used before the fused
op: a Python loop over time calling :meth:`repro.nn.LSTMCell.forward`
(about 20 tape nodes per step), with the SRNN noise applied to h and then
c as separate tape ops drawing one uniform array each.  The equivalence
tests hold the fused op to it byte for byte, and the kernel micro-bench
times it as the baseline.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.nn.tensor import Tensor, stack


def inject_noise(state: Tensor, intensity: float, rng: np.random.Generator) -> Tensor:
    """The paper's adaptive uniform noise plus sum-preserving renorm."""
    values = state.data
    mean_value = values.mean(axis=-1, keepdims=True)
    noise = rng.uniform(0.0, 1.0, size=values.shape) * mean_value
    noisy = state + Tensor(intensity * noise)
    row_sum = state.sum(axis=-1, keepdims=True)
    noisy_sum = noisy.sum(axis=-1, keepdims=True)
    denom_safe = np.where(np.abs(noisy_sum.data) < 1e-6, 1.0, noisy_sum.data)
    scale = row_sum / Tensor(denom_safe)
    return noisy * scale


def stochastic_lstm_forward(
    module,
    x: Tensor,
    state: Optional[Tuple[Tensor, Tensor]] = None,
    stochastic: Optional[bool] = None,
) -> Tuple[Tensor, Tuple[Tensor, Tensor]]:
    """Per-step ``StochasticLSTM.forward``."""
    use_noise = module.stochastic if stochastic is None else stochastic
    h, c = module.cell.zero_state(x.shape[0]) if state is None else state
    outputs: List[Tensor] = []
    for t in range(x.shape[1]):
        if use_noise:
            h = inject_noise(h, module.intensity_h, module.rng)
            c = inject_noise(c, module.intensity_c, module.rng)
        h, c = module.cell(x[:, t, :], (h, c))
        outputs.append(h)
    return stack(outputs, axis=1), (h, c)


def lstm_forward(
    module,
    x: Tensor,
    state: Optional[List[Tuple[Tensor, Tensor]]] = None,
) -> Tuple[Tensor, List[Tuple[Tensor, Tensor]]]:
    """Per-step ``LSTM.forward`` (layers interleaved within each step)."""
    cells = module._cells
    if state is None:
        state = [cell.zero_state(x.shape[0]) for cell in cells]
    outputs: List[Tensor] = []
    for t in range(x.shape[1]):
        inp = x[:, t, :]
        new_state = []
        for layer, cell in enumerate(cells):
            h, c = cell(inp, state[layer])
            new_state.append((h, c))
            inp = h
        state = new_state
        outputs.append(inp)
    return stack(outputs, axis=1), state
