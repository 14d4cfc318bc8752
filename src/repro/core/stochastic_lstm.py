"""Stochastic LSTM layers (the paper's SRNN variant, §4.3.4 and §A.2).

Before every LSTM iteration, uniform noise is added to the hidden state
``h_t`` and memory ``c_t`` and the result is renormalized so the total value
across hidden dimensions is preserved:

``h'_t = (h_t + a_h * n_h) * sum(h_t) / sum(h_t + a_h * n_h)``

with ``n_h ~ U[0, mean(h_t)]`` (the noise amplitude adapts to the hidden
state's own scale; the mean is signed, so a network whose hidden
activations balance around zero receives little noise and training can
modulate the injected stochasticity) and intensity ``a_h`` (paper default
2; ``a_c`` likewise for the memory).  Unlike the original SRNN's
variational-inference training, GenDT trains these layers adversarially —
the discriminator provides the extra signal that makes the stochastic
hidden dynamics match the data's variability.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .. import nn
from ..analysis.graph.spec import Spec, contract
from ..nn.lstm import lstm_sequence
from ..nn.tensor import Tensor


@contract(
    inputs={"x": Spec("B", "T", "I")},
    outputs=(Spec("B", "T", "H"), (Spec("B", "H"), Spec("B", "H"))),
    dims={"I": "cell.input_size", "H": "hidden_size"},
)
class StochasticLSTM(nn.Module):
    """LSTM whose recurrent state is perturbed per step (GenDT SRNN layers).

    When ``stochastic`` is False (or the intensity is zero) this reduces to
    a plain LSTM — that is exactly the "No SRNN" ablation of paper Table 12.
    The weights live in ``cell`` (an :class:`~repro.nn.LSTMCell`); the
    sequence runs as one :func:`~repro.nn.lstm.lstm_sequence` op.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: np.random.Generator,
        intensity_h: float = 2.0,
        intensity_c: float = 2.0,
        stochastic: bool = True,
    ) -> None:
        super().__init__()
        self.cell = nn.LSTMCell(input_size, hidden_size, rng)
        self.hidden_size = hidden_size
        self.intensity_h = intensity_h
        self.intensity_c = intensity_c
        self.stochastic = stochastic
        self.rng = rng

    def forward(
        self,
        x: Tensor,
        state: Optional[Tuple[Tensor, Tensor]] = None,
        stochastic: Optional[bool] = None,
    ) -> Tuple[Tensor, Tuple[Tensor, Tensor]]:
        """Run over a sequence ``[B, T, input_size]`` -> ``[B, T, H]``.

        Returns ``(hidden, (h_T, c_T))``: ``h_T`` is ``hidden[:, -1]`` and
        carries gradient, ``c_T`` does not.  ``stochastic`` overrides the
        module default (used to disable noise for deterministic evaluation).
        With noise on, the whole sequence's uniforms are drawn in one call;
        the draw order (per step: h, then c) matches one draw per state per
        step.
        """
        use_noise = self.stochastic if stochastic is None else stochastic
        batch, steps = x.shape[0], x.shape[1]
        h0, c0 = self.cell.zero_state(batch) if state is None else state
        noise = None
        if use_noise:
            u = self.rng.uniform(0.0, 1.0, size=(steps, 2, batch, self.hidden_size))
            noise = (u, self.intensity_h, self.intensity_c)
        cell = self.cell
        hidden, c_last = lstm_sequence(
            x, h0, c0, cell.weight_ih, cell.weight_hh, cell.bias, noise
        )
        return hidden, (hidden[:, -1], c_last)
