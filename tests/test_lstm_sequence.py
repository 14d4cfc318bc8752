"""The fused ``lstm_sequence`` op against the per-step reference.

``tests/lstm_reference.py`` keeps the per-step composition the sequence
modules used before the fused op.  For ``LSTM`` (1 and 2 layers) and
``StochasticLSTM`` (noise on and off) the fused modules must give:

* byte-identical outputs and final states;
* the same shared-RNG position afterwards (same next draw);
* parameter and input gradients within 1e-12 of the tape's, relative to
  the largest entry;

and ``GenDT.generate`` from one checkpoint must give the same bytes.
"""

import numpy as np
import pytest

from repro import nn
from repro.core import GenDT
from repro.core.stochastic_lstm import StochasticLSTM
from repro.nn.lstm import LSTM
from repro.nn.tensor import Tensor, no_grad

from . import lstm_reference as reference

# (B, T, I, H): generation's batch 1 and 6, the training shape, odd sizes.
SHAPES = [(1, 25, 37, 32), (6, 25, 37, 32), (96, 25, 37, 32), (3, 7, 5, 9)]


def _bytes(tensor):
    return tensor.data.tobytes()


def _assert_grads_match(fused_tensors, reference_tensors):
    for got, want in zip(fused_tensors, reference_tensors):
        assert got.grad is not None and want.grad is not None
        scale = np.max(np.abs(want.grad))
        assert np.max(np.abs(got.grad - want.grad)) <= 1e-12 * scale


def _backward_both(fused_out, reference_out):
    weights = Tensor(np.random.default_rng(0).normal(size=fused_out.shape))
    (fused_out * weights).sum().backward()
    (reference_out * weights).sum().backward()


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("stochastic", [True, False])
def test_stochastic_lstm_matches_reference(shape, stochastic):
    batch, steps, features, hidden = shape
    fused, ref = (
        StochasticLSTM(features, hidden, np.random.default_rng(4), stochastic=stochastic)
        for _ in range(2)
    )
    data = np.random.default_rng(5).normal(size=(batch, steps, features))
    x_fused, x_ref = (Tensor(data.copy(), requires_grad=True) for _ in range(2))

    out, (h_last, c_last) = fused(x_fused)
    ref_out, (ref_h, ref_c) = reference.stochastic_lstm_forward(ref, x_ref)

    assert _bytes(out) == _bytes(ref_out)
    assert _bytes(h_last) == _bytes(ref_h)
    assert _bytes(c_last) == _bytes(ref_c)
    assert fused.rng.random() == ref.rng.random()
    _backward_both(out, ref_out)
    _assert_grads_match(
        fused.parameters() + [x_fused], ref.parameters() + [x_ref]
    )


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("num_layers", [1, 2])
def test_lstm_matches_reference(shape, num_layers):
    batch, steps, features, hidden = shape
    fused, ref = (
        LSTM(features, hidden, np.random.default_rng(6), num_layers=num_layers)
        for _ in range(2)
    )
    data = np.random.default_rng(7).normal(size=(batch, steps, features))
    x_fused, x_ref = (Tensor(data.copy(), requires_grad=True) for _ in range(2))

    out, states = fused(x_fused)
    ref_out, ref_states = reference.lstm_forward(ref, x_ref)

    assert _bytes(out) == _bytes(ref_out)
    for (h, c), (ref_h, ref_c) in zip(states, ref_states):
        assert _bytes(h) == _bytes(ref_h)
        assert _bytes(c) == _bytes(ref_c)
    _backward_both(out, ref_out)
    _assert_grads_match(
        fused.parameters() + [x_fused], ref.parameters() + [x_ref]
    )


def test_initial_state_gradients_match_reference():
    fused, ref = (StochasticLSTM(3, 5, np.random.default_rng(8)) for _ in range(2))
    data = np.random.default_rng(9)
    x = data.normal(size=(4, 6, 3))
    h0, c0 = data.uniform(0.2, 1.0, size=(2, 4, 5))
    fused_in = [Tensor(a.copy(), requires_grad=True) for a in (x, h0, c0)]
    ref_in = [Tensor(a.copy(), requires_grad=True) for a in (x, h0, c0)]

    out, _ = fused(fused_in[0], state=tuple(fused_in[1:]))
    ref_out, _ = reference.stochastic_lstm_forward(ref, ref_in[0], state=tuple(ref_in[1:]))

    assert _bytes(out) == _bytes(ref_out)
    _backward_both(out, ref_out)
    _assert_grads_match(fused_in, ref_in)


def test_no_grad_forward_matches_and_records_nothing():
    fused, ref = (StochasticLSTM(4, 6, np.random.default_rng(10)) for _ in range(2))
    x = Tensor(np.random.default_rng(11).normal(size=(2, 9, 4)))
    with no_grad():
        out, _ = fused(x)
        ref_out, _ = reference.stochastic_lstm_forward(ref, x)
    assert _bytes(out) == _bytes(ref_out)
    assert not out.requires_grad and out._backward is None


def test_one_tape_node_per_layer():
    lstm = nn.LSTM(3, 4, np.random.default_rng(12), num_layers=2)
    out, _ = lstm(Tensor(np.ones((2, 5, 3))))
    lower_cell, top_cell = lstm._cells
    # The top layer's node reads the lower layer's whole hidden sequence,
    # which in turn is one node over the lower cell's parameters.
    lower, *top_params = out._parents
    assert lower.shape == (2, 5, 4)
    assert all(p is q for p, q in zip(top_params, top_cell.parameters()))
    assert all(p is q for p, q in zip(lower._parents, lower_cell.parameters()))
    assert len(top_params) == len(lower._parents) == 3


def test_generate_matches_reference_bytes(trained_gendt, tiny_split, tmp_path, monkeypatch):
    path = tmp_path / "gendt.ckpt"
    trained_gendt.save(path)
    trajectory = tiny_split.test[0].trajectory

    def generate():
        model = GenDT(
            trained_gendt.region,
            kpis=trained_gendt.kpi_names,
            config=trained_gendt.config,
            seed=21,
        )
        model.load(path)
        return model.generate(trajectory)

    fused = generate()
    monkeypatch.setattr(StochasticLSTM, "forward", reference.stochastic_lstm_forward)
    monkeypatch.setattr(LSTM, "forward", reference.lstm_forward)
    assert fused.tobytes() == generate().tobytes()
