"""Fused LSTM kernel: the `lstm_sequence` op against the per-step tape.

`StochasticLSTM` runs each sequence as one `lstm_sequence` op: a numpy loop
over time in the forward pass and hand-written BPTT in the backward pass.
This bench times it against the per-step composition it replaced (kept as
the test oracle in `tests/lstm_reference.py`, about 20 tape nodes per step)
at two shapes:

(i)  forward + backward at the training shape (B=96 cell rows, T=25,
     I=37 inputs, H=32), the cost of one G_n step in `GenDT.fit`;
(ii) a `no_grad` forward at a generation shape (B=6 cell rows), the cost
     of G_n for one window in `GenDT.generate`.

Calls alternate between the two implementations and each keeps its best of
`REPEATS`.  Set `OPENBLAS_NUM_THREADS=1` for stable numbers on a shared
machine.
"""

import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.stochastic_lstm import StochasticLSTM
from repro.nn.tensor import Tensor, no_grad

from conftest import record_result

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests import lstm_reference  # noqa: E402

REPEATS = 20
TRAIN_SHAPE = (96, 25, 37, 32)
GENERATE_BATCH = 6


def _best_of(fused, reference):
    """Best wall time (s) of each callable, alternating between them."""
    best = [float("inf"), float("inf")]
    for _ in range(REPEATS):
        for index, fn in enumerate((fused, reference)):
            start = time.perf_counter()
            fn()
            best[index] = min(best[index], time.perf_counter() - start)
    return best


def test_lstm_kernel(benchmark):
    batch, steps, features, hidden = TRAIN_SHAPE
    module = StochasticLSTM(features, hidden, np.random.default_rng(0))
    data = np.random.default_rng(1)
    x_train = Tensor(data.normal(size=(batch, steps, features)))
    x_generate = Tensor(data.normal(size=(GENERATE_BATCH, steps, features)))

    def reference(x):
        return lstm_reference.stochastic_lstm_forward(module, x)

    def train_step(forward):
        def run():
            out, _ = forward(x_train)
            out.sum().backward()
            module.zero_grad()

        return run

    def generate_step(forward):
        def run():
            with no_grad():
                forward(x_generate)

        return run

    # Same bytes from both before timing anything.
    with no_grad():
        state = module.rng.bit_generator.state
        fused_out = module(x_generate)[0].numpy().tobytes()
        module.rng.bit_generator.state = state
        assert reference(x_generate)[0].numpy().tobytes() == fused_out

    fb_fused, fb_ref = _best_of(train_step(module), train_step(reference))
    gen_fused, gen_ref = _best_of(generate_step(module), generate_step(reference))
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    lines = [
        "Fused lstm_sequence vs per-step tape (StochasticLSTM, noise on, "
        f"best of {REPEATS}, OPENBLAS_NUM_THREADS={threads})",
        f"  forward+backward B={batch} T={steps} I={features} H={hidden}: "
        f"per-step {fb_ref * 1e3:.2f} ms, fused {fb_fused * 1e3:.2f} ms "
        f"({fb_ref / fb_fused:.2f}x)",
        f"  no_grad forward  B={GENERATE_BATCH} T={steps} I={features} H={hidden}: "
        f"per-step {gen_ref * 1e3:.2f} ms, fused {gen_fused * 1e3:.2f} ms "
        f"({gen_ref / gen_fused:.2f}x)",
    ]
    record_result("lstm_kernel", "\n".join(lines))

    # Generous bound: the fused op must never be the slower path.
    assert fb_fused < fb_ref
    assert gen_fused < gen_ref

    benchmark(train_step(module))
