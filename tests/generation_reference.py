"""Per-window reference for window-batched generation.

``GenDTGenerator.generate_batch`` runs ``G_n`` + ``G_a`` once over all
windows of a trajectory and walks one ResGen chain across them.  The
reference here generates the same trajectory the way generation worked
before: each window alone at batch 1 through ``G_n``, ``G_a`` and the
ResGen step loop, with the residual state carried from window to window.

The noise comes from a recorded batched run: :class:`RecordingRNG` keeps
every draw, and :func:`per_window_draws` cuts the batched arrays into the
per-window pieces that :class:`ReplayRNG` then serves to the batch-1
modules, checking that each request asks for the expected method and shape.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.core.features import ModelBatch
from repro.nn.tensor import Tensor, no_grad

Draw = Tuple[str, np.ndarray]


class RecordingRNG:
    """Delegates to a numpy Generator and records every draw in order."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self.draws: List[Draw] = []

    def _draw(self, method: str, *args, **kwargs) -> np.ndarray:
        value = np.asarray(getattr(self._rng, method)(*args, **kwargs))
        self.draws.append((method, value.copy()))
        return value

    def normal(self, *args, **kwargs) -> np.ndarray:
        return self._draw("normal", *args, **kwargs)

    def uniform(self, *args, **kwargs) -> np.ndarray:
        return self._draw("uniform", *args, **kwargs)

    def random(self, *args, **kwargs) -> np.ndarray:
        return self._draw("random", *args, **kwargs)


class ReplayRNG:
    """Serves recorded draws in order; each request must match method and shape."""

    def __init__(self, draws: List[Draw]) -> None:
        self._draws = list(draws)

    def _next(self, method: str, size) -> np.ndarray:
        expected, value = self._draws.pop(0)
        assert expected == method, f"replay wanted {expected}, got {method}"
        assert value.shape == tuple(np.atleast_1d(size)), (value.shape, size)
        return value

    def normal(self, loc=0.0, scale=1.0, size=None) -> np.ndarray:
        return self._next("normal", size)

    def uniform(self, low=0.0, high=1.0, size=None) -> np.ndarray:
        return self._next("uniform", size)

    def random(self, size=None) -> np.ndarray:
        return self._next("random", size)

    def exhausted(self) -> bool:
        return not self._draws


@contextmanager
def generator_rng(generator, rng) -> Iterator[None]:
    """Point every module of ``generator`` that holds its RNG at ``rng``."""
    original = generator.rng
    holders = [m for m in generator.modules() if m.__dict__.get("rng") is original]
    for module in holders:
        module.rng = rng
    try:
        yield
    finally:
        for module in holders:
            module.rng = original


def per_window_draws(
    draws: List[Draw], n_windows: int, max_cells: int, noise: bool
) -> List[List[Draw]]:
    """Cut a batched run's draws into the per-window order of the reference.

    The batched run draws ``z0`` for all windows, then the ``G_n`` and
    ``G_a`` uniforms for all windows, then the ResGen draws window after
    window.  Window ``w`` owns rows ``w * max_cells`` up to the next window
    of ``z0`` and of the ``G_n`` uniforms, batch row ``w`` of the ``G_a``
    uniforms, and the ``w``-th equal share of the ResGen draws.
    """
    (_, z0), rest = draws[0], draws[1:]
    first: List[List[Draw]] = [
        [("normal", z0[w * max_cells : (w + 1) * max_cells])] for w in range(n_windows)
    ]
    if noise:
        (_, u_n), (_, u_a), rest = rest[0], rest[1], rest[2:]
        for w, own in enumerate(first):
            own.append(("uniform", u_n[:, :, w * max_cells : (w + 1) * max_cells]))
            own.append(("uniform", u_a[:, :, w : w + 1]))
    share = len(rest) // n_windows
    assert share * n_windows == len(rest)
    return [own + rest[w * share : (w + 1) * share] for w, own in enumerate(first)]


def window_batch(batch: ModelBatch, w: int) -> ModelBatch:
    return ModelBatch(
        cell_x=batch.cell_x[w : w + 1],
        cell_mask=batch.cell_mask[w : w + 1],
        env=batch.env[w : w + 1],
        target=None,
        scenarios=batch.scenarios[w : w + 1],
    )


def per_window_generate(
    model, trajectory, draws: List[Draw], first_stage_only: bool = False
) -> Dict[str, np.ndarray]:
    """``generate_normalized`` one window at a time, replaying ``draws``."""
    generator = model.generator
    windows = model.context.generation_windows(
        trajectory, model._batch_len(len(trajectory))
    )
    batch = model._assembler().assemble(windows, with_target=False)
    noise = model.config.use_stochastic_layers and not first_stage_only
    pieces = per_window_draws(draws, len(windows), model.config.max_cells, noise)
    stochastic = False if first_stage_only else None
    resgen = None if first_stage_only else generator.resgen
    n_ch = model.kpi_spec.n_channels
    series = np.full((len(trajectory), n_ch), np.nan)
    mu = np.full_like(series, np.nan)
    sigma = np.full_like(series, np.nan)
    m = model.config.resgen_ar_window
    state = np.zeros((1, m, n_ch))
    for w, window in enumerate(windows):
        replay = ReplayRNG(pieces[w])
        one = window_batch(batch, w)
        with generator_rng(generator, replay), no_grad():
            base = generator.agg_net(
                generator.h_avg(one, stochastic=stochastic), stochastic=stochastic
            ).numpy()[0]
            out = base.copy()
            start = window.start
            for t in range(window.length if resgen is not None else 0):
                recent = Tensor(state.reshape(1, m * n_ch))
                residual, mu_t, log_sigma = resgen.sample(
                    Tensor(one.env[:, t, :]), recent
                )
                residual_np = np.clip(residual.numpy(), -5.0, 5.0)
                out[t] = base[t] + residual_np[0]
                mu[start + t] = mu_t.numpy()[0]
                sigma[start + t] = np.exp(log_sigma.numpy()[0])
                state = np.concatenate([state[:, 1:], residual_np[:, None, :]], axis=1)
        assert replay.exhausted(), f"window {w} left recorded draws unused"
        series[start : start + window.length] = out
    return {"series": series, "mu": mu, "sigma": sigma}
