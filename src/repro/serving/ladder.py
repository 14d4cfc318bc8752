"""The graceful-degradation ladder: full GenDT → first stage → FDaS.

Production serving prefers a degraded-but-valid KPI series over no series.
The ladder's three rungs trade fidelity for robustness:

1. ``full`` — the complete stochastic GenDT pipeline (G_n + G_a + ResGen),
   the paper's headline generator;
2. ``first_stage`` — the first-stage output (``first_stage_only=True``:
   SRNN noise off, ResGen skipped): loses the shadowing texture but keeps all
   context conditioning, and cannot be destabilized by the autoregressive
   residual loop.  The only randomness left is the denoising noise
   ``z0``, drawn from the model's seeded generation RNG — deterministic
   conditional on that RNG's state;
3. ``fdas`` — the context-free fit-distribution-and-sample baseline
   (:class:`repro.baselines.fdas.FDaS`): statistically plausible marginals
   with no model call at all, so it also serves while the circuit breaker
   holds the model open.

Each rung's output is validated for NaN/Inf before it is accepted; the
runner re-samples a bounded number of times at a rung before demoting to
the next one, and the achieved level is recorded in the result envelope.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.generator import WindowHook
from ..geo.trajectory import Trajectory
from .envelope import DEGRADATION_LEVELS

LEVEL_FULL, LEVEL_FIRST_STAGE, LEVEL_FDAS = DEGRADATION_LEVELS


def output_is_valid(series: Optional[np.ndarray]) -> bool:
    """A generated series is servable iff it is entirely finite."""
    return series is not None and bool(np.all(np.isfinite(series)))


def levels_from(start_level: str) -> tuple:
    """The ladder from ``start_level`` downward (inclusive)."""
    if start_level not in DEGRADATION_LEVELS:
        raise ValueError(
            f"unknown ladder level {start_level!r}; "
            f"expected one of {DEGRADATION_LEVELS}"
        )
    return DEGRADATION_LEVELS[DEGRADATION_LEVELS.index(start_level):]


class LadderExecutor:
    """Executes one generation attempt at one ladder level.

    Kept deliberately stateless between calls: re-sampling, demotion,
    deadlines, and breaker accounting are the
    :class:`~repro.serving.runner.CampaignRunner`'s job; this class only
    knows how to produce a series at a given fidelity.

    Args:
        model: a fitted :class:`repro.core.GenDT`.
        fdas: an optional fitted :class:`repro.baselines.fdas.FDaS` with the
            same KPI layout as ``model``; without it the ``fdas`` rung is
            unavailable and the ladder bottoms out at ``first_stage``.
    """

    def __init__(self, model, fdas=None) -> None:
        self.model = model
        self.fdas = fdas
        if fdas is not None and list(fdas.kpi_names) != list(model.kpi_names):
            raise ValueError(
                f"FDaS fallback KPI layout {fdas.kpi_names} does not match "
                f"model {model.kpi_names}"
            )

    def available_levels(self, start_level: str = LEVEL_FULL) -> tuple:
        levels = levels_from(start_level)
        if self.fdas is None:
            levels = tuple(lv for lv in levels if lv != LEVEL_FDAS)
        return levels

    def uses_model(self, level: str) -> bool:
        """Does this rung call the GenDT model (i.e. breaker-protected)?"""
        return level in (LEVEL_FULL, LEVEL_FIRST_STAGE)

    def attempt(
        self,
        trajectory: Trajectory,
        level: str,
        window_hook: Optional[WindowHook] = None,
    ) -> np.ndarray:
        """One generation attempt at ``level``; may raise or return NaNs.

        The caller validates the output (:func:`output_is_valid`) and
        decides whether to re-sample or demote.
        """
        if level == LEVEL_FULL:
            return self.model.generate(trajectory, window_hook=window_hook)
        if level == LEVEL_FIRST_STAGE:
            return self.model.generate(
                trajectory, first_stage_only=True, window_hook=window_hook
            )
        if level == LEVEL_FDAS:
            if self.fdas is None:
                raise RuntimeError("no FDaS fallback configured")
            series = self.fdas.generate(trajectory)
            # The fallback gets the same chaos surface as the model rungs:
            # its whole output counts as window 0 for the hook.
            if window_hook is not None:
                replaced = window_hook(0, series)
                if replaced is not None:
                    series = np.asarray(replaced)
            return series
        raise ValueError(f"unknown ladder level {level!r}")
