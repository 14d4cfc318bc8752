"""Model-uncertainty estimation via MC dropout (paper §6.2.1).

GenDT's ResGen head outputs per-step Gaussian parameters (mu, sigma).  The
actual sigma value reflects *data* uncertainty (irreducible variability);
the *variation of the parameters themselves* under MC dropout reflects
*model* uncertainty — reducible with more training data.  The scalar probe

``U(G) = (1/T) * sum_t [ std(sigma_t) + std(mu_t) ]``

averages, over time, the standard deviation of each parameter across
``n_passes`` stochastic forward passes with dropout forced on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..geo.trajectory import Trajectory
from ..radio.simulator import DriveTestRecord
from .model import GenDT


@dataclass
class UncertaintyEstimate:
    """Decomposed uncertainty for a trajectory."""

    model_uncertainty: float     #: U(G): std of (mu, sigma) across MC passes
    data_uncertainty: float      #: mean learned sigma (irreducible variability)
    n_passes: int

    def __repr__(self) -> str:
        return (
            f"UncertaintyEstimate(model={self.model_uncertainty:.4f}, "
            f"data={self.data_uncertainty:.4f}, passes={self.n_passes})"
        )


def mc_dropout_uncertainty(
    model: GenDT, trajectory: Trajectory, n_passes: int = 8
) -> UncertaintyEstimate:
    """Estimate U(G) for one trajectory via repeated dropout-on generation."""
    if n_passes < 2:
        raise ValueError("need at least 2 MC passes")
    model._require_fitted()
    if model.generator.resgen is None:
        raise RuntimeError("uncertainty probe requires ResGen (use_resgen=True)")
    model.generator.resgen.force_dropout(True)
    try:
        mus: List[np.ndarray] = []
        sigmas: List[np.ndarray] = []
        for _ in range(n_passes):
            out = model.generate_normalized(trajectory)
            mus.append(out["mu"])
            sigmas.append(out["sigma"])
    finally:
        model.generator.resgen.force_dropout(False)
    mu_stack = np.stack(mus)        # [P, T, N_ch]
    sigma_stack = np.stack(sigmas)
    per_step = mu_stack.std(axis=0) + sigma_stack.std(axis=0)  # [T, N_ch]
    return UncertaintyEstimate(
        model_uncertainty=float(per_step.mean()),
        data_uncertainty=float(sigma_stack.mean()),
        n_passes=n_passes,
    )


def subset_uncertainties(
    model: GenDT, subsets: Sequence[Sequence[DriveTestRecord]], n_passes: int = 6
) -> List[float]:
    """U(G) per candidate measurement subset (drives §6.2 data selection)."""
    values: List[float] = []
    for subset in subsets:
        per_record = [
            mc_dropout_uncertainty(model, record.trajectory, n_passes).model_uncertainty
            for record in subset
        ]
        values.append(float(np.mean(per_record)))
    return values
