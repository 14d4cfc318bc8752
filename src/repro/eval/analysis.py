"""Analysis helpers behind the paper's figures.

* serving-cell distance CDFs (Fig. 16) and cell density (Fig. 4),
* repeated-run stochasticity (Figs. 1-2),
* generation envelopes and histogram overlap (Fig. 9),
* the short-trajectory stitching comparison (Table 8 / Fig. 10).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..geo.trajectory import Trajectory
from ..metrics.fidelity import evaluate_series
from ..radio.simulator import DriveTestRecord


def serving_cell_distances_fast(record: DriveTestRecord, deployment) -> np.ndarray:
    """Distance from the device to its serving cell at every step (Fig. 16)."""
    traj = record.trajectory
    id_to_col = {cid: j for j, cid in enumerate(deployment.cell_ids())}
    cols = np.array([id_to_col[int(c)] for c in record.serving_cell_id])
    frame = deployment.frame
    ux, uy = frame.to_xy(traj.lat, traj.lon)
    xy = deployment.positions_xy()
    return np.hypot(ux - xy[cols, 0], uy - xy[cols, 1])


@dataclass
class StochasticityAnalysis:
    """Repeated drives over one trajectory (paper Figs. 1-2)."""

    rsrp_runs: np.ndarray        #: [runs, T]
    serving_runs: np.ndarray     #: [runs, T]

    @property
    def per_location_std(self) -> np.ndarray:
        """RSRP std across runs at each location."""
        return self.rsrp_runs.std(axis=0)

    @property
    def mean_cross_run_std(self) -> float:
        return float(self.per_location_std.mean())

    def serving_cell_diversity(self) -> np.ndarray:
        """Distinct serving cells observed across runs, per location."""
        return np.array(
            [len(np.unique(self.serving_runs[:, t])) for t in range(self.serving_runs.shape[1])]
        )

    def correlation_std_vs_diversity(self) -> float:
        """Paper's Fig. 1-2 observation: RSRP variation tracks cell churn."""
        diversity = self.serving_cell_diversity().astype(float)
        std = self.per_location_std
        if diversity.std() < 1e-9 or std.std() < 1e-9:
            return 0.0
        return float(np.corrcoef(std, diversity)[0, 1])


def analyze_stochasticity(
    simulator, trajectory: Trajectory, rng: np.random.Generator, repeats: int = 5
) -> StochasticityAnalysis:
    """Simulate repeated drives and collect the Figs. 1-2 data."""
    records = simulator.simulate_repeats(trajectory, rng, repeats)
    return StochasticityAnalysis(
        rsrp_runs=np.stack([r.kpi["rsrp"] for r in records]),
        serving_runs=np.stack([r.serving_cell_id for r in records]),
    )


@dataclass
class GenerationEnvelope:
    """Min/max envelope of repeated generations vs. ground truth (Fig. 9)."""

    real: np.ndarray
    samples: np.ndarray  #: [n_samples, T]

    @property
    def lower(self) -> np.ndarray:
        return self.samples.min(axis=0)

    @property
    def upper(self) -> np.ndarray:
        return self.samples.max(axis=0)

    def coverage(self) -> float:
        """Fraction of ground-truth points inside the envelope."""
        inside = (self.real >= self.lower) & (self.real <= self.upper)
        return float(inside.mean())

    def histogram_hwd(self) -> float:
        """HWD between pooled generated values and the real distribution."""
        from ..metrics.fidelity import hwd

        return hwd(self.real, self.samples.ravel())


def stitched_generation(
    generate: Callable[[Trajectory], np.ndarray],
    trajectory: Trajectory,
    segment_s: float,
) -> np.ndarray:
    """Generate a long trajectory by stitching short independent generations.

    The paper's Table 8 / Fig. 10 comparison: the trajectory is cut into
    independent ``segment_s``-long pieces, each generated with no carried
    state, then concatenated — exhibiting artifacts at the seams.
    """
    interval = trajectory.sample_interval_s or 1.0
    seg_len = max(2, int(round(segment_s / interval)))
    outputs: List[np.ndarray] = []
    for start in range(0, len(trajectory), seg_len):
        stop = min(start + seg_len, len(trajectory))
        if stop - start < 2:
            # Too short to form a trajectory piece: reuse the last value.
            outputs.append(outputs[-1][-1:].repeat(stop - start, axis=0))
            continue
        piece = trajectory.slice(start, stop)
        outputs.append(generate(piece))
    return np.concatenate(outputs, axis=0)
