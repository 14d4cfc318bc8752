"""Shared benchmark fixtures: datasets, splits, trained models.

Every paper table/figure bench draws on these session-scoped fixtures so the
expensive work (dataset synthesis, model training) happens once per run.
Scale is "CI-size": large enough for the paper's qualitative shape (method
ranking, rough factors) to emerge, small enough that the full benchmark
suite completes in minutes on a laptop.  EXPERIMENTS.md records a run's
outputs next to the paper's numbers.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict

import numpy as np
import pytest

from repro.baselines import DoppelGANger, FDaS, LSTMGNNBaseline, MLPBaseline
from repro.core import GenDT, small_config
from repro.datasets import (
    build_region_b,
    make_dataset_a,
    make_dataset_b,
    make_long_trajectory,
    split_per_scenario,
)

RESULTS_DIR = Path(__file__).parent / "results"

#: KPI sets per dataset (paper: Dataset B lacks SINR/CQI).
KPIS_A = ["rsrp", "rsrq", "sinr", "cqi"]
KPIS_B = ["rsrp", "rsrq"]

#: Benchmark scale knobs.
SAMPLES_PER_SCENARIO = 900
TRAJECTORIES_PER_SCENARIO = 4
GENDT_EPOCHS = 18


#: False under ``--benchmark-disable``: such a run only checks the benches'
#: assertions, so it leaves the tracked result files as they are.
WRITE_RESULTS = True


def pytest_configure(config) -> None:
    global WRITE_RESULTS
    WRITE_RESULTS = not config.getoption("benchmark_disable", default=False)


def record_result(name: str, text: str) -> None:
    """Persist a rendered table/figure and echo it to the terminal."""
    if not WRITE_RESULTS:
        print(f"\n{text}\n[not saved: --benchmark-disable]")
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[saved to {path}]")


def _bench_config(**overrides):
    base = dict(
        epochs=GENDT_EPOCHS,
        hidden_size=32,
        batch_len=25,
        train_step=5,
        minibatch_windows=16,
        max_cells=6,
    )
    base.update(overrides)
    return small_config(**base)


@pytest.fixture(scope="session")
def bench_dataset_a():
    return make_dataset_a(
        seed=7,
        samples_per_scenario=SAMPLES_PER_SCENARIO,
        trajectories_per_scenario=TRAJECTORIES_PER_SCENARIO,
    )


@pytest.fixture(scope="session")
def bench_split_a(bench_dataset_a):
    return split_per_scenario(bench_dataset_a, 0.3, 200.0, np.random.default_rng(77))


@pytest.fixture(scope="session")
def bench_region_b():
    return build_region_b(seed=11)


@pytest.fixture(scope="session")
def bench_dataset_b(bench_region_b):
    return make_dataset_b(
        seed=11,
        samples_per_scenario=SAMPLES_PER_SCENARIO,
        trajectories_per_scenario=TRAJECTORIES_PER_SCENARIO,
        region=bench_region_b,
    )


@pytest.fixture(scope="session")
def bench_split_b(bench_dataset_b):
    return split_per_scenario(bench_dataset_b, 0.3, 400.0, np.random.default_rng(78))


@pytest.fixture(scope="session")
def bench_long_trajectory(bench_region_b):
    return make_long_trajectory(bench_region_b, seed=23, target_duration_s=1400.0)


@pytest.fixture(scope="session")
def bench_long_record(bench_dataset_b, bench_long_trajectory):
    return bench_dataset_b.simulator.simulate(
        bench_long_trajectory, np.random.default_rng(99)
    )


@pytest.fixture(scope="session")
def bench_gendt_a(bench_dataset_a, bench_split_a) -> GenDT:
    model = GenDT(bench_dataset_a.region, kpis=KPIS_A, config=_bench_config(), seed=3)
    model.fit(bench_split_a.train)
    return model


@pytest.fixture(scope="session")
def bench_gendt_b(bench_dataset_b, bench_split_b) -> GenDT:
    model = GenDT(bench_dataset_b.region, kpis=KPIS_B, config=_bench_config(), seed=4)
    model.fit(bench_split_b.train)
    return model


def _make_baselines(region, kpis, train, seed=0) -> Dict[str, Callable]:
    """Fit all five baselines; returns name -> generate callable."""
    fdas = FDaS(kpis=kpis, seed=seed)
    fdas.fit(train)
    mlp = MLPBaseline(region, kpis=kpis, epochs=25, seed=seed)
    mlp.fit(train)
    lstm_gnn = LSTMGNNBaseline(
        region, kpis=kpis, hidden=24, epochs=4, max_train_len=200, seed=seed
    )
    lstm_gnn.fit(train)
    orig_dg = DoppelGANger(
        region, kpis=kpis, real_context=False, window_len=25, hidden=24,
        epochs=6, seed=seed,
    )
    orig_dg.fit(train)
    real_dg = DoppelGANger(
        region, kpis=kpis, real_context=True, window_len=25, hidden=24,
        epochs=6, seed=seed,
    )
    real_dg.fit(train)
    return {
        "FDaS": fdas.generate,
        "MLP": mlp.generate,
        "LSTM-GNN": lstm_gnn.generate,
        "Orig. DG": orig_dg.generate,
        "Real Cont. DG": real_dg.generate,
    }


@pytest.fixture(scope="session")
def bench_methods_a(bench_dataset_a, bench_split_a, bench_gendt_a) -> Dict[str, Callable]:
    methods = {"GenDT": bench_gendt_a.generate}
    methods.update(
        _make_baselines(bench_dataset_a.region, KPIS_A, bench_split_a.train)
    )
    return methods


@pytest.fixture(scope="session")
def bench_methods_b(bench_dataset_b, bench_split_b, bench_gendt_b) -> Dict[str, Callable]:
    methods = {"GenDT": bench_gendt_b.generate}
    methods.update(
        _make_baselines(bench_dataset_b.region, KPIS_B, bench_split_b.train)
    )
    return methods


@pytest.fixture(scope="session")
def bench_results_a(bench_methods_a, bench_split_a):
    """Fidelity of every method on the Dataset-A test set (Tables 3 & 4)."""
    from repro.eval import compare_methods

    return compare_methods(bench_methods_a, bench_split_a.test, KPIS_A, n_generations=2)


@pytest.fixture(scope="session")
def bench_results_b(bench_methods_b, bench_split_b):
    """Fidelity of every method on the Dataset-B test set (Tables 5 & 6)."""
    from repro.eval import compare_methods

    return compare_methods(bench_methods_b, bench_split_b.test, KPIS_B, n_generations=2)
