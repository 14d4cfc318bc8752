"""The four GenDT benchmark workloads.

Each workload has three parts, run in separate processes by ``child.py``:

* ``prepare`` (untimed): synthesize the seeded inputs and, where needed,
  train and save the checkpoint with the code under test;
* ``setup`` (timed as ``setup_s``): what a user pays before the first call,
  i.e. ``GenDT.load`` (or the model build for ``train``) plus ``FDaS.fit``;
* ``op``: one client-visible operation, run in a closed loop with one
  client.  Each op returns the samples it processed, the latencies a user
  would see, and any failed correctness check.

Input sizes are fixed; only the content (region, routes, records, fault
positions) depends on the seed, so runs with different seeds do the same
amount of work.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import repro.core.uncertainty as uncertainty_mod
from repro.baselines.fdas import FDaS
from repro.context.windows import window_starts
from repro.core import GenDT, small_config
from repro.datasets import (
    build_region_b,
    make_active_learning_subsets,
    make_dataset_a,
    make_dataset_b,
    make_long_trajectory,
)
from repro.radio.kpis import KPI, KPI_RANGES
from repro.runtime import HealthGuard
from repro.serving import CampaignConfig, CampaignRunner, FaultPlan, ManualClock

HERE = Path(__file__).resolve().parent

KPIS_A = ["rsrp", "rsrq", "sinr", "cqi"]
KPIS_B = ["rsrp", "rsrq"]
MODEL_SEED = 3
WINDOW_LEN = 25

#: Training input: dataset A, 3 scenarios x 1 record of 100 samples.
TRAIN_RECORDS_PER_SCENARIO = 1
TRAIN_RECORD_LEN = 100
TRAIN_EPOCHS = 2
#: Relative tolerance of the final-MSE check against the seed commit.
TRAIN_MSE_RTOL = 1e-4

#: generate_long: the paper's long route (§6.1.3) cut to 557 samples.
LONG_ROUTES = 3
LONG_ROUTE_LEN = 557

#: uncertainty: candidate subsets of one 120-sample record, P MC passes.
PROBE_SUBSETS = 8
PROBE_SUBSET_LEN = 120
PROBE_PASSES = 4

#: campaign: short city routes in region A with a seeded fault plan.
CAMPAIGN_ROUTES = 40
CAMPAIGN_LEN_RANGE = (55, 180)
#: Faulted routes per campaign and their fault types, in cycle: 3 x NaN once
#: at full (re-sample), 3 x exception at full, 2 x NaN always at full, 2 x
#: exception at full and first stage.  Faulted routes are never adjacent, so
#: the breaker (threshold 3) never opens and outcomes are predictable.
CAMPAIGN_FAULTED = 10
CAMPAIGN_FAULT_CYCLE = ["resample", "exc_full", "nan_full", "fdas"]


def model_config():
    """The CLI/benchmark training config: H=32, L=25, Δt=5, batch 16, 6 cells."""
    return small_config(
        epochs=1, hidden_size=32, batch_len=WINDOW_LEN, train_step=5,
        minibatch_windows=16, max_cells=6,
    )


def n_windows(samples: int) -> int:
    return math.ceil(samples / WINDOW_LEN)


def series_errors(series: np.ndarray, kpis: List[str], samples: int) -> List[str]:
    """Finite, inside the KpiSpec physical ranges, CQI/serving cell whole."""
    errors = []
    if series.shape != (samples, len(kpis)):
        return [f"series shape {series.shape} != {(samples, len(kpis))}"]
    if not np.all(np.isfinite(series)):
        return ["series has NaN/Inf"]
    for idx, name in enumerate(kpis):
        kpi = KPI(name)
        column = series[:, idx]
        if kpi in KPI_RANGES:
            lo, hi = KPI_RANGES[kpi]
            if column.min() < lo or column.max() > hi:
                errors.append(f"{name} outside [{lo}, {hi}]")
        if kpi in (KPI.CQI, KPI.SERVING_CELL) and np.any(column != np.round(column)):
            errors.append(f"{name} has non-integer values")
    return errors


def reseed(model: GenDT, seed: int) -> None:
    """Reset the model's shared generation RNG in place."""
    model.rng.bit_generator.state = np.random.default_rng(seed).bit_generator.state


@dataclass
class OpResult:
    samples: int                       #: KPI samples processed
    latencies_s: List[float]           #: one per client-visible operation
    errors: List[str] = field(default_factory=list)
    key: int = 0                       #: identical keys must give identical counts


def _fixed_length_records(simulator, trajectories, length, rng):
    records = []
    for trajectory in trajectories:
        if len(trajectory) < length:
            raise ValueError(f"input route has {len(trajectory)} < {length} samples")
        records.append(simulator.simulate(trajectory.slice(0, length), rng))
    return records


def _region_a_records(seed: int):
    """Region A plus fixed-length training records (walk, bus, tram)."""
    dataset = make_dataset_a(
        seed=seed,
        samples_per_scenario=TRAIN_RECORDS_PER_SCENARIO * TRAIN_RECORD_LEN * 2,
        trajectories_per_scenario=TRAIN_RECORDS_PER_SCENARIO,
        with_qoe=False,
    )
    rng = np.random.default_rng(seed + 101)
    records = _fixed_length_records(
        dataset.simulator, [r.trajectory for r in dataset.records],
        TRAIN_RECORD_LEN, rng,
    )
    return dataset.region, records


def _train_checkpoint(region, kpis, records, path: Path) -> None:
    model = GenDT(region, kpis=kpis, config=model_config(), seed=MODEL_SEED)
    model.fit(records, epochs=1)
    model.save(path)


def _load_model(inputs: Dict, kpis: List[str], run_dir: Path) -> GenDT:
    model = GenDT(inputs["region"], kpis=kpis, config=model_config(), seed=MODEL_SEED)
    model.load(run_dir / "model.gendt")
    return model


# ----------------------------------------------------------------------
# train
# ----------------------------------------------------------------------
class TrainWorkload:
    """``GenDT.fit`` on dataset A with the CLI's default ``HealthGuard``."""

    name = "train"
    n_keys = 1
    records_per_op = TRAIN_RECORDS_PER_SCENARIO * 3

    @staticmethod
    def prepare(seed: int, run_dir: Path) -> Dict:
        region, records = _region_a_records(seed)
        return {"seed": seed, "region": region, "records": records}

    def setup(self, inputs: Dict, run_dir: Path) -> None:
        self.inputs = inputs
        self.records = inputs["records"]
        # The model build a user pays before the first fit; every op then
        # builds its own so that each fit starts from the same seed.
        self.model = GenDT(
            inputs["region"], kpis=KPIS_A, config=model_config(), seed=MODEL_SEED
        )
        step = self.model.config.train_step
        self.windows_per_epoch = sum(
            len(window_starts(len(r), WINDOW_LEN, step)) for r in self.records
        )
        self.final_mse: List[float] = []
        self.rollbacks = 0
        reference = json.loads((HERE / "reference.json").read_text())
        self.reference = reference["train_final_mse"]

    def routes(self):
        return [r.trajectory for r in self.records]

    def windows_per_op(self) -> int:
        return self.windows_per_epoch * TRAIN_EPOCHS

    def op(self, index: int) -> OpResult:
        started = time.perf_counter()
        model = GenDT(
            self.inputs["region"], kpis=KPIS_A, config=model_config(), seed=MODEL_SEED
        )
        guard = HealthGuard()
        history = model.fit(self.records, epochs=TRAIN_EPOCHS, guard=guard)
        elapsed = time.perf_counter() - started
        errors = []
        curves = (history.total, history.mse, history.adversarial,
                  history.discriminator, history.nll)
        if any(len(c) != TRAIN_EPOCHS or not np.all(np.isfinite(c)) for c in curves):
            errors.append("loss history not finite or incomplete")
        if guard.recoveries or any(history.recoveries):
            errors.append(f"{guard.recoveries} guard rollback(s)")
        self.final_mse.append(history.mse[-1])
        self.rollbacks += guard.recoveries
        return OpResult(
            samples=self.windows_per_op() * WINDOW_LEN,
            latencies_s=[elapsed],
            errors=errors,
        )

    def warmup(self) -> OpResult:
        return self.op(0)

    def final_errors(self) -> List[str]:
        errors = []
        if len(set(self.final_mse)) != 1:
            errors.append(f"final MSE differs between identical fits: {self.final_mse}")
        mse = self.final_mse[0]
        ref = self.reference["by_seed"].get(str(self.inputs["seed"]))
        if ref is not None:
            if abs(mse - ref) > TRAIN_MSE_RTOL * abs(ref):
                errors.append(f"final MSE {mse!r} vs seed commit {ref!r} (rtol {TRAIN_MSE_RTOL})")
        else:
            lo, hi = self.reference["band"]
            if not lo <= mse <= hi:
                errors.append(f"final MSE {mse!r} outside the seed commit band [{lo}, {hi}]")
        return errors

    def summary(self, ops: List[OpResult], wall_s: float) -> Dict:
        windows = self.windows_per_op() * len(ops)
        return {
            "train_windows_per_s": (windows / wall_s, "windows/s", len(ops)),
            "final_mse": (self.final_mse[-1], "mse", len(self.final_mse)),
        }


# ----------------------------------------------------------------------
# generate_long
# ----------------------------------------------------------------------
def _region_b_inputs(seed: int, run_dir: Path) -> Dict:
    region = build_region_b(seed=seed)
    dataset = make_dataset_b(
        seed=seed, samples_per_scenario=100, trajectories_per_scenario=1,
        region=region,
    )
    _train_checkpoint(region, KPIS_B, dataset.records, run_dir / "model.gendt")
    return {"seed": seed, "region": region}


class GenerateLongWorkload:
    """Repeated ``GenDT.generate`` on region-B long routes (557 samples)."""

    name = "generate_long"
    n_keys = LONG_ROUTES

    @staticmethod
    def prepare(seed: int, run_dir: Path) -> Dict:
        inputs = _region_b_inputs(seed, run_dir)
        # About 40% of long routes reach 557 samples; take the first three.
        routes = []
        for k in range(seed * 100, seed * 100 + 60):
            trajectory = make_long_trajectory(
                inputs["region"], seed=k, target_duration_s=2230.0
            )
            if len(trajectory) >= LONG_ROUTE_LEN:
                routes.append(trajectory.slice(0, LONG_ROUTE_LEN))
            if len(routes) == LONG_ROUTES:
                break
        else:
            raise ValueError("too few long routes of 557 samples")
        inputs["routes"] = routes
        return inputs

    def setup(self, inputs: Dict, run_dir: Path) -> None:
        self.inputs = inputs
        self.model = _load_model(inputs, KPIS_B, run_dir)
        self.reference: Optional[np.ndarray] = None

    def routes(self):
        return self.inputs["routes"]

    def op(self, index: int) -> OpResult:
        key = index % LONG_ROUTES
        route = self.inputs["routes"][key]
        started = time.perf_counter()
        series = self.model.generate(route)
        elapsed = time.perf_counter() - started
        return OpResult(
            samples=len(route), latencies_s=[elapsed],
            errors=series_errors(series, KPIS_B, len(route)), key=key,
        )

    def _seeded_output(self) -> np.ndarray:
        reseed(self.model, self.inputs["seed"])
        return self.model.generate(self.inputs["routes"][0])

    def warmup(self) -> OpResult:
        self.reference = self._seeded_output()
        return self.op(0)

    def final_errors(self) -> List[str]:
        if not np.array_equal(self._seeded_output(), self.reference):
            return ["same seed and route gave different bytes"]
        return []

    def summary(self, ops: List[OpResult], wall_s: float) -> Dict:
        samples = sum(op.samples for op in ops)
        return {"gen_samples_per_s": (samples / wall_s, "samples/s", len(ops))}


# ----------------------------------------------------------------------
# uncertainty
# ----------------------------------------------------------------------
class UncertaintyWorkload:
    """``subset_uncertainties`` (MC-dropout U(G)) over dataset-B subsets."""

    name = "uncertainty"
    n_keys = PROBE_SUBSETS

    @staticmethod
    def prepare(seed: int, run_dir: Path) -> Dict:
        inputs = _region_b_inputs(seed, run_dir)
        candidates = make_active_learning_subsets(
            inputs["region"], seed=seed + 31, n_subsets=3 * PROBE_SUBSETS,
            samples_per_subset=PROBE_SUBSET_LEN,
        )
        subsets = [r for r in candidates if len(r) == PROBE_SUBSET_LEN]
        if len(subsets) < PROBE_SUBSETS:
            raise ValueError("too few full-length candidate subsets")
        inputs["subsets"] = subsets[:PROBE_SUBSETS]
        return inputs

    def setup(self, inputs: Dict, run_dir: Path) -> None:
        self.inputs = inputs
        self.model = _load_model(inputs, KPIS_B, run_dir)

    def routes(self):
        return [r.trajectory for r in self.inputs["subsets"]]

    def _probe(self, key: int) -> float:
        subset = [self.inputs["subsets"][key]]
        return uncertainty_mod.subset_uncertainties(
            self.model, [subset], n_passes=PROBE_PASSES
        )[0]

    def op(self, index: int) -> OpResult:
        key = index % PROBE_SUBSETS
        started = time.perf_counter()
        value = self._probe(key)
        elapsed = time.perf_counter() - started
        errors = [] if np.isfinite(value) and value > 0 else [f"U(G) = {value!r}"]
        return OpResult(
            samples=PROBE_SUBSET_LEN, latencies_s=[elapsed], errors=errors, key=key
        )

    def _seeded_value(self) -> float:
        reseed(self.model, self.inputs["seed"])
        return self._probe(0)

    def warmup(self) -> OpResult:
        self.reference = self._seeded_value()
        return self.op(0)

    def final_errors(self) -> List[str]:
        if self._seeded_value() != self.reference:
            return ["same seed and subset gave a different U(G)"]
        return []

    def summary(self, ops: List[OpResult], wall_s: float) -> Dict:
        return {"probe_routes_per_s": (len(ops) / wall_s, "routes/s", len(ops))}


# ----------------------------------------------------------------------
# campaign
# ----------------------------------------------------------------------
def _campaign_layout(seed: int):
    """Seeded route lengths and the fault plan on them.

    Every fourth length of the schedule is faulted, with the fault types in
    a fixed cycle, so each seed serves the same (length, fault) pairs and
    only their order and the fault windows change.
    """
    rng = np.random.default_rng(seed + 7)
    lo, hi = CAMPAIGN_LEN_RANGE
    schedule = [int(x) for x in np.round(np.linspace(lo, hi, CAMPAIGN_ROUTES))]
    faulted = schedule[2::4][:CAMPAIGN_FAULTED]
    types = (CAMPAIGN_FAULT_CYCLE * CAMPAIGN_FAULTED)[:CAMPAIGN_FAULTED]
    clean = iter(rng.permutation([x for x in schedule if x not in faulted]))
    # Non-adjacent positions: choose from n-k+1 slots, then spread.
    k = CAMPAIGN_FAULTED
    slots = np.sort(rng.choice(CAMPAIGN_ROUTES - k + 1, size=k, replace=False))
    at = {int(s) + i: int(j) for i, (s, j) in enumerate(zip(slots, rng.permutation(k)))}
    lengths, plan = [], []
    for position in range(CAMPAIGN_ROUTES):
        if position not in at:
            lengths.append(int(next(clean)))
            continue
        j = at[position]
        lengths.append(faulted[j])
        windows = n_windows(faulted[j])
        plan.append({
            "trajectory": position, "type": types[j],
            "window": int(rng.integers(windows)),
            "window2": int(rng.integers(windows)),
        })
    return lengths, plan


def _fault_plan(spec: List[Dict]) -> FaultPlan:
    plan = FaultPlan()
    for f in spec:
        t, w = f["trajectory"], f["window"]
        if f["type"] == "resample":
            plan.inject("nan_output", t, window=w, level="full", times=1)
        elif f["type"] == "exc_full":
            plan.inject("exception", t, window=w, level="full")
        elif f["type"] == "nan_full":
            plan.inject("nan_output", t, window=w, level="full", times=None)
        else:  # fdas: both model rungs raise
            plan.inject("exception", t, window=w, level="full")
            plan.inject("exception", t, window=f["window2"], level="first_stage")
    return plan


def _expected(spec: List[Dict], n_routes: int) -> List[tuple]:
    """(status, level, resamples, [(kind, level, window)]) the plan implies."""
    expected = [("ok", "full", 0, [])] * n_routes
    for f in spec:
        w = f["window"]
        expected[f["trajectory"]] = {
            "resample": ("ok", "full", 1, [("non_finite_output", "full", -1)]),
            "exc_full": ("ok", "first_stage", 0, [("exception", "full", w)]),
            "nan_full": ("ok", "first_stage", 1, [("non_finite_output", "full", -1)] * 2),
            "fdas": ("ok", "fdas", 0, [("exception", "full", w),
                                      ("exception", "first_stage", f["window2"])]),
        }[f["type"]]
    return expected


class CampaignWorkload:
    """``CampaignRunner.run`` with an FDaS fallback over short city routes."""

    name = "campaign"
    n_keys = 1

    @staticmethod
    def prepare(seed: int, run_dir: Path) -> Dict:
        region, records = _region_a_records(seed)
        _train_checkpoint(region, KPIS_A, records, run_dir / "model.gendt")
        lengths, faults = _campaign_layout(seed)
        rng = np.random.default_rng(seed + 202)
        routes = []
        for length in lengths:
            for _ in range(20):
                route = region.roads.random_walk_route(rng, length * 8.0 * 1.3, city="cityA")
                trajectory = region.roads.route_to_trajectory(
                    route, 8.0, 1.0, scenario="campaign", rng=rng
                )
                if len(trajectory) >= length:
                    break
            else:
                raise ValueError(f"could not build a {length}-sample route")
            routes.append(trajectory.slice(0, length))
        return {
            "seed": seed, "region": region, "records": records, "routes": routes,
            "faults": faults,
        }

    def setup(self, inputs: Dict, run_dir: Path) -> None:
        self.inputs = inputs
        self.run_dir = run_dir
        self.model = _load_model(inputs, KPIS_A, run_dir)
        self.fdas = FDaS(kpis=KPIS_A, seed=inputs["seed"] + 2)
        self.fdas.fit(inputs["records"])
        self.expected = _expected(inputs["faults"], len(inputs["routes"]))
        self.reference: Optional[List[np.ndarray]] = None
        self.levels: List[str] = []
        self.transitions = 0

    def routes(self):
        return self.inputs["routes"]

    def _run(self, clock, sleep=None):
        runner = CampaignRunner(
            self.model, fdas=self.fdas,
            config=CampaignConfig(seed=self.inputs["seed"] + 5),
            fault_plan=_fault_plan(self.inputs["faults"]),
            clock=clock, sleep=sleep,
        )
        started = time.perf_counter()
        result = runner.run(self.inputs["routes"])
        return result, time.perf_counter() - started

    def _errors(self, result) -> List[str]:
        errors = []
        if result.breaker_transitions:
            errors.append(f"breaker moved: {result.breaker_transitions}")
        for envelope, want, route in zip(result.envelopes, self.expected, self.inputs["routes"]):
            faults = [(f.kind, f.level, f.window) for f in envelope.faults]
            got = (envelope.status, envelope.level, envelope.resamples, faults)
            if got != want:
                errors.append(f"route {envelope.trajectory}: {got} != plan {want}")
            elif envelope.series is not None:
                errors += [f"route {envelope.trajectory}: {e}"
                           for e in series_errors(envelope.series, KPIS_A, len(route))]
        if len(result.envelopes) != len(self.expected):
            errors.append(f"{len(result.envelopes)} envelopes for {len(self.expected)} routes")
        return errors

    def _jsonl(self, name: str) -> bytes:
        clock = ManualClock()
        result, _ = self._run(clock, clock.sleep)
        path = self.run_dir / name
        result.to_jsonl(path, include_series=True)
        return path.read_bytes(), result

    def warmup(self) -> OpResult:
        self.jsonl, result = self._jsonl("campaign-warmup.jsonl")
        self.reference = [e.series for e in result.envelopes]
        self.levels = [e.level for e in result.envelopes]
        return OpResult(
            samples=sum(len(r) for r in self.inputs["routes"]),
            latencies_s=[], errors=self._errors(result),
        )

    def op(self, index: int) -> OpResult:
        result, _ = self._run(time.perf_counter)
        self.transitions += len(result.breaker_transitions)
        errors = self._errors(result)
        if not all(np.array_equal(e.series, ref)
                   for e, ref in zip(result.envelopes, self.reference)):
            errors.append("campaign output differs from the same-seed warm-up pass")
        return OpResult(
            samples=sum(len(r) for r in self.inputs["routes"]),
            latencies_s=[e.elapsed_s for e in result.envelopes],
            errors=errors,
        )

    def final_errors(self) -> List[str]:
        again, _ = self._jsonl("campaign-final.jsonl")
        if again != self.jsonl:
            return ["campaign JSONL differs between two runs with the same seed"]
        return []

    def summary(self, ops: List[OpResult], wall_s: float) -> Dict:
        samples = sum(op.samples for op in ops)
        routes = len(self.levels)
        degraded = sum(level in ("first_stage", "fdas") for level in self.levels)
        failed = sum(level is None for level in self.levels)
        served = sum(len(op.latencies_s) for op in ops)
        return {
            "gen_samples_per_s": (samples / wall_s, "samples/s", served),
            "routes_failed_frac": (failed / routes, "fraction", routes),
            "routes_degraded_frac": (degraded / routes, "fraction", routes),
        }


WORKLOADS = {
    w.name: w
    for w in (TrainWorkload, GenerateLongWorkload, CampaignWorkload, UncertaintyWorkload)
}
