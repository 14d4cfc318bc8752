"""Resilience hardening around the serving work: checkpoint corruption
surfaced as the structured taxonomy type, transfer-time context validation,
generation-boundary edge cases, sparse-measurement layout checks, and the
evaluation harness's skip-and-continue mode.
"""

import copy

import numpy as np
import pytest

from repro.baselines.fdas import FDaS
from repro.core import GenDT, small_config
from repro.core.workflow import transfer_model
from repro.datasets.mdt import SparseMeasurements
from repro.eval.harness import evaluate_method
from repro.geo.trajectory import Trajectory
from repro.runtime.errors import CheckpointCorruptError, ContextValidationError
from repro.runtime.validate import validate_trajectory


class TestCheckpointCorruption:
    def test_missing_file_raises_structured_error(self, trained_gendt, tmp_path):
        model = copy.copy(trained_gendt)
        missing = tmp_path / "nope.npz"
        with pytest.raises(CheckpointCorruptError) as excinfo:
            model.load(missing)
        assert excinfo.value.path == str(missing)
        assert "not found" in str(excinfo.value)

    def test_garbage_file_raises_structured_error(self, trained_gendt, tmp_path):
        garbage = tmp_path / "garbage.npz"
        garbage.write_bytes(b"this is not an archive at all")
        model = copy.copy(trained_gendt)
        with pytest.raises(CheckpointCorruptError) as excinfo:
            model.load(garbage)
        assert excinfo.value.path == str(garbage)

    def test_kpi_mismatch_names_checkpoint_path(
        self, trained_gendt, tiny_dataset_a, tmp_path
    ):
        path = tmp_path / "model.ckpt"
        trained_gendt.save(path)
        other = GenDT(
            tiny_dataset_a.region,
            kpis=["rsrp", "rsrq", "sinr"],
            config=trained_gendt.config,
            seed=3,
        )
        with pytest.raises(ValueError) as excinfo:
            other.load(path)
        message = str(excinfo.value)
        assert str(path) in message
        assert "do not match" in message


class TestTransferValidation:
    def test_transfer_to_compatible_region_passes(
        self, trained_gendt, tiny_dataset_b
    ):
        transferred = transfer_model(trained_gendt, tiny_dataset_b.region)
        assert transferred.region is tiny_dataset_b.region

    def test_transfer_rejects_mismatched_env_taxonomy(
        self, trained_gendt, tiny_dataset_b
    ):
        region = copy.copy(tiny_dataset_b.region)
        # A region built against a narrower land-use taxonomy: drop a class.
        region.land_use = copy.copy(region.land_use)
        region.land_use.fractions = region.land_use.fractions[..., :-1]
        with pytest.raises(ContextValidationError) as excinfo:
            transfer_model(trained_gendt, region)
        message = str(excinfo.value)
        assert "environment features" in message
        assert "n_env" in message

    def test_unfitted_model_still_requires_fit_first(self, tiny_dataset_a):
        model = GenDT(
            tiny_dataset_a.region,
            kpis=["rsrp", "rsrq"],
            config=small_config(epochs=1),
        )
        with pytest.raises(RuntimeError, match="fit"):
            transfer_model(model, tiny_dataset_a.region)


class TestValidateEdgeCases:
    def test_empty_trajectory_rejected(self):
        empty = Trajectory(np.zeros(0), np.zeros(0), np.zeros(0))
        with pytest.raises(ContextValidationError, match="empty"):
            validate_trajectory(empty)

    def test_single_point_trajectory_passes(self):
        single = Trajectory(np.array([0.0]), np.array([51.5]), np.array([-0.1]))
        validate_trajectory(single)  # no pairwise timestamp check to trip

    def test_single_point_nan_coordinate_rejected(self):
        single = Trajectory(np.array([0.0]), np.array([np.nan]), np.array([-0.1]))
        with pytest.raises(ContextValidationError) as excinfo:
            validate_trajectory(single)
        assert excinfo.value.index == 0

    def test_nan_timestamp_rejected_with_index(self):
        trajectory = Trajectory(
            np.array([0.0, 1.0, 2.0]),
            np.array([51.5, 51.5, 51.5]),
            np.array([-0.1, -0.1, -0.1]),
        )
        trajectory.t = trajectory.t.copy()
        trajectory.t[1] = np.nan
        with pytest.raises(ContextValidationError) as excinfo:
            validate_trajectory(trajectory)
        assert excinfo.value.index == 1

    def test_inf_coordinate_rejected(self):
        trajectory = Trajectory(
            np.array([0.0, 1.0]),
            np.array([51.5, np.inf]),
            np.array([-0.1, -0.1]),
        )
        with pytest.raises(ContextValidationError) as excinfo:
            validate_trajectory(trajectory)
        assert excinfo.value.index == 1


class TestSparseMeasurementLayouts:
    def test_concat_same_kpi_preserves_layout(self):
        a = SparseMeasurements(
            np.array([51.5]), np.array([-0.1]), np.array([-80.0]), kpi="rsrq"
        )
        b = SparseMeasurements(
            np.array([51.6]), np.array([-0.2]), np.array([-75.0]), kpi="rsrq"
        )
        merged = a.concat(b)
        assert merged.kpi == "rsrq"
        assert len(merged) == 2
        np.testing.assert_array_equal(merged.value, [-80.0, -75.0])

    def test_concat_mismatched_kpi_layouts_rejected_both_ways(self):
        rsrp = SparseMeasurements(
            np.array([51.5]), np.array([-0.1]), np.array([-80.0]), kpi="rsrp"
        )
        sinr = SparseMeasurements(
            np.array([51.5]), np.array([-0.1]), np.array([12.0]), kpi="sinr"
        )
        with pytest.raises(ValueError, match="different KPIs"):
            rsrp.concat(sinr)
        with pytest.raises(ValueError, match="different KPIs"):
            sinr.concat(rsrp)

    def test_concat_with_empty_same_kpi_is_identity(self):
        empty = SparseMeasurements(np.zeros(0), np.zeros(0), np.zeros(0), kpi="rsrp")
        full = SparseMeasurements(
            np.array([51.5]), np.array([-0.1]), np.array([-80.0]), kpi="rsrp"
        )
        merged = empty.concat(full)
        assert len(merged) == 1
        assert merged.kpi == "rsrp"


class TestHarnessSkip:
    def _records(self, tiny_split):
        return tiny_split.test[:3]

    def test_skip_mode_quarantines_failures_and_continues(self, tiny_split):
        records = self._records(tiny_split)
        calls = {"n": 0}

        def flaky_generate(trajectory):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("simulated generator crash")
            return np.zeros((len(trajectory), 2))

        result = evaluate_method(
            "flaky", flaky_generate, records, ["rsrp", "rsrq"], on_error="skip"
        )
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure["record"] == 1
        assert "RuntimeError" in failure["error"]
        # The surviving records still produced metrics.
        assert result.per_scenario

    def test_raise_mode_is_default_and_propagates(self, tiny_split):
        records = self._records(tiny_split)

        def broken_generate(trajectory):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            evaluate_method("broken", broken_generate, records, ["rsrp", "rsrq"])

    def test_shape_mismatch_is_skippable(self, tiny_split):
        records = self._records(tiny_split)

        def wrong_shape(trajectory):
            return np.zeros((len(trajectory) + 5, 2))

        result = evaluate_method(
            "short", wrong_shape, records, ["rsrp", "rsrq"], on_error="skip"
        )
        assert len(result.failures) == len(records)
        assert not result.per_scenario

    def test_invalid_on_error_rejected(self, tiny_split):
        with pytest.raises(ValueError, match="on_error"):
            evaluate_method(
                "x", lambda t: None, [], ["rsrp"], on_error="ignore"
            )


class TestFDaSReseed:
    def test_reseed_reproduces_samples(self, tiny_split):
        fdas = FDaS(kpis=["rsrp", "rsrq"], seed=0)
        fdas.fit(tiny_split.train)
        trajectory = tiny_split.test[0].trajectory
        first = fdas.generate(trajectory)
        second = fdas.generate(trajectory)  # RNG advanced: different draw
        assert not np.array_equal(first, second)
        fdas.reseed(0)
        replay = fdas.generate(trajectory)
        np.testing.assert_array_equal(first, replay)

    def test_reseed_keeps_fits(self, tiny_split):
        fdas = FDaS(kpis=["rsrp", "rsrq"], seed=0)
        fdas.fit(tiny_split.train)
        fits_before = dict(fdas.fits)
        fdas.reseed(99)
        assert fdas.fits == fits_before
