"""retry(): backoff semantics; validate: generation-boundary input checks."""

import numpy as np
import pytest

from repro.geo.trajectory import Trajectory
from repro.runtime import (
    ContextValidationError,
    backoff_schedule,
    retry,
    validate_route,
    validate_trajectory,
    validate_windows,
)


class TestRetry:
    def test_success_first_try_no_sleep(self):
        slept = []
        assert retry(lambda: 7, retries=3, sleep=slept.append) == 7
        assert slept == []

    def test_fails_then_succeeds(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise RuntimeError("transient")
            return "ok"

        slept = []
        assert retry(flaky, retries=2, backoff=0.1, sleep=slept.append) == "ok"
        assert calls["n"] == 3
        assert len(slept) == 2
        assert slept[1] > slept[0]  # exponential growth dominates jitter

    def test_budget_exhausted_reraises_last(self):
        def always_fails():
            raise KeyError("nope")

        with pytest.raises(KeyError):
            retry(always_fails, retries=2, sleep=None)

    def test_retry_on_filters_exception_types(self):
        def raises_type_error():
            raise TypeError("not retryable here")

        calls = {"n": 0}

        def counting():
            calls["n"] += 1
            raise TypeError("x")

        with pytest.raises(TypeError):
            retry(counting, retries=5, retry_on=(ValueError,), sleep=None)
        assert calls["n"] == 1  # no retries for a non-matching type

    def test_jitter_deterministic_per_seed(self):
        a = backoff_schedule(4, backoff=0.5, seed=13)
        b = backoff_schedule(4, backoff=0.5, seed=13)
        c = backoff_schedule(4, backoff=0.5, seed=14)
        assert a == b
        assert a != c
        # Exponential envelope with 25% jitter.
        for k, delay in enumerate(a):
            assert 0.75 * 0.5 * 2**k <= delay <= 1.25 * 0.5 * 2**k

    def test_on_retry_callback_sees_schedule(self):
        seen = []

        def fails():
            raise RuntimeError("x")

        with pytest.raises(RuntimeError):
            retry(
                fails, retries=2, backoff=1.0, jitter=0.0, sleep=None,
                on_retry=lambda attempt, exc, delay: seen.append((attempt, delay)),
            )
        assert seen == [(0, 1.0), (1, 2.0)]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            retry(lambda: 1, retries=-1)
        with pytest.raises(ValueError):
            retry(lambda: 1, backoff=-0.1)
        with pytest.raises(ValueError):
            retry(lambda: 1, jitter=1.5)


def _trajectory(t, lat, lon):
    traj = Trajectory.__new__(Trajectory)
    traj.t = np.asarray(t, dtype=float)
    traj.lat = np.asarray(lat, dtype=float)
    traj.lon = np.asarray(lon, dtype=float)
    traj.scenario = "test"
    return traj


class TestValidateTrajectory:
    def test_valid_passes(self):
        validate_trajectory(_trajectory([0, 1, 2], [51.5, 51.5, 51.5], [-0.1, -0.1, -0.1]))

    def test_empty_rejected(self):
        with pytest.raises(ContextValidationError) as excinfo:
            validate_trajectory(_trajectory([], [], []))
        assert excinfo.value.index == -1

    def test_nan_coordinate_reports_index(self):
        with pytest.raises(ContextValidationError) as excinfo:
            validate_trajectory(
                _trajectory([0, 1, 2], [51.5, np.nan, 51.5], [-0.1, -0.1, -0.1])
            )
        assert excinfo.value.index == 1

    def test_non_monotonic_timestamps_report_index(self):
        with pytest.raises(ContextValidationError) as excinfo:
            validate_trajectory(
                _trajectory([0, 2, 1], [51.5, 51.5, 51.5], [-0.1, -0.1, -0.1])
            )
        assert excinfo.value.index == 2

    def test_out_of_range_coordinates_rejected(self):
        with pytest.raises(ContextValidationError) as excinfo:
            validate_trajectory(
                _trajectory([0, 1], [51.5, 123.0], [-0.1, -0.1])
            )
        assert excinfo.value.index == 1

    def test_generation_boundary_rejects_bad_trajectory(self, trained_gendt):
        bad = _trajectory([0, 1, 2], [51.5, np.inf, 51.5], [-0.1, -0.1, -0.1])
        with pytest.raises(ContextValidationError):
            trained_gendt.generate(bad)


class TestValidateRoute:
    def test_empty_route_rejected(self):
        with pytest.raises(ContextValidationError):
            validate_route([])

    def test_nan_waypoint_reports_index(self):
        with pytest.raises(ContextValidationError) as excinfo:
            validate_route([(51.5, -0.1), (np.nan, -0.1)])
        assert excinfo.value.index == 1

    def test_valid_route_passes(self):
        validate_route([(51.5, -0.1), (51.6, -0.2)])


class TestValidateWindows:
    def test_zero_cell_window_tolerated_and_reported(self, trained_gendt, tiny_split):
        windows = trained_gendt.build_training_windows(tiny_split.train[:1])[:2]
        # Simulate a total coverage hole in window 1.
        hole = windows[1]
        hole.cell_features = hole.cell_features[:, :0, :]
        hole.cell_ids = []
        empty = validate_windows(windows)
        assert empty == [1]

    def test_nonfinite_env_features_fatal(self, trained_gendt, tiny_split):
        windows = trained_gendt.build_training_windows(tiny_split.train[:1])[:1]
        windows[0].env_features = windows[0].env_features.copy()
        windows[0].env_features[0, 0] = np.nan
        with pytest.raises(ContextValidationError) as excinfo:
            validate_windows(windows)
        assert excinfo.value.index == 0

    def test_zero_cell_generation_degrades_not_crashes(self, trained_gendt, tiny_split):
        """The documented fallback: an all-padding batch mean-pools to zeros
        and generation still returns finite values."""
        windows = trained_gendt.build_training_windows(tiny_split.train[:1])[:1]
        hole = windows[0]
        hole.cell_features = hole.cell_features[:, :0, :]
        hole.cell_ids = []
        batch = trained_gendt._assembler().assemble([hole], with_target=True)
        assert batch.cell_mask.sum() == 0
        out, _ = trained_gendt.generator.generate_batch(batch)
        assert np.all(np.isfinite(out))
