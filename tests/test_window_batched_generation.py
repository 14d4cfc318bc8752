"""Window-batched generation: RNG contract, per-window equivalence, hook order.

``GenDT.generate_normalized`` assembles every generation window of a
trajectory into one batch and makes one ``generate_batch`` call: ``G_n`` +
``G_a`` run once over all windows and one ResGen chain walks them in order.
These tests pin the documented draw order, hold the batched run to a
per-window batch-1 reference fed the same noise, and check that the window
hook still fires between windows of the ResGen loop.
"""

import numpy as np
import pytest

from repro.nn.tensor import Tensor

from .generation_reference import RecordingRNG, generator_rng, per_window_generate


@pytest.fixture(scope="module")
def trajectory(tiny_split):
    # 110 samples at L = 20: five disjoint windows plus a tail window that
    # overlaps the fifth (starts 0, 20, ..., 80, 90).
    return tiny_split.test[0].trajectory.slice(0, 110)


def n_windows(model, trajectory):
    return len(model.context.generation_windows(trajectory, model.config.batch_len))


def documented_draws(rng, model, windows, length, first_stage_only):
    """Draw the shapes ``generate_batch`` documents, in the documented order."""
    cfg = model.config
    rows = windows * cfg.max_cells
    rng.normal(0.0, 1.0, size=(rows, length, cfg.n_noise_node))
    if cfg.use_stochastic_layers and not first_stage_only:
        rng.uniform(0.0, 1.0, size=(length, 2, rows, cfg.hidden_size))
        rng.uniform(0.0, 1.0, size=(length, 2, windows, cfg.hidden_size))
    if cfg.use_resgen and not first_stage_only:
        for _ in range(windows * length):
            rng.normal(0.0, 1.0, size=(1, cfg.n_noise_resgen))
            if cfg.resgen_dropout > 0.0:
                rng.random((1, cfg.resgen_hidden[-1]))
            rng.normal(0.0, 1.0, size=(1, model.kpi_spec.n_channels))


def rel_error(reference, actual):
    assert np.array_equal(np.isnan(reference), np.isnan(actual))
    finite = ~np.isnan(reference)
    scale = np.abs(reference[finite]).max()
    return np.abs(reference[finite] - actual[finite]).max() / scale


class TestRngContract:
    @pytest.mark.parametrize("first_stage_only", [False, True])
    def test_rng_state_matches_documented_draws(
        self, trained_gendt, trajectory, first_stage_only
    ):
        fresh = np.random.default_rng()
        fresh.bit_generator.state = trained_gendt.rng.bit_generator.state
        trained_gendt.generate_normalized(trajectory, first_stage_only=first_stage_only)
        documented_draws(
            fresh,
            trained_gendt,
            n_windows(trained_gendt, trajectory),
            trained_gendt.config.batch_len,
            first_stage_only,
        )
        assert fresh.bit_generator.state == trained_gendt.rng.bit_generator.state

    def test_one_batch_call_per_trajectory(self, trained_gendt, trajectory, monkeypatch):
        generator = trained_gendt.generator
        calls = []
        original = type(generator).generate_batch

        def counting(batch, **kwargs):
            calls.append(batch.n_windows)
            return original(generator, batch, **kwargs)

        monkeypatch.setattr(generator, "generate_batch", counting)
        trained_gendt.generate_normalized(trajectory)
        assert calls == [n_windows(trained_gendt, trajectory)]


class TestPerWindowEquivalence:
    @pytest.mark.parametrize("first_stage_only", [False, True])
    def test_batched_run_matches_per_window_reference(
        self, trained_gendt, trajectory, first_stage_only
    ):
        recorder = RecordingRNG(trained_gendt.rng)
        with generator_rng(trained_gendt.generator, recorder):
            batched = trained_gendt.generate_normalized(
                trajectory, first_stage_only=first_stage_only
            )
        reference = per_window_generate(
            trained_gendt, trajectory, recorder.draws, first_stage_only
        )
        assert not np.isnan(batched["series"]).any()
        for key in ("series", "mu", "sigma"):
            if first_stage_only and key != "series":
                assert np.isnan(batched[key]).all() and np.isnan(reference[key]).all()
                continue
            assert rel_error(reference[key], batched[key]) <= 1e-12, key


class TestWindowHook:
    def test_hook_fires_after_each_windows_resgen_steps(
        self, trained_gendt, trajectory, monkeypatch
    ):
        resgen = trained_gendt.generator.resgen
        samples = []
        original = type(resgen).sample

        def counting(env, recent):
            samples.append(1)
            return original(resgen, env, recent)

        monkeypatch.setattr(resgen, "sample", counting)
        seen = []
        trained_gendt.generate_normalized(
            trajectory, window_hook=lambda w, out: seen.append((w, len(samples)))
        )
        length = trained_gendt.config.batch_len
        windows = n_windows(trained_gendt, trajectory)
        assert seen == [(w, (w + 1) * length) for w in range(windows)]

    def test_replacement_changes_only_that_window(self, trained_gendt, trajectory):
        state = trained_gendt.rng.bit_generator.state
        plain = trained_gendt.generate_normalized(trajectory)["series"]
        trained_gendt.rng.bit_generator.state = state

        def zero_window_one(w, out):
            return np.zeros_like(out) if w == 1 else None

        replaced = trained_gendt.generate_normalized(
            trajectory, window_hook=zero_window_one
        )["series"]
        length = trained_gendt.config.batch_len
        window_one = slice(length, 2 * length)
        assert np.all(replaced[window_one] == 0.0)
        # The residual state carries ResGen's own residuals, not the
        # replacement, so every other window is unchanged.
        keep = np.ones(len(plain), dtype=bool)
        keep[window_one] = False
        np.testing.assert_array_equal(replaced[keep], plain[keep])


class TestResidualClip:
    def test_residual_clipped_into_output_and_state(
        self, trained_gendt, trajectory, monkeypatch
    ):
        """ResGen's residual is clipped to ±5 before it reaches the output
        and the autoregressive state, across window boundaries."""
        generator = trained_gendt.generator
        resgen = generator.resgen
        recents = []

        def huge(sign):
            def sample(env, recent):
                recents.append(recent.numpy().copy())
                zeros = Tensor(np.zeros((1, resgen.n_channels)))
                return Tensor(np.full((1, resgen.n_channels), sign * 100.0)), zeros, zeros

            return sample

        windows = trained_gendt.context.generation_windows(
            trajectory, trained_gendt.config.batch_len
        )
        batch = trained_gendt._assembler().assemble(windows, with_target=False)
        state = trained_gendt.rng.bit_generator.state
        outputs = {}
        for sign in (1.0, -1.0):
            trained_gendt.rng.bit_generator.state = state
            recents.clear()
            monkeypatch.setattr(resgen, "sample", huge(sign))
            outputs[sign], params = generator.generate_batch(batch)
            assert params["mu"].shape == outputs[sign].shape
            stacked = np.concatenate(recents)
            m = resgen.ar_window
            assert np.all(stacked[0] == 0.0)
            assert np.all(stacked[m:] == sign * 5.0)
        np.testing.assert_allclose(outputs[1.0] - outputs[-1.0], 10.0, rtol=1e-12)
