"""Self-describing checkpoints, atomic loads and the one generation mode switch."""

import numpy as np
import pytest

from repro.cli import build_parser
from repro.core import GenDT, small_config
from repro.runtime import CheckpointCorruptError, read_checkpoint, write_checkpoint

THREE_KPIS = ["rsrp", "rsrq", "sinr"]


def _fit_and_save(dataset, split, kpis, path, hidden_size=10):
    config = small_config(epochs=1, hidden_size=hidden_size, batch_len=20, train_step=10)
    model = GenDT(dataset.region, kpis=kpis, config=config, seed=4)
    model.fit(split.train)
    model.save(path)
    return model


class TestFromCheckpoint:
    def test_rebuilds_config_and_generates_identically(
        self, tiny_dataset_a, tiny_split, tmp_path
    ):
        path = tmp_path / "m.gendt"
        trained = _fit_and_save(tiny_dataset_a, tiny_split, THREE_KPIS, path)
        trajectory = tiny_split.test[0].trajectory

        restored = GenDT.from_checkpoint(path, tiny_dataset_a.region, seed=9)
        explicit = GenDT(
            tiny_dataset_a.region, kpis=THREE_KPIS, config=trained.config, seed=9
        )
        explicit.load(path)

        assert restored.kpi_names == THREE_KPIS
        assert restored.config == trained.config
        assert (
            restored.generate(trajectory).tobytes()
            == explicit.generate(trajectory).tobytes()
        )

    def test_reads_and_verifies_the_file_once(self, trained_gendt, tmp_path, monkeypatch):
        import repro.core.model as model_module

        path = tmp_path / "m.gendt"
        trained_gendt.save(path)
        reads = []

        def counting_read(*args, **kwargs):
            reads.append(args)
            return read_checkpoint(*args, **kwargs)

        monkeypatch.setattr(model_module, "read_checkpoint", counting_read)
        restored = GenDT.from_checkpoint(path, trained_gendt.region)
        assert len(reads) == 1
        assert restored.kpi_names == trained_gendt.kpi_names

    def test_missing_config_is_corruption_naming_the_path(self, trained_gendt, tmp_path):
        path = tmp_path / "old.gendt"
        trained_gendt.save(path)
        arrays, meta = read_checkpoint(path)
        del meta["config"]
        write_checkpoint(path, arrays, meta)

        with pytest.raises(CheckpointCorruptError, match="no model config") as info:
            GenDT.from_checkpoint(path, trained_gendt.region)
        assert info.value.path == str(path)
        assert str(path) in str(info.value)


class TestFailedLoad:
    def test_failed_load_keeps_previous_generator(
        self, tiny_dataset_a, tiny_split, trained_gendt, tmp_path
    ):
        good = tmp_path / "h12.gendt"
        trained_gendt.save(good)
        model = GenDT(
            trained_gendt.region, kpis=["rsrp", "rsrq"], config=trained_gendt.config
        )
        model.load(good)
        mismatched = tmp_path / "h10.gendt"
        _fit_and_save(tiny_dataset_a, tiny_split, ["rsrp", "rsrq"], mismatched)

        generator, trainer = model.generator, model.trainer
        weights = {k: v.copy() for k, v in generator.state_dict().items()}
        rng_state = model.rng.bit_generator.state
        with pytest.raises(ValueError, match="shape mismatch"):
            model.load(mismatched)

        assert model.generator is generator and model.trainer is trainer
        assert model.rng.bit_generator.state == rng_state
        for name, value in model.generator.state_dict().items():
            np.testing.assert_array_equal(value, weights[name])
        assert model.config.hidden_size == 12


class TestGenerationParams:
    def test_mu_sigma_finite_in_full_mode_nan_in_first_stage(self, trained_gendt, tiny_split):
        trajectory = tiny_split.test[0].trajectory
        full = trained_gendt.generate_normalized(trajectory)
        first = trained_gendt.generate_normalized(trajectory, first_stage_only=True)
        for out in (full, first):
            assert out["mu"].shape == out["sigma"].shape == out["series"].shape
        assert np.all(np.isfinite(full["mu"])) and np.all(full["sigma"] > 0)
        assert np.all(np.isnan(first["mu"])) and np.all(np.isnan(first["sigma"]))
        assert np.all(np.isfinite(first["series"]))


@pytest.mark.parametrize("command", ["generate", "generate-campaign", "evaluate"])
@pytest.mark.parametrize("flag", ["--hidden", "--kpis"])
def test_checkpoint_commands_reject_model_flags(command, flag):
    with pytest.raises(SystemExit):
        build_parser().parse_args([command, "--checkpoint", "m.gendt", flag, "8"])
