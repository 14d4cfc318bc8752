"""High-level GenDT API: fit on drive-test records, generate for trajectories.

This is the public face of the reproduction: an operator-style workflow of

>>> model = GenDT(region, kpis=["rsrp", "rsrq"], config=small_config(), seed=0)
>>> model.fit(train_records)
>>> series = model.generate(new_trajectory, seed=1)   # [T, n_kpis], real units

mirroring paper Figure 5 (input: trajectory; the model annotates it with
network + environment context internally; output: multi-KPI time series).
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..context.extract import ContextConfig
from ..context.normalize import (
    CellFeatureTransform,
    EnvFeatureNormalizer,
    TargetNormalizer,
)
from ..context.windows import ContextBuilder, ContextWindow
from ..geo.trajectory import Trajectory
from ..radio.kpis import KPI, KpiSpec
from ..radio.simulator import DriveTestRecord
from ..world.region import Region
from ..runtime.checkpoint import read_checkpoint, write_checkpoint
from ..runtime.errors import CheckpointCorruptError
from ..runtime.guards import HealthGuard
from ..runtime.validate import validate_trajectory, validate_windows
from .config import GenDTConfig
from .features import ModelBatch, WindowAssembler
from .generator import GenDTGenerator, WindowHook
from .training import GenDTTrainer, TrainingHistory, make_minibatches


class GenDT:
    """GenDT model bound to a region's cell database and environment data."""

    def __init__(
        self,
        region: Region,
        kpis: Sequence[Union[str, KPI]] = ("rsrp", "rsrq", "sinr", "cqi"),
        config: Optional[GenDTConfig] = None,
        seed: int = 0,
        context_config: Optional[ContextConfig] = None,
    ) -> None:
        self.region = region
        self.kpi_spec = KpiSpec([KPI(k) for k in kpis])
        self.config = config or GenDTConfig()
        self.config.validate()
        self.rng = np.random.default_rng(seed)
        ctx = context_config or ContextConfig(max_cells=self.config.max_cells)
        self.context = ContextBuilder(region, ctx)
        self.cell_transform = CellFeatureTransform(region.frame)
        self.env_normalizer = EnvFeatureNormalizer()
        self.target_normalizer = TargetNormalizer()
        self.generator: Optional[GenDTGenerator] = None
        self.trainer: Optional[GenDTTrainer] = None
        self._fitted = False
        self._n_env: Optional[int] = None

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    @property
    def kpi_names(self) -> List[str]:
        return self.kpi_spec.names()

    def _batch_len(self, n_samples: int) -> int:
        if self.config.batch_len is None:
            return n_samples  # one-shot (the "No batch" ablation)
        return self.config.batch_len

    def build_training_windows(
        self, records: Sequence[DriveTestRecord]
    ) -> List[ContextWindow]:
        """Overlapping context windows with targets (paper Fig. 8a)."""
        min_len = min(len(r) for r in records)
        length = min(self._batch_len(min_len), min_len)
        step = self.config.train_step if self.config.batch_len is not None else length
        return self.context.training_windows(records, self.kpi_names, length, step)

    def fit(
        self,
        records: Sequence[DriveTestRecord],
        epochs: Optional[int] = None,
        verbose: bool = False,
        guard: Optional[HealthGuard] = None,
        checkpoint_every: Optional[int] = None,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        keep_last: int = 3,
        resume_from: Optional[Union[str, Path]] = None,
        detect_anomaly: bool = False,
    ) -> TrainingHistory:
        """Fit the generator (and refit normalizers) on measurement records.

        Fault-tolerance hooks (all optional, see :mod:`repro.runtime`):
        ``guard`` watches every step for numerical trouble and rolls back;
        ``checkpoint_every``/``checkpoint_dir``/``keep_last`` write atomic
        epoch checkpoints with rotating retention; ``resume_from`` restores
        one and continues bit-exactly — everything before the epoch loop
        (normalizer fits, weight init, minibatch shuffling) is deterministic
        under the model seed, and the checkpoint restores the RNG state the
        interrupted run had at that epoch boundary.  ``detect_anomaly``
        trains under :func:`repro.nn.detect_anomaly`, failing fast at the op
        that first produces a NaN/Inf.
        """
        if not records:
            raise ValueError("no training records")
        stacked_targets = np.concatenate(
            [r.kpi_matrix(self.kpi_names) for r in records], axis=0
        )
        self.target_normalizer.fit(stacked_targets)
        windows = self.build_training_windows(records)
        env_stack = np.concatenate([w.env_features for w in windows], axis=0)
        self.env_normalizer.fit(env_stack)

        from .features import N_KINEMATIC_FEATURES

        n_env = windows[0].env_features.shape[-1] + N_KINEMATIC_FEATURES
        self._install_generator(n_env)
        # One-shot symbolic shape/dtype + gradient-flow check before any
        # training compute; restores all RNG streams, so training is
        # bit-identical to a run without it.
        self._verify_generator()
        batches = make_minibatches(
            self._assembler(), windows, self.config.minibatch_windows, self.rng
        )
        history = self.trainer.fit(
            batches,
            epochs=epochs,
            verbose=verbose,
            guard=guard,
            checkpoint_every=checkpoint_every,
            checkpoint_dir=checkpoint_dir,
            keep_last=keep_last,
            resume_from=resume_from,
            checkpoint_meta=self._checkpoint_meta(),
            detect_anomaly=detect_anomaly,
        )
        self._fitted = True
        return history

    def continue_fit(
        self,
        records: Sequence[DriveTestRecord],
        epochs: int,
        verbose: bool = False,
        detect_anomaly: bool = False,
    ) -> TrainingHistory:
        """Additional training passes on new records, keeping current weights.

        Used by the active-learning loop (§6.2): normalizers stay fixed so
        the generated scale remains consistent across retraining rounds.
        """
        self._require_fitted()
        windows = self.build_training_windows(records)
        batches = make_minibatches(
            self._assembler(), windows, self.config.minibatch_windows, self.rng
        )
        return self.trainer.fit(
            batches, epochs=epochs, verbose=verbose, detect_anomaly=detect_anomaly
        )

    def _install_generator(
        self, n_env: int, state: Optional[Dict[str, np.ndarray]] = None
    ) -> None:
        """Build a generator and its trainer, load ``state`` into it, install both.

        RNG order: generator init, then discriminator init.  Nothing on
        ``self`` changes until ``load_state_dict`` has succeeded: weights
        that do not fit keep a fitted model's generator, trainer and RNG
        state.
        """
        rng_state = self.rng.bit_generator.state
        generator = GenDTGenerator(
            n_channels=self.kpi_spec.n_channels,
            n_env=n_env,
            config=self.config,
            rng=self.rng,
        )
        trainer = GenDTTrainer(generator, self.config, self.rng)
        if state is not None:
            try:
                generator.load_state_dict(state)
            except (KeyError, ValueError):
                self.rng.bit_generator.state = rng_state
                raise
        self.generator, self.trainer, self._n_env = generator, trainer, n_env

    def _assembler(self) -> WindowAssembler:
        return WindowAssembler(
            self.cell_transform,
            self.env_normalizer,
            self.target_normalizer,
            self.config.max_cells,
        )

    def _require_fitted(self) -> None:
        if not self._fitted or self.generator is None:
            raise RuntimeError("model must be fit before use")

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------
    def generate_normalized(
        self,
        trajectory: Trajectory,
        first_stage_only: bool = False,
        window_hook: Optional[WindowHook] = None,
    ) -> Dict[str, np.ndarray]:
        """Generate in normalized space; used internally and by uncertainty.

        All generation windows are assembled into one batch and generated by
        one :meth:`GenDTGenerator.generate_batch` call: the first stage runs
        over every window at once and ResGen's residual chain walks the
        windows in order.  ``first_stage_only`` and ``window_hook`` are
        passed on to that call (see there); the serving layer
        (:mod:`repro.serving`) uses the hook for per-window deadline checks
        and deterministic fault injection.

        Returns {"series", "mu", "sigma"}, each [T, N_ch]: the series and
        ResGen's Gaussian parameters (NaN where ResGen did not run).
        """
        self._require_fitted()
        validate_trajectory(trajectory)
        length = self._batch_len(len(trajectory))
        windows = self.context.generation_windows(trajectory, length)
        validate_windows(windows)
        batch = self._assembler().assemble(windows, with_target=False)
        out, params = self.generator.generate_batch(
            batch, first_stage_only=first_stage_only, window_hook=window_hook
        )
        series = np.full((len(trajectory), self.kpi_spec.n_channels), np.nan)
        mu = np.full_like(series, np.nan)
        sigma = np.full_like(series, np.nan)
        for index, window in enumerate(windows):
            start, stop = window.start, window.start + window.length
            series[start:stop] = out[index]
            if params is not None:
                mu[start:stop] = params["mu"][index]
                sigma[start:stop] = params["sigma"][index]
        return {"series": series, "mu": mu, "sigma": sigma}

    def generate(
        self,
        trajectory: Trajectory,
        first_stage_only: bool = False,
        window_hook: Optional[WindowHook] = None,
    ) -> np.ndarray:
        """Generate the KPI time series for a trajectory, in physical units.

        Returns [T, n_kpis], channels ordered as ``self.kpi_names``; values
        are clipped to physical KPI ranges (CQI snapped to integers).

        This call is all-or-nothing: a bad trajectory raises
        :class:`~repro.runtime.errors.ContextValidationError` and a mid-run
        fault aborts the series.  For batch workloads that must survive
        individual failures — quarantine, deadlines, circuit breaking, and
        degraded-but-valid fallbacks — use
        :class:`repro.serving.CampaignRunner`, which wraps this method (via
        ``window_hook``/``first_stage_only``) in the resilient serving
        runtime.
        """
        normalized = self.generate_normalized(
            trajectory, first_stage_only=first_stage_only, window_hook=window_hook
        )
        series = self.target_normalizer.denormalize(normalized["series"])
        return self._clip(series)

    def generate_samples(self, trajectory: Trajectory, n_samples: int) -> np.ndarray:
        """Multiple independent generations, [n_samples, T, n_kpis]."""
        return np.stack([self.generate(trajectory) for _ in range(n_samples)])

    def generate_expected(self, trajectory: Trajectory, n_samples: int = 4) -> np.ndarray:
        """Monte-Carlo estimate of the *conditional mean* KPI series.

        Averages several stochastic generations before clipping.  Use this
        when the series feeds a downstream regressor (e.g. the QoE
        predictor): the regression-optimal input is E[x | context], whereas
        :meth:`generate` returns one stochastic draw whose sampling noise
        would propagate into the downstream prediction.
        """
        draws = [
            self.target_normalizer.denormalize(
                self.generate_normalized(trajectory)["series"]
            )
            for _ in range(n_samples)
        ]
        return self._clip(np.mean(draws, axis=0))

    def _clip(self, series: np.ndarray) -> np.ndarray:
        clipped = self.kpi_spec.clip(series)
        # Serving-cell channel (handover use case): snap to integers.
        for idx, kpi in enumerate(self.kpi_spec.kpis):
            if kpi == KPI.SERVING_CELL:
                clipped[:, idx] = np.round(clipped[:, idx])
        return clipped

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def _checkpoint_meta(self) -> Dict:
        """Model-level checkpoint metadata (KPIs, config, normalizers)."""
        return {
            "kpis": self.kpi_names,
            "config": asdict(self.config),
            "n_env": self._n_env,
            "env_normalizer": {
                k: v.tolist() for k, v in self.env_normalizer.state().items()
            },
            "target_normalizer": {
                k: v.tolist() for k, v in self.target_normalizer.state().items()
            },
        }

    def save(self, path: Union[str, Path]) -> None:
        """Serialize generator weights and normalizer state.

        Writes an atomic, SHA-256-checksummed checkpoint (see
        :mod:`repro.runtime.checkpoint`); a torn write or a later bit-flip
        is detected at load time instead of producing garbage weights.
        """
        self._require_fitted()
        meta = dict(self._checkpoint_meta(), kind="model")
        arrays = {
            f"model.{name}": value
            for name, value in self.generator.state_dict().items()
        }
        write_checkpoint(path, arrays, meta)

    def _verify_generator(self) -> None:
        """Symbolically verify the generator graph (raises on violation)."""
        from ..analysis.graph import verify

        verify(self.generator, raise_on_error=True)

    @classmethod
    def from_checkpoint(
        cls, path: Union[str, Path], region: Region, seed: int = 0
    ) -> "GenDT":
        """Rebuild a model saved with :meth:`save` from the checkpoint alone.

        The KPIs and the :class:`GenDTConfig` come from the checkpoint's
        metadata; the result is ``GenDT(region, kpis, config, seed)`` after
        :meth:`load`.

        Raises:
            CheckpointCorruptError: the file is missing, fails checksum
                verification or records no model config — always carrying
                the offending path.
        """
        arrays, meta = read_checkpoint(path)
        if "config" not in meta:
            raise CheckpointCorruptError(
                "checkpoint records no model config", path=str(path)
            )
        fields = dict(meta["config"])
        fields["resgen_hidden"] = tuple(fields["resgen_hidden"])
        model = cls(region, kpis=meta["kpis"], config=GenDTConfig(**fields), seed=seed)
        model._restore(path, arrays, meta)
        return model

    def load(self, path: Union[str, Path]) -> None:
        """Restore a model saved with :meth:`save` into this instance.

        The weights must fit this model's config; to rebuild a model from
        the checkpoint's own KPIs and config use :meth:`from_checkpoint`.
        If the weights do not fit, the current weights, trainer,
        normalizers and RNG state are kept.

        Raises:
            CheckpointCorruptError: the file is missing or fails checksum
                verification — always carrying the offending path.
            ValueError: the checkpoint's KPI list does not match this
                model's (message names the checkpoint path), or its weights
                do not fit this model's config.
        """
        self._restore(path, *read_checkpoint(path))

    def _restore(self, path: Union[str, Path], arrays: Dict, meta: Dict) -> None:
        """Install a verified checkpoint's weights and normalizers (``load``)."""
        # Validate KPI compatibility before instantiating the generator:
        # a channel-count mismatch would otherwise surface as an opaque
        # weight-shape error from load_state_dict.
        if meta.get("kpis") != self.kpi_names:
            raise ValueError(
                f"checkpoint {path}: KPIs {meta.get('kpis')} do not match "
                f"model {self.kpi_names}"
            )
        state = {
            name.partition(".")[2]: value
            for name, value in arrays.items()
            if name.startswith("model.")
        }
        env_normalizer = EnvFeatureNormalizer.from_state(
            {k: np.asarray(v) for k, v in meta["env_normalizer"].items()}
        )
        target_normalizer = TargetNormalizer.from_state(
            {k: np.asarray(v) for k, v in meta["target_normalizer"].items()}
        )
        self._install_generator(int(meta["n_env"]), state)
        self.env_normalizer, self.target_normalizer = env_normalizer, target_normalizer
        # Catches weight/config mismatches (e.g. a changed AR window) that
        # pass load_state_dict but would mis-broadcast at runtime.
        self._verify_generator()
        self._fitted = True
