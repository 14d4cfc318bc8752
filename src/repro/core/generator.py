"""The full GenDT generator: G_n + G_a + G_r assembled (paper Figure 6)."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import nn
from ..analysis.graph.spec import ANY, Spec, contract
from ..nn.tensor import Tensor, concat
from ..context.normalize import N_CELL_FEATURES
from .config import GenDTConfig
from .features import ModelBatch, recent_values_matrix
from .networks import AggregationNetwork, GnnNodeNetwork, ResGen


def _probe_batch(module: "GenDTGenerator", env) -> Tuple[tuple, dict]:
    """Symbolic probe ModelBatch for graph verification (fresh B, N_c, L)."""
    b = int(env.fresh("B"))
    n_c = int(env.fresh("N_c"))
    length = int(env.fresh("L"))
    batch = ModelBatch(
        cell_x=np.zeros((b, n_c, length, N_CELL_FEATURES)),
        cell_mask=np.ones((b, n_c)),
        env=np.zeros((b, length, module.n_env)),
        target=np.zeros((b, length, module.n_channels)),
        scenarios=["probe"] * b,
    )
    return (batch,), {}


@contract(
    method="forward_teacher_forced",
    inputs={"batch": ANY},
    outputs={
        "h_avg": Spec("B", "L", "H"),
        "base": Spec("B", "L", "N_ch"),
        "output": Spec("B", "L", "N_ch"),
        "mu": Spec("B", "L", "N_ch"),
        "log_sigma": Spec("B", "L", "N_ch"),
    },
    dims={"H": "config.hidden_size", "N_ch": "n_channels", "N_env": "n_env"},
    build_inputs=_probe_batch,
)
class GenDTGenerator(nn.Module):
    """Conditional neural sampler ``p_theta(x | c)``.

    Forward pass (one minibatch of windows):

    1. every (padded) cell's transformed feature series goes through the
       shared node LSTM ``G_n`` -> per-cell hidden series,
    2. masked mean over cells -> graph representation ``h_avg`` [B, L, H],
    3. the aggregation LSTM + head ``G_a`` -> base KPI series [B, L, N_ch],
    4. ``G_r`` (ResGen) adds a Gaussian residual conditioned on environment
       context, noise and the last ``m`` KPI values.

    During training ResGen is teacher-forced with the real recent values;
    during generation it consumes its own output autoregressively, carrying
    state across generation batches (that is what keeps long series
    coherent, §4.3.3).
    """

    def __init__(
        self,
        n_channels: int,
        n_env: int,
        config: GenDTConfig,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        config.validate()
        self.config = config
        self.n_channels = n_channels
        self.n_env = n_env
        self.node_net = GnnNodeNetwork(N_CELL_FEATURES, config, rng)
        self.agg_net = AggregationNetwork(n_channels, config, rng)
        if config.use_resgen:
            self.resgen: Optional[ResGen] = ResGen(n_env, n_channels, config, rng)
        else:
            self.resgen = None
        self.rng = rng

    # ------------------------------------------------------------------
    # Shared first stage
    # ------------------------------------------------------------------
    def h_avg(self, batch: ModelBatch, stochastic: Optional[bool] = None) -> Tensor:
        """Graph-level hidden series [B, L, H] from the cell context."""
        b, n_cells, length, n_feat = batch.cell_x.shape
        flat = Tensor(batch.cell_x.reshape(b * n_cells, length, n_feat))
        hidden = self.node_net(flat, stochastic=stochastic)
        h = hidden.reshape(b, n_cells, length, hidden.shape[-1])
        mask = batch.cell_mask[:, :, None, None]
        counts = np.maximum(batch.cell_mask.sum(axis=1), 1.0)[:, None, None]
        masked = h * Tensor(mask)
        return masked.sum(axis=1) * Tensor(1.0 / counts)

    # ------------------------------------------------------------------
    # Training-time forward (teacher forcing)
    # ------------------------------------------------------------------
    def forward_teacher_forced(self, batch: ModelBatch) -> Dict[str, Tensor]:
        """Generate with real recent values feeding ResGen (training mode)."""
        if batch.target is None:
            raise ValueError("teacher forcing requires targets")
        h_avg = self.h_avg(batch)
        base = self.agg_net(h_avg)
        out: Dict[str, Tensor] = {"h_avg": h_avg, "base": base}
        if self.resgen is not None:
            # ResGen is autoregressive over the *residual* process
            # (target - base): the residual is stationary (shadowing-like),
            # so the learned feedback stays stable when the model consumes
            # its own outputs at generation time.
            residual_real = batch.target - base.numpy()
            recent = recent_values_matrix(residual_real, self.resgen.ar_window)
            residual, mu, log_sigma = self.resgen.sample(
                Tensor(batch.env), Tensor(recent)
            )
            out["output"] = base + residual
            out["mu"] = mu
            out["log_sigma"] = log_sigma
        else:
            out["output"] = base
        return out

    # ------------------------------------------------------------------
    # Generation-time forward (autoregressive)
    # ------------------------------------------------------------------
    def generate_batch(
        self,
        batch: ModelBatch,
        ar_state: Optional[np.ndarray] = None,
        first_stage_only: bool = False,
    ) -> Tuple[np.ndarray, np.ndarray, Optional[Dict[str, np.ndarray]]]:
        """Generate one batch of windows autoregressively.

        Args:
            batch: assembled windows (targets ignored).
            ar_state: [B, m, N_ch] recent *residual* values carried from the
                previous generation batch (zeros at trajectory start).
            first_stage_only: turn the SRNN noise off, skip ResGen residual
                sampling and return the ``G_n`` + ``G_a`` base output only:
                the deterministic middle rung of the serving degradation
                ladder (:mod:`repro.serving`).

        Returns:
            (generated [B, L, N_ch] in normalized space,
             new ar_state [B, m, N_ch],
             ResGen's {"mu": [B, L, N_ch], "sigma": [B, L, N_ch]}, or None
             when ResGen did not run).
        """
        stochastic = False if first_stage_only else None
        with nn.no_grad():
            h_avg = self.h_avg(batch, stochastic=stochastic)
            base = self.agg_net(h_avg, stochastic=stochastic)
            base_np = base.numpy()
            b, length, n_ch = base_np.shape
            m = self.resgen.ar_window if self.resgen is not None else 1
            if ar_state is None:
                ar_state = np.zeros((b, m, n_ch))
            if self.resgen is None or first_stage_only:
                new_state = np.concatenate([ar_state, base_np], axis=1)[:, -m:]
                return base_np, new_state, None

            output = np.empty_like(base_np)
            params_mu = np.empty_like(base_np)
            params_sigma = np.empty_like(base_np)
            state = ar_state.copy()
            for t in range(length):
                env_t = Tensor(batch.env[:, t, :])
                recent_t = Tensor(state.reshape(b, m * n_ch))
                residual, mu, log_sigma = self.resgen.sample(env_t, recent_t)
                residual_np = np.clip(residual.numpy(), -5.0, 5.0)
                output[:, t] = base_np[:, t] + residual_np
                params_mu[:, t] = mu.numpy()
                params_sigma[:, t] = np.exp(log_sigma.numpy())
                state = np.concatenate(
                    [state[:, 1:], residual_np[:, None, :]], axis=1
                )
            return output, state, {"mu": params_mu, "sigma": params_sigma}
