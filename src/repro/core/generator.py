"""The full GenDT generator: G_n + G_a + G_r assembled (paper Figure 6)."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .. import nn
from ..analysis.graph.spec import ANY, Spec, contract
from ..nn.tensor import Tensor, concat
from ..context.normalize import N_CELL_FEATURES
from .config import GenDTConfig
from .features import ModelBatch, recent_values_matrix
from .networks import AggregationNetwork, GnnNodeNetwork, ResGen

#: ``window_hook(index, out)``: called with each generation window's output.
WindowHook = Callable[[int, np.ndarray], Optional[np.ndarray]]


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
    state from one generation window to the next (that is what keeps long
    series coherent, §4.3.3).
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
        first_stage_only: bool = False,
        window_hook: Optional[WindowHook] = None,
    ) -> Tuple[np.ndarray, Optional[Dict[str, np.ndarray]]]:
        """Generate the B windows of ``batch`` as one trajectory's windows, in order.

        ``G_n`` and ``G_a`` carry nothing from one window to the next, so
        they run once over all B windows.  One ResGen chain then walks the
        windows in order: its autoregressive residual state starts at zeros
        and carries from each window's last step into the next window's
        first step.

        Args:
            batch: consecutive generation windows of one trajectory
                (targets ignored).
            first_stage_only: turn the SRNN noise off, skip ResGen residual
                sampling and return the ``G_n`` + ``G_a`` base output only:
                the deterministic middle rung of the serving degradation
                ladder (:mod:`repro.serving`).
            window_hook: ``window_hook(index, out)`` is called with each
                window's [L, N_ch] output after that window's ResGen steps
                and before the next window's; a returned array replaces the
                window's output (the residual state is unaffected), and an
                exception aborts generation.

        Random draws, in order, from ``self.rng`` (R = B * max_cells rows):

        1. ``z0``: normal [R, L, n_noise_node];
        2. ``G_n`` SRNN uniforms [L, 2, R, H], unless the noise is off;
        3. ``G_a`` SRNN uniforms [L, 2, B, H], unless the noise is off;
        4. unless ResGen is skipped, for each window and then each step:
           ``z1`` normal [1, n_noise_resgen], the dropout mask uniforms
           [1, resgen_hidden[-1]] when dropout is active, and ``eps``
           normal [1, N_ch].

        Returns:
            (generated [B, L, N_ch] in normalized space,
             ResGen's {"mu": [B, L, N_ch], "sigma": [B, L, N_ch]}, or None
             when ResGen did not run).
        """
        stochastic = False if first_stage_only else None
        with nn.no_grad():
            h_avg = self.h_avg(batch, stochastic=stochastic)
            base = self.agg_net(h_avg, stochastic=stochastic).numpy()
            n_windows, length, n_ch = base.shape
            if self.resgen is None or first_stage_only:
                output, params = base, None
            else:
                output = np.empty_like(base)
                params = {"mu": np.empty_like(base), "sigma": np.empty_like(base)}
                m = self.resgen.ar_window
                state = np.zeros((1, m, n_ch))
            for w in range(n_windows):
                if params is not None:
                    for t in range(length):
                        env_t = Tensor(batch.env[w : w + 1, t, :])
                        recent_t = Tensor(state.reshape(1, m * n_ch))
                        residual, mu, log_sigma = self.resgen.sample(env_t, recent_t)
                        residual_np = np.clip(residual.numpy(), -5.0, 5.0)
                        output[w, t] = base[w, t] + residual_np[0]
                        params["mu"][w, t] = mu.numpy()[0]
                        params["sigma"][w, t] = np.exp(log_sigma.numpy()[0])
                        state = np.concatenate(
                            [state[:, 1:], residual_np[:, None, :]], axis=1
                        )
                if window_hook is not None:
                    replaced = window_hook(w, output[w])
                    if replaced is not None:
                        output[w] = replaced
            return output, params
