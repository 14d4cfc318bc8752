"""Tests for autodiff anomaly detection (repro.nn.anomaly).

Covers: forward NaN/Inf naming the creating op, backward gradient anomalies
naming the op whose backward produced them, module-path annotation, zero-cost
off mode (no raise, bit-identical training), and the trainer/CLI plumbing.
"""

import numpy as np
import pytest

from repro import nn
from repro.nn import NumericalAnomalyError, Tensor, detect_anomaly, is_anomaly_enabled


class TestContextManager:
    def test_toggles_and_restores(self):
        assert not is_anomaly_enabled()
        with detect_anomaly():
            assert is_anomaly_enabled()
            with detect_anomaly():
                assert is_anomaly_enabled()
            assert is_anomaly_enabled()
        assert not is_anomaly_enabled()

    def test_restores_on_error(self):
        with pytest.raises(NumericalAnomalyError):
            with detect_anomaly():
                Tensor([-1.0]).log()
        assert not is_anomaly_enabled()


class TestObserverSlot:
    """Anomaly detection and the symbolic tracer share one observer slot."""

    def test_verify_inside_detect_anomaly(self):
        from repro.analysis.graph import verify
        from repro.analysis.graph.registry import shipped_entries

        entry = next(e for e in shipped_entries() if e.name == "gendt_generator")
        with detect_anomaly():
            report = verify(entry.build(0))
            assert is_anomaly_enabled()
            with pytest.raises(NumericalAnomalyError):
                Tensor([-1.0]).log()
        assert report.ok, report.format()
        assert not is_anomaly_enabled()

    def test_slot_cleared_after_error_exit(self):
        with pytest.raises(ZeroDivisionError):
            with detect_anomaly():
                with detect_anomaly():
                    raise ZeroDivisionError
        assert nn.tensor._observer is None


class TestForwardAnomaly:
    def test_nan_forward_names_op_and_site(self):
        with detect_anomaly():
            x = Tensor([4.0, -1.0], requires_grad=True)
            with pytest.raises(NumericalAnomalyError) as excinfo:
                x.log()
        err = excinfo.value
        assert err.op == "log"
        assert err.phase == "forward"
        assert err.site is not None and "test_nn_anomaly" in err.site
        assert "log" in str(err)

    def test_inf_forward_detected(self):
        with detect_anomaly():
            x = Tensor([1.0, 0.0], requires_grad=True)
            with pytest.raises(NumericalAnomalyError) as excinfo:
                1.0 / x
        assert excinfo.value.phase == "forward"

    def test_nan_mid_graph_detected_at_creation(self):
        # The NaN appears in the middle of a larger expression; the error
        # must identify the creating op, not the downstream consumer.
        with detect_anomaly():
            x = Tensor([0.25, -4.0], requires_grad=True)
            with pytest.raises(NumericalAnomalyError) as excinfo:
                ((x.log() * 2.0) + 1.0).sum()
        assert excinfo.value.op == "log"


class TestBackwardAnomaly:
    def test_backward_grad_anomaly_names_op(self):
        with detect_anomaly():
            x = Tensor([0.0], requires_grad=True)
            y = (x**0.5).sum()  # forward is finite (sqrt(0) = 0) ...
            with pytest.raises(NumericalAnomalyError) as excinfo:
                y.backward()  # ... but d/dx = 0.5 * x**-0.5 is infinite
        err = excinfo.value
        assert err.phase == "backward"
        assert err.op == "__pow__"

    def test_injected_backward_nan_detected(self):
        # Inject a NaN directly into one op's backward function to emulate a
        # buggy gradient implementation.
        with detect_anomaly():
            x = Tensor([1.0, 2.0], requires_grad=True)
            y = x * 2.0

            original = y._backward

            def poisoned(grad):
                original(grad)
                x.grad[0] = np.nan  # the "bug"

            y._backward = poisoned
            with pytest.raises(NumericalAnomalyError) as excinfo:
                y.sum().backward()
        err = excinfo.value
        assert err.phase == "backward"
        assert err.op == "__mul__"


class TestModuleAnnotation:
    def test_module_chain_names_layer(self):
        rng = np.random.default_rng(0)
        mlp = nn.MLP(3, (4,), 2, rng)
        with detect_anomaly():
            with pytest.raises(NumericalAnomalyError) as excinfo:
                mlp(Tensor([[np.nan, 1.0, 2.0]]))
        err = excinfo.value
        assert err.module_chain, "module path must be recorded"
        assert err.module_chain[-1] == "MLP"  # outermost module last
        assert "module path" in str(err)


class TestLstmSequenceAnomaly:
    """NaN in an LSTM weight: the fused op and its module path are named."""

    @staticmethod
    def _node_net():
        from repro.core import small_config
        from repro.core.networks import GnnNodeNetwork

        return GnnNodeNetwork(3, small_config(hidden_size=4), np.random.default_rng(0))

    def test_forward_nan_weight_names_op_and_module_path(self):
        node_net = self._node_net()
        node_net.lstm.cell.weight_ih.data[0, 0] = np.nan
        with detect_anomaly():
            with pytest.raises(NumericalAnomalyError) as excinfo:
                node_net(Tensor(np.ones((2, 5, 3))))
        err = excinfo.value
        assert (err.op, err.phase) == ("lstm_sequence", "forward")
        assert err.module_path == "GnnNodeNetwork.lstm"
        assert err.module_chain == ["StochasticLSTM", "GnnNodeNetwork"]
        assert "GnnNodeNetwork.lstm" in str(err)

    def test_backward_nan_weight_names_op_and_module_path(self):
        node_net = self._node_net()
        with detect_anomaly():
            hidden = node_net(Tensor(np.ones((2, 5, 3))))
            # Poisoned between forward and backward: the forward was finite,
            # so only the op's BPTT can surface the NaN.
            node_net.lstm.cell.weight_hh.data[0, 0] = np.nan
            with pytest.raises(NumericalAnomalyError) as excinfo:
                hidden.sum().backward()
        err = excinfo.value
        assert (err.op, err.phase) == ("lstm_sequence", "backward")
        assert err.module_path == "GnnNodeNetwork.lstm"

    def test_fit_names_the_generator_lstm(self, tiny_dataset_a, tiny_split):
        from repro.core import GenDT, small_config

        config = small_config(
            epochs=1, hidden_size=8, batch_len=25, train_step=5,
            minibatch_windows=8,
        )
        model = GenDT(tiny_dataset_a.region, kpis=["rsrp"], config=config, seed=3)
        model.fit(tiny_split.train)
        model.generator.node_net.lstm.cell.weight_hh.data[...] = np.nan
        with pytest.raises(NumericalAnomalyError) as excinfo:
            model.continue_fit(tiny_split.train, epochs=1, detect_anomaly=True)
        err = excinfo.value
        assert err.op == "lstm_sequence"
        assert err.module_path == "GnnNodeNetwork.lstm"


class TestOffMode:
    def test_no_raise_when_disabled(self):
        x = Tensor([-1.0], requires_grad=True)
        y = x.log()  # NaN, silently (pre-existing behavior)
        assert np.isnan(y.data).any()
        z = (Tensor([0.0], requires_grad=True) ** 0.5).sum()
        z.backward()  # Inf gradient, silently

    def test_training_identical_with_and_without_context(self, tiny_dataset_a, tiny_split):
        # detect_anomaly() must not perturb numerics: two identical runs,
        # one inside the context, must produce bit-identical weights.
        from repro.core import GenDT, small_config

        def run(detect):
            config = small_config(
                epochs=1, hidden_size=8, batch_len=25, train_step=5,
                minibatch_windows=8,
            )
            model = GenDT(tiny_dataset_a.region, kpis=["rsrp"], config=config, seed=3)
            model.fit(tiny_split.train, detect_anomaly=detect)
            return np.concatenate(
                [p.data.ravel() for p in model.generator.parameters()]
            )

        baseline = run(False)
        detected = run(True)
        assert np.array_equal(baseline, detected)


class TestTrainerPlumbing:
    def test_fit_detect_anomaly_catches_injected_nan(self, tiny_dataset_a, tiny_split):
        # Poison one weight after a short fit so the next forward produces
        # NaN: with the mode on, continue_fit() must fail fast with the op
        # named instead of letting the NaN reach the loss.
        from repro.core import GenDT, small_config

        config = small_config(
            epochs=1, hidden_size=8, batch_len=25, train_step=5,
            minibatch_windows=8,
        )
        model = GenDT(tiny_dataset_a.region, kpis=["rsrp"], config=config, seed=3)
        model.fit(tiny_split.train)
        params = model.generator.parameters()
        params[0].data[...] = np.nan
        with pytest.raises(NumericalAnomalyError) as excinfo:
            model.continue_fit(tiny_split.train, epochs=1, detect_anomaly=True)
        assert excinfo.value.op is not None
