"""Tests for the symbolic graph verifier (repro.analysis.graph).

Covers the three layers of the subsystem: the verifier itself (clean models
pass, the seeded defect classes are caught with named module paths and
symbolic shapes), the integration points (raise_on_error, RNG restoration so
fit/load-time verification cannot shift seeded streams), and the tooling on
top (verify-graph CLI exit codes, the SHP001 lint rule, lint --select /
--ignore / --format json).
"""

import json
import textwrap

import numpy as np
import pytest

from repro import cli, nn
from repro.analysis.engine import lint_file
from repro.analysis.engine import main as lint_main
from repro.analysis.graph import verify
from repro.analysis.graph.registry import seeded_defects, shipped_entries
from repro.analysis.graph.verifier import _collect_generators
from repro.runtime.errors import GraphContractError

SHIPPED = {entry.name: entry for entry in shipped_entries()}
DEFECTS = {defect.name: defect for defect in seeded_defects()}


# ---------------------------------------------------------------------------
# Clean models verify clean.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_model_verifies_clean(name):
    entry = SHIPPED[name]
    report = verify(entry.build(0))
    assert report.ok, report.format()
    assert report.n_params > 0
    assert report.bound_dims, "verification should bind at least one dim"


def test_report_format_clean_line():
    report = verify(SHIPPED["linear"].build(0))
    text = report.format()
    assert text.startswith("ok    Linear.forward")
    assert "Fin=12" in text and "Fout=6" in text


# ---------------------------------------------------------------------------
# Seeded defects are detected, with module paths and symbolic shapes.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(DEFECTS))
def test_seeded_defect_detected(name):
    defect = DEFECTS[name]
    report = verify(defect.build(0))
    assert not report.ok, f"defect {name} slipped past the verifier"
    assert defect.expect in report.format()


def test_miswindowed_resgen_names_module_path_and_shapes():
    report = verify(DEFECTS["resgen_miswindowed"].build(0))
    text = report.format()
    # The failure is localised to the submodule that received the bad input,
    # and the message shows the symbolic shape, not just raw integers.
    assert "ResGen.mlp" in text
    assert "Fin" in text


def test_broadcast_residual_reports_axis():
    report = verify(DEFECTS["broadcast_residual"].build(0))
    text = report.format()
    assert "accidental broadcast" in text
    assert "axis" in text


def test_dead_weight_lists_exact_parameters():
    report = verify(DEFECTS["dead_weight"].build(0))
    assert sorted(report.dead_params) == ["orphan.bias", "orphan.weight"]
    assert not report.violations


def test_detached_head_reports_severed_path_and_no_grad_output():
    report = verify(DEFECTS["detached_head"].build(0))
    assert report.no_grad_output
    severed = {name: op for name, op, _path in report.severed_params}
    assert severed.get("stem.weight") == "detach"
    assert severed.get("stem.bias") == "detach"


def test_fused_lstm_traced_by_its_symbolic_rule(monkeypatch):
    from repro.analysis.graph import trace

    calls = []
    original = trace.sym_lstm_sequence

    def counting(session, *operands):
        calls.append(session.current_path())
        return original(session, *operands)

    def no_per_step_fallback(*args, **kwargs):
        raise AssertionError("LSTMCell.forward ran inside a sequence trace")

    monkeypatch.setattr(trace, "sym_lstm_sequence", counting)
    monkeypatch.setattr(nn.LSTMCell, "forward", no_per_step_fallback)
    report = verify(SHIPPED["lstm"].build(0))
    assert report.ok, report.format()
    assert calls == ["LSTM", "LSTM"]  # one op per stacked layer
    assert report.bound_dims["T"] == 7


def test_fused_lstm_rejects_weights_off_the_gate_layout():
    module = SHIPPED["stochastic_lstm"].build(0)
    hidden = module.hidden_size
    # A recurrent weight sized for a different hidden width.
    module.cell.weight_hh = nn.Parameter(np.zeros((4 * hidden, hidden + 1)))
    report = verify(module)
    assert not report.ok
    violation = report.violations[0]
    assert violation.op == "lstm_sequence"
    assert "StochasticLSTM" in str(violation) and "w_hh" in str(violation)


def test_nested_trace_raises_and_keeps_outer_observer():
    from repro.analysis.graph.trace import TraceSession

    outer = TraceSession(SHIPPED["linear"].build(0))
    inner = TraceSession(SHIPPED["mlp"].build(0))
    with outer.active():
        with pytest.raises(RuntimeError, match="do not nest"):
            with inner.active():
                pass  # pragma: no cover - never entered
        assert nn.tensor._observer is outer
    assert nn.tensor._observer is None


def test_raise_on_error_raises_graph_contract_error():
    module = DEFECTS["resgen_miswindowed"].build(0)
    with pytest.raises(GraphContractError) as excinfo:
        verify(module, raise_on_error=True)
    assert "mlp" in str(excinfo.value)


def test_verify_is_free_of_rng_side_effects():
    # fit()/load() verify the generator up front; that must not advance any
    # seeded stream, or training becomes nondeterministic vs. the seed.
    build = SHIPPED["gendt_generator"].build
    verified, untouched = build(11), build(11)
    report = verify(verified)
    assert report.ok, report.format()
    rngs_a = _collect_generators(verified)
    rngs_b = _collect_generators(untouched)
    assert rngs_a and len(rngs_a) == len(rngs_b)
    for rng_a, rng_b in zip(rngs_a, rngs_b):
        np.testing.assert_array_equal(
            rng_a.standard_normal(8), rng_b.standard_normal(8)
        )


def test_verify_rejects_module_without_contract():
    class Bare(nn.Module):
        def forward(self, x):
            return x

    # A missing declaration is a usage error, not a graph defect.
    with pytest.raises(ValueError) as excinfo:
        verify(Bare())
    assert "contract" in str(excinfo.value).lower()


# ---------------------------------------------------------------------------
# CLI: repro verify-graph
# ---------------------------------------------------------------------------


def test_cli_verify_graph_clean_exit_zero(capsys):
    assert cli.main(["verify-graph", "linear", "mlp"]) == 0
    out = capsys.readouterr().out
    assert "ok    Linear.forward" in out
    assert "ok    MLP.forward" in out


def test_cli_verify_graph_unknown_model_exit_two(capsys):
    assert cli.main(["verify-graph", "no_such_model"]) == 2
    assert "unknown model" in capsys.readouterr().err


def test_cli_verify_graph_self_test(capsys):
    assert cli.main(["verify-graph", "linear", "--self-test"]) == 0
    out = capsys.readouterr().out
    for name in DEFECTS:
        assert f"ok    defect {name} detected" in out


def test_cli_verify_graph_json(capsys):
    assert cli.main(["verify-graph", "linear", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["name"] == "linear"
    assert payload[0]["ok"] is True
    assert payload[0]["bound_dims"] == {"Fin": 12, "Fout": 6}


def test_cli_verify_graph_list(capsys):
    assert cli.main(["verify-graph", "--list"]) == 0
    out = capsys.readouterr().out
    for name in SHIPPED:
        assert name in out


# ---------------------------------------------------------------------------
# SHP001: exported Modules must declare contracts.
# ---------------------------------------------------------------------------


def _write_core_file(tmp_path, source):
    target = tmp_path / "repro" / "core" / "models.py"
    target.parent.mkdir(parents=True)
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return target


def test_shp001_flags_uncontracted_module(tmp_path):
    path = _write_core_file(
        tmp_path,
        """
        from repro import nn

        class Net(nn.Module):
            def forward(self, x):
                return x
        """,
    )
    violations = lint_file(path, select=["SHP001"])
    assert [v.rule for v in violations] == ["SHP001"]
    assert "Net" in violations[0].message


def test_shp001_accepts_contracted_module(tmp_path):
    path = _write_core_file(
        tmp_path,
        """
        from repro import nn
        from repro.analysis.graph.spec import Spec, contract

        @contract(inputs={"x": Spec("B", "F")}, outputs=Spec("B", "F"))
        class Net(nn.Module):
            def forward(self, x):
                return x
        """,
    )
    assert lint_file(path, select=["SHP001"]) == []


def test_shp001_noqa_opt_out(tmp_path):
    path = _write_core_file(
        tmp_path,
        """
        from repro import nn

        class Container(nn.Module):  # repro: noqa[SHP001]
            pass
        """,
    )
    assert lint_file(path, select=["SHP001"]) == []


def test_shp001_ignores_out_of_scope_paths(tmp_path):
    target = tmp_path / "repro" / "eval" / "models.py"
    target.parent.mkdir(parents=True)
    target.write_text(
        "from repro import nn\n\nclass Net(nn.Module):\n    pass\n",
        encoding="utf-8",
    )
    assert lint_file(target, select=["SHP001"]) == []


# ---------------------------------------------------------------------------
# Lint CLI: --select / --ignore / --format json
# ---------------------------------------------------------------------------


def test_lint_ignore_silences_rule(tmp_path):
    path = _write_core_file(
        tmp_path,
        """
        from repro import nn

        class Net(nn.Module):
            pass
        """,
    )
    assert lint_main([str(path), "--select", "SHP001"]) == 1
    assert lint_main([str(path), "--ignore", "SHP001"]) == 0


def test_lint_unknown_rule_exit_two(tmp_path, capsys):
    path = _write_core_file(tmp_path, "x = 1\n")
    assert lint_main([str(path), "--select", "NOPE999"]) == 2
    assert "unknown rule" in capsys.readouterr().err
    assert lint_main([str(path), "--ignore", "NOPE999"]) == 2


def test_lint_format_json(tmp_path, capsys):
    path = _write_core_file(
        tmp_path,
        """
        from repro import nn

        class Net(nn.Module):
            pass
        """,
    )
    assert lint_main([str(path), "--select", "SHP001", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 1
    assert payload[0]["rule"] == "SHP001"
    assert set(payload[0]) == {"rule", "path", "line", "col", "message"}


def test_lint_format_json_clean_is_empty_list(tmp_path, capsys):
    path = _write_core_file(tmp_path, "x = 1\n")
    assert lint_main([str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == []
