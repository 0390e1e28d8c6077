"""Argument parsing, emission formats and the command front end."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabmix import (ConvergenceRow, ConvergenceTable, ProblemConfig,
                     StabilityReport)
from stabmix.cli import RunSpec, emit, main, parse_args


def parse_emitted_json(text: str) -> dict:
    """Inverse of the json emitter: restores inf-valued loads as floats."""
    doc = json.loads(text)
    for row in doc.get("rows", []):
        for key in ("gamma_m", "gamma_M"):
            if key in row and isinstance(row[key], str):
                row[key] = float(row[key])
    return doc


def test_parse_defaults_problem1():
    spec = parse_args(["stability", "--problem", "1", "--nodes", "17"])
    assert spec.command == "stability"
    assert spec.meshes == (17,)
    cfg = spec.config
    assert cfg.n == 17
    assert cfg.mu == 40.0 and cfg.m1 == 320.0 and cfg.m2 == 0.0


def test_parse_defaults_mesh_family():
    spec = parse_args(["stability"])
    assert spec.meshes == (5, 9, 17, 33)


def test_parse_convergence_problem2():
    spec = parse_args(["convergence", "--problem", "2",
                       "--gamma-tilde", "3.23"])
    cfg = spec.config
    assert cfg.problem == 2
    assert cfg.m2 == 1.36
    assert cfg.gamma_tilde == 3.23
    assert cfg.delta_gamma == 1.0
    # the load factor defaults by problem when omitted
    for problem, gt in ((1, 7.125), (2, 3.23)):
        spec = parse_args(["convergence", "--problem", str(problem)])
        assert spec.config.gamma_tilde == gt


def test_parse_classical_flag():
    # the classical method is the stabilization weight set to zero
    spec = parse_args(["stability", "--m1", "0", "--m2", "0", "--nodes", "9"])
    assert spec.config.m1 == 0.0 and spec.config.m2 == 0.0


def test_parse_usage_errors_exit_nonzero(capsys):
    for argv in (["stability", "--nodes", "0"],
                 ["stability", "--nodes", "abc"],
                 ["stability", "--mu", "-3"],
                 ["stability", "--no-such-flag"],
                 ["frobnicate"],
                 []):
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code != 0
    capsys.readouterr()
    # fixed settings, an alias of --m1 0 --m2 0, and model coefficients
    # that cannot change beta1
    for argv in (["stability", "--bisect-tol", "0.1"],
                 ["stability", "--cap", "5"],
                 ["stability", "--classical"],
                 ["convergence", "--classical"],
                 ["convergence", "--delta-gamma", "2"],
                 ["infsup", "--mu", "5"],
                 ["infsup", "--m1", "0"],
                 ["infsup", "--m2", "0"]):
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_parse_non_finite_is_usage_error(capsys):
    for flag in ("--mu", "--m1", "--m2"):
        with pytest.raises(SystemExit) as exc:
            parse_args(["stability", "--nodes", "5", flag, "nan"])
        assert exc.value.code == 2
        assert "finite" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        parse_args(["convergence", "--gamma-tilde", "inf"])
    assert exc.value.code == 2


def _spec(command="stability", fmt="csv", meshes=(5,)):
    config = ProblemConfig(problem=1, n=meshes[0], gamma_tilde=7.125)
    return RunSpec(command=command, meshes=meshes, config=config,
                   drop_bubbles=False, fmt=fmt, output=None)


def test_emit_stability_csv_row():
    reports = [StabilityReport(problem=1, n=5, gamma_m=-math.inf,
                               gamma_M=math.inf)]
    text = emit(reports, _spec())
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert lines[0] == "problem,nodes,gamma_m,gamma_M"
    assert lines[1] == "1,5,-inf,inf"


def test_emit_stability_finite_two_decimals():
    reports = [StabilityReport(problem=1, n=9, gamma_m=-math.inf,
                               gamma_M=14.68359375)]
    text = emit(reports, _spec(meshes=(9,)))
    assert "1,9,-inf,14.68" in text


def test_emit_provenance_header_names_defaults():
    reports = [StabilityReport(problem=1, n=5, gamma_m=-math.inf,
                               gamma_M=math.inf)]
    text = emit(reports, _spec())
    header = [l for l in text.splitlines() if l.startswith("#")]
    joined = " ".join(header)
    for token in ("mu=40", "m1=320", "m2=0", "bisect_tol=0.01", "cap=1e+06"):
        assert token in joined
    assert "classical" not in joined


def test_emit_header_notes_classical_weights():
    # M = 0 is named in the header, whichever command sets it
    empty = {"stability": [],
             "convergence": ConvergenceTable(problem=1, gamma_tilde=7.125, rows=())}
    for command, report in empty.items():
        spec = parse_args([command, "--m1", "0", "--m2", "0", "--nodes", "5"])
        header = emit(report, spec).splitlines()[0]
        assert header == ("# model defaults: mu=40 m1=0 m2=0 "
                          "(classical method M=0 for problem 1)")
    # m2 = 0 alone keeps the weight m1*|gt|, and infsup takes no weights
    for argv in (["stability", "--m2", "0"], ["infsup"]):
        assert "classical" not in emit([], parse_args(argv))


@pytest.mark.parametrize("nodes,note", [
    ("5,9,17,33", "(nodes per side, halving h)"),
    ("5,9", "(nodes per side, halving h)"),
    ("5,17,33", "(nodes per side)"), ("5,5", "(nodes per side)"),
    ("9,5", "(nodes per side)"), ("5", "(nodes per side)")])
def test_emit_header_says_halving_only_when_h_halves(nodes, note):
    empty = {"stability": [], "infsup": [],
             "convergence": ConvergenceTable(problem=1, gamma_tilde=7.125, rows=())}
    for command, report in empty.items():
        lines = emit(report, parse_args([command, "--nodes", nodes])).splitlines()
        assert f"# mesh family: {nodes} {note}" in lines


def test_emit_empty_convergence_header_only():
    table = ConvergenceTable(problem=1, gamma_tilde=7.125, rows=())
    lines = emit(table, _spec("convergence")).splitlines()
    assert lines[-1] == "nodes,err_p_L2,err_w_H1,order"
    assert all(l.startswith("#") for l in lines[:-1])


def test_emit_convergence_formats():
    rows = (ConvergenceRow(n=5, err_p_L2=6.0469e-2, err_w_H1=1.0518e-6,
                           order=None),
            ConvergenceRow(n=9, err_p_L2=1.5141e-2, err_w_H1=1.8890e-7,
                           order=2.0))
    table = ConvergenceTable(problem=1, gamma_tilde=7.125, rows=rows)
    csv = emit(table, _spec("convergence"))
    assert "5,6.0469e-02,1.0518e-06," in csv
    assert "9,1.5141e-02,1.8890e-07,2.00" in csv
    pretty = emit(table, _spec("convergence", "pretty"))
    assert "5x5" in pretty and "--" in pretty
    doc = json.loads(emit(table, _spec("convergence", "json")))
    assert doc["rows"][0]["order"] is None
    assert doc["rows"][1]["err_p_L2"] == 1.5141e-2


def test_json_roundtrip_exact():
    reports = [StabilityReport(problem=1, n=5, gamma_m=-math.inf,
                               gamma_M=math.inf),
               StabilityReport(problem=1, n=9, gamma_m=-math.inf,
                               gamma_M=14.68359375)]
    doc = parse_emitted_json(emit(reports, _spec(fmt="json")))
    for rep, row in zip(reports, doc["rows"]):
        assert row["problem"] == rep.problem
        assert row["nodes"] == rep.n
        assert row["gamma_m"] == rep.gamma_m
        assert row["gamma_M"] == rep.gamma_M


@settings(deadline=None, max_examples=30)
@given(st.lists(
    st.tuples(st.integers(min_value=2, max_value=99),
              st.one_of(st.just(-math.inf),
                        st.floats(min_value=-1e6, max_value=0.0)),
              st.one_of(st.just(math.inf),
                        st.floats(min_value=0.0, max_value=1e6))),
    min_size=1, max_size=4))
def test_json_roundtrip_property(rows):
    reports = [StabilityReport(problem=2, n=n, gamma_m=gm, gamma_M=gM)
               for n, gm, gM in rows]
    doc = parse_emitted_json(emit(reports, _spec(fmt="json")))
    for rep, row in zip(reports, doc["rows"]):
        assert row["gamma_m"] == rep.gamma_m and row["gamma_M"] == rep.gamma_M


def test_emit_deterministic():
    reports = [StabilityReport(problem=1, n=5, gamma_m=-math.inf,
                               gamma_M=7.21484375)]
    for fmt in ("csv", "json", "pretty"):
        assert emit(reports, _spec(fmt=fmt)) == emit(reports, _spec(fmt=fmt))


def test_emit_empty_report_follows_spec_command():
    csv = emit([], _spec()).splitlines()
    assert csv[-1] == "problem,nodes,gamma_m,gamma_M"
    doc = json.loads(emit([], _spec(fmt="json")))
    assert doc["command"] == "stability" and doc["rows"] == []
    pretty = emit([], _spec(fmt="pretty")).splitlines()
    assert pretty[-1].split() == ["nodes", "gamma_m", "gamma_M"]


def test_emit_unknown_format():
    with pytest.raises(ValueError):
        emit([], _spec(fmt="xml"))


def test_run_and_main_small_stability(tmp_path):
    out = tmp_path / "table.csv"
    code = main(["stability", "--problem", "1", "--nodes", "5",
                 "--format", "csv", "--output", str(out)])
    assert code == 0
    text = out.read_text()
    assert "1,5,-inf,inf" in text


def test_main_infsup_stdout(capsys):
    code = main(["infsup", "--problem", "1", "--nodes", "5,9",
                 "--format", "csv"])
    assert code == 0
    captured = capsys.readouterr().out
    lines = [l for l in captured.splitlines() if not l.startswith("#")]
    assert lines[0] == "nodes,beta1"
    beta5 = float(lines[1].split(",")[1])
    assert beta5 > 0.05


def test_main_convergence_runs(capsys):
    code = main(["convergence", "--problem", "1", "--nodes", "5,9",
                 "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "convergence"
    assert len(doc["rows"]) == 2


def test_main_unwritable_output_fails():
    code = main(["stability", "--problem", "1", "--nodes", "5",
                 "--output", "/nonexistent-dir/x/y.csv"])
    assert code == 1


def test_main_tiny_mu_stops_with_error(capsys, factor_budget):
    # at mu = 1e-300 the tangent eigen-solve of problem 2 returns theta = NaN
    # (problem 1 is proved stable at every load there: A' = m1*S -+ mu*R is
    # positive definite in both directions)
    code = main(["stability", "--problem", "2", "--nodes", "5", "--mu", "1e-300"])
    assert code == 1
    assert capsys.readouterr().err.startswith("stabmix: error:")


def test_main_classical_runs(capsys):
    code = main(["stability", "--m1", "0", "--m2", "0", "--nodes", "5",
                 "--format", "csv"])
    assert code == 0
    out = capsys.readouterr().out
    row = [l for l in out.splitlines() if l.startswith("1,5")][0]
    gamma_M = row.split(",")[3]
    assert gamma_M not in ("inf",)  # classical method has a finite limit
