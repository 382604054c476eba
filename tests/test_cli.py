"""Command-line surface: verify/sweep/plot/selftest, formats, determinism."""

from __future__ import annotations

import csv
import io
import json
import math
import warnings

import pytest

from hoferlab.cli import (
    EXIT_DEGENERATE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VALIDATION,
    main,
)
from tests.oracles import TWO_PI, full_turns


def write_scenario(tmp_path, name="scenario.json", **kwargs):
    doc = {
        "schema_version": 1,
        "model": "sphere_height",
        "parameters": {"lambda": 7.0},
        "solver": {"steps": 512},
    }
    doc.update(kwargs)
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def read_report(capsys):
    return json.loads(capsys.readouterr().out)


# -- verify -----------------------------------------------------------------


def test_verify_pass(tmp_path, capsys):
    scn = write_scenario(tmp_path)
    assert main(["verify", str(scn)]) == EXIT_OK
    doc = read_report(capsys)
    assert doc["result"]["verdict"] == "pass"
    assert doc["result"]["morse_index_plus"] == 2
    assert doc["result"]["cz_interval"]["value"] == -2.0
    assert doc["hofer_lengths"]["L"] == pytest.approx(14.0, abs=1e-10)
    assert doc["provenance"]["input_sha256"]


def test_verify_degenerate_exit(tmp_path, capsys):
    scn = write_scenario(tmp_path, parameters={"lambda": TWO_PI})
    assert main(["verify", str(scn)]) == EXIT_DEGENERATE
    assert "degenerate at t=1" in capsys.readouterr().err


def test_verify_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["verify", str(bad)]) == EXIT_PARSE
    assert "parse error" in capsys.readouterr().err


def test_verify_unknown_model(tmp_path, capsys):
    scn = write_scenario(tmp_path, model="torus_height")
    assert main(["verify", str(scn)]) == EXIT_PARSE


def test_verify_bad_schema_version(tmp_path):
    scn = write_scenario(tmp_path, schema_version=99)
    assert main(["verify", str(scn)]) == EXIT_PARSE


def test_verify_missing_file():
    assert main(["verify", "/nonexistent/scenario.json"]) == EXIT_PARSE


def test_verify_zero_lambda_rejected(tmp_path, capsys):
    scn = write_scenario(tmp_path, parameters={"lambda": 0.0})
    assert main(["verify", str(scn)]) == EXIT_VALIDATION
    assert "nonzero" in capsys.readouterr().err


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_verify_non_finite_lambda_rejected(tmp_path, capsys, lam):
    scn = write_scenario(tmp_path, parameters={"lambda": lam})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", str(scn)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: lam must be finite, got {lam}\n"


@pytest.mark.parametrize("points", [0, -3])
def test_profile_quadrature_points_below_one_rejected(tmp_path, capsys, points):
    scn = write_scenario(tmp_path, model="sphere_profile",
                         parameters={"profile_coeffs": [0.0, 7.0], "quadrature_points": points})
    assert main(["verify", str(scn)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        f"error: quadrature_points must be at least 1, got {points}\n")


_POSITIVE = {"kind": "constant", "matrix": [[1.0, 0.0], [0.0, 1.0]]}
_NEGATIVE = {"kind": "constant", "matrix": [[-1.0, 0.0], [0.0, -1.0]]}


def _quadratic(**overrides):
    params = {"s_max": _NEGATIVE, "s_min": _POSITIVE,
              "max_curve_coeffs": [1.0], "min_curve_coeffs": [-1.0]}
    return "quadratic", {**params, **overrides}


@pytest.mark.parametrize("model, parameters", [
    ("sphere_height", {"lambda": "abc"}),
    ("sphere_profile", {"profile_coeffs": [0.0, 7.0], "quadrature_points": "x"}),
    ("sphere_profile", {"profile_coeffs": [0, "a"]}),
    _quadratic(max_curve_coeffs=["a"]),
    _quadratic(s_max={"kind": "constant", "matrix": "abc"}),
    _quadratic(s_max={"kind": "fourier", "s0": _NEGATIVE["matrix"],
                      "cos": [[[0.0, "a"], [0.0, 0.0]]]}),
    _quadratic(s_min="abc"),
])
def test_non_numeric_parameter_is_parse_error(tmp_path, capsys, model, parameters):
    scn = write_scenario(tmp_path, model=model, parameters=parameters)
    assert main(["verify", str(scn)]) == EXIT_PARSE
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("s_max", [
    {"kind": "constant", "matrix": [[-1.0, 0.0], [0.0]]},
    {"kind": "constant", "matrix": [[-1.0, 0.0, 0.0]]},
    {"kind": "constant", "matrix": [[-1.0, 0.5], [0.0, -1.0]]},
])
def test_malformed_matrix_stays_validation_error(tmp_path, s_max):
    scn = write_scenario(tmp_path, model="quadratic", parameters=_quadratic(s_max=s_max)[1])
    assert main(["verify", str(scn)]) == EXIT_VALIDATION


@pytest.mark.parametrize("argv_tail, solver", [
    (["--steps", "4"], {"steps": 512}),
    ([], {"steps": "many"}),
    ([], {"steps": 4}),
])
def test_verify_bad_step_count_is_usage_error(tmp_path, capsys, argv_tail, solver):
    scn = write_scenario(tmp_path, solver=solver)
    assert main(["verify", str(scn), *argv_tail]) == EXIT_PARSE
    assert "parse error" in capsys.readouterr().err


def test_verify_writes_file(tmp_path):
    scn = write_scenario(tmp_path)
    out = tmp_path / "report.json"
    assert main(["verify", str(scn), "-o", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["result"]["theorem_lhs"] == doc["result"]["theorem_rhs"] == 2


def test_verify_deterministic_reports(tmp_path):
    scn = write_scenario(tmp_path)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["verify", str(scn), "-o", str(out1)]) == EXIT_OK
    assert main(["verify", str(scn), "-o", str(out2)]) == EXIT_OK
    d1 = json.loads(out1.read_text())
    d2 = json.loads(out2.read_text())
    d1["provenance"].pop("wall_time_s")
    d2["provenance"].pop("wall_time_s")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_verify_quadratic_model(tmp_path, capsys):
    scn = write_scenario(
        tmp_path,
        model="quadratic",
        parameters={
            "s_max": {"kind": "constant", "matrix": [[-7.0, 0.0], [0.0, -7.0]]},
            "s_min": {"kind": "constant", "matrix": [[7.0, 0.0], [0.0, 7.0]]},
            "max_curve_coeffs": [7.0],
            "min_curve_coeffs": [-7.0],
        },
    )
    assert main(["verify", str(scn)]) == EXIT_OK
    assert read_report(capsys)["result"]["morse_index_total"] == 4


def test_verify_quadratic_close_block_crossings(tmp_path, capsys):
    # Two planar blocks whose crossings lie 1.5 grid steps apart at 512 steps:
    # the scan must locate both, as the graph phase counts both.
    lam2 = TWO_PI / (TWO_PI / 7.0 + 1.5 / 512)
    diag = [7.0, 7.0, lam2, lam2]
    s_max = [[-diag[i] if i == j else 0.0 for j in range(4)] for i in range(4)]
    scn = write_scenario(
        tmp_path,
        model="quadratic",
        parameters={
            "s_max": {"kind": "constant", "matrix": s_max},
            "s_min": {"kind": "constant", "matrix": [[-x for x in row] for row in s_max]},
            "max_curve_coeffs": [1.0],
            "min_curve_coeffs": [-1.0],
        },
    )
    assert main(["verify", str(scn)]) == EXIT_OK
    result = read_report(capsys)["result"]
    assert result["morse_index_plus"] == 2 * full_turns(7.0) + 2 * full_turns(lam2) == 4
    assert result["verdict"] == "pass"


def test_verify_profile_model(tmp_path, capsys):
    scn = write_scenario(
        tmp_path,
        model="sphere_profile",
        parameters={"profile_coeffs": [0.0, 7.0, 0.0, 1.0]},
    )
    assert main(["verify", str(scn)]) == EXIT_OK
    assert read_report(capsys)["result"]["morse_index_plus"] == 2


def test_verify_invalid_quadratic_exit(tmp_path, capsys):
    scn = write_scenario(
        tmp_path,
        model="quadratic",
        parameters={
            "s_max": {"kind": "constant", "matrix": [[-1.0, 0.0], [0.0, 1.0]]},
            "s_min": {"kind": "constant", "matrix": [[1.0, 0.0], [0.0, 1.0]]},
            "max_curve_coeffs": [1.0],
            "min_curve_coeffs": [-1.0],
        },
    )
    assert main(["verify", str(scn)]) == EXIT_VALIDATION


def test_verify_rejects_aliased_fourier_quadratic(tmp_path, capsys):
    zero = [[0.0, 0.0], [0.0, 0.0]]
    scn = write_scenario(
        tmp_path,
        model="quadratic",
        parameters={
            "s_max": {"kind": "fourier", "s0": [[-1.0, 0.0], [0.0, -1.0]],
                      "sin": [zero] * 127 + [[[2.0, 0.0], [0.0, 2.0]]]},
            "s_min": {"kind": "constant", "matrix": [[1.0, 0.0], [0.0, 1.0]]},
            "max_curve_coeffs": [1.0],
            "min_curve_coeffs": [-1.0],
        },
    )
    assert main(["verify", str(scn)]) == EXIT_VALIDATION
    assert "S_max not negative definite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "plot"])
def test_flat_profile_is_a_validation_failure(tmp_path, capsys, command):
    scn = write_scenario(tmp_path, model="sphere_profile",
                         parameters={"profile_coeffs": [0.0, 5e-9]})
    assert main([command, str(scn), "-o", str(tmp_path / "out")]) == EXIT_VALIDATION
    assert "validation: S_max not negative definite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, options", [
    ("verify", []),
    ("sweep", ["--parameter", "lambda", "--min", "1", "--max", "2", "--count", "2",
               "--steps", "64"]),
    ("plot", []),
], ids=["verify", "sweep", "plot"])
def test_unwritable_output_is_parse_error(tmp_path, capsys, command, options):
    scn = write_scenario(tmp_path, solver={"steps": 64})
    out = tmp_path / "missing" / "out"
    assert main([command, str(scn), *options, "-o", str(out)]) == EXIT_PARSE
    assert "parse error: cannot write output" in capsys.readouterr().err


# -- sweep ------------------------------------------------------------------


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_sweep_lambda_staircase(tmp_path, capsys):
    scn = write_scenario(tmp_path)
    assert main(["sweep", str(scn), "--parameter", "lambda",
                 "--min", "1", "--max", "13", "--count", "25",
                 "--steps", "512"]) == EXIT_OK
    rows = parse_csv(capsys.readouterr().out)
    assert len(rows) == 25
    indices = []
    for row in rows:
        lam = float(row["value"])
        assert row["status"] == "pass", f"lambda={lam}"
        idx = int(row["morse_index_plus"])
        assert idx == 2 * full_turns(lam)
        indices.append(idx)
    assert indices == sorted(indices)
    jumps = {round(float(rows[i]["value"]), 3): indices[i] - indices[i - 1]
             for i in range(1, 25) if indices[i] != indices[i - 1]}
    assert all(j == 2 for j in jumps.values())


def test_sweep_marks_degenerate_rows(tmp_path, capsys):
    scn = write_scenario(tmp_path)
    assert main(["sweep", str(scn), "--parameter", "lambda",
                 "--min", str(TWO_PI), "--max", str(2 * TWO_PI), "--count", "2",
                 "--steps", "512"]) == EXIT_OK
    rows = parse_csv(capsys.readouterr().out)
    assert [r["status"] for r in rows] == ["degenerate", "degenerate"]
    assert all(r["morse_index_plus"] == "" for r in rows)


def test_sweep_marks_zero_lambda_invalid(tmp_path, capsys):
    scn = write_scenario(tmp_path)
    assert main(["sweep", str(scn), "--parameter", "lambda",
                 "--min", "-1", "--max", "1", "--count", "3",
                 "--steps", "64"]) == EXIT_OK
    rows = parse_csv(capsys.readouterr().out)
    assert [r["status"] for r in rows] == ["pass", "invalid", "pass"]
    assert rows[1]["morse_index_plus"] == ""


def test_sweep_steps_discretization_independence(tmp_path, capsys):
    scn = write_scenario(tmp_path)
    assert main(["sweep", str(scn), "--parameter", "steps",
                 "--min", "256", "--max", "4096", "--count", "5"]) == EXIT_OK
    rows = parse_csv(capsys.readouterr().out)
    assert len(rows) == 5
    cols = ["morse_index_plus", "morse_index_minus", "morse_index_total",
            "cz_at_epsilon", "cz_at_1", "cz_interval", "theorem_lhs", "theorem_rhs"]
    for col in cols:
        assert len({row[col] for row in rows}) == 1, col


def test_sweep_steps_below_minimum_is_usage_error(tmp_path, capsys):
    scn = write_scenario(tmp_path)
    assert main(["sweep", str(scn), "--parameter", "steps",
                 "--min", "4", "--max", "64", "--count", "3"]) == EXIT_PARSE
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("bounds", [("nan", "64"), ("8", "inf")], ids=["nan", "inf"])
def test_sweep_non_finite_steps_is_usage_error(tmp_path, capsys, bounds):
    scn = write_scenario(tmp_path)
    assert main(["sweep", str(scn), "--parameter", "steps",
                 "--min", bounds[0], "--max", bounds[1], "--count", "3"]) == EXIT_PARSE
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("bounds, flag", [(("1", "inf"), "--max"), (("-inf", "2"), "--min"),
                                          (("nan", "2"), "--min")], ids=["inf", "-inf", "nan"])
def test_sweep_non_finite_lambda_bound_is_usage_error(tmp_path, capsys, bounds, flag):
    # Checked before the range is spread: a lambda row would run on nan.
    scn = write_scenario(tmp_path)
    assert main(["sweep", str(scn), "--parameter", "lambda", f"--min={bounds[0]}",
                 f"--max={bounds[1]}", "--count", "3"]) == EXIT_PARSE
    assert f"sweep {flag} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("bound, message", [
    (["--min", "-inf"], "argument --min: expected one argument"),
    (["--min=-inf"], "sweep --min must be finite"),
    (["--min", "-1e3"], "argument --min: expected one argument"),
], ids=["space-inf", "equals-inf", "space-exponent"])
def test_sweep_negative_bound_needs_equals_form(tmp_path, capsys, bound, message):
    # argparse reads "-inf" and "-1e3" after a space as options, so such a
    # bound has to be written --min=VALUE; either way the exit code is 2.
    scn = write_scenario(tmp_path)
    assert main(["sweep", str(scn), "--parameter", "lambda", *bound,
                 "--max", "2", "--count", "3"]) == EXIT_PARSE
    assert message in capsys.readouterr().err


def test_sweep_count_one_rejected(tmp_path, capsys):
    scn = write_scenario(tmp_path)
    assert main(["sweep", str(scn), "--parameter", "lambda",
                 "--min", "1", "--max", "2", "--count", "1"]) == EXIT_PARSE


def test_sweep_lambda_needs_sphere_height(tmp_path):
    scn = write_scenario(
        tmp_path,
        model="sphere_profile",
        parameters={"profile_coeffs": [0.0, 7.0]},
    )
    assert main(["sweep", str(scn), "--parameter", "lambda",
                 "--min", "1", "--max", "2", "--count", "2"]) == EXIT_PARSE


# -- plot -------------------------------------------------------------------


def test_plot_markers_for_two_crossings(tmp_path):
    scn = write_scenario(tmp_path, parameters={"lambda": 13.0})
    out = tmp_path / "plot.svg"
    assert main(["plot", str(scn), "-o", str(out)]) == EXIT_OK
    svg = out.read_text()
    assert svg.startswith("<svg ")
    assert svg.count("mult=2") == 4  # two crossings per side
    assert "t=0.4833" in svg and "t=0.9666" in svg


def test_plot_no_markers_without_crossings(tmp_path):
    scn = write_scenario(tmp_path, parameters={"lambda": 5.0})
    out = tmp_path / "plot.svg"
    assert main(["plot", str(scn), "-o", str(out)]) == EXIT_OK
    assert "mult=" not in out.read_text()


def test_plot_degenerate_exit(tmp_path, capsys):
    # `plot` checks both sides for nondegeneracy as `verify` does, and
    # draws nothing for a file that `verify` rejects.
    scn = write_scenario(tmp_path, parameters={"lambda": TWO_PI})
    out = tmp_path / "plot.svg"
    assert main(["plot", str(scn), "-o", str(out)]) == EXIT_DEGENERATE
    assert "degenerate at t=1 (max side)" in capsys.readouterr().err
    assert not out.exists()


def test_plot_deterministic_bytes(tmp_path):
    scn = write_scenario(tmp_path, parameters={"lambda": 13.0})
    out1 = tmp_path / "p1.svg"
    out2 = tmp_path / "p2.svg"
    assert main(["plot", str(scn), "-o", str(out1)]) == EXIT_OK
    assert main(["plot", str(scn), "-o", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


# -- selftest and env ---------------------------------------------------------


def test_selftest_passes(capsys):
    assert main(["selftest"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "conventions (n=1): ok" in out
    assert "FAIL" not in out


def test_env_var_overrides_steps(tmp_path, capsys, monkeypatch):
    doc = {
        "schema_version": 1,
        "model": "sphere_height",
        "parameters": {"lambda": 7.0},
    }
    scn = tmp_path / "s.json"
    scn.write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.setenv("HOFERLAB_STEPS", "256")
    assert main(["verify", str(scn)]) == EXIT_OK
    assert read_report(capsys)["solver"]["steps"] == 256


def test_env_var_rejects_garbage(tmp_path, capsys, monkeypatch):
    scn = write_scenario(tmp_path)
    monkeypatch.setenv("HOFERLAB_STEPS", "many")
    scn2 = tmp_path / "s2.json"
    scn2.write_text(json.dumps({
        "schema_version": 1,
        "model": "sphere_height",
        "parameters": {"lambda": 7.0},
    }), encoding="utf-8")
    assert main(["verify", str(scn2)]) == EXIT_PARSE
