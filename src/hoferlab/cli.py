"""Command-line front end: scenario files in, reports, sweeps and plots out.

Scenario files are self-describing JSON documents (schema_version 1) naming
one model (sphere_height, sphere_profile or quadratic) with its parameters
and optional solver overrides.  Reports embed the input hash and solver
settings, so re-running the same file reproduces the report bit for bit
except for the wall time.  Exit codes: 0 theorem verified, 1 verdict fail,
2 parse/usage error, 3 scenario validation failure, 4 degenerate endpoint.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .crossings import find_crossings
from .errors import (
    DegenerateEndpointError,
    HoferLabError,
    ScenarioValidationError,
)
from .flows import DEFAULT_STEPS, MIN_STEPS, HessianPath, integrate
from .models import (
    Scenario,
    hofer_lengths,
    quadratic_scenario,
    sphere_height_scenario,
    sphere_profile_scenario,
    validate_ustilovsky,
)
from .morse import verify_theorem
from .symplectic import hamiltonian_vector_field_selftest, standard_structure

EXIT_OK = 0
EXIT_VERDICT_FAIL = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_DEGENERATE = 4

STEPS_ENV_VAR = "HOFERLAB_STEPS"
SCHEMA_VERSION = 1


class _ParseFailure(Exception):
    pass


def _number(raw, what: str, cast=float):
    try:
        return cast(raw)
    except (TypeError, ValueError, OverflowError):
        raise _ParseFailure(f"{what} must be a number, got {raw!r}") from None


def _numbers(raw, what: str):
    """A generator payload with its numbers converted; the model checks shapes."""
    if isinstance(raw, dict):
        return {k: v if k == "kind" else _numbers(v, f"{what}.{k}") for k, v in raw.items()}
    return [_numbers(x, what) for x in raw] if isinstance(raw, list) else _number(raw, what)


def _checked_steps(raw, source: str) -> int:
    if (steps := _number(raw, source, int)) < MIN_STEPS:
        raise _ParseFailure(f"{source} must be at least {MIN_STEPS}, got {steps}")
    return steps


def _load_document(path: str) -> tuple[dict, str]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise _ParseFailure(f"cannot read scenario file: {exc}")
    digest = hashlib.sha256(raw).hexdigest()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _ParseFailure(f"scenario file is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise _ParseFailure("scenario document must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise _ParseFailure(
            f"unsupported schema_version {doc.get('schema_version')!r}; expected {SCHEMA_VERSION}"
        )
    if "model" not in doc:
        raise _ParseFailure("scenario document is missing the 'model' field")
    return doc, digest


def _poly_curve(coeffs: list[float]):
    return lambda t: float(sum(ck * t**k for k, ck in enumerate(coeffs)))


def _build_scenario(doc: dict) -> Scenario:
    model = doc["model"]
    params = doc.get("parameters", {})
    if not isinstance(params, dict):
        raise _ParseFailure("'parameters' must be an object")
    try:
        if model == "sphere_height":
            return sphere_height_scenario(_number(params["lambda"], "lambda"))
        if model == "sphere_profile":
            coeffs = [_number(x, "profile_coeffs") for x in params["profile_coeffs"]]
            deriv = np.polynomial.polynomial.polyder(coeffs).tolist()
            return sphere_profile_scenario(
                _poly_curve(coeffs),
                _poly_curve(deriv),
                quadrature_points=_number(params.get("quadrature_points", 64),
                                          "quadrature_points", int),
            )
        if model == "quadratic":
            return quadratic_scenario(
                HessianPath.from_payload(_numbers(params["s_max"], "s_max")),
                HessianPath.from_payload(_numbers(params["s_min"], "s_min")),
                _poly_curve([_number(x, "max_curve_coeffs") for x in params["max_curve_coeffs"]]),
                _poly_curve([_number(x, "min_curve_coeffs") for x in params["min_curve_coeffs"]]),
                name=params.get("name", "quadratic"),
            )
    except KeyError as exc:
        raise _ParseFailure(f"model {model!r} is missing parameter {exc.args[0]!r}")
    except (TypeError, AttributeError, json.JSONDecodeError) as exc:
        raise _ParseFailure(f"malformed parameters for model {model!r}: {exc}")
    raise _ParseFailure(f"unknown model {model!r}")


def _doc_steps(doc: dict, override: int | None) -> int:
    if override is not None:
        return _checked_steps(override, "--steps")
    solver = doc.get("solver", {})
    if isinstance(solver, dict) and "steps" in solver:
        return _checked_steps(solver["steps"], "solver.steps")
    raw = os.environ.get(STEPS_ENV_VAR)
    return DEFAULT_STEPS if raw is None else _checked_steps(raw, STEPS_ENV_VAR)


def _emit(text: str, output: str | None) -> None:
    if output is None or output == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _ParseFailure(f"cannot write output: {exc}")


# ---------------------------------------------------------------------------
# verify


def _report_document(scenario: Scenario, report, digest: str, steps: int,
                     wall_time: float) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "verification_report",
        "scenario": {
            "name": scenario.name,
            "model": scenario.metadata.get("model", "unknown"),
            "dim": scenario.dim,
        },
        "solver": {"steps": steps, "package_version": __version__},
        "provenance": {"input_sha256": digest, "wall_time_s": wall_time},
        "hofer_lengths": hofer_lengths(scenario),
        "result": report.to_dict(),
    }


def _cmd_verify(args) -> int:
    doc, digest = _load_document(args.scenario)
    steps = _doc_steps(doc, args.steps)
    scenario = _build_scenario(doc)
    start = time.perf_counter()
    # Validation and degenerate-endpoint errors map to exit codes in `main`.
    report = verify_theorem(scenario, steps=steps)
    wall = time.perf_counter() - start
    payload = _report_document(scenario, report, digest, steps, wall)
    _emit(json.dumps(payload, indent=2, sort_keys=True), args.output)
    return EXIT_OK if report.verdict else EXIT_VERDICT_FAIL


# ---------------------------------------------------------------------------
# sweep

_SWEEP_COLUMNS = [
    "parameter", "value", "status",
    "morse_index_plus", "morse_index_minus", "morse_index_total",
    "cz_at_epsilon", "cz_at_1", "cz_interval",
    "theorem_lhs", "theorem_rhs",
    "L", "L_plus", "L_minus",
]


def _sweep_values(args) -> list[float]:
    if args.count < 2:
        raise _ParseFailure("sweep count must be at least 2")
    for flag, bound in (("--min", args.minimum), ("--max", args.maximum)):
        if not math.isfinite(bound):
            raise _ParseFailure(f"sweep {flag} must be finite, got {bound}")
    values = np.linspace(args.minimum, args.maximum, args.count).tolist()
    if args.parameter == "steps":
        return sorted({_checked_steps(_number(v, "sweep steps", round), "sweep steps")
                       for v in values})
    return values


def _sweep_row(doc: dict, parameter: str, value, steps_override) -> dict:
    row = {c: "" for c in _SWEEP_COLUMNS}
    row["parameter"] = parameter
    row["value"] = value
    if parameter == "lambda":
        if doc["model"] != "sphere_height":
            raise _ParseFailure("parameter 'lambda' is only sweepable for sphere_height")
        steps = _doc_steps(doc, steps_override)
        try:
            scenario = sphere_height_scenario(float(value))
        except ValueError:  # lambda = 0 has no extremal pair
            row["status"] = "invalid"
            return row
    elif parameter == "steps":
        scenario = _build_scenario(doc)
        steps = int(value)
    else:
        raise _ParseFailure(f"unknown sweep parameter {parameter!r}")
    try:
        report = verify_theorem(scenario, steps=steps)
    except DegenerateEndpointError:
        row["status"] = "degenerate"
        return row
    except ScenarioValidationError:
        row["status"] = "invalid"
        return row
    # Report columns by name; an index column reads its value, and a finished
    # run's status is its verdict.
    fields = {**report.to_dict(), **hofer_lengths(scenario)}
    row["status"] = fields["verdict"]
    row.update({c: v["value"] if isinstance(v, dict) else v
                for c, v in fields.items() if c in row})
    return row


def _cmd_sweep(args) -> int:
    doc, _digest = _load_document(args.scenario)
    values = _sweep_values(args)
    rows = [_sweep_row(doc, args.parameter, v, args.steps) for v in values]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_SWEEP_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    _emit(buf.getvalue(), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# plot


def _svg_plot(scenario: Scenario, steps: int) -> str:
    width, height = 900.0, 460.0
    left, right, top, bottom = 70.0, 20.0, 40.0, 50.0
    plot_w = width - left - right
    plot_h = height - top - bottom

    paths = {
        "max side": integrate(scenario.S_max, 0.0, 1.0, steps),
        "min side": integrate(scenario.S_min.negated(), 0.0, 1.0, steps),
    }
    colors = {"max side": "#1f6fb2", "min side": "#c24f1d"}
    curves = {}
    for label, p in paths.items():
        stride = max(1, (len(p.times) - 1) // 1024)
        diff = p.matrices[::stride] - np.eye(p.dim)
        curves[label] = (p.times[::stride], np.linalg.svd(diff, compute_uv=False)[:, -1])
    ymax = max(float(v.max()) for _, v in curves.values()) or 1.0

    def sx(t):
        return left + plot_w * t

    def sy(v):
        return top + plot_h * (1.0 - v / ymax)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<text x="{left:.1f}" y="24" font-family="monospace" font-size="14">'
        f"sigma_min(Psi(t) - I) for {scenario.name}</text>",
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x = sx(frac)
        out.append(f'<line x1="{x:.2f}" y1="{top + plot_h:.2f}" x2="{x:.2f}" '
                   f'y2="{top + plot_h + 5:.2f}" stroke="black"/>')
        out.append(f'<text x="{x:.2f}" y="{top + plot_h + 20:.2f}" text-anchor="middle" '
                   f'font-family="monospace" font-size="11">{frac:.2f}</text>')
    for frac in (0.0, 0.5, 1.0):
        y = sy(frac * ymax)
        out.append(f'<text x="{left - 8:.2f}" y="{y + 4:.2f}" text-anchor="end" '
                   f'font-family="monospace" font-size="11">{frac * ymax:.4f}</text>')
    out.append(f'<rect x="{left:.1f}" y="{top:.1f}" width="{plot_w:.1f}" '
               f'height="{plot_h:.1f}" fill="none" stroke="black"/>')

    for label, (ts, vs) in curves.items():
        pts = " ".join(f"{sx(float(t)):.2f},{sy(float(v)):.2f}" for t, v in zip(ts, vs))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{colors[label]}" '
                   f'stroke-width="1.2"/>')
    legend_y = top + 14
    for label in curves:
        out.append(f'<line x1="{left + 10:.1f}" y1="{legend_y:.1f}" x2="{left + 40:.1f}" '
                   f'y2="{legend_y:.1f}" stroke="{colors[label]}" stroke-width="2"/>')
        out.append(f'<text x="{left + 46:.1f}" y="{legend_y + 4:.1f}" '
                   f'font-family="monospace" font-size="12">{label}</text>')
        legend_y += 16

    for label, p in paths.items():
        for c in find_crossings(p, (0.0, 1.0)):
            x = sx(c.time)
            out.append(f'<line x1="{x:.2f}" y1="{top:.1f}" x2="{x:.2f}" '
                       f'y2="{top + plot_h:.1f}" stroke="{colors[label]}" '
                       f'stroke-dasharray="4,3" stroke-width="1"/>')
            out.append(f'<text x="{x:.2f}" y="{top - 6:.1f}" text-anchor="middle" '
                       f'font-family="monospace" font-size="11">'
                       f"t={c.time:.4f} mult={c.multiplicity}</text>")
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _cmd_plot(args) -> int:
    doc, _digest = _load_document(args.scenario)
    steps = _doc_steps(doc, args.steps)
    scenario = _build_scenario(doc)
    violations = validate_ustilovsky(scenario)
    if violations:
        raise ScenarioValidationError(violations)
    _emit(_svg_plot(scenario, steps), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# selftest


def _cmd_selftest(args) -> int:
    failures = 0

    def check(label: str, ok: bool):
        nonlocal failures
        print(f"selftest: {label}: {'ok' if ok else 'FAIL'}")
        if not ok:
            failures += 1

    for n in (1, 2):
        check(f"conventions (n={n})", hamiltonian_vector_field_selftest(standard_structure(n)))

    steps = 512
    report7 = verify_theorem(sphere_height_scenario(7.0), steps=steps)
    check("rotation family lam=7 (index 2, verdict pass)",
          report7.verdict and report7.morse_index_plus == 2)
    times = [c.time for c in report7.crossings_max]
    check("crossing time 2*pi/7",
          len(times) == 1 and abs(times[0] - 2.0 * math.pi / 7.0) < 1e-8)

    report13 = verify_theorem(sphere_height_scenario(13.0), steps=steps)
    check("rotation family lam=13 (index 4, two crossings)",
          report13.verdict and report13.morse_index_plus == 4
          and len(report13.crossings_max) == 2)

    report5 = verify_theorem(sphere_height_scenario(5.0), steps=steps)
    check("short rotation lam=5 (index 0)",
          report5.verdict and report5.morse_index_total == 0)

    return EXIT_OK if failures == 0 else EXIT_VERDICT_FAIL


# ---------------------------------------------------------------------------


@functools.cache  # building the parser costs about ten parses; `main` only reads it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hoferlab",
        description="Verify the Morse-index / Conley-Zehnder identity on geodesic scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the full verification on a scenario file")
    p_verify.add_argument("scenario")
    p_verify.add_argument("-o", "--output", default=None, help="report path (default stdout)")
    p_verify.add_argument("--steps", type=int, default=None, help="integration steps override")
    p_verify.set_defaults(func=_cmd_verify)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter and emit a CSV table")
    p_sweep.add_argument("scenario")
    p_sweep.add_argument("--parameter", required=True, choices=["lambda", "steps"])
    p_sweep.add_argument("--min", dest="minimum", type=float, required=True)
    p_sweep.add_argument("--max", dest="maximum", type=float, required=True)
    p_sweep.add_argument("--count", type=int, required=True)
    p_sweep.add_argument("-o", "--output", default=None)
    p_sweep.add_argument("--steps", type=int, default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_plot = sub.add_parser("plot", help="emit an SVG diagnostic plot")
    p_plot.add_argument("scenario")
    p_plot.add_argument("-o", "--output", default=None)
    p_plot.add_argument("--steps", type=int, default=None)
    p_plot.set_defaults(func=_cmd_plot)

    p_self = sub.add_parser("selftest", help="run the convention self-test and quick fixtures")
    p_self.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except _ParseFailure as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ScenarioValidationError as exc:
        for v in exc.violations:
            print(f"validation: {v}", file=sys.stderr)
        return EXIT_VALIDATION
    except DegenerateEndpointError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_DEGENERATE
    except (HoferLabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
