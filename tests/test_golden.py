"""Byte-for-byte `verify` reports for the shipped scenario files and for
seeded library scenarios, and byte-for-byte `sweep` tables and `plot` SVGs.

`python -m tests.test_golden` writes every golden file: the scenario reports
by `hoferlab verify scenarios/<name>.json -o` with the wall time replaced by
null, the library ones (`library_*.report.json`) from `IndexReport.to_dict()`,
the sweep tables (`<scenario>.<parameter>_sweep.csv`) by `hoferlab sweep
... -o`, and the plots (`<scenario>.plot.svg`) by `hoferlab plot ... -o`.
Any change to a report's, a table's or a plot's bytes, other than the wall
time, has to be explained and the golden files regenerated.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

from hoferlab import HessianPath, quadratic_scenario, verify_theorem
from hoferlab.cli import EXIT_OK, main
from tests.oracles import TWO_PI, random_negdef_fourier

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted((ROOT / "scenarios").glob("*.json"))


def mask_wall_time(text: str) -> str:
    masked, count = re.subn(r'"wall_time_s": [^,\n]+', '"wall_time_s": null', text)
    assert count == 1
    return masked


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda p: p.stem)
def test_verify_report_matches_golden(scenario, tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", str(scenario), "-o", str(out)]) == EXIT_OK
    golden = ROOT / "tests" / "golden" / f"{scenario.stem}.report.json"
    assert mask_wall_time(out.read_text(encoding="utf-8")) == golden.read_text(encoding="utf-8")


def _library_scenarios():
    """(name, scenario, steps) for library `verify_theorem` calls: seeded
    negative definite Fourier generators in dims 2, 4 and 6 at 512 steps,
    and sampled warped block rotations in dims 4 and 6 at 2048 steps."""
    rng = np.random.default_rng(1927)
    gens = [(f"fourier_dim{dim}", random_negdef_fourier(dim, rng), 512) for dim in (2, 4, 6)]
    grid = np.linspace(0.0, 1.0, 65)
    for dim in (4, 6):
        speeds = np.repeat(rng.uniform(3.0, 14.0, size=dim // 2), 2)
        warp = 1.0 + rng.uniform(0.1, 0.5) * np.cos(TWO_PI * grid)
        gens.append((f"sampled_dim{dim}", HessianPath.sampled(warp[:, None, None]
                                                              * -np.diag(speeds)), 2048))
    for name, gen, steps in gens:
        yield name, quadratic_scenario(gen, gen.negated(), lambda t: 1.0, lambda t: -1.0,
                                       name=name), steps


def _library_report(scenario, steps) -> str:
    return json.dumps(verify_theorem(scenario, steps=steps).to_dict(), indent=2) + "\n"


_LIBRARY = list(_library_scenarios())


@pytest.mark.parametrize("name, scenario, steps", _LIBRARY, ids=[c[0] for c in _LIBRARY])
def test_library_report_matches_golden(name, scenario, steps):
    golden = ROOT / "tests" / "golden" / f"library_{name}.report.json"
    assert _library_report(scenario, steps) == golden.read_text(encoding="utf-8")


# Scenario files whose two sides differ: the rotation speed of each side's
# linearized flow, and the closed-form (plus, minus).  A side turning at speed
# w crosses the Maslov cycle at t = 2 pi k / w with multiplicity 2.  The
# sphere profile f = 7z + z^2 has pole speeds 9 and 5; the quadratic file has
# constant germs -9 I and +13 I.
UNEQUAL_SIDES = {
    "sphere_profile_unequal": ((9.0, 5.0), (2, 0)),
    "quadratic_unequal": ((9.0, 13.0), (2, 4)),
}


@pytest.mark.parametrize("stem", sorted(UNEQUAL_SIDES))
def test_unequal_sides_match_closed_form(stem, tmp_path):
    speeds, indices = UNEQUAL_SIDES[stem]
    out = tmp_path / "report.json"
    assert main(["verify", str(ROOT / "scenarios" / f"{stem}.json"), "-o", str(out)]) == EXIT_OK
    result = json.loads(out.read_text(encoding="utf-8"))["result"]
    for side, speed in zip(("max", "min"), speeds):
        expected = TWO_PI / speed * np.arange(1, int(speed // TWO_PI) + 1)
        crossings = result[f"crossings_{side}"]
        assert [c["multiplicity"] for c in crossings] == [2] * len(expected), side
        assert np.allclose([c["time"] for c in crossings], expected, atol=1e-8), side
    assert (result["morse_index_plus"], result["morse_index_minus"]) == indices


# name -> `hoferlab sweep` arguments; the golden is tests/golden/<name>.csv.
SWEEPS = {
    "sphere_height_7.lambda_sweep": ["sphere_height_7.json", "--parameter", "lambda", "--min", "0",
                                     "--max", "12.566370614359172", "--count", "9",
                                     "--steps", "512"],
    "quadratic_ramp.steps_sweep": ["quadratic_ramp.json", "--parameter", "steps", "--min", "256",
                                   "--max", "1024", "--count", "3"],
}


def _sweep(name: str, out: Path) -> int:
    scenario, *options = SWEEPS[name]
    return main(["sweep", str(ROOT / "scenarios" / scenario), *options, "-o", str(out)])


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_csv_matches_golden(name, tmp_path):
    out = tmp_path / "sweep.csv"
    assert _sweep(name, out) == EXIT_OK
    assert out.read_bytes() == (ROOT / "tests" / "golden" / f"{name}.csv").read_bytes()


# Plotted scenario files: one with equal sides, and one whose sides cross at
# different times (max side at 0.6981, min side at 0.4833 and 0.9666).
PLOTS = ("sphere_height_7", "quadratic_unequal")


def _plot(stem: str, out: Path) -> int:
    return main(["plot", str(ROOT / "scenarios" / f"{stem}.json"), "-o", str(out)])


@pytest.mark.parametrize("stem", PLOTS)
def test_plot_matches_golden_svg(stem, tmp_path):
    # The plotted sigma_min comes from an exact SVD at each drawn node, not
    # from the node bounds of the crossing scan.
    out = tmp_path / "plot.svg"
    assert _plot(stem, out) == EXIT_OK
    assert out.read_bytes() == (ROOT / "tests" / "golden" / f"{stem}.plot.svg").read_bytes()


if __name__ == "__main__":
    for scenario in SCENARIOS:
        path = ROOT / "tests" / "golden" / f"{scenario.stem}.report.json"
        if main(["verify", str(scenario), "-o", str(path)]) != EXIT_OK:
            raise SystemExit(f"verify {scenario.name} did not pass")
        path.write_text(mask_wall_time(path.read_text(encoding="utf-8")), encoding="utf-8")
    for name, scenario, steps in _library_scenarios():
        path = ROOT / "tests" / "golden" / f"library_{name}.report.json"
        path.write_text(_library_report(scenario, steps), encoding="utf-8")
    for name in SWEEPS:
        if _sweep(name, ROOT / "tests" / "golden" / f"{name}.csv") != EXIT_OK:
            raise SystemExit(f"sweep {name} did not run")
    for stem in PLOTS:
        if _plot(stem, ROOT / "tests" / "golden" / f"{stem}.plot.svg") != EXIT_OK:
            raise SystemExit(f"plot {stem} did not run")
