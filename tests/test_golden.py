"""Byte-for-byte `verify` reports for the shipped scenario files and for
seeded library scenarios.

The scenario golden files were written by
`hoferlab verify scenarios/<name>.json -o` with the wall time replaced by
null, the library ones (`library_*.report.json`, `IndexReport.to_dict()`)
by `python -m tests.test_golden`; any change to a report's bytes, other than
the wall time, has to be explained and the golden file regenerated.
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


if __name__ == "__main__":
    # Writes the library golden files: python -m tests.test_golden
    for name, scenario, steps in _library_scenarios():
        path = ROOT / "tests" / "golden" / f"library_{name}.report.json"
        path.write_text(_library_report(scenario, steps), encoding="utf-8")
