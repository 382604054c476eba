"""Byte-for-byte `verify` reports for the shipped scenario files.

The golden files were written by `hoferlab verify scenarios/<name>.json -o`
with the wall time replaced by null; any change to a report's bytes, other
than the wall time, has to be explained and the golden file regenerated.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from hoferlab.cli import EXIT_OK, main

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
