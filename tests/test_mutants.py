"""The mutation suite's records still apply to `src/`."""

from __future__ import annotations

import pytest

from tests.mutants import MUTANTS, occurrences


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_mutant_applies_exactly_once(mutant):
    # A refactor that moves or rewrites a mutant's text must rewrite the
    # mutant too: its old text occurs once in its file and nowhere else.
    assert mutant.old != mutant.new
    assert occurrences(mutant) == (1, 1)
