from __future__ import annotations

import numpy as np
import pytest
from hypothesis import Phase, settings

from hoferlab import standard_structure

# Loaded by `tests/mutants.py` only (``--hypothesis-profile=mutants``): a
# failing example is reported as found, without minutes of shrinking, and
# no example database is read or written.
settings.register_profile("mutants", phases=[p for p in Phase if p is not Phase.shrink],
                          database=None)


@pytest.fixture
def struct2():
    return standard_structure(1)


@pytest.fixture
def struct4():
    return standard_structure(2)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
