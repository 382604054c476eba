"""Morse indices via conjugate-time multiplicities, and the index identity.

The Morse index of a geodesic scenario with respect to the positive Hofer
length is the sum of conjugate-time multiplicities of the linearized flow
at the maximizer over (0, 1).  `verify_theorem` computes that sum from the
crossing scan and, independently, CZ(eps) and the index on (eps, 1] as
spectral flows of the graph phase (CZ(1) is their sum, and the
half-weighted identity crossing at t = 0 cancels in the difference), and
checks that the Morse index equals |CZ(1) - CZ(eps)|.
"""

from __future__ import annotations

from dataclasses import dataclass

from .crossings import (ENDPOINT_TOL, OPEN_OPEN, RS_HALVES, Crossing, IndexValue, _index,
                        _scan_closed, find_crossings)
from .errors import (
    DegenerateEndpointError,
    IrregularCrossingError,
    ScenarioValidationError,
)
from .flows import DEFAULT_STEPS, HessianPath, SymplecticPath, integrate, phase_window

__all__ = [
    "DEGENERACY_RATIO",
    "IndexReport",
    "admissible_epsilon",
    "check_nondegenerate",
    "morse_index",
    "verify_theorem",
]

DEGENERACY_RATIO = 1e-6


def check_nondegenerate(path: SymplecticPath) -> bool:
    """True when the endpoint flow has no eigenvalue 1.

    Tests sigma_min(Psi(t_end) - I) against 1e-6 * ||Psi(t_end)||_2, i.e.
    nondegeneracy in the Floer sense at the final time; both come from the
    path's one end SVD (``end_sigma``, ``end_norm``).
    """
    return float(path.end_sigma[-1]) > DEGENERACY_RATIO * path.end_norm


def _epsilon(crossings: list[Crossing]) -> float:
    """Half the first crossing time in (0, 1], capped at 1/2."""
    return 0.5 if not crossings else min(0.5 * crossings[0].time, 0.5)


def admissible_epsilon(generator: HessianPath, steps: int = DEFAULT_STEPS) -> float:
    """Half the first crossing time of the flow in (0, 1], capped at 1/2.

    Any admissible value gives the same indices; this choice guarantees that
    (0, epsilon] contains no crossing.  A first crossing within one grid
    step of t = 0 raises CrossingResolutionError from the scan.
    """
    path = integrate(generator, 0.0, 1.0, steps)
    return _epsilon(find_crossings(path, (path.t_start, path.t_end)))


def _morse_count(crossings: list[Crossing]) -> int:
    """Multiplicity sum of the crossings in (0, 1) of a path that
    `check_nondegenerate` has passed, so none of them lies at t = 1."""
    for c in crossings:
        if not c.regular:
            raise IrregularCrossingError(
                f"extremizer not Morse at time t={c.time:.6f}: singular crossing form"
            )
    return sum(c.multiplicity for c in crossings)


def morse_index(generator: HessianPath, steps: int = DEFAULT_STEPS) -> int:
    """Sum of conjugate-time multiplicities of the linearized flow in (0, 1)."""
    path = integrate(generator, 0.0, 1.0, steps)
    if not check_nondegenerate(path):
        raise DegenerateEndpointError("degenerate at t=1: not a nondegenerate geodesic scenario")
    return _morse_count(find_crossings(path, (path.t_start, path.t_end)))


# The report's keys in emission order; `to_dict` and the sweep CSV read this
# list, and the golden reports pin the order.
_REPORT_KEYS = (
    "scenario_name", "dim", "epsilon", "crossings_max", "crossings_min",
    "morse_index_plus", "morse_index_minus", "morse_index_total",
    "cz_at_epsilon", "cz_at_1", "cz_interval",
    "theorem_lhs", "theorem_rhs", "verdict", "residuals",
)


def _json_value(value):
    """One JSON conversion per report value kind."""
    if isinstance(value, IndexValue):
        return {"half_units": value.half_units, "value": value.value,
                "interval": list(value.interval), "policy": value.policy}
    if isinstance(value, list):
        return [{"time": c.time, "multiplicity": c.multiplicity,
                 "signature": list(c.signature), "regular": c.regular} for c in value]
    if isinstance(value, bool):
        return "pass" if value else "fail"
    return dict(value) if isinstance(value, dict) else value


@dataclass
class IndexReport:
    """What `verify_theorem` computes; the total, both sides of the identity,
    CZ(1) and the verdict are derived from it."""

    scenario_name: str
    dim: int
    epsilon: float
    crossings_max: list[Crossing]
    crossings_min: list[Crossing]
    morse_index_plus: int
    morse_index_minus: int
    cz_at_epsilon: IndexValue
    cz_interval: IndexValue
    residuals: dict

    @property
    def morse_index_total(self) -> int:
        return self.morse_index_plus + self.morse_index_minus

    @property
    def theorem_lhs(self) -> int:
        return self.morse_index_plus

    @property
    def theorem_rhs(self) -> int:
        # The (eps, 1] window's ends are kernel-free, so its half-units are even.
        return abs(self.cz_interval.half_units) // 2

    @property
    def cz_at_1(self) -> IndexValue:
        # Spectral-flow windows add up: CZ(1) is CZ(eps) plus the index on (eps, 1].
        return IndexValue(self.cz_at_epsilon.half_units + self.cz_interval.half_units,
                          (0.0, 1.0), RS_HALVES)

    @property
    def verdict(self) -> bool:
        return self.theorem_lhs == self.theorem_rhs

    def to_dict(self) -> dict:
        return {key: _json_value(getattr(self, key)) for key in _REPORT_KEYS}


def verify_theorem(scenario, steps: int | None = None, epsilon: float | None = None) -> IndexReport:
    """Check the Morse-index / Conley-Zehnder identity on a scenario.

    Computes the conjugate-time multiplicity sum at the maximizer from the
    crossing scan (theorem left-hand side), and from the graph phase two
    spectral flows: CZ(eps), with half-weighted endpoints from t = 0, and
    the index on (eps, 1] (right-hand side, its absolute value).  Windows
    add up, so CZ(1) is their sum; the minimizer-side index comes from the
    negated Hessian path.  The verdict is lhs == rhs.

    Raises ScenarioValidationError for structurally invalid scenarios and
    DegenerateEndpointError when either side's time-1 flow has eigenvalue 1.
    """
    from .models import validate_ustilovsky

    violations = validate_ustilovsky(scenario)
    if violations:
        raise ScenarioValidationError(violations)
    steps = DEFAULT_STEPS if steps is None else int(steps)

    path_max = integrate(scenario.S_max, 0.0, 1.0, steps)
    path_min = integrate(scenario.S_min.negated(), 0.0, 1.0, steps)
    for p, side in ((path_max, "max"), (path_min, "min")):
        if not check_nondegenerate(p):
            raise DegenerateEndpointError(f"degenerate at t=1 ({side} side)")

    # One scan per side feeds the Morse counts and epsilon; the CZ values
    # are read from the maximizer's graph-phase lift, which locates no
    # crossing.  Each path is lifted once, on [0, 1].
    window = phase_window(path_max, 0.0, 1.0)
    crossings_max = [c for c in _scan_closed(path_max, 0.0, 1.0, window) if c.time > ENDPOINT_TOL]
    morse_plus = _morse_count(crossings_max)
    crossings_min = find_crossings(path_min, (0.0, 1.0))
    morse_minus = _morse_count(crossings_min)

    if epsilon is None:
        eps = _epsilon(crossings_max)
    else:
        eps = float(epsilon)
        if not (0.0 < eps < 1.0):
            raise ValueError(f"epsilon must lie in (0, 1), got {eps}")
        if crossings_max and eps >= crossings_max[0].time - ENDPOINT_TOL:
            raise ValueError(f"epsilon {eps} is not admissible: first crossing at "
                             f"t={crossings_max[0].time:.6f}")

    # One lift of Psi at 0, eps and 1 serves both windows.
    cz_eps, cz_int = _index(path_max, window, [0.0, eps, 1.0], [RS_HALVES, OPEN_OPEN])

    residuals = {
        "symplectic_residual_max_path": path_max.max_symplectic_residual,
        "symplectic_residual_min_path": path_min.max_symplectic_residual,
        "sigma_min_at_1_max_path": float(path_max.end_sigma[-1]),
        "sigma_min_at_1_min_path": float(path_min.end_sigma[-1]),
    }
    cert = getattr(scenario, "normalization_certificate", None)
    if cert is not None:
        residuals["normalization_residual"] = cert.residual

    return IndexReport(
        scenario_name=scenario.name,
        dim=scenario.dim,
        epsilon=eps,
        crossings_max=crossings_max,
        crossings_min=crossings_min,
        morse_index_plus=morse_plus,
        morse_index_minus=morse_minus,
        cz_at_epsilon=cz_eps,
        cz_interval=cz_int,
        residuals=residuals,
    )
