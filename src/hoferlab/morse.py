"""Morse indices via conjugate-time multiplicities, and the index identity.

The Morse index of a geodesic scenario with respect to the positive Hofer
length is the sum of conjugate-time multiplicities of the linearized flow
at the maximizer over (0, 1).  `verify_theorem` computes that sum from the
crossing scan and, independently, the Conley-Zehnder values CZ at times
epsilon and 1 as spectral flows of the graph phase (half-weighted identity
crossing at t = 0 cancels in the difference), and checks that the Morse
index equals |CZ(1) - CZ(eps)|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .crossings import OPEN_OPEN, RS_HALVES, Crossing, IndexValue, find_crossings, rs_index
from .errors import (
    DegenerateEndpointError,
    IrregularCrossingError,
    ScenarioValidationError,
)
from .flows import DEFAULT_STEPS, HessianPath, SymplecticPath, integrate

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

    Tests sigma_min(Psi(t_end) - I) against 1e-6 * ||Psi(t_end)||, i.e.
    nondegeneracy in the Floer sense at the final time.
    """
    smin = float(path.end_sigma[-1])
    return smin > DEGENERACY_RATIO * float(np.linalg.norm(path.matrices[-1], 2))


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


def _morse_count(crossings: list[Crossing], t_end: float) -> int:
    """Multiplicity sum of the crossings in (0, 1) of a nondegenerate path."""
    for c in crossings:
        if abs(c.time - t_end) <= 1e-6:
            raise DegenerateEndpointError("degenerate at t=1: crossing at the endpoint")
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
    return _morse_count(find_crossings(path, (path.t_start, path.t_end)), path.t_end)


@dataclass
class IndexReport:
    """Everything `verify_theorem` computes, plus diagnostics."""

    scenario_name: str
    dim: int
    epsilon: float
    crossings_max: list[Crossing]
    crossings_min: list[Crossing]
    morse_index_plus: int
    morse_index_minus: int
    morse_index_total: int
    cz_at_epsilon: IndexValue
    cz_at_1: IndexValue
    cz_interval: IndexValue
    theorem_lhs: int
    theorem_rhs: int
    verdict: bool
    residuals: dict

    def to_dict(self) -> dict:
        def index_value(v: IndexValue) -> dict:
            return {
                "half_units": v.half_units,
                "value": v.value,
                "interval": [v.interval[0], v.interval[1]],
                "policy": v.policy,
            }

        def crossing(c: Crossing) -> dict:
            return {
                "time": c.time,
                "multiplicity": c.multiplicity,
                "signature": [c.signature[0], c.signature[1]],
                "regular": c.regular,
            }

        return {
            "scenario_name": self.scenario_name,
            "dim": self.dim,
            "epsilon": self.epsilon,
            "crossings_max": [crossing(c) for c in self.crossings_max],
            "crossings_min": [crossing(c) for c in self.crossings_min],
            "morse_index_plus": self.morse_index_plus,
            "morse_index_minus": self.morse_index_minus,
            "morse_index_total": self.morse_index_total,
            "cz_at_epsilon": index_value(self.cz_at_epsilon),
            "cz_at_1": index_value(self.cz_at_1),
            "cz_interval": index_value(self.cz_interval),
            "theorem_lhs": self.theorem_lhs,
            "theorem_rhs": self.theorem_rhs,
            "verdict": "pass" if self.verdict else "fail",
            "residuals": dict(self.residuals),
        }


def verify_theorem(scenario, steps: int | None = None, epsilon: float | None = None) -> IndexReport:
    """Check the Morse-index / Conley-Zehnder identity on a scenario.

    Computes the conjugate-time multiplicity sum at the maximizer from the
    crossing scan (theorem left-hand side), the signed Robbin-Salamon
    values CZ(eps) and CZ(1) with half-weighted endpoints from t = 0 as
    spectral flows of the graph phase (right-hand side |CZ(1) - CZ(eps)|),
    and the minimizer-side index from the negated Hessian path.  The verdict
    also requires CZ(1) - CZ(eps) to match the index on (eps, 1], which
    holds by construction (spectral-flow windows telescope) and is kept as a
    report field, not as an independent check.

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
    # are read from the graph phase, which locates no crossing.
    crossings_max = find_crossings(path_max, (0.0, 1.0))
    morse_plus = _morse_count(crossings_max, path_max.t_end)
    crossings_min = find_crossings(path_min, (0.0, 1.0))
    morse_minus = _morse_count(crossings_min, path_min.t_end)

    if epsilon is None:
        eps = _epsilon(crossings_max)
    else:
        eps = float(epsilon)
        if not (0.0 < eps < 1.0):
            raise ValueError(f"epsilon must lie in (0, 1), got {eps}")
        first_tau = crossings_max[0].time if crossings_max else None
        if first_tau is not None and eps >= first_tau - 1e-9:
            raise ValueError(
                f"epsilon {eps} is not admissible: first crossing at t={first_tau:.6f}"
            )

    cz_eps = rs_index(path_max, interval=(0.0, eps), policy=RS_HALVES)
    cz_one = rs_index(path_max, interval=(0.0, 1.0), policy=RS_HALVES)
    cz_interval = rs_index(path_max, interval=(eps, 1.0), policy=OPEN_OPEN)

    diff_halves = cz_one.half_units - cz_eps.half_units
    concat_ok = diff_halves == cz_interval.half_units
    integer_ok = diff_halves % 2 == 0
    lhs = morse_plus
    rhs = abs(diff_halves) // 2
    verdict = concat_ok and integer_ok and (lhs == rhs)

    residuals = {
        "symplectic_residual_max_path": path_max.max_symplectic_residual,
        "symplectic_residual_min_path": path_min.max_symplectic_residual,
        "det_error_max_path": path_max.max_det_error,
        "det_error_min_path": path_min.max_det_error,
        "sigma_min_at_1_max_path": float(path_max.end_sigma[-1]),
        "sigma_min_at_1_min_path": float(path_min.end_sigma[-1]),
        "cz_concatenation_mismatch_halves": float(diff_halves - cz_interval.half_units),
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
        morse_index_total=morse_plus + morse_minus,
        cz_at_epsilon=cz_eps,
        cz_at_1=cz_one,
        cz_interval=cz_interval,
        theorem_lhs=lhs,
        theorem_rhs=rhs,
        verdict=verdict,
        residuals=residuals,
    )
