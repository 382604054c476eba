"""Geodesic scenario models, Hofer length functionals, and validation.

A scenario packages exactly what the index identity consumes: the Hessian
paths of the driving Hamiltonian at its maximizer and minimizer, and the
extremal value curves t -> max H_t and t -> min H_t after the zero-mean
normalization.  Model families carry their value curves analytically;
global optimization over a manifold is out of scope.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .flows import NEGATIVE_DEFINITE, POSITIVE_DEFINITE, HessianPath

__all__ = [
    "NormalizationCertificate",
    "Scenario",
    "sphere_height_scenario",
    "sphere_profile_scenario",
    "quadratic_scenario",
    "hofer_lengths",
    "validate_ustilovsky",
]

_VALIDATION_GRID = 65
_CERTIFICATE_TOL = 1e-8


@dataclass(frozen=True)
class NormalizationCertificate:
    """Quadrature record showing the zero-mean normalization of H_t."""

    residual: float
    z_nodes: int
    theta_nodes: int
    total_area: float


@dataclass
class Scenario:
    """A geodesic model: Hessian germs at the extremizers plus value curves."""

    name: str
    dim: int
    S_max: HessianPath
    S_min: HessianPath
    max_value_curve: Callable[[float], float]
    min_value_curve: Callable[[float], float]
    normalization_certificate: NormalizationCertificate | None = None
    metadata: dict = field(default_factory=dict)


def _sphere_certificate(profile: Callable[[float], float], shift: float,
                        z_nodes: int, theta_nodes: int = 64) -> NormalizationCertificate:
    # 2D quadrature of the normalized height profile over the unit sphere in
    # cylindrical coordinates; the area element there is dtheta dz, so the
    # pushforward of the area measure to z in [-1, 1] is uniform.
    zs, wz = _gauss_legendre(z_nodes)
    theta_weight = 2.0 * math.pi / theta_nodes
    integral = 0.0
    for z, w in zip(zs, wz):
        integral += theta_nodes * theta_weight * w * (profile(float(z)) + shift)
    return NormalizationCertificate(
        residual=abs(integral),
        z_nodes=z_nodes,
        theta_nodes=theta_nodes,
        total_area=4.0 * math.pi,
    )


def sphere_height_scenario(lam: float) -> Scenario:
    """Rotation family on the unit sphere driven by the height function.

    H = lam * z with the area form of total area 4 pi: the profile family
    with f(z) = lam z.  The maximizer and minimizer are the poles, the
    linearized flow at each pole is a planar rotation with angular speed
    |lam|, and the height already has zero mean.
    """
    lam = float(lam)
    if not math.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam}")
    if lam == 0.0:
        raise ValueError("lam must be nonzero (a constant Hamiltonian has no extremal pair)")
    scenario = sphere_profile_scenario(lambda z: lam * z, lambda z: lam)
    scenario.name = f"sphere_height(lam={lam:g})"
    del scenario.metadata["normalization_shift"]  # zero up to rounding
    scenario.metadata.update({"model": "sphere_height", "lambda": lam})
    return scenario


def sphere_profile_scenario(profile: Callable[[float], float],
                            profile_derivative: Callable[[float], float] | None = None,
                            quadrature_points: int = 64) -> Scenario:
    """Axisymmetric family on the unit sphere, H = f(z) with monotone f.

    The profile is normalized to zero mean by the shift
    c = -(1/2) * integral of f over [-1, 1] (uniform pushforward measure in
    z).  The linearized rotation speeds at the poles are |f'(+-1)|, and the
    value curves are the constants f(+-1) + c.  A derivative callable may be
    supplied; otherwise a central finite difference is used.
    """
    if quadrature_points < 1:
        raise ValueError(f"quadrature_points must be at least 1, got {quadrature_points}")
    if profile_derivative is None:
        def profile_derivative(z, _f=profile, _h=1e-6):
            lo = max(-1.0, z - _h)
            hi = min(1.0, z + _h)
            return (_f(hi) - _f(lo)) / (hi - lo)

    grid = np.linspace(-1.0, 1.0, 201)
    dvals = np.array([profile_derivative(float(z)) for z in grid])
    if np.any(np.abs(dvals) < 1e-9):
        raise ValueError("profile derivative vanishes on [-1, 1]; extremizers degenerate")
    if not (np.all(dvals > 0) or np.all(dvals < 0)):
        raise ValueError("profile must be strictly monotone on [-1, 1]")
    increasing = bool(dvals[0] > 0)

    # c = -(1/2) * integral_{-1}^{1} f(z) dz
    shift = -0.5 * _integrate_profile(profile, quadrature_points)

    top = float(profile(1.0)) + shift
    bottom = float(profile(-1.0)) + shift
    speed_top = abs(float(profile_derivative(1.0)))
    speed_bottom = abs(float(profile_derivative(-1.0)))
    if increasing:
        max_value, min_value = top, bottom
        speed_max, speed_min = speed_top, speed_bottom
        max_at = "north_pole"
    else:
        max_value, min_value = bottom, top
        speed_max, speed_min = speed_bottom, speed_top
        max_at = "south_pole"

    cert = _sphere_certificate(profile, shift, z_nodes=quadrature_points)
    return Scenario(
        name="sphere_profile",
        dim=2,
        S_max=HessianPath.constant(-speed_max * np.eye(2)),
        S_min=HessianPath.constant(+speed_min * np.eye(2)),
        max_value_curve=lambda t: max_value,
        min_value_curve=lambda t: min_value,
        normalization_certificate=cert,
        metadata={
            "model": "sphere_profile",
            "normalization_shift": shift,
            "pole_speed_max": speed_max,
            "pole_speed_min": speed_min,
            "max_at": max_at,
        },
    )


@functools.lru_cache(maxsize=8)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only n-point Gauss-Legendre nodes and weights on [-1, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _integrate_profile(profile: Callable[[float], float], n: int) -> float:
    nodes, weights = _gauss_legendre(n)
    return float(sum(w * profile(float(z)) for w, z in zip(weights, nodes)))


def quadratic_scenario(s_max: HessianPath, s_min: HessianPath,
                       max_value_curve: Callable[[float], float],
                       min_value_curve: Callable[[float], float],
                       name: str = "quadratic") -> Scenario:
    """Wrap user-supplied local data (Hessian germs plus value curves).

    No manifold is attached, so there is no normalization certificate; the
    scenario is flagged as a local model.  The data are checked with
    `validate_ustilovsky` at construction, so a violation (an indefinite
    germ or colliding value curves) raises ValueError here rather than at
    the first verification.
    """
    if s_max.dim != s_min.dim:
        raise ValueError("maximizer and minimizer Hessian paths must share a dimension")
    scenario = Scenario(
        name=name,
        dim=s_max.dim,
        S_max=s_max,
        S_min=s_min,
        max_value_curve=max_value_curve,
        min_value_curve=min_value_curve,
        normalization_certificate=None,
        metadata={"model": "quadratic", "local_model": True},
    )
    violations = validate_ustilovsky(scenario)
    if violations:
        raise ValueError("; ".join(violations))
    return scenario


def hofer_lengths(scenario: Scenario) -> dict:
    """Hofer lengths of the scenario: L, L_plus and L_minus.

    L_plus integrates the max value curve over [0, 1], L_minus integrates
    the negated min value curve, and L = L_plus + L_minus by construction
    of the split.
    """
    for t in (0.0, 0.5, 1.0):
        if not (math.isfinite(scenario.max_value_curve(t))
                and math.isfinite(scenario.min_value_curve(t))):
            raise ValueError("value curves must be finite")
    # Gauss-Legendre on [-1, 1] mapped to [0, 1]; the Jacobian 0.5 is exact.
    l_plus = 0.5 * _integrate_profile(lambda z: scenario.max_value_curve(0.5 * (z + 1.0)), 64)
    l_minus = -0.5 * _integrate_profile(lambda z: scenario.min_value_curve(0.5 * (z + 1.0)), 64)
    return {"L": l_plus + l_minus, "L_plus": l_plus, "L_minus": l_minus}


def validate_ustilovsky(scenario: Scenario) -> list[str]:
    """Structural checks for a valid geodesic scenario; violations are data.

    Checks Morse definiteness of both Hessian paths (their certified tags,
    which hold for every t in [0, 1]), separation of the extremal value
    curves on a time grid, and the normalization certificate when one is
    attached.
    """
    violations: list[str] = []
    if scenario.S_max.definiteness != NEGATIVE_DEFINITE:
        violations.append("S_max not negative definite")
    if scenario.S_min.definiteness != POSITIVE_DEFINITE:
        violations.append("S_min not positive definite")
    for t in np.linspace(0.0, 1.0, _VALIDATION_GRID):
        if not scenario.max_value_curve(t) > scenario.min_value_curve(t):
            violations.append(f"extremal values collide at t={t:.4f}")
            break
    cert = scenario.normalization_certificate
    if cert is not None and cert.residual > _CERTIFICATE_TOL:
        violations.append(
            f"normalization residual {cert.residual:.3e} exceeds {_CERTIFICATE_TOL:g}"
        )
    return violations
