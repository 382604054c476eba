"""Closed-form oracles and random-path factories shared by the tests.

The rotation oracles are built from cos/sin only, so they are independent
of every code path in the package (no matrix exponentials, no SVD scans).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import block_diag

from hoferlab import HessianPath, check_nondegenerate, integrate

TWO_PI = 2.0 * math.pi


def rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def planar_flow(speed: float, t: float) -> np.ndarray:
    """Closed form for the flow of S = -speed * I_2: Psi(t) = R(-speed * t)."""
    return rotation(-speed * t)


def block_flow(speeds, t: float) -> np.ndarray:
    """Closed form for S = blockdiag(-s_i * I_2): block of planar rotations."""
    return block_diag(*[planar_flow(s, t) for s in speeds])


def crossing_times(speed: float, t_max: float = 1.0):
    """Times in (0, t_max] where the planar rotation has eigenvalue 1."""
    out = []
    k = 1
    while TWO_PI * k / abs(speed) <= t_max + 1e-15:
        out.append(TWO_PI * k / abs(speed))
        k += 1
    return out


def full_turns(speed: float) -> int:
    return int(math.floor(abs(speed) / TWO_PI))


def constant_planar(speed: float) -> HessianPath:
    return HessianPath.constant(-speed * np.eye(2))


def aliased_fourier() -> HessianPath:
    """-I plus 2 I sin(2 pi 128 t): -I on every multiple of 1/128, +I at 1/512."""
    zero = np.zeros((2, 2))
    return HessianPath.fourier(-np.eye(2), sin_terms=[zero] * 127 + [2.0 * np.eye(2)])


def aliased_spline() -> HessianPath:
    """-I at 1025 knots except -100 I at knot 3; the spline overshoots to
    a top eigenvalue of about +15 between knots."""
    values = np.stack([-np.eye(2)] * 1025)
    values[3] = -100.0 * np.eye(2)
    return HessianPath.sampled(values)


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def random_negdef_fourier(dim: int, rng: np.random.Generator, kmax: int = 2) -> HessianPath:
    """A random uniformly negative definite Fourier generator.

    The mean term dominates the oscillating terms by construction, but the
    definiteness tag assigned at construction is still the authority.
    """
    mu = rng.uniform(3.0, 9.0)
    s0 = -(mu * np.eye(dim) + 0.15 * mu * _sym(rng.normal(size=(dim, dim))))
    budget = 0.35 * mu
    cos, sin = [], []
    for _k in range(kmax):
        for terms in (cos, sin):
            m = _sym(rng.normal(size=(dim, dim)))
            top = max(1e-9, float(np.abs(np.linalg.eigvalsh(m)).max()))
            terms.append(m * budget / (2 * kmax * top))
    return HessianPath.fourier(s0, cos, sin)


def random_nondegenerate_negdef(dim: int, rng: np.random.Generator, steps: int = 512,
                                kmax: int = 2, max_tries: int = 60):
    """Draw until the path is negative definite and safely nondegenerate at 1.

    Returns (generator, path).  The nondegeneracy margin (1e-3 relative) is
    far above the library threshold so the verdicts cannot flip across the
    step counts the tests use, and draws whose crossings cluster below the
    grid resolution are discarded (the library rejects those by contract).
    """
    from hoferlab import CrossingResolutionError, find_crossings

    for _ in range(max_tries):
        gen = random_negdef_fourier(dim, rng, kmax=kmax)
        if gen.definiteness != "negative_definite":
            continue
        path = integrate(gen, 0.0, 1.0, steps)
        if not check_nondegenerate(path):
            continue
        psi = path.matrices[-1]
        smin = np.linalg.svd(psi - np.eye(dim), compute_uv=False)[-1]
        if smin < 1e-3 * np.linalg.norm(psi, 2):
            continue
        try:
            crossings = find_crossings(path, (0.0, 1.0))
        except CrossingResolutionError:
            continue
        taus = [0.0] + [c.time for c in crossings]
        if any(t2 - t1 < 3.0 * path.grid_spacing for t1, t2 in zip(taus, taus[1:])):
            continue
        return gen, path
    raise RuntimeError("could not draw a nondegenerate generator; widen the parameters")


def random_symplectic(dim: int, rng: np.random.Generator, scale: float = 0.6) -> np.ndarray:
    """A moderately conditioned random symplectic matrix exp(J S)."""
    from hoferlab import standard_structure, symplectic_expm

    J = standard_structure(dim // 2).J
    s = scale * _sym(rng.normal(size=(dim, dim)))
    return symplectic_expm(J @ s)
