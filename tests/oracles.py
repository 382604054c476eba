"""Closed-form oracles and random-path factories shared by the tests.

The rotation oracles are built from cos/sin only, so they are independent
of every code path in the package (no matrix exponentials, no SVD scans).
The three index references at the end derive the index by other algorithms
than the package's spectral flow: from the crossing forms of the scan, from
the inertia of the Cayley transform (on windows clear of eigenvalue -1),
and (in dimension 2) from the winding of the eigenvalue angle.
`integrate_stepwise` is the per-step loop that the blocked `integrate` must
reproduce bit for bit, `frame_phase` the graph phase from the 2n x 2n
frame determinant, in exact arithmetic, and `concatenation_check` compares
three separately lifted `rs_index` windows.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.linalg import block_diag
from scipy.optimize import brentq, minimize_scalar

from hoferlab import (
    OPEN_OPEN,
    RS_HALVES,
    EndpointCrossingError,
    HessianPath,
    IndexValue,
    IrregularCrossingError,
    SymplecticPath,
    check_nondegenerate,
    evaluate,
    integrate,
    rs_index,
)
from hoferlab.crossings import ENDPOINT_TOL, KERNEL_RATIO, _certified, _scan_closed, _sigma_min
from hoferlab.flows import MIN_STEPS, _magnus_exponent
from hoferlab.symplectic import standard_structure, symplectic_expm

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


def random_indefinite_fourier(dim: int, rng: np.random.Generator) -> HessianPath:
    """A random one-harmonic Fourier generator whose mean spans [-6, 4]."""
    m = _sym(rng.normal(size=(dim, dim)))
    gen = HessianPath.fourier(np.diag(np.linspace(-6.0, 4.0, dim)) + m, [m],
                              [np.diag(np.linspace(1.0, -1.0, dim))])
    assert gen.definiteness == "indefinite"
    return gen


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
    J = standard_structure(dim // 2).J
    s = scale * _sym(rng.normal(size=(dim, dim)))
    return symplectic_expm(J @ s)


def integrate_stepwise(generator: HessianPath, t_start: float = 0.0, t_end: float = 1.0,
                       steps: int = 2048) -> SymplecticPath:
    """Reference for `integrate`: the same fourth-order Magnus scheme, one
    step per loop iteration with one generator call (both Gauss nodes) and
    one exponential.  `integrate` must equal it bit for bit."""
    if not (0.0 <= t_start < t_end <= 1.0):
        raise ValueError(f"need 0 <= t_start < t_end <= 1, got [{t_start}, {t_end}]")
    steps = int(steps)
    if steps < MIN_STEPS:
        raise ValueError(f"steps must be >= {MIN_STEPS}, got {steps}")
    d = generator.dim
    J = standard_structure(d // 2).J
    times = np.linspace(t_start, t_end, steps + 1)
    h = (t_end - t_start) / steps
    mats = np.empty((steps + 1, d, d))
    psi = np.eye(d)
    mats[0] = psi
    # Overflow shows up as non-finite nodes and is rejected at construction.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            w = _magnus_exponent(generator, J, times[k], h)
            psi = symplectic_expm(w) @ psi
            mats[k + 1] = psi
    return SymplecticPath(dim=d, t_start=t_start, t_end=t_end, times=times,
                          matrices=mats, generator=generator)


def exact_gate(path: SymplecticPath, ts: np.ndarray, base: int, _stride: int,
               end_sigma: np.ndarray, bound):
    """Reference for `crossings._open_intervals`: `_certified` on each single
    sample interval, from an SVD at every node of the window."""
    sv = np.linalg.svd(path.matrices[base + np.arange(len(ts) - 1)] - np.eye(path.dim),
                       compute_uv=False)
    sigma = np.concatenate(([end_sigma[0]], sv[1:, -1], [end_sigma[1]]))
    norms = 1.0 + sv[:, 0]
    open_ = np.flatnonzero(~_certified(sigma[:-1], sigma[1:], np.diff(ts), norms, bound,
                                       KERNEL_RATIO))
    return open_, sigma, norms


def concatenation_check(path: SymplecticPath, m: float) -> bool:
    """Index additivity across a split point that is not a crossing; spectral-flow
    windows telescope, so this holds by construction."""
    if not (path.t_start < m < path.t_end):
        raise ValueError("split point must lie strictly inside the path domain")
    psi = evaluate(path, m)
    if _sigma_min(psi) <= 10.0 * KERNEL_RATIO * float(np.linalg.norm(psi, 2)):
        raise ValueError(f"split point t={m} is a crossing time")
    whole = rs_index(path, interval=(path.t_start, path.t_end))
    left = rs_index(path, interval=(path.t_start, m))
    right = rs_index(path, interval=(m, path.t_end))
    return whole.half_units == left.half_units + right.half_units


def crossing_form_index(path, interval=None, policy: str = OPEN_OPEN) -> IndexValue:
    """Reference Robbin-Salamon index assembled from the crossing forms of
    the closed scan of [a, b]: interior crossings add their signature sum
    p - q, crossings at a or b half of it under ``rs_halves`` and raise
    under ``open_open`` (except the identity at the path's start)."""
    a, b = interval if interval is not None else (path.t_start, path.t_end)
    crossings = _scan_closed(path, a, b)
    halves = 0
    for c in crossings:
        at_end = min(abs(c.time - a), abs(c.time - b)) <= ENDPOINT_TOL
        if not c.regular:
            raise IrregularCrossingError(f"irregular crossing at t={c.time:.6f}")
        if not at_end:
            halves += 2 * c.signature_sum
        elif policy == RS_HALVES:
            halves += c.signature_sum
        elif abs(c.time - path.t_start) > ENDPOINT_TOL:
            raise EndpointCrossingError(f"crossing at interval endpoint t={c.time:.6f}")
    return IndexValue(half_units=halves, interval=(float(a), float(b)), policy=policy)


def frame_phase(psi: np.ndarray) -> float:
    """The graph phase 2 arg det Z of the frame Z = (Psi + I) + i J (Psi - I),
    with det Z by Gaussian elimination in exact rational arithmetic from the
    float entries of Psi, so that only the final angle rounds.

    Floating-point det Z loses about eps cond(Z) of phase, and cond(Z)
    grows like ||Psi||^2, which would swamp the comparison at large norms.
    """
    d = len(psi)
    J = standard_structure(d // 2).J
    q = [[Fraction(float(x)) for x in row] for row in psi]
    rows = [[(q[i][j] + (i == j),
              sum(int(J[i, k]) * (q[k][j] - (k == j)) for k in range(d) if J[i, k]))
             for j in range(d)] for i in range(d)]
    det_re, det_im = Fraction(1), Fraction(0)
    for c in range(d):
        p = next(r for r in range(c, d) if rows[r][c] != (0, 0))
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            det_re, det_im = -det_re, -det_im
        a, b = rows[c][c]
        det_re, det_im = det_re * a - det_im * b, det_re * b + det_im * a
        norm = a * a + b * b
        for r in range(c + 1, d):
            x, y = rows[r][c]
            f_re, f_im = (x * a + y * b) / norm, (y * a - x * b) / norm
            rows[r] = [(u - (f_re * v - f_im * w), z - (f_re * w + f_im * v))
                       for (u, z), (v, w) in zip(rows[r], rows[c])]
    return 2.0 * math.atan2(float(det_im), float(det_re))


def cayley_form(psi: np.ndarray) -> np.ndarray:
    """K = J (Psi - I)(Psi + I)^-1, symmetric for symplectic Psi without
    eigenvalue -1, and singular exactly where Psi has eigenvalue 1."""
    d = len(psi)
    k = standard_structure(d // 2).J @ (psi - np.eye(d)) @ np.linalg.inv(psi + np.eye(d))
    return 0.5 * (k + k.T)


def _cayley_signature(psi: np.ndarray) -> int:
    w = np.linalg.eigvalsh(cayley_form(psi))
    tol = 1e-8 * max(1.0, float(np.abs(w).max()))
    return int(np.sum(w > tol) - np.sum(w < -tol))


def cayley_index(path: SymplecticPath, interval: tuple[float, float] | None = None,
                 policy: str = OPEN_OPEN, clearance: float = 0.05) -> IndexValue:
    """Reference Robbin-Salamon index from the inertia of the Cayley form.

    On a window where Psi never has eigenvalue -1, K(t) = `cayley_form`
    is a continuous path of symmetric matrices whose kernel is
    ker(Psi - I), so the index in half-units is sign K(a) - sign K(b), an
    end crossing counting half by itself.  It reads no eigenangle, no
    graph phase and no scan.  Under ``open_open`` a window from the path's
    start counts from the first node after it, and a kernel at either end
    raises.  Raises ValueError unless sigma_min(Psi + I) >= clearance
    ||Psi|| at both ends and every node between them.
    """
    a, b = interval if interval is not None else (path.t_start, path.t_end)
    lo = a
    if policy == OPEN_OPEN and abs(a - path.t_start) <= ENDPOINT_TOL:
        lo = float(path.times[1])
    inside = (path.times > lo) & (path.times < b)
    for psi in [evaluate(path, lo), *path.matrices[inside], evaluate(path, b)]:
        smin = np.linalg.svd(psi + np.eye(len(psi)), compute_uv=False)[-1]
        if smin < clearance * np.linalg.norm(psi, 2):
            raise ValueError("window not clear of eigenvalue -1")
    ends = [_cayley_signature(evaluate(path, t)) for t in (lo, b)]
    if policy == OPEN_OPEN:
        for t in (lo, b):
            psi = evaluate(path, t)
            smin = np.linalg.svd(psi - np.eye(len(psi)), compute_uv=False)[-1]
            if smin < 1e-7 * np.linalg.norm(psi, 2):
                raise EndpointCrossingError(f"crossing at interval endpoint t={t:.6f}")
    return IndexValue(half_units=ends[0] - ends[1], interval=(float(a), float(b)), policy=policy)


# -- planar winding oracle -----------------------------------------------------


def _planar_angles(path: SymplecticPath) -> np.ndarray:
    """Continuous eigenvalue angle along a planar path, unwrapped from 0.

    For elliptic M in SL(2) the eigenvalues are exp(+-i theta) with
    cos theta = tr/2, and the rotation direction is the sign of
    M[1,0] - M[0,1] (a conjugation invariant).  Hyperbolic stretches clip to
    the nearest multiple of pi, freezing the angle there.
    """
    tr = np.einsum("kii->ki", path.matrices).sum(axis=1)
    theta = np.arccos(np.clip(tr / 2.0, -1.0, 1.0))
    skew = path.matrices[:, 1, 0] - path.matrices[:, 0, 1]
    sign = np.where(skew >= 0.0, 1.0, -1.0)
    return np.unwrap(sign * theta)


def planar_winding_index(path: SymplecticPath,
                         interval: tuple[float, float] | None = None,
                         policy: str = OPEN_OPEN) -> IndexValue:
    """Independent index oracle for planar paths via angle tracking.

    Tracks the continuous eigenvalue angle of the SL(2) path and counts the
    events where the trace touches 2 (full turns of the angle).  Each event
    contributes sign(dPhi) * mult, with mult = 2 when the matrix returns to
    the identity and 1 at a parabolic passage, full weight in the interior
    and half weight at closed endpoints under ``rs_halves``.  Shares nothing
    with the crossing scan, so it cross-checks `rs_index` in dimension 2.
    """
    if path.dim != 2:
        raise ValueError("planar winding index is defined only in dimension 2")
    if policy not in (OPEN_OPEN, RS_HALVES):
        raise ValueError(f"unknown endpoint policy {policy!r}")
    a, b = interval if interval is not None else (path.t_start, path.t_end)
    if not (path.t_start - 1e-12 <= a < b <= path.t_end + 1e-12):
        raise ValueError(f"interval ({a}, {b}) outside path domain")

    ts = path.times
    phi = _planar_angles(path)
    g = np.einsum("kii->ki", path.matrices).sum(axis=1) - 2.0

    # Event times: zeros of tr - 2, found from sign changes and near-zero
    # local maxima (touching zeros), refined independently of the scan.
    event_times: list[float] = []

    def refine_touch(lo: float, hi: float) -> float | None:
        res = minimize_scalar(lambda t: 2.0 - np.trace(evaluate(path, t)),
                              bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-12})
        return float(res.x) if res.fun <= 1e-9 else None

    n = len(ts)
    for i in range(n):
        if abs(g[i]) <= 1e-12:
            event_times.append(float(ts[i]))
            continue
        if i + 1 < n and g[i] * g[i + 1] < 0.0:
            event_times.append(float(brentq(
                lambda t: float(np.trace(evaluate(path, t))) - 2.0, ts[i], ts[i + 1],
                xtol=1e-13)))
        is_peak = (i == 0 or g[i] >= g[i - 1]) and (i + 1 == n or g[i] >= g[i + 1])
        if is_peak and g[i] < 0.0 and g[i] > -1e-2:
            lo = float(ts[max(i - 1, 0)])
            hi = float(ts[min(i + 1, n - 1)])
            tau = refine_touch(lo, hi)
            if tau is not None:
                event_times.append(tau)

    event_times.sort()
    merged: list[float] = []
    for tau in event_times:
        if merged and tau - merged[-1] <= ENDPOINT_TOL:
            continue
        merged.append(tau)

    def direction(tau: float) -> int:
        span = max(3.0 * path.grid_spacing, 1e-3)
        lo = max(path.t_start, tau - span)
        hi = min(path.t_end, tau + span)
        p_lo = float(np.interp(lo, ts, phi))
        p_hi = float(np.interp(hi, ts, phi))
        if p_hi > p_lo + 1e-12:
            return 1
        if p_hi < p_lo - 1e-12:
            return -1
        return 0

    def multiplicity(tau: float) -> int:
        psi = evaluate(path, tau)
        return 2 if np.abs(psi - np.eye(2)).max() <= 1e-5 else 1

    halves = 0
    for tau in merged:
        at_a = abs(tau - a) <= ENDPOINT_TOL
        at_b = abs(tau - b) <= ENDPOINT_TOL
        if tau < a - ENDPOINT_TOL or tau > b + ENDPOINT_TOL:
            continue
        d = direction(tau)
        if d == 0:
            continue
        if at_a or at_b:
            if policy == OPEN_OPEN:
                if at_a and abs(a - path.t_start) <= ENDPOINT_TOL:
                    continue
                raise EndpointCrossingError(
                    f"winding event at interval endpoint t={tau:.6f} under open_open"
                )
            halves += d * multiplicity(tau)
        else:
            halves += 2 * d * multiplicity(tau)
    return IndexValue(half_units=int(halves), interval=(float(a), float(b)), policy=policy)
