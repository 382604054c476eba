"""Crossing detection and Robbin-Salamon / Conley-Zehnder index assembly.

A crossing is a time where Psi(tau) has eigenvalue 1, i.e. where the graph
of Psi(tau) meets the diagonal Lagrangian.  Detection tracks local minima
of sigma_min(Psi(t) - I) on the node grid and refines them by bounded
scalar minimization; determinant sign changes are useless here because the
generic crossing is a touching zero.  Two thresholds separate concerns: a
loose slope-aware trigger decides which minima are worth refining, and a
tight kernel threshold (1e-7 relative) decides membership in the
eigenvalue-1 kernel, i.e. the multiplicity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .errors import (
    CrossingResolutionError,
    EndpointCrossingError,
    IrregularCrossingError,
)
from .flows import SymplecticPath, evaluate

__all__ = [
    "Crossing",
    "IndexValue",
    "OPEN_OPEN",
    "RS_HALVES",
    "find_crossings",
    "crossing_form",
    "rs_index",
    "concatenation_check",
    "planar_winding_index",
]

OPEN_OPEN = "open_open"
RS_HALVES = "rs_halves"

TRIGGER_RATIO = 1e-3
KERNEL_RATIO = 1e-7
TIME_TOL = 1e-10
ENDPOINT_TOL = 1e-9
_FORM_ZERO_RATIO = 1e-8


@dataclass(frozen=True, eq=False)
class Crossing:
    """One conjugate time of the flow.

    ``kernel_basis`` has orthonormal columns spanning ker(Psi(tau) - I);
    ``signature`` counts (positive, negative) eigenvalues of the crossing
    form on that kernel; ``regular`` means the form is nondegenerate there.
    """

    time: float
    multiplicity: int
    kernel_basis: np.ndarray
    signature: tuple[int, int]
    regular: bool

    @property
    def signature_sum(self) -> int:
        return self.signature[0] - self.signature[1]


@dataclass(frozen=True)
class IndexValue:
    """A half-integer index, stored exactly as a count of half-units."""

    half_units: int
    interval: tuple[float, float]
    policy: str

    @property
    def value(self) -> float:
        return self.half_units / 2.0


def crossing_form(s_at_tau: np.ndarray, kernel_basis: np.ndarray) -> tuple[int, int]:
    """Signature (p, q) of v -> v.S(tau).v restricted to the kernel.

    The convention self-test certifies that this realization of the crossing
    form carries the correct sign (negative definite at a maximizer).  Zero
    eigenvalues below tolerance make the crossing irregular, which shows up
    as p + q < multiplicity.
    """
    basis = np.asarray(kernel_basis, dtype=float)
    if basis.ndim != 2 or basis.shape[1] == 0:
        raise ValueError("kernel basis must be a nonempty matrix of columns")
    gram = basis.T @ basis
    if np.abs(gram - np.eye(basis.shape[1])).max() > 1e-8:
        raise ValueError("kernel basis must be orthonormal")
    s = np.asarray(s_at_tau, dtype=float)
    form = basis.T @ s @ basis
    form = 0.5 * (form + form.T)
    w = np.linalg.eigvalsh(form)
    ztol = _FORM_ZERO_RATIO * max(1.0, float(np.abs(s).max()))
    p = int(np.sum(w > ztol))
    q = int(np.sum(w < -ztol))
    return (p, q)


def _crossing_at(path: SymplecticPath, tau: float) -> Crossing | None:
    psi = evaluate(path, tau)
    diff = psi - np.eye(path.dim)
    u, s, vh = np.linalg.svd(diff)
    scale = float(np.linalg.norm(psi, 2))
    mask = s < KERNEL_RATIO * scale
    mult = int(mask.sum())
    if mult == 0:
        return None
    basis = vh[mask].T
    p, q = crossing_form(path.generator(tau), basis)
    return Crossing(time=float(tau), multiplicity=mult, kernel_basis=basis,
                    signature=(p, q), regular=(p + q == mult))


def _sigma_min_at(path: SymplecticPath, t: float) -> float:
    diff = evaluate(path, t) - np.eye(path.dim)
    return float(np.linalg.svd(diff, compute_uv=False)[-1])


def _v_refine(path: SymplecticPath, tau: float, lo: float, hi: float) -> tuple[float, float]:
    """Sharpen a located minimum of sigma_min(Psi(t) - I).

    Near a touching zero the function is a V, |c (t - tau)| to leading
    order, so two straddling samples intersect at the vertex.  Bounded
    scalar minimization stalls around 1e-9 on the kink; two secant passes
    reach the 1e-10 location tolerance.
    """
    val = _sigma_min_at(path, tau)
    for d in (1e-5, 1e-8):
        tl = max(lo, tau - d)
        tr = min(hi, tau + d)
        if tr - tl < 0.5 * d:
            break
        fl = _sigma_min_at(path, tl)
        fr = _sigma_min_at(path, tr)
        slope = (fl + fr) / (tr - tl)
        if slope <= 0.0:
            break
        cand = (fl - fr + slope * (tl + tr)) / (2.0 * slope)
        if not (tl < cand < tr):
            break
        fv = _sigma_min_at(path, cand)
        if fv <= val:
            tau, val = cand, fv
    return tau, val


def _scan_closed(path: SymplecticPath, a: float, b: float) -> list[Crossing]:
    """All crossings with tau in [a, b] (up to endpoint tolerance), sorted.

    The list always starts with the identity crossing when a is the path's
    start time, and crossings closer than one grid step raise.
    """
    h = path.grid_spacing
    inner = (path.times > a + 1e-14) & (path.times < b - 1e-14)
    ts = np.concatenate(([a], path.times[inner], [b]))
    fs = np.empty_like(ts)
    fs[0] = _sigma_min_at(path, a)
    fs[-1] = _sigma_min_at(path, b)
    if inner.any():
        fs[1:-1] = path.sigma_min_nodes()[inner]
    # Norm scale per node, bounded via ||Psi|| <= ||Psi - I|| + 1.
    norms = fs + 1.0

    candidates = []
    n = len(ts)
    for i in range(n):
        dl = fs[i] - fs[i - 1] if i > 0 else 0.0
        dr = fs[i + 1] - fs[i] if i + 1 < n else 0.0
        if i > 0 and dl > 0:
            continue
        if i + 1 < n and dr < 0:
            continue
        # Slope-aware trigger: a crossing reached at speed v leaves a node
        # minimum as large as v*h/2, so the raw threshold alone would miss
        # fast crossings on coarse grids.
        gate = TRIGGER_RATIO * norms[i] + 2.0 * (abs(dl) + abs(dr))
        if fs[i] <= gate:
            candidates.append(i)

    located: list[tuple[float, float]] = []
    gap = 1e-7

    def side_dips(lo: float, hi: float, far_is_high: bool, n_probe: int = 25):
        """Sub-brackets around dips of sigma_min on one side of a found zero.

        The edge next to the found zero always slopes up and is skipped; the
        far edge gets a one-sided descent test so a zero hiding in the last
        probe interval is not lost.
        """
        probe_t = np.linspace(lo, hi, n_probe)
        probe_f = [_sigma_min_at(path, float(t)) for t in probe_t]
        out = []
        for j in range(1, n_probe - 1):
            if probe_f[j] <= probe_f[j - 1] and probe_f[j] <= probe_f[j + 1]:
                out.append((float(probe_t[j - 1]), float(probe_t[j + 1])))
        if far_is_high and probe_f[-1] < probe_f[-2]:
            out.append((float(probe_t[-2]), float(probe_t[-1])))
        if not far_is_high and probe_f[0] < probe_f[1]:
            out.append((float(probe_t[0]), float(probe_t[1])))
        return out

    def locate(lo: float, hi: float, depth: int) -> None:
        if hi - lo <= 4.0 * TIME_TOL:
            located.append((lo, _sigma_min_at(path, lo)))
            return
        res = minimize_scalar(lambda t: _sigma_min_at(path, t), bounds=(lo, hi),
                              method="bounded", options={"xatol": 1e-12})
        tau, val = _v_refine(path, float(res.x), lo, hi)
        located.append((tau, val))
        # A bracket can hide several touching zeros behind one grid minimum
        # (clustered crossings); once a zero is confirmed, sweep both sides.
        if depth >= 2 or val > 1e4 * KERNEL_RATIO:
            return
        for s_lo, s_hi, far_is_high in ((lo, tau - gap, False), (tau + gap, hi, True)):
            if s_hi - s_lo <= 10.0 * gap:
                continue
            for d_lo, d_hi in side_dips(s_lo, s_hi, far_is_high):
                locate(d_lo, d_hi, depth + 1)

    for i in candidates:
        locate(ts[max(i - 1, 0)], ts[min(i + 1, n - 1)], 0)
    # Explicit endpoint checks so flat zeros at a or b are never missed.
    located.append((float(a), float(fs[0])))
    located.append((float(b), float(fs[-1])))

    located.sort()
    # Merge radius sits above the side-sweep gap and far below any usable
    # grid, so re-located copies of one zero collapse while separable
    # crossings never do.
    merge_radius = 1e-6
    merged: list[tuple[float, float]] = []
    for tau, val in located:
        if merged and tau - merged[-1][0] <= merge_radius:
            if val < merged[-1][1]:
                merged[-1] = (tau, val)
            continue
        merged.append((tau, val))

    crossings = []
    for tau, _val in merged:
        c = _crossing_at(path, tau)
        if c is not None:
            crossings.append(c)
    for left, right in zip(crossings, crossings[1:]):
        if right.time - left.time < h:
            raise CrossingResolutionError(
                f"crossings at t={left.time:.6f} and t={right.time:.6f} are closer "
                f"than the grid resolution {h:.2e}; refine steps"
            )
    return crossings


def find_crossings(path: SymplecticPath,
                   window: tuple[float, float] | None = None) -> list[Crossing]:
    """Crossings of the path with the Maslov cycle in the half-open (a, b].

    Times are located to tolerance 1e-10.  A crossing within tolerance of b
    is included (callers that require nondegeneracy must check it), while
    the excluded endpoint a is dropped, which in particular removes the
    structural identity crossing at the start of every path.
    """
    a, b = window if window is not None else (path.t_start, path.t_end)
    if not (path.t_start - 1e-12 <= a < b <= path.t_end + 1e-12):
        raise ValueError(f"window ({a}, {b}] outside path domain")
    crossings = _scan_closed(path, max(a, path.t_start), min(b, path.t_end))
    return [c for c in crossings if c.time > a + ENDPOINT_TOL]


def rs_index(path: SymplecticPath, interval: tuple[float, float] | None = None,
             policy: str = OPEN_OPEN) -> IndexValue:
    """Robbin-Salamon index of the path over an interval.

    With ``open_open`` the interval is the half-open (a, b]: interior
    crossings contribute their full signature sum p - q, and a crossing at
    either endpoint raises (the single exemption being the structural
    identity crossing when a is the path's own start time, which the
    half-open window excludes exactly).  With ``rs_halves`` the interval is
    closed and endpoint crossings contribute half their signature sum,
    which is what makes index values at individual times well defined from
    t = 0.  Any irregular crossing raises, since the index is undefined
    without perturbation.
    """
    if policy not in (OPEN_OPEN, RS_HALVES):
        raise ValueError(f"unknown endpoint policy {policy!r}")
    a, b = interval if interval is not None else (path.t_start, path.t_end)
    if not (path.t_start - 1e-12 <= a < b <= path.t_end + 1e-12):
        raise ValueError(f"interval ({a}, {b}) outside path domain")
    crossings = _scan_closed(path, max(a, path.t_start), min(b, path.t_end))
    return _index_from_crossings(path, crossings, a, b, policy)


def _index_from_crossings(path: SymplecticPath, crossings: list[Crossing],
                          a: float, b: float, policy: str) -> IndexValue:
    """`rs_index` over [a, b] from the closed-window scan of [a, b]."""
    at_a = [c for c in crossings if abs(c.time - a) <= ENDPOINT_TOL]
    at_b = [c for c in crossings if abs(c.time - b) <= ENDPOINT_TOL]
    interior = [c for c in crossings
                if abs(c.time - a) > ENDPOINT_TOL and abs(c.time - b) > ENDPOINT_TOL]

    for c in interior + (at_a + at_b if policy == RS_HALVES else []):
        if not c.regular:
            raise IrregularCrossingError(
                f"irregular crossing at t={c.time:.6f}: form singular on the kernel"
            )

    if policy == OPEN_OPEN:
        start_exempt = abs(a - path.t_start) <= ENDPOINT_TOL
        if (at_a and not start_exempt) or at_b:
            where = f"t={at_a[0].time:.6f}" if (at_a and not start_exempt) else f"t={at_b[0].time:.6f}"
            raise EndpointCrossingError(
                f"crossing at interval endpoint ({where}) under open_open policy"
            )
        halves = 2 * sum(c.signature_sum for c in interior)
    else:
        halves = 2 * sum(c.signature_sum for c in interior)
        halves += sum(c.signature_sum for c in at_a + at_b)
    return IndexValue(half_units=int(halves), interval=(float(a), float(b)), policy=policy)


def concatenation_check(path: SymplecticPath, m: float) -> bool:
    """Verify index additivity across a split point that is not a crossing."""
    if not (path.t_start < m < path.t_end):
        raise ValueError("split point must lie strictly inside the path domain")
    psi = evaluate(path, m)
    smin = float(np.linalg.svd(psi - np.eye(path.dim), compute_uv=False)[-1])
    if smin <= 10.0 * KERNEL_RATIO * float(np.linalg.norm(psi, 2)):
        raise ValueError(f"split point t={m} is a crossing time")
    whole = rs_index(path, interval=(path.t_start, path.t_end))
    left = rs_index(path, interval=(path.t_start, m))
    right = rs_index(path, interval=(m, path.t_end))
    return whole.half_units == left.half_units + right.half_units


# ---------------------------------------------------------------------------
# Planar winding oracle


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
    with the sigma_min scan, so it cross-checks `rs_index` in dimension 2.
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
    # local maxima (touching zeros), refined independently of sigma_min.
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
