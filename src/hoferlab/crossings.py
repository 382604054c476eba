"""Crossing detection and Robbin-Salamon / Conley-Zehnder indices.

A crossing is a time where Psi(tau) has eigenvalue 1, i.e. where the graph
of Psi(tau) meets the diagonal Lagrangian.  Two independent algorithms read
it.

* The index is a spectral flow (Robbin-Salamon, "The Maslov index for
  paths", 1993; Cappell-Lee-Miller, "On the Maslov index", 1994).  The
  unitary W of the graph of Psi (`flows.graph_angles`) has eigenangles
  that pass 0 mod 2 pi exactly at crossings, upward where the crossing form
  is negative.  `rs_index` lifts their sum, the graph phase, across the
  window (`flows.phase_window`) and takes eigenangles at the two ends only;
  it locates no crossing.
* The crossings themselves (times, multiplicities, crossing forms) come
  from a scan of sigma_min(Psi(t) - I): node minima under a loose
  slope-aware trigger, taken over all nodes at once, are refined by bounded
  Brent minimization (`_minimize_bounded`, a port of scipy's, so importing
  the package loads no scipy module; the identity at the path start is
  placed by the endpoint rule, unrefined), and a tight kernel threshold
  (1e-7 relative) decides the multiplicity.  Determinant sign changes are
  useless here: the generic crossing is a touching zero.  The scan closes its count against
  the phase, so a crossing the trigger skips is found or reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CrossingResolutionError, EndpointCrossingError
from .flows import SymplecticPath, evaluate, graph_angles, phase_window

__all__ = [
    "Crossing",
    "IndexValue",
    "OPEN_OPEN",
    "RS_HALVES",
    "find_crossings",
    "crossing_form",
    "rs_index",
    "concatenation_check",
]

OPEN_OPEN = "open_open"
RS_HALVES = "rs_halves"

TRIGGER_RATIO = 1e-3
KERNEL_RATIO = 1e-7
TIME_TOL = 1e-10
ENDPOINT_TOL = 1e-9
_FORM_ZERO_RATIO = 1e-8
# Largest disagreement, in turns, of eigvals and det on the graph unitary.
_TURN_TOL = 1e-6


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


def _sigma_min(psi: np.ndarray) -> float:
    return float(np.linalg.svd(psi - np.eye(len(psi)), compute_uv=False)[-1])


def _sigma_min_at(path: SymplecticPath, t: float) -> float:
    return _sigma_min(evaluate(path, t))


def _v_refine(path: SymplecticPath, tau: float, val: float, lo: float,
              hi: float) -> tuple[float, float]:
    """Sharpen a located minimum ``val`` = sigma_min(Psi(tau) - I).

    Near a touching zero the function is a V, |c (t - tau)| to leading
    order, so two straddling samples intersect at the vertex.  Bounded
    scalar minimization stalls around 1e-9 on the kink; two secant passes
    reach the 1e-10 location tolerance.
    """
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


def _counts(psis: np.ndarray, phases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectral counts, in half-units, and kernel dimensions of a stack of Psi.

    With ``phases`` a lift Phi of the eigenangle sum of W, the count is
    2 sum_j (#{k: 2 pi k < phi_j} + #{k: 2 pi k = phi_j} / 2) up to one
    constant, i.e. 2 ((Phi - sum_j theta_j) / 2 pi + #{theta_j > 0})
    + #kernel with theta_j the principal eigenangles.  The kernel is the k
    angles nearest 0, with k by `_crossing_at`'s rule.  The spectral flow
    from s to t is count(s) - count(t).

    Any lift equals the eigenangle sum mod 2 pi (`phase_window` certifies
    the lift), so the turn check only compares `eigvals` of W with `det` of
    Z: it fires on eigenvalues too ill-conditioned to count, which a finer
    grid does not fix.
    """
    diff = psis - np.eye(psis.shape[-1])
    theta = graph_angles(diff)
    turns = (phases - theta.sum(axis=1)) / (2.0 * math.pi)
    whole = np.rint(turns)
    if np.abs(turns - whole).max() > _TURN_TOL:
        raise CrossingResolutionError(
            "eigvals and det of the graph unitary disagree: ill-conditioned eigenvalues"
        )
    sigma = np.linalg.svd(diff, compute_uv=False)
    norms = np.linalg.norm(psis, 2, axis=(1, 2))
    kernel = (sigma < KERNEL_RATIO * norms[:, None]).sum(axis=1)
    nearness = np.argsort(np.argsort(np.abs(theta), axis=1), axis=1)
    positive = ((theta > 0.0) & (nearness >= kernel[:, None])).sum(axis=1)
    return (2 * whole + 2 * positive + kernel).astype(int), kernel


def _sign(v: float) -> float:
    # np.sign(v) + (v == 0): +1 for 0.0 and -0.0, nan for nan.
    return 1.0 if v >= 0.0 else -1.0 if v < 0.0 else math.nan


def _minimize_bounded(func, a: float, b: float) -> tuple[float, float]:
    """(x, func(x)) at a local minimum of ``func`` on [a, b], by bounded Brent.

    A port of `_minimize_scalar_bounded` from scipy.optimize (scipy 1.17;
    optimize.py by Travis E. Oliphant, (c) the SciPy Developers, BSD-3-Clause;
    R. P. Brent, "Algorithms for Minimization without Derivatives", 1973),
    with the same expressions in the same order: the iterates, result and
    call count equal `minimize_scalar(method="bounded")` with `xatol` 1e-12.
    """
    xatol, maxfun = 1e-12, 500
    sqrt_eps, golden_mean = math.sqrt(2.2e-16), 0.5 * (3.0 - math.sqrt(5.0))
    xf = nfc = fulc = a + golden_mean * (b - a)
    rat = e = 0.0
    fx = ffulc = fnfc = func(xf)
    num = 1
    while True:
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if not abs(xf - xm) > (tol2 - 0.5 * (b - a)) or num >= maxfun:
            return xf, fx
        golden = True
        if abs(e) > tol1:  # parabolic fit
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            p = -p if q > 0.0 else p
            q, r, e = abs(q), e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _sign(xm - xf)
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        x = xf + _sign(rat) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu


def _locate(path: SymplecticPath, lo: float, hi: float) -> tuple[float, float]:
    """(time, sigma_min) of the minimum of sigma_min(Psi(t) - I) on [lo, hi]."""
    if hi - lo <= 4.0 * TIME_TOL:
        return lo, _sigma_min_at(path, lo)
    tau, val = _minimize_bounded(lambda t: _sigma_min_at(path, t), float(lo), float(hi))
    return _v_refine(path, tau, val, lo, hi)


def _classify(path: SymplecticPath, located: list[tuple[float, float]]) -> list[Crossing]:
    """Crossings at the located minima, one per cluster of copies."""
    # Copies of one zero re-located from overlapping brackets land within
    # the merge radius, far below any usable grid step, so separable
    # crossings never merge.
    merge_radius = 1e-6
    merged: list[tuple[float, float]] = []
    for tau, val in sorted(located):
        if merged and tau - merged[-1][0] <= merge_radius:
            if val < merged[-1][1]:
                merged[-1] = (tau, val)
            continue
        merged.append((tau, val))
    crossings = [_crossing_at(path, tau) for tau, _val in merged]
    return [c for c in crossings if c is not None]


def _candidates(fs: np.ndarray) -> np.ndarray:
    """Ascending indices of the node minima of ``fs`` under the trigger gate."""
    dl = np.diff(fs, prepend=fs[0])
    dr = np.diff(fs, append=fs[-1])
    # Slope-aware trigger: a crossing reached at speed v leaves a node minimum as large
    # as v*h/2, which the raw threshold (relative to sigma_min + 1) misses on coarse grids.
    gate = TRIGGER_RATIO * (fs + 1.0) + 2.0 * (np.abs(dl) + np.abs(dr))
    return np.flatnonzero((dl <= 0) & (dr >= 0) & (fs <= gate))


def _halves(crossings: list[Crossing], a: float, b: float) -> int:
    """Multiplicity sum in half-units; crossings at a or b count half."""
    return sum(c.multiplicity * (1 if min(c.time - a, b - c.time) <= ENDPOINT_TOL else 2)
               for c in crossings)


def _scan_closed(path: SymplecticPath, a: float, b: float) -> list[Crossing]:
    """All crossings with tau in [a, b] (up to endpoint tolerance), sorted.

    The list always starts with the identity crossing when a is the path's
    start time; the endpoint rule places it.  The located multiplicity is
    closed against the spectral flow of the graph phase over [a, b]: when
    the phase shows more, every node interval where the spectral count
    changes and no crossing lies is refined, and a count that still falls
    short raises, as do crossings closer than one grid step.
    """
    h = path.grid_spacing
    inner, ts, ends, phase = phase_window(path, a, b)
    fs = np.concatenate(
        ([_sigma_min(ends[0])], path.sigma_min_nodes()[inner], [_sigma_min(ends[1])]))

    # From the path start, node 0 is the stored identity: the endpoint entry
    # below places it at a, so a refinement of it would only be discarded.
    located = [_locate(path, ts[max(i - 1, 0)], ts[min(i + 1, len(ts) - 1)])
               for i in _candidates(fs) if i > 0 or a != path.t_start]
    # Explicit endpoint checks so flat zeros at a or b are never missed.  An
    # end where Psi has a kernel by `_crossing_at`'s rule, the rule rs_index
    # uses, wins its merge cluster, so that crossing sits at the end itself.
    for t, f, psi in ((a, fs[0], ends[0]), (b, fs[-1], ends[1])):
        located.append((float(t), -1.0 if f < KERNEL_RATIO * np.linalg.norm(psi, 2) else f))
    crossings = _classify(path, located)

    count, _kernel = _counts(ends, phase[[0, -1]])
    flow = abs(int(count[1] - count[0]))
    if _halves(crossings, a, b) < flow:
        node_count, _kernel = _counts(
            np.concatenate((ends[:1], path.matrices[inner], ends[1:])), phase)
        for i in np.flatnonzero(node_count[1:] != node_count[:-1]):
            lo, hi = float(ts[i]), float(ts[i + 1])
            if not any(lo <= c.time <= hi for c in crossings):
                located.append(_locate(path, lo, hi))
        crossings = _classify(path, located)
        if (found := _halves(crossings, a, b)) < flow:
            raise CrossingResolutionError(
                f"the scan locates {found} of the {flow} half-units of crossings that "
                f"the graph phase shows on [{a:.6f}, {b:.6f}]; refine steps")
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
    """Robbin-Salamon index of the path over an interval, as a spectral flow.

    The index is count(a) - count(b) for the spectral count of the graph
    unitary (see `_counts`), so a regular crossing contributes its
    signature sum p - q and irregular crossings need no special case.
    With ``open_open`` the interval is the half-open (a, b], and a crossing
    at either endpoint raises; the single exemption is the identity when a
    is the path's own start time, which is excluded by counting from the
    first sample after it.  With ``rs_halves`` the interval is closed and
    endpoint crossings contribute half, which is what makes index values at
    individual times well defined from t = 0.
    """
    if policy not in (OPEN_OPEN, RS_HALVES):
        raise ValueError(f"unknown endpoint policy {policy!r}")
    a, b = interval if interval is not None else (path.t_start, path.t_end)
    if not (path.t_start - 1e-12 <= a < b <= path.t_end + 1e-12):
        raise ValueError(f"interval ({a}, {b}) outside path domain")
    lo, hi = max(a, path.t_start), min(b, path.t_end)
    if policy == OPEN_OPEN and abs(a - path.t_start) <= ENDPOINT_TOL:
        lo = min(float(path.times[1]), hi)
    _inner, _ts, ends, phase = phase_window(path, lo, hi)
    count, kernel = _counts(ends, phase[[0, -1]])
    if policy == OPEN_OPEN and kernel.any():
        where = hi if kernel[1] else lo
        raise EndpointCrossingError(
            f"crossing at interval endpoint (t={where:.6f}) under open_open policy"
        )
    return IndexValue(half_units=int(count[0] - count[1]), interval=(float(a), float(b)),
                      policy=policy)


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
