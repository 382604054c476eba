"""Crossing detection and Robbin-Salamon / Conley-Zehnder indices.

A crossing is a time where Psi(tau) has eigenvalue 1, i.e. where the graph
of Psi(tau) meets the diagonal Lagrangian.  The unitary W of that graph
(`flows.graph_angles`) has eigenangles that pass 0 mod 2 pi exactly at
crossings, upward where the crossing form is negative (Robbin-Salamon,
"The Maslov index for paths", 1993; Cappell-Lee-Miller, "On the Maslov
index", 1994).  Both algorithms read W.

* The index is a spectral flow: `rs_index` lifts the eigenangle sum, the
  graph phase, across the window (`flows.phase_window`) and takes
  eigenangles at the two ends only; it locates no crossing.  Both
  algorithms read the phase at a time from the lifted sample at or before
  it (`_lifted`), so one lift can serve a scan and several indices.
* The scan certifies spans of node intervals crossing-free, coarse to
  fine, from bounds on sigma_min(Psi_i - I) at their ends and a bound on
  how fast `evaluate` moves (`_certified`, `_open_intervals`).
  For a definite generator each crossing is a transversal, one-way sign
  change of eigenangles (Arnold, "Sturm theorems and symplectic geometry",
  1985), so in the other intervals the angles that change sign, matched by
  their order, are root-found with a port of Brent's zero, all of a scan's
  root-finds in lockstep (`_roots`), and a kernel threshold (1e-7
  relative) gives each root its multiplicity and crossing form
  (`_crossings_at`).  The multiplicities found must add up to the
  spectral flow.

One kernel rule decides both sides of the theorem: the multiplicities
dim ker(Psi(tau) - I) at the crossings and the kernels the index counts at
the window ends.  `_kernels` writes it once, sigma(Psi - I) < `KERNEL_RATIO`
||Psi||_2, and takes both from one SVD call per stack; every kernel the
scan and the index read, at roots, window ends, cuts and bisection runs,
comes from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CrossingResolutionError, EndpointCrossingError
from .flows import (
    INDEFINITE,
    _DOMAIN_SLACK,
    SymplecticPath,
    _principal,
    evaluate,
    graph_angles,
    graph_phase,
    interpolant_bound,
    phase_window,
)

__all__ = [
    "Crossing",
    "IndexValue",
    "OPEN_OPEN",
    "RS_HALVES",
    "find_crossings",
    "crossing_form",
    "rs_index",
]

OPEN_OPEN = "open_open"
RS_HALVES = "rs_halves"

KERNEL_RATIO = 1e-7
TIME_TOL = 1e-10
ENDPOINT_TOL = 1e-9
_FORM_ZERO_RATIO = 1e-8
# Largest disagreement, in turns, of eigvals and det on the graph unitary.
_TURN_TOL = 1e-6
# Brent's zero stops on brackets this narrow, far inside TIME_TOL.
_ROOT_XTOL = 1e-13
# A bisection certifies sigma_min above this floor (relative to ||Psi||,
# above the rounding of one step product), keeping at most 64 pieces open.
_ROUNDING = 1e-12
_BISECT_PIECES = 64


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


def _kernels(psis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sigma(Psi - I), descending, and the kernel mask of each Psi of a
    stack.  The mask holds the singular values below `KERNEL_RATIO`
    ||Psi||_2, the kernel rule of the crossings and of the spectral counts
    alike.  Both come from one SVD call on the stack of every Psi - I and
    Psi; LAPACK works per matrix, so they have the bits of separate calls."""
    sv = np.linalg.svd(np.concatenate((psis - np.eye(psis.shape[-1]), psis)), compute_uv=False)
    return sv[:len(psis)], sv[:len(psis)] < KERNEL_RATIO * sv[len(psis):, :1]


def _crossings_at(path: SymplecticPath, taus: list, psis: np.ndarray, masks: np.ndarray) -> list:
    """The crossing, or None, at each time of ``taus``, given Psi there and
    its kernel mask (`_kernels`): the kernel of Psi - I is spanned by the
    right singular vectors the mask picks, and the crossing form is read on
    it.  Only the times with a kernel take an SVD with vectors, one stack of
    them, and one generator call."""
    found, rows = [None] * len(taus), np.flatnonzero(masks.any(axis=1))
    if rows.size:
        vh = np.linalg.svd(psis[rows] - np.eye(path.dim))[2]
        for r, v, form in zip(rows.tolist(), vh, path.generator(np.array(taus)[rows])):
            p, q = crossing_form(form, basis := v[masks[r]].T)
            found[r] = Crossing(time=float(taus[r]), multiplicity=len(basis.T), kernel_basis=basis,
                                signature=(p, q), regular=(p + q == len(basis.T)))
    return found


def _spectra(psis: np.ndarray, phases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted principal eigenangles of W per Psi of the stack, and the whole
    turns by which the lift ``phases`` exceeds their sum.  The lift is
    certified, so the turn check compares `eigvals` of W with `det` of Z: it
    fires on eigenvalues too ill-conditioned to count."""
    theta = np.sort(graph_angles(psis - np.eye(psis.shape[-1])), axis=1)
    turns = (phases - theta.sum(axis=1)) / (2.0 * math.pi)
    whole = np.rint(turns)
    if np.abs(turns - whole).max() > _TURN_TOL:
        raise CrossingResolutionError(
            "eigvals and det of the graph unitary disagree: ill-conditioned eigenvalues"
        )
    return theta, whole.astype(int)


def _lifted(path: SymplecticPath, window, times: np.ndarray):
    """Psi and its lifted graph phase at ``times`` inside ``window``, a
    `flows.phase_window`.  Each phase is one principal step from the lifted
    sample at or before its time: coarse sample k // stride for a time in
    sample interval k or, in a step the lift cut, the last sub-step at or
    before the time.  Psi comes from one `evaluate` call."""
    ts, _base, stride, _ends, lift, subs = window
    ref = lift[(k := np.searchsorted(ts, times, "right") - 1) // stride]
    for r, i in enumerate(k.tolist()):
        if i in subs and (j := int(np.searchsorted(subs[i][0], times[r], "right"))):
            ref[r] = subs[i][2][j - 1]
    psis = evaluate(path, times)
    return psis, ref + _principal(graph_phase(psis) - ref)


def _counts(theta: np.ndarray, whole: np.ndarray, masks: np.ndarray):
    """Spectral counts in half-units and kernel marks of a stack of Psi,
    given its `_spectra` and its kernel masks (`_kernels`).

    With Phi a lift of the eigenangle sum of W, the count is
    2 sum_j (#{k: 2 pi k < phi_j} + #{k: 2 pi k = phi_j} / 2) up to one
    constant, i.e. 2 ((Phi - sum_j theta_j) / 2 pi + #{theta_j > 0})
    + #kernel with theta_j the principal eigenangles.  The kernel marks are
    the #kernel angles nearest 0.  The spectral flow from s to t is
    count(s) - count(t).
    """
    kernel = masks.sum(axis=1)
    marks = np.argsort(np.argsort(np.abs(theta), axis=1), axis=1) < kernel[:, None]
    return 2 * whole + 2 * ((theta > 0.0) & ~marks).sum(axis=1) + kernel, marks


def _certified(s_lo, s_hi, width, norm, bound, floor, steps=1):
    """Whether sigma_min(evaluate(t) - I) > floor ||evaluate(t)|| all over a
    span of ``steps`` sample intervals, from s_lo and s_hi, sigma_min(Psi - I)
    at its ends (arrays or scalars).

    `evaluate` steps across each interval from its base node Psi_i, the node
    before its middle, with ||Psi_i|| <= ``norm`` = 1 + sigma_max(Psi_i - I)
    at the first.  With (slope, growth, taylor) from `flows.interpolant_bound`,
    sigma_min(exp(Omega) Psi_i - I) moves at most slope ||Psi_i|| per unit
    time (sigma_min is 1-Lipschitz in the matrix), and `evaluate`, through
    the truncated Taylor map of `symplectic_expm`, stays within
    taylor ||Psi_i|| of exp(Omega) Psi_i.  `integrate` forms the nodes
    from the step exponentials E_k by a chunked prefix product or, for a
    constant generator, by doubling, so the next node is not E_i Psi_i
    rounded once; it is within `_ROUNDING` ||Psi_i|| of E_i Psi_i (measured
    below 2e-15 ||Psi_i||), so within jump ||Psi_i|| of exp(Omega) Psi_i,
    jump = taylor + `_ROUNDING` growth.  So every base node has ||Psi_i|| <=
    N = norm (growth + jump)^(steps - 1) (`_span_norm`), and sigma_min jumps
    by at most jump N at each of the steps - 1 inner nodes.  Walking in from
    both ends, sigma_min(evaluate(t) - I) is at least
    (s_lo + s_hi - N (width slope + 4 taylor + (steps - 1) jump)) / 2 over the
    span, while ||evaluate(t)|| <= (growth + taylor) N.  The floor term is
    doubled so that it also covers the rounding of one step product.
    """
    slope, growth, taylor = bound
    norm = _span_norm(norm, bound, steps)
    with np.errstate(invalid="ignore"):  # an infinite bound (NaN charge) clears nothing
        return s_lo + s_hi > norm * (width * slope + 4.0 * (floor * growth + taylor)
                                     + (steps - 1) * (taylor + _ROUNDING * growth))


def _span_norm(norm, bound, steps):
    """N of `_certified`, a bound on ||Psi_i|| at every base node of a span."""
    _slope, growth, taylor = bound
    return norm * (growth + taylor + _ROUNDING * growth) ** (steps - 1)


def _brent_zero(xa: float, xb: float, fa: float, fb: float):
    """A zero between xa and xb of a function f, given fa = f(xa) and
    fb = f(xb) of opposite signs, as a coroutine: it yields each x where it
    needs f, is sent f(x), and returns the zero (``StopIteration.value``).

    A port of `brentq` from scipy 1.17 (Zeros/brentq.c, BSD-3-Clause;
    R. P. Brent, "Algorithms for Minimization without Derivatives", 1973)
    with its expressions in its order: it asks for f at the same points and
    returns the same x as `brentq(f, xa, xb, xtol=1e-13)`, whose call count
    includes fa and fb.  After 100 iterations it returns the last iterate,
    as `brentq` does with ``disp=False``.
    """
    xtol, rtol = _ROOT_XTOL, 4.0 * np.finfo(float).eps
    xpre, xcur, fpre, fcur = xa, xb, fa, fb
    if fpre == 0.0 or fcur == 0.0:
        return xpre if fpre == 0.0 else xcur
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = yield xcur
    return xcur


def _roots(path: SymplecticPath, intervals: list) -> list[list[Crossing]]:
    """Crossings where eigenangles change sign between consecutive samples
    (t, Psi, sorted angles, whole turns, kernel marks) under a quarter turn
    apart, one list per interval of ``intervals``, each a list of samples.

    Ranks map across by the turns (an angle passing pi moves from the top
    rank to the bottom); marked angles belong to an endpoint crossing.  The
    angles <= 0 at one sample and > 0 at the next form a group per
    direction.  A group is root-found on its ranks in turn, nearest 0 first,
    and a root of multiplicity m accounts for m of them, so the next m - 1
    are never root-found.  The root-finds of all groups run in lockstep,
    each its own `_brent_zero`: one `evaluate` and one `graph_angles` per
    iteration serve every live one, and the roots that end in an iteration
    are classified together (`_kernels` and `_crossings_at`, on the Psi of
    their iterates).
    """
    d, eye, seen, groups = path.dim, np.eye(path.dim), {}, []
    for n, samples in enumerate(intervals):
        for (t0, psi0, th0, w0, m0), (t1, psi1, th1, w1, m1) in zip(samples, samples[1:]):
            seen[t0], seen[t1] = psi0, psi1
            pairs = [(i, i + int(w1 - w0)) for i in range(d)]
            pairs = [(i, j) for i, j in pairs if 0 <= j < d and not (m0[i] or m1[j])]
            # [interval, (rank, Brent bracket) per sign change, next, crossings, sum th0]
            groups += [[n, [(i, (t0, t1, th0[i], th1[j])) for i, j in group], 0, [],
                        float(th0.sum())]
                       for group in ([p for p in pairs[::-1] if th0[p[0]] <= 0.0 < th1[p[1]]],
                                     [p for p in pairs if th1[p[1]] <= 0.0 < th0[p[0]]]) if group]
    pending, done = [(g, _brent_zero(*g[1][0][1]), None) for g in groups], []
    while pending or done:
        # The roots that ended, if any, classified on the Psi of their iterates.
        taus, psis = [tau for _g, tau in done], np.array([seen[tau] for _g, tau in done])
        for (g, _tau), c in zip(done, taus and _crossings_at(path, taus, psis, _kernels(psis)[1])):
            g[3].append(c)
            g[2] += c.multiplicity if c is not None else 1  # the sign changes it accounts for
            if g[2] < len(g[1]):
                pending.append((g, _brent_zero(*g[1][g[2]][1]), None))
        asks, done, sends, pending = [], [], pending, []
        for g, root, f in sends:
            try:
                asks.append((g, root, root.send(f)))
            except StopIteration as stop:
                done.append((g, stop.value))
        if asks:
            psis = evaluate(path, [x for _g, _root, x in asks])
            theta = np.sort(graph_angles(psis - eye), axis=1)
            for (g, root, x), psi, th, total in zip(asks, psis, theta, theta.sum(axis=1)):
                seen[x], moved = psi, float(total) - g[4]
                turns = round((math.remainder(moved, 2.0 * math.pi) - moved) / (2.0 * math.pi))
                pending.append((g, root, float(th[min(max(g[1][g[2]][0] + turns, 0), d - 1)])))
    return [[c for g in groups if g[0] == n for c in g[3] if c] for n in range(len(intervals))]


def _bisect(path: SymplecticPath, runs: list, lo: float, hi: float, s_lo: float,
            s_hi: float, norm: float, bound) -> None:
    """Add to ``runs`` the pieces of [lo, hi] where no eigenangle sign
    change shows a crossing and none can be ruled out.

    Pieces are halved until `_certified`, with the rounding floor, clears
    them or they are narrower than 2 TIME_TOL, so that the middle of a
    narrow piece is within TIME_TOL of all of it.  Adjacent narrow pieces
    join into one run, across node boundaries too.  Each level is one
    array of pieces, and the middles of its pieces take one `evaluate`.
    """
    pieces = np.array([[lo, hi, s_lo, s_hi]])
    while len(pieces):
        if len(pieces) > _BISECT_PIECES:
            raise CrossingResolutionError(
                f"bisection keeps {len(pieces)} pieces of [{lo:.6f}, {hi:.6f}] open; refine steps")
        left, right, s_left, s_right = pieces.T
        keep = ~_certified(s_left, s_right, right - left, norm, bound, _ROUNDING)
        wide = keep & (right - left >= 2.0 * TIME_TOL)
        for start, stop in pieces[keep & ~wide, :2].tolist():
            if runs and runs[-1][1] == start:
                runs[-1][1] = stop
            else:
                runs.append([start, stop])
        mid = 0.5 * (left + right)[wide]
        s_mid = np.linalg.svd(evaluate(path, mid) - np.eye(path.dim), compute_uv=False)[:, -1]
        # Each wide piece becomes its two halves, in order.
        pieces = np.stack((left[wide], mid, s_left[wide], s_mid, mid, right[wide], s_mid,
                           s_right[wide]), axis=1).reshape(-1, 4)


def _open_intervals(path: SymplecticPath, ts: np.ndarray, base: int, stride: int,
                    end_sigma: np.ndarray, bound):
    """The sample intervals [ts[k], ts[k + 1]] that the gate does not clear,
    lower bounds on sigma_min(Psi - I) at the samples and upper bounds on
    the norms 1 + sigma_max(Psi_i - I) at each interval's base node Psi_i,
    read wherever an open interval reads them.

    The samples are the window ends (``end_sigma`` is exact there) and the
    nodes between them (``base`` and ``stride`` from `flows.phase_window`).
    Spans of ``stride`` intervals are gated by `_certified` on the node
    bounds of `SymplecticPath.sigma_min_nodes` at their ends, and those it
    does not clear are split at their middle sample, level by level, down
    to single intervals, which stay open.  Every interval that holds a
    crossing is returned.
    """
    last = len(ts) - 1
    sigma, norms = np.empty(last + 1), np.empty(last)
    sigma[[0, last]] = end_sigma
    lo = new = np.arange(0, last, stride)
    hi, leaves = np.minimum(lo + stride, last), []
    while lo.size:
        # Node base + k is sample k and the base node of interval k.
        lower, upper = path.sigma_min_nodes(base + new)
        sigma[new[new > 0]], norms[new] = lower[new > 0], 1.0 + upper
        keep = ~_certified(sigma[lo], sigma[hi], ts[hi] - ts[lo], norms[lo], bound,
                           KERNEL_RATIO, hi - lo)
        split = keep & (hi - lo > 1)
        leaves.append(lo[keep & ~split])
        new = (lo[split] + hi[split]) // 2
        lo, hi = np.concatenate((lo[split], new)), np.concatenate((new, hi[split]))
    return np.sort(np.concatenate(leaves)), sigma, norms


def _scan_closed(path: SymplecticPath, a: float, b: float, window=None) -> list[Crossing]:
    """All crossings with tau in [a, b] (up to endpoint tolerance), sorted,
    lifted on ``window``, a `flows.phase_window` over [a, b] (None: built here).

    A window end where Psi has a kernel by the rule of `_kernels` is a
    crossing at the end itself, so the list starts with the identity when a
    is the path's start.  One `_kernels` record of Psi at the two ends
    serves the gate's exact end sigma, the end counts and the end
    crossings.  Psi, the lifted phase and the spectra at the ends
    of every node interval that `_certified` does not clear come from one
    `_lifted` call; the intervals, with the sub-steps where `phase_window`
    cuts a step, go to `_roots` together, whose root-finds run in lockstep
    on one `evaluate` per iteration.  For an indefinite generator, opposite
    passages can cancel, so an interval with no sign change is bisected
    (`_bisect`) when, at both ends, unmarked angles lie on both sides of 0
    within the reach of one step (each angle moves at most dim * norm_bound
    per unit time).  The located multiplicities must equal the spectral
    flow of the phase over [a, b] (for an indefinite generator, reach it),
    and crossings closer than one grid step raise.
    """
    window = phase_window(path, a, b) if window is None else window
    ts, base, stride, ends, _lift, subs = window
    last, bound, h = len(ts) - 1, interpolant_bound(path), path.grid_spacing
    end_sigma, end_mask = _kernels(ends)
    open_, sigma, norms = _open_intervals(path, ts, base, stride, end_sigma[:, -1], bound)

    # Both ends of each open interval and the window ends.
    picks = np.flatnonzero(np.bincount(np.concatenate((open_, open_ + 1, [0, last])),
                                       minlength=last + 1))
    psis, phases = _lifted(path, window, ts[picks])
    theta, whole = _spectra(psis, phases)
    marks = np.zeros(theta.shape, dtype=bool)  # the kernel angles at the window ends
    count, marks[[0, -1]] = _counts(theta[[0, -1]], whole[[0, -1]], end_mask)
    sample = dict(zip(picks.tolist(), zip(ts[picks], psis, theta, whole, marks)))

    crossings = [c for c in _crossings_at(path, [a, b], ends, end_mask) if c]
    definite, runs, intervals = path.generator.definiteness != INDEFINITE, [], []
    for k in open_.tolist():
        samples = [sample[k], sample[k + 1]]
        if k in subs:  # the sub-steps, no angle of them marked
            times, sub_psis, sub_phase = subs[k]
            samples[1:1] = zip(times, sub_psis, *_spectra(sub_psis, sub_phase),
                               np.zeros((len(times), path.dim), dtype=bool))
        intervals.append(samples)
    for k, samples, located in zip(open_.tolist(), intervals, _roots(path, intervals)):
        reach = path.dim * path.generator.norm_bound * (ts[k + 1] - ts[k])
        near = [s[2][~s[4] & (np.abs(s[2]) <= reach)] for s in (samples[0], samples[-1])]
        if not (located or definite) and all((v <= 0).any() and (v >= 0).any() for v in near):
            _bisect(path, runs, ts[k], ts[k + 1], sigma[k], sigma[k + 1], norms[k], bound)
        crossings += located
    # `_crossings_at` decides at the middle of each run of bisection pieces.
    if mids := [0.5 * (lo + hi) for lo, hi in runs]:
        mid_psis = evaluate(path, mids)
        crossings += [c for c in _crossings_at(path, mids, mid_psis, _kernels(mid_psis)[1]) if c]
    crossings.sort(key=lambda c: c.time)
    # Roots closer than TIME_TOL are one crossing: the angles of a multiple
    # eigenvalue at a sample can straddle 0 by rounding, and then one of
    # them is root-found on each side of it.
    crossings = [c for c, prev in zip(crossings, [None, *crossings])
                 if prev is None or c.time - prev.time > TIME_TOL]

    # The multiplicities in half-units; crossings at a or b count half.
    found = sum(c.multiplicity * (1 if min(c.time - a, b - c.time) <= ENDPOINT_TOL else 2)
                for c in crossings)
    flow = abs(int(count[-1] - count[0]))
    if found < flow or (definite and found != flow):
        raise CrossingResolutionError(
            f"the scan locates {found} half-units of crossings where the graph phase "
            f"shows {flow} on [{a:.6f}, {b:.6f}]; refine steps")
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
    if not (path.t_start - _DOMAIN_SLACK <= a < b <= path.t_end + _DOMAIN_SLACK):
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
    if not (path.t_start - _DOMAIN_SLACK <= a < b <= path.t_end + _DOMAIN_SLACK):
        raise ValueError(f"interval ({a}, {b}) outside path domain")
    return _index(path, None, [a, b], [policy])[0]


def _index(path: SymplecticPath, window, cuts, policies) -> list[IndexValue]:
    """`rs_index` over each checked window (cuts[i], cuts[i + 1]) with
    policies[i], read off one lift of Psi at the cuts on ``window``, a
    `flows.phase_window` that holds them (None: one from the first cut to
    the last)."""
    times = np.clip(cuts, path.t_start, path.t_end)
    if policies[0] == OPEN_OPEN and abs(cuts[0] - path.t_start) <= ENDPOINT_TOL:
        times[0] = min(float(path.times[1]), times[1])
    window = phase_window(path, times[0], times[-1]) if window is None else window
    psis, phases = _lifted(path, window, times)
    count, _marks = _counts(*_spectra(psis, phases), masks := _kernels(psis)[1])
    for i, policy in enumerate(policies):
        if policy == OPEN_OPEN and masks[i:i + 2].any():
            raise EndpointCrossingError(
                f"crossing at interval endpoint (t={times[i + bool(masks[i + 1].any())]:.6f}) "
                f"under open_open policy"
            )
    return [IndexValue(half_units=int(count[i] - count[i + 1]),
                       interval=(float(cuts[i]), float(cuts[i + 1])), policy=policy)
            for i, policy in enumerate(policies)]
