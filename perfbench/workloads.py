"""The benchmark's workloads: seeded inputs, builders, runners and oracles.

Each workload turns a seed into plain inputs (numbers and arrays, drawn by
the benchmark alone), builds the package's objects from them (the timed
set-up), runs one full verification per scenario and checks the outcome
against a closed form or a count made without the package.

* ``sphere_cli``: sphere_height scenario files through ``hoferlab verify``.
  The only workload that exercises ``cli`` and ``models``; dim 2, constant
  generators, 2048 steps.  lambda = 2 pi and 4 pi must exit with code 4.
* ``fourier_dense``: random negative definite Fourier generators (two
  harmonics, mean speed mu in [3, 9], dims 2, 4, 6) at 512 steps; the
  crossing scan is about half the time.
* ``sampled_long``: time-warped block rotations as sampled cubic splines in
  dims 4 and 6 at 8192 steps; integration and generator evaluation
  dominate.

Draws are stratified (lambda by crossing count, Fourier draws by whether
their flow crosses at all) so every seed runs the same mix of cheap and
expensive scenarios and the medians do not jump between cost classes from
one seed to the next.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

TWO_PI = 2.0 * math.pi
DEGENERACY_MARGIN = 0.05  # keep lambda and block speeds this far from 2 pi k


def _stratified(rng, lo: float, hi: float, n: int) -> list[float]:
    width = (hi - lo) / n
    return [lo + width * (j + rng.uniform()) for j in range(n)]


# ---------------------------------------------------------------------------
# sphere_cli

SPHERE_STEPS = 2048
# lambda values per crossing class (0, 1 and 2 full turns), plus 2 pi and 4 pi.
SPHERE_CLASSES = ((1.0, TWO_PI, 8), (TWO_PI, 2 * TWO_PI, 14), (2 * TWO_PI, 13.0, 1))


def sphere_inputs(rng) -> list[float]:
    lams = [TWO_PI, 2 * TWO_PI]
    m = DEGENERACY_MARGIN
    for lo, hi, n in SPHERE_CLASSES:
        lams += _stratified(rng, lo + m, hi - m, n)
    return [lams[i] for i in rng.permutation(len(lams))]


def sphere_build(hoferlab, lams, workdir):
    cases = []
    for i, lam in enumerate(lams):
        path = os.path.join(workdir, f"sphere_{i:02d}.json")
        doc = {"schema_version": 1, "model": "sphere_height",
               "parameters": {"lambda": lam}, "solver": {"steps": SPHERE_STEPS}}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        cases.append((lam, path, os.path.join(workdir, f"report_{i:02d}.json")))
    return cases


def sphere_run(hoferlab, case):
    _lam, path, out = case
    if os.path.exists(out):
        os.remove(out)
    return hoferlab.cli.main(["verify", path, "-o", out])


def sphere_check(case, code) -> bool:
    lam, _path, out = case
    turns = lam / TWO_PI
    if abs(turns - round(turns)) < 1e-12:
        return code == 4
    if code != 0:
        return False
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)["result"]
    return (result["verdict"] == "pass"
            and result["morse_index_total"] == 4 * math.floor(turns))


# ---------------------------------------------------------------------------
# fourier_dense

FOURIER_STEPS = 512
FOURIER_DIMS = (2, 4, 6)
# Draws per dimension by the number of eigenvalue-pair visits to 1 (index),
# which sets most of a scenario's cost.  Left alone the draw gives about 47%
# scenarios without a crossing, which puts the median on the boundary
# between cheap and expensive ones, and a seed-dependent number of the most
# expensive ones.  Fixed counts, with fewer cheap ones, keep the mix the
# same for every seed and the median inside the crossing class.
FOURIER_VISITS = {2: (5, 11), 4: (5, 6, 5), 6: (4, 4, 5, 3)}
FOURIER_HARMONICS = 2
ENDPOINT_MARGIN = 1e-3  # sigma_min(Psi(1) - I) / ||Psi(1)||, as in the test oracles
_ORACLE_STEPS = 2048


def _sym(m):
    return 0.5 * (m + m.T)


def _crossing_visits(s0, cos, sin) -> tuple[int, int] | None:
    """(visits of an eigenvalue pair to 1, crossings), or None if not resolvable.

    Resolvable means resolvable by the package at FOURIER_STEPS.

    The package refuses, by contract, an endpoint closer to degenerate than
    its threshold and two crossings closer than one grid step.  Both are
    properties of the input, so such draws are out of the workload's scope.
    The check is independent of the package: exponential midpoint steps
    with scipy's expm, then eigenvalues at every node.  A visit is a
    conjugate pair meeting at 1 and leaving the circle; a draw is
    resolvable when, away from t = 0, no two pairs are near 1 at once and
    every visit spends at least two grid steps off the circle.

    Crossings are counted as sign changes of det(Psi(t) - I), the product
    of (lambda - 1) over the eigenvalues: positive for pairs on the circle,
    negative real pairs and complex quadruples, negative for each positive
    real pair.  So every crossing of multiplicity 1 flips the sign: a visit
    that returns to the circle is two crossings, one still off it at t = 1
    is one, and a quadruple leaving the circle near 1 is none.
    """
    from scipy.linalg import expm

    dim = s0.shape[0]
    t = (np.arange(_ORACLE_STEPS) + 0.5) / _ORACLE_STEPS
    s = np.broadcast_to(s0, (_ORACLE_STEPS, dim, dim)).copy()
    for k, (a, b) in enumerate(zip(cos, sin), start=1):
        s += np.cos(TWO_PI * k * t)[:, None, None] * a + np.sin(TWO_PI * k * t)[:, None, None] * b
    j = np.kron(np.eye(dim // 2), np.array([[0.0, -1.0], [1.0, 0.0]]))
    step = expm(j @ s / _ORACLE_STEPS)
    psi = np.empty_like(step)
    psi[0] = step[0]
    for i in range(1, _ORACLE_STEPS):
        psi[i] = step[i] @ psi[i - 1]
    end = psi[-1]
    if np.linalg.svd(end - np.eye(dim), compute_uv=False)[-1] < ENDPOINT_MARGIN * np.linalg.norm(end, 2):
        return None
    # Pair angles move no faster than ||S||.  Every pair leaves 1 at t = 0
    # and needs 2 pi / speed for a full turn, so earlier nodes are skipped.
    speed = float(np.linalg.norm(s, 2, axis=(1, 2)).max())
    late = psi[t + 0.5 / _ORACLE_STEPS > math.pi / speed]
    eig = np.linalg.eigvals(late)
    angle = np.abs(np.angle(eig))
    near = (angle < speed * 2.0 / FOURIER_STEPS).sum(axis=1)
    if near.max(initial=0) > 2:
        return None
    off = ((eig.real > 0) & (np.abs(np.abs(eig) - 1.0) > 1e-6)).any(axis=1)
    edges = np.flatnonzero(np.diff(np.concatenate(([0], (near > 0).astype(int), [0]))))
    visits = 0
    for lo, hi in zip(edges[::2], edges[1::2]):
        n_off = int(off[lo:hi].sum())
        if n_off == 0 and angle[lo:hi].min() < speed / _ORACLE_STEPS:
            return None  # an excursion may hide between two nodes
        if 0 < n_off <= 2 * _ORACLE_STEPS // FOURIER_STEPS:
            return None
        visits += n_off > 0
    crossings = np.count_nonzero(np.diff(np.linalg.det(late - np.eye(dim)) > 0))
    return visits, int(crossings)


def _fourier_draw(rng, dim: int):
    """One draw of tests/oracles.random_negdef_fourier, or None.

    None when the norm bound does not certify definiteness.
    """
    mu = rng.uniform(3.0, 9.0)
    s0 = -(mu * np.eye(dim) + 0.15 * mu * _sym(rng.normal(size=(dim, dim))))
    budget = 0.35 * mu
    cos, sin = [], []
    for _k in range(FOURIER_HARMONICS):
        for terms in (cos, sin):
            m = _sym(rng.normal(size=(dim, dim)))
            top = max(1e-9, float(np.abs(np.linalg.eigvalsh(m)).max()))
            terms.append(m * budget / (2 * FOURIER_HARMONICS * top))
    if float(np.linalg.eigvalsh(s0)[-1]) + budget >= -0.05 * mu:
        return None
    return s0, cos, sin


def fourier_inputs(rng):
    """Per dimension, FOURIER_VISITS[dim][v] draws with v visits, in random
    order, each as (crossings, draw); draws `_crossing_visits` cannot
    resolve are drawn again.
    """
    per_dim = []
    for dim in FOURIER_DIMS:
        quota = FOURIER_VISITS[dim]
        kept = [[] for _ in quota]
        while any(len(k) < q for k, q in zip(kept, quota)):
            draw = _fourier_draw(rng, dim)
            counted = None if draw is None else _crossing_visits(*draw)
            if counted is None:
                continue
            visits, crossings = counted
            if visits < len(quota) and len(kept[visits]) < quota[visits]:
                kept[visits].append((crossings, draw))
        draws = [draw for k in kept for draw in k]
        per_dim.append([draws[i] for i in rng.permutation(len(draws))])
    return [draw for group in zip(*per_dim) for draw in group]


def _unit_curves():
    return (lambda t: 1.0), (lambda t: -1.0)


def fourier_build(hoferlab, draws, _workdir):
    cases = []
    for crossings, (s0, cos, sin) in draws:
        gen = hoferlab.HessianPath.fourier(s0, cos, sin)
        scenario = hoferlab.quadratic_scenario(gen, gen.negated(), *_unit_curves(),
                                               name="fourier_dense")
        cases.append((crossings, scenario))
    return cases


def fourier_run(hoferlab, case):
    return hoferlab.verify_theorem(case[1], steps=FOURIER_STEPS)


def fourier_check(case, report) -> bool:
    """Both sides integrate the same generator (the minimizer's is negated
    twice), and every crossing `_crossing_visits` counts has multiplicity
    1, so the total index is twice the count.
    """
    return bool(report.verdict) and report.morse_index_total == 2 * case[0]


# ---------------------------------------------------------------------------
# sampled_long

SAMPLED_STEPS = 8192
SAMPLED_POINTS = 257
SAMPLED_DIMS = (4, 4, 6, 4, 4, 6)  # 2:1, so the median sits inside the dim-4 class
SPEED_RANGE = (3.0, 14.0)
WARP_RANGE = (0.1, 0.5)
CROSSING_SEPARATION = 0.01  # between crossing values 2 pi k / s of different blocks


def _separated(speeds) -> bool:
    if any(abs(s / TWO_PI - round(s / TWO_PI)) * TWO_PI < DEGENERACY_MARGIN for s in speeds):
        return False
    marks = sorted((TWO_PI * k / s, i) for i, s in enumerate(speeds)
                   for k in range(1, int(s // TWO_PI) + 1))
    return all(b[0] - a[0] > CROSSING_SEPARATION
               for a, b in zip(marks, marks[1:]) if a[1] != b[1])


def sampled_inputs(rng):
    """(1 + beta cos 2 pi t) * blockdiag(-s_i I_2) sampled on a uniform grid.

    The warp keeps S(t) commuting with itself, so block i turns by
    s_i * F(t) with F(1) = 1, and the maximizer side alone has index
    sum_i 2 floor(s_i / 2 pi).  Speeds are drawn again when a block sits
    near a full turn or crossings of different blocks nearly coincide.
    """
    grid = np.linspace(0.0, 1.0, SAMPLED_POINTS)
    out = []
    for dim in SAMPLED_DIMS:
        while True:
            speeds = rng.uniform(*SPEED_RANGE, size=dim // 2)
            if _separated(speeds):
                break
        beta = rng.uniform(*WARP_RANGE)
        base = np.kron(np.diag(-speeds), np.eye(2))
        values = (1.0 + beta * np.cos(TWO_PI * grid))[:, None, None] * base
        out.append((speeds, values))
    return out


def sampled_build(hoferlab, draws, _workdir):
    cases = []
    for speeds, values in draws:
        gen = hoferlab.HessianPath.sampled(values)
        scenario = hoferlab.quadratic_scenario(gen, gen.negated(), *_unit_curves(),
                                               name="sampled_long")
        cases.append((speeds, scenario))
    return cases


def sampled_run(hoferlab, case):
    return hoferlab.verify_theorem(case[1], steps=SAMPLED_STEPS)


def sampled_check(case, report) -> bool:
    expected = 2 * sum(2 * math.floor(s / TWO_PI) for s in case[0])
    return bool(report.verdict) and report.morse_index_total == expected


# name -> (inputs(rng), build(hoferlab, inputs, workdir), run(hoferlab, case), check(case, outcome))
WORKLOADS = {
    "sphere_cli": (sphere_inputs, sphere_build, sphere_run, sphere_check),
    "fourier_dense": (fourier_inputs, fourier_build, fourier_run, fourier_check),
    "sampled_long": (sampled_inputs, sampled_build, sampled_run, sampled_check),
}
