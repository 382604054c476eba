"""Linearized Hamiltonian flow integration.

Integrates Psi'(t) = J S(t) Psi(t), Psi(t_start) = I, where S(t) is the
time-dependent symmetric Hessian of the driving function at a fixed
extremizer.  The stepper is a fourth-order Magnus scheme with two-point
Gauss quadrature; every step multiplies by the exponential of a Hamiltonian
matrix, computed by `symplectic_expm` to unit roundoff, so each step is
symplectic to rounding and the nodes drift off the group only by rounding,
which the crossing machinery depends on (a generic Runge-Kutta step would
leak symplecticity at its truncation order and create spurious near-unit
eigenvalues).  `SymplecticPath` checks every node against that drift.
The step exponents are linear in the generator's coefficient stack, so they
are read from a table of its planes B_j and commutators [J B_k, J B_j] built
once per generator (`HessianPath`): a weight array from the basis values at
the Gauss nodes, contracted with the table, gives every exponent without a
generator value (the moment form of Magnus methods; Blanes, Casas, Oteo and
Ros, "The Magnus expansion and some of its applications", 2009).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CrossingResolutionError, IntegrationError
from .symplectic import standard_structure, symplectic_expm

__all__ = [
    "NEGATIVE_DEFINITE",
    "POSITIVE_DEFINITE",
    "INDEFINITE",
    "DEFAULT_STEPS",
    "HessianPath",
    "SymplecticPath",
    "integrate",
    "evaluate",
    "graph_phase",
    "graph_angles",
    "phase_window",
    "interpolant_bound",
]

NEGATIVE_DEFINITE = "negative_definite"
POSITIVE_DEFINITE = "positive_definite"
INDEFINITE = "indefinite"
_NEGATED = {NEGATIVE_DEFINITE: POSITIVE_DEFINITE, POSITIVE_DEFINITE: NEGATIVE_DEFINITE}

DEFAULT_STEPS = 2048
MIN_STEPS = 8

# Two-point Gauss-Legendre nodes on [0, 1].
_GAUSS_OFFSETS = np.array([0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0])
# Weight of the commutator [A_2, A_1] in a step exponent, per h^2.
_COMMUTATOR_WEIGHT = math.sqrt(3.0) / 12.0

_DEFINITENESS_DELTA = 1e-8
_CLASSIFY_GRID = 129
_SYMMETRY_TOL = 1e-9
_NODE_RESIDUAL_TOL = 1e-9
# Error constant of the Gram eigenvalues, per d^2 eps ||D||_F^2 (`_node_sigma_bounds`).
_GRAM_SLACK = 16.0
# Graph phase sub-steps stay below a quarter turn, at most 64 per grid step.
_QUARTER_TURN = 0.5 * math.pi
_PHASE_SUBSTEPS_MAX = 64
# Steps per numpy call in `integrate`, and nodes per pass of the node gate
# (`SymplecticPath`); larger blocks cost memory, not speed.
_BLOCK_STEPS = 512
# Steps per chunk of the running product: a block of B steps takes about
# _CHUNK_STEPS + B / _CHUNK_STEPS numpy calls (`integrate`).
_CHUNK_STEPS = 16
# Times this far outside a path's or generator's domain still count as inside.
_DOMAIN_SLACK = 1e-12
# `evaluate` returns the stored node for a time this close to it (pinned by
# tests/test_flows.py::test_array_evaluate_equals_scalar_calls_bit_for_bit).
_NODE_SNAP = 1e-13
# `phase_window` samples only the nodes further than this inside (a, b), so
# no sample interval is shorter (pinned by
# tests/test_flows.py::test_phase_window_drops_nodes_next_to_its_ends).
_WINDOW_SNAP = 1e-14


def _require_symmetric(m: np.ndarray, what: str) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{what} has non-finite entries")
    scale = max(1.0, float(np.abs(m).max()))
    if float(np.abs(m - m.T).max()) > _SYMMETRY_TOL * scale:
        raise ValueError(f"{what} is not symmetric")
    return 0.5 * (m + m.T)


def _symmetric_stack(stack, kind: str) -> list | np.ndarray:
    """The coefficient matrices M of ``stack``, each checked by
    `_require_symmetric` and replaced by (M + M^T) / 2.

    A stack that converts to one (m, d, d) array is checked in one pass and
    returned as that array; its first bad matrix is checked again alone, so
    the error names it as the per-matrix loop does.  Any other stack goes
    through that loop and comes back as a list.
    """
    try:
        arr = np.asarray(stack, dtype=float)
    except ValueError:  # ragged
        arr = None
    if arr is None or arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        return [_require_symmetric(m, f"{kind} coefficient {i}") for i, m in enumerate(stack)]
    transposed = arr.swapaxes(1, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        # A NaN or inf entry makes the scale non-finite.
        scale = np.maximum(1.0, np.abs(arr).max(axis=(1, 2), initial=0.0))
        skew = np.abs(arr - transposed).max(axis=(1, 2), initial=0.0)
        bad = ~np.isfinite(scale) | (skew > _SYMMETRY_TOL * scale)
    if bad.any():
        i = int(np.argmax(bad))
        _require_symmetric(arr[i], f"{kind} coefficient {i}")
    return 0.5 * (arr + transposed)


class HessianPath:
    """Time-dependent symmetric generator S(t) on [0, 1].

    A generator is a kind tag plus ``stack``, a read-only array of symmetric
    coefficient matrices with shape (m, d, d):

    * ``constant``: ``[S]``;
    * ``fourier``: ``[S0, A_1..A_K, B_1..B_L]`` with ``n_cos = K``, for
      S0 + sum_k A_k cos(2 pi k t) + sum_k B_k sin(2 pi k t);
    * ``sampled``: the values at m >= 4 uniform knots on [0, 1], joined by a
      not-a-knot cubic spline fitted and evaluated entry by entry, so every
      S(t) is exactly symmetric (see `_spline_coefficients`).

    Built once per generator, by its kind's compiler at construction
    (`negated` shares all of it and negates the basis values):

    * the basis and the planes: S(t) = sum_j b_j(t) B_j, with b = 1 for a
      constant, (1, cos, sin) for Fourier, and (1, s, s^2, s^3),
      s = t - t_i, with the four cubic planes of the knot interval for a
      spline (see `_values`);
    * the step table: the planes times J, J B_j, and the commutator terms
      (sqrt(3)/12) [J B_k, J B_j] for j < k, one set per knot interval,
      from which `integrate` and `evaluate` form every Magnus step
      exponent (`_step_exponents`) by one contraction, without calling the
      generator or applying J afterwards.  J is a signed permutation, so
      J B_j is B_j with its rows swapped and signed, exactly.  The stack is
      checked (finite and symmetric) here, so no value needs a check later;
    * the definiteness tag, ``norm_bound`` and ``slope_bound``, which hold
      for every t in [0, 1] (see `_certified_spectrum`): a generator whose
      definiteness cannot be certified is tagged indefinite,
      ||S(t)||_2 <= norm_bound and ||S'(t)||_2 <= slope_bound (the crossing
      scan's gate reads both, see `interpolant_bound`).
    """

    def __init__(self, kind: str, stack, n_cos: int = 0):
        if kind not in _COMPILERS:
            raise ValueError(f"unknown generator kind {kind!r}")
        mats = _symmetric_stack(stack, kind)
        if (kind == "constant" and len(mats) != 1) or len(mats) < (4 if kind == "sampled" else 1):
            raise ValueError(f"{kind} generator has the wrong number of matrices")
        if isinstance(mats, list):
            if any(m.shape != mats[0].shape for m in mats):
                raise ValueError(f"{kind} coefficient shape mismatch")
            mats = np.stack(mats)
        if not 0 <= n_cos < len(mats):
            raise ValueError(f"cosine term count {n_cos} outside the stack")
        self.kind = kind
        self.n_cos = int(n_cos)
        self.stack = mats
        self.stack.flags.writeable = False
        self.dim = self.stack.shape[1]
        if self.dim < 2 or self.dim % 2 != 0:
            raise ValueError(f"phase-space dimension must be even and >= 2, got {self.dim}")
        self._basis, self._planes, samples, slack, self.slope_bound = _COMPILERS[kind](
            self.stack, self.n_cos)
        # J B_j and the commutator terms (sqrt(3)/12) [J B_k, J B_j] of each
        # interval's planes, for the pairs (j, k) with j < k; -S(t) has the
        # same commutators.
        self._lin = lin = standard_structure(self.dim // 2).J @ self._planes
        self._pairs = j, k = np.triu_indices(lin.shape[1], 1)
        comm = _COMMUTATOR_WEIGHT * (lin[:, k] @ lin[:, j] - lin[:, j] @ lin[:, k])
        self._comm = comm.reshape(len(lin), len(j), self.dim**2)
        self.definiteness, self.norm_bound = _certified_spectrum(samples, slack)

    # -- constructors --------------------------------------------------

    @classmethod
    def constant(cls, matrix) -> "HessianPath":
        return cls("constant", [matrix])

    @classmethod
    def fourier(cls, s0, cos_terms=(), sin_terms=()) -> "HessianPath":
        cos_terms = list(cos_terms)
        return cls("fourier", [s0, *cos_terms, *sin_terms], n_cos=len(cos_terms))

    @classmethod
    def sampled(cls, values) -> "HessianPath":
        return cls("sampled", np.asarray(values, dtype=float))

    # -- evaluation and transforms --------------------------------------

    def __call__(self, t) -> np.ndarray:
        """S(t) for a time t, or the stack of S at an array of times, with
        shape t.shape + (d, d); array and scalar calls agree bit for bit."""
        ts = np.asarray(t, dtype=float)
        outside = ~((ts >= -_DOMAIN_SLACK) & (ts <= 1.0 + _DOMAIN_SLACK))  # NaN too
        if outside.any():
            raise ValueError(f"time {ts[outside][0]} outside the generator domain [0, 1]")
        return _values(*self._basis(np.minimum(np.maximum(ts, 0.0), 1.0)), self._planes)

    def negated(self) -> "HessianPath":
        """The generator -S(t), e.g. to treat a minimizer as a maximizer of -H.
        A shallow copy that shares the planes and the step table and whose
        basis returns (i, -b): S(t) and the linear weights of a step exponent
        are linear in the basis values, and (-b) x equals b (-x) bit for bit,
        zero signs included, so the values and step exponents are those of
        the generator built from the negated stack.  The commutator weights
        are products of two basis values and do not change; the bounds hold
        as they are and the definiteness swaps."""
        neg = copy.copy(self)
        neg.stack = np.negative(self.stack)
        neg.stack.flags.writeable = False
        basis = self._basis
        neg._basis = lambda t: (lambda i, b: (i, -b))(*basis(t))
        neg.definiteness = _NEGATED.get(self.definiteness, INDEFINITE)
        return neg

    @classmethod
    def from_payload(cls, doc: dict) -> "HessianPath":
        kind = doc.get("kind")
        if kind == "constant":
            return cls.constant(np.asarray(doc["matrix"], dtype=float))
        if kind == "fourier":
            return cls.fourier(
                np.asarray(doc["s0"], dtype=float),
                [np.asarray(a, dtype=float) for a in doc.get("cos", [])],
                [np.asarray(b, dtype=float) for b in doc.get("sin", [])],
            )
        if kind == "sampled":
            return cls.sampled(np.asarray(doc["values"], dtype=float))
        raise ValueError(f"unknown generator kind {kind!r}")


# Each compiler returns five things; `HessianPath.__init__` is its one caller:
# * the basis t -> (i, b) for a float array t of any shape: the knot
#   interval i (shape t.shape) and the basis values b (shape (P,) + t.shape),
#   elementwise in t, so each S(t) is the same in any array shape;
# * the planes, shape (intervals, P, d, d), so S(t) = sum_j b_j planes[i, j]
#   (`_values`, the one evaluator of S(t));
# * sample matrices S(t_i), a slack (scalar or one per sample) such that
#   every t in [0, 1] has a sample with ||S(t) - S(t_i)||_2 <= slack_i, and
#   a bound on ||S'(t)||_2 over [0, 1].


def _values(i: np.ndarray, b: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """S(t) = sum_j b_j(t) planes[i(t), j] from the basis (i, b) at times t,
    summed in stack order from +0.0, as scipy's spline evaluation sums.  So
    no entry of a value is -0.0, and negated basis values give the values of
    negated planes bit for bit, zero signs included (`HessianPath.negated`)."""
    out = b[0, ..., None, None] * planes[i, 0] + 0.0
    for j in range(1, planes.shape[1]):
        out += b[j, ..., None, None] * planes[i, j]
    return out


def _compile_constant(stack, n_cos):
    return (lambda t: (np.zeros(t.shape, dtype=np.intp), np.ones((1,) + t.shape)),
            stack[None], stack, 0.0, 0.0)


def _compile_fourier(stack, n_cos):
    # Harmonic of each matrix: 0 for S0, then 1..K (cosines) and 1..L (sines).
    k = np.concatenate(([0], np.arange(1, n_cos + 1), np.arange(1, len(stack) - n_cos)))
    freq = 2.0 * math.pi * k

    def basis(t):
        # cos(0) = 1 for S0, then each term's cos or sin of (2 pi k) t.
        x = np.multiply.outer(freq, t)
        return (np.zeros(t.shape, dtype=np.intp),
                np.concatenate((np.cos(x[:1 + n_cos]), np.sin(x[1 + n_cos:]))))

    # ||S'(t)||_2 <= L = 2 pi sum_k k (||A_k||_2 + ||B_k||_2), and every t is
    # within half a grid step of a grid time.
    lipschitz = 2.0 * math.pi * float(k[1:] @ np.linalg.norm(stack[1:], 2, axis=(1, 2)))
    samples = _values(*basis(np.linspace(0.0, 1.0, _CLASSIFY_GRID)), stack[None])
    return basis, stack[None], samples, lipschitz * 0.5 / (_CLASSIFY_GRID - 1), lipschitz


def _slope_system(x: np.ndarray):
    """Diagonals (DL, D, DU) of the not-a-knot system for the knot slopes, as
    scipy 1.17's ``CubicSpline`` builds them for m >= 4 knots x."""
    dx = np.diff(x)
    lower = np.concatenate((dx[1:], [x[-1] - x[-3]]))
    diag = np.concatenate(([dx[1]], 2 * (dx[:-1] + dx[1:]), [dx[-2]]))
    upper = np.concatenate(([x[2] - x[0]], dx[:-1]))
    return lower, diag, upper


def _spline_coefficients(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Not-a-knot cubic spline through (x[i], y[i]) on m >= 4 uniform knots.

    Returns ``c`` of shape (4, m - 1) + y.shape[1:], with
    y(t) = c[0, i] + c[1, i] s + c[2, i] s^2 + c[3, i] s^3, s = t - x[i], on
    interval i (scipy's ``c`` in reverse order).  A port of scipy 1.17's
    ``CubicSpline(x, y, axis=0)`` (BSD-3-Clause) with its expressions in its
    order, so the coefficients are the same bits: the slope system solved as
    LAPACK ``dgtsv`` does without row interchanges, then the Hermite
    coefficients of ``CubicHermiteSpline``.  On uniform knots ``dgtsv``
    never interchanges (``|D[i]| >= |DL[i]|`` at every step), so its fill-in
    diagonal stays zero; its term in the back substitution is dropped, which
    could change only the sign of a zero slope.  ``c[0]`` is y itself;
    scipy's evaluation starts its sum at +0.0, and so does `_values`.
    """
    dx = np.diff(x)
    dxr = dx[:, None]
    flat = y.reshape(len(x), -1)
    slope = np.diff(flat, axis=0) / dxr
    lower, diag, upper = (v.tolist() for v in _slope_system(x))
    d0, d1 = upper[0], lower[-1]
    b = np.empty_like(flat)
    b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    b[0] = ((dxr[0] + 2 * d0) * dxr[1] * slope[0] + dxr[0] ** 2 * slope[1]) / d0
    b[-1] = (dxr[-1] ** 2 * slope[-2] + (2 * d1 + dxr[-1]) * dxr[-2] * slope[-1]) / d1
    rows, tmp = list(b), np.empty_like(b[0])
    for i in range(len(x) - 1):
        fact = lower[i] / diag[i]
        diag[i + 1] = diag[i + 1] - fact * upper[i]
        rows[i + 1] -= np.multiply(fact, rows[i], out=tmp)
    rows[-1] /= diag[-1]
    for i in range(len(x) - 2, -1, -1):
        rows[i] -= np.multiply(upper[i], rows[i + 1], out=tmp)
        rows[i] /= diag[i]
    t = (b[:-1] + b[1:] - 2 * slope) / dxr
    c = np.stack((flat[:-1], b[:-1], (slope - b[:-1]) / dxr - t, t / dxr))
    return c.reshape((4, len(x) - 1) + y.shape[1:])


def _compile_sampled(stack, n_cos):
    x = np.linspace(0.0, 1.0, len(stack))
    coef = _spline_coefficients(x, stack)
    inner, left = x[1:-1], x[:-1]

    def basis(t):
        # scipy's PPoly evaluation: interval i with x[i] <= t < x[i + 1] (the
        # last one for t = 1), then c0 + c1 s + c2 (s s) + c3 ((s s) s) summed
        # left to right (`_values`).  Each entry is computed alone from a
        # symmetric stack, so S(t) is exactly symmetric.
        i = np.searchsorted(inner, t, "right")
        s = t - left[i]
        ss = s * s
        return i, np.stack((np.ones_like(s), s, ss, ss * s))

    # On knot interval i, S(t) - S(t_i) = sum_{j=1..3} c[j, i] (t - t_i)^j.
    h = np.diff(x)
    norms = np.linalg.norm(coef[1:], 2, axis=(-2, -1))
    slack = norms[0] * h + norms[1] * h**2 + norms[2] * h**3
    slope = norms[0] + 2.0 * norms[1] * h + 3.0 * norms[2] * h**2
    return basis, coef.swapaxes(0, 1), stack[:-1], slack, float(slope.max())


_COMPILERS = {
    "constant": _compile_constant,
    "fourier": _compile_fourier,
    "sampled": _compile_sampled,
}


def _certified_spectrum(samples: np.ndarray, slack) -> tuple[str, float]:
    """Definiteness tag of S(t) and a bound on ||S(t)||_2, for every t in [0, 1].

    By Weyl's inequality each eigenvalue of S(t) lies within
    ||S(t) - S(t_i)||_2 <= slack_i of the same eigenvalue of a sample
    S(t_i), so widening the sample eigenvalue range by the slack bounds the
    spectrum of S(t) on all of [0, 1].  Definite means that range clears
    +-1e-8; anything else, an uncertifiable generator included, is
    indefinite.
    """
    w = np.linalg.eigvalsh(samples)
    top, bottom = float(np.max(w[:, -1] + slack)), float(np.min(w[:, 0] - slack))
    bound = max(top, -bottom)
    if top < -_DEFINITENESS_DELTA:
        return NEGATIVE_DEFINITE, bound
    return (POSITIVE_DEFINITE if bottom > _DEFINITENESS_DELTA else INDEFINITE), bound


# ---------------------------------------------------------------------------


@dataclass
class SymplecticPath:
    """Monodromy path Psi(t) with Psi(t_start) = I and dense evaluation.

    Node matrices are validated at construction: finite entries, unit start,
    and at each node M the symplectic residual max |E_ij|, E = M^T Omega M -
    Omega, at most 1e-9 max(1, max |M|^2), since its rounding grows with the
    node's squared size; the largest absolute value is kept as
    ``max_symplectic_residual``.  The residual also bounds the determinant:
    Omega + E = M^T Omega M is skew, so det M = Pf(Omega + E) / Pf(Omega) =
    1 + tr(Omega^-1 E) / 2 + O(||E||^2), sign included, and |det M - 1| <=
    (d/2) max |E_ij| to first order.  The gate holds det M to 1 only up to
    that factor d/2.  The residual is formed per `_BLOCK_STEPS` nodes in two
    reused buffers, and the per-node tolerances only in a block whose
    largest residual exceeds 1e-9; the gate raises at the first node over
    its tolerance.  It keeps ``end_sigma``, the singular values of
    Psi(t_end) - I (descending), and ``end_norm``, ||Psi(t_end)||_2, from
    one SVD call: nondegeneracy is decided from both.  Node sigma
    bounds (`sigma_min_nodes`) and graph phases (`graph_phase`) are computed
    on demand, where the scan reads them.
    Instances are immutable by convention and thread-safe.
    """

    dim: int
    t_start: float
    t_end: float
    times: np.ndarray
    matrices: np.ndarray
    generator: HessianPath
    max_symplectic_residual: float = field(init=False)
    end_sigma: np.ndarray = field(init=False, repr=False)
    end_norm: float = field(init=False, repr=False)

    def __post_init__(self):
        if not np.isfinite(self.matrices).all():
            raise IntegrationError("flow produced non-finite entries (overflow?)")
        if np.any(np.diff(self.times) <= 0):
            raise IntegrationError("node times must strictly increase")
        if np.abs(self.matrices[0] - np.eye(self.dim)).max() > 1e-12:
            raise IntegrationError("path does not start at the identity")
        # E = M^T Omega M - Omega per block of nodes, in two reused buffers; a
        # block also takes the next one's first node, so the end node is never
        # a block alone.  M^T Omega is a signed column swap: Omega = -J has
        # entries Omega[2k, 2k + 1] = 1 and Omega[2k + 1, 2k] = -1, so this is exact.
        om = standard_structure(self.dim // 2).omega_matrix
        mt_om, res = np.empty((2, min(len(self.times), _BLOCK_STEPS + 1), self.dim, self.dim))
        self.max_symplectic_residual = 0.0
        for lo in range(0, max(len(self.times) - 1, 1), _BLOCK_STEPS):
            m = self.matrices[lo:lo + _BLOCK_STEPS + 1]
            t, r = mt_om[:len(m)], res[:len(m)]
            np.negative(m[:, 1::2].swapaxes(1, 2), out=t[..., 0::2])
            t[..., 1::2] = m[:, 0::2].swapaxes(1, 2)
            np.matmul(t, m, out=r)
            r -= om
            np.abs(r, out=r)
            top = float(r.max())
            if top > _NODE_RESIDUAL_TOL:
                # The residual rounds like eps ||Psi||^2, so each node's gate scales with it.
                tol = _NODE_RESIDUAL_TOL * np.maximum(1.0, np.abs(m).max(axis=(1, 2)) ** 2)
                defect = r.max(axis=(1, 2))
                if (defect > tol).any():
                    i = int(np.argmax(defect > tol))
                    raise IntegrationError(f"symplectic residual {defect[i]:.3e} exceeds 1e-9 max(1, "
                                           f"max|Psi|^2) = {tol[i]:.3e} at node {lo + i}")
            self.max_symplectic_residual = max(self.max_symplectic_residual, top)
        # One SVD call on the stack (Psi(t_end) - I, Psi(t_end)); LAPACK works
        # per matrix, so both have the bits of separate calls.
        end = self.matrices[-1]
        sv = np.linalg.svd(np.stack((end - np.eye(self.dim), end)), compute_uv=False)
        self.end_sigma, self.end_norm = sv[0], float(sv[1, 0])

    @property
    def grid_spacing(self) -> float:
        return (self.t_end - self.t_start) / (len(self.times) - 1)

    def sigma_min_nodes(self, nodes) -> tuple[np.ndarray, np.ndarray]:
        """Certified bounds, lower on sigma_min and upper on sigma_max, of
        Psi(t_i) - I at the node index array ``nodes`` (`_node_sigma_bounds`), so
        ||Psi(t_i)||_2 <= 1 + the upper one; exact at the last node."""
        lower, upper = _node_sigma_bounds(self.matrices[nodes])
        end = nodes == len(self.times) - 1
        lower[end], upper[end] = self.end_sigma[-1], self.end_sigma[0]
        return lower, upper


def _node_sigma_bounds(psis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Certified bounds, lower on sigma_min and upper on sigma_max, of
    D = Psi - I for each Psi of the stack, from one `eigvalsh` of D^T D.

    The eigenvalues of D^T D are the squared singular values of D; the
    bounds widen the computed ones by c d eps ||D||_F^2 with
    c = `_GRAM_SLACK` d = 16 d, which covers two errors, each bounded with
    Weyl's inequality through a perturbation of D^T D:

    * forming G = fl(D^T D): the entries are dot products of length d, so
      |G - D^T D| <= gamma_d |D|^T |D| entrywise (gamma_d = d eps /
      (1 - d eps)), which is at most 1.01 d eps ||D||_F^2 in 2-norm;
    * `eigvalsh` (LAPACK ``syevd``: Householder tridiagonalization, then
      implicit QL/QR) returns the eigenvalues of G + F with
      ||F||_2 <= p(d) eps ||G||_2, and ||G||_2 <= 1.01 ||D||_F^2.  The d - 2
      two-sided reflections each add O(d eps) (Higham, "Accuracy and
      Stability of Numerical Algorithms", 2002, ch. 19), so p(d) is a small
      multiple of d^2; c d = 16 d^2 leaves room for it.

    The slack decides only where sigma_min is below about 4 d sqrt(eps)
    ||D||_F (4e-7 ||D||_F at d = 6), far below what the crossing scan's gate
    can clear, so its margin costs nothing; the square roots round within
    it.  On random symplectic matrices (d = 2..12) the realized error stays
    below 1.6 d^2 eps ||D||_F^2.
    """
    d = psis.shape[-1]
    diff = psis - np.eye(d)
    gram = np.matmul(diff.swapaxes(1, 2), diff)
    slack = (_GRAM_SLACK * d * d * np.finfo(float).eps) * np.einsum("nij,nij->n", diff, diff)
    del diff
    lam = np.linalg.eigvalsh(gram)
    del gram
    return (np.sqrt(np.maximum(lam[:, 0] - slack, 0.0)),
            np.sqrt(lam[:, -1] + slack))


def graph_phase(psi: np.ndarray) -> np.ndarray:
    """The graph phase 2 arg det Z, i.e. the eigenangle sum of W mod 2 pi,
    of Psi (one matrix or a stack); see `graph_angles`.

    Z = 2 (P_+ Psi + P_-) with P_+- = (I +- iJ) / 2 the projections onto the
    +-1 eigenspaces of iJ.  In a unitary eigenbasis of iJ, Z is block upper
    triangular with diagonal blocks 2 P_+ Psi P_+ and 2 I, so arg det Z =
    arg det P, where P is the n x n matrix of Psi on the +1 eigenspace: with
    [[a, b], [c, d]] the 2 x 2 block (k, l) of Psi, P_kl = (a + d) + i (b - c)
    (the basis vector of plane k is (e_q + i e_p) / sqrt 2).  P is twice the
    complex-linear part of Psi, whose singular values are >= 1 for a
    symplectic Psi, so sigma_min(P) >= 2 and det P is well conditioned.
    """
    p = np.empty(psi.shape[:-2] + (psi.shape[-2] // 2,) * 2, dtype=complex)
    p.real = psi[..., 0::2, 0::2] + psi[..., 1::2, 1::2]
    p.imag = psi[..., 0::2, 1::2] - psi[..., 1::2, 0::2]
    return 2.0 * np.angle(np.linalg.det(p))


def graph_angles(diff: np.ndarray) -> np.ndarray:
    """Principal eigenangles of W = conj(Z)^{-1} Z, one row per matrix of
    the stack diff = Psi - I; they pass 0 exactly where Psi has eigenvalue 1.

    Z = (Psi + I) + i J (Psi - I) is the complex frame of the graph of Psi:
    the columns of (Psi + I, J (Psi - I)) span a Lagrangian, so Z is
    invertible and W is unitary, with det W = exp(2 i arg det Z) and
    W v = v exactly when (Psi - I) v = 0.
    """
    z = 1j * (standard_structure(diff.shape[-1] // 2).J @ diff)
    z += diff + 2.0 * np.eye(diff.shape[-1])
    return np.angle(np.linalg.eigvals(np.linalg.solve(z.conj(), z)))


def _principal(x: np.ndarray) -> np.ndarray:
    return np.mod(x + math.pi, 2.0 * math.pi) - math.pi


def phase_window(path: SymplecticPath, a: float, b: float):
    """Sample times ts (a, the nodes inside, b), ``base`` (node base + k is
    sample k and the base node of interval [ts[k], ts[k + 1]]), the stride,
    Psi(a) and Psi(b), a continuous lift of `graph_phase` at the coarse
    samples 0, stride, 2 stride, ..., len(ts) - 1, and sub-steps.

    The phase moves by at most dim ||S(t)||_2 per unit time (its derivative
    is 2 tr((I + Psi^T Psi)^{-1} Psi^T S Psi), and the singular values s,
    1/s of a symplectic Psi give weights s^2 / (1 + s^2) summing to dim/2).
    The stride is the largest power of two, up to half the samples, over
    which this bound, with ``norm_bound``, stays under a quarter turn, so no
    principal difference aliases, and sample k is one principal step from
    coarse sample k // stride.  At stride 1 a step where the bound reaches a
    quarter turn is cut into sub-steps; the sub-steps map each cut step i to
    the inner times, their Psi and their lifted phases.  Psi at both ends
    and at every sub-step comes from one `evaluate` call.
    """
    first = int(np.searchsorted(path.times, a + _WINDOW_SNAP, "right"))
    stop = int(np.searchsorted(path.times, b - _WINDOW_SNAP, "left"))
    ts = np.concatenate(([a], path.times[first:stop], [b]))
    rate, step = path.dim * path.generator.norm_bound, float(np.diff(ts).max())
    stride = 1
    while 2 * stride < len(ts) and rate * 2 * stride * step < _QUARTER_TURN:
        stride *= 2
    coarse = np.append(np.arange(0, len(ts) - 1, stride), len(ts) - 1)
    tc = ts[coarse]
    parts = np.floor(rate * np.diff(tc) / _QUARTER_TURN) if stride == 1 else np.zeros(len(tc) - 1)
    if parts.max() >= _PHASE_SUBSTEPS_MAX:
        raise CrossingResolutionError(
            f"the graph phase may move by {parts.max():.0f} quarter turns in one grid "
            f"step; refine steps")
    inner = {i: np.linspace(tc[i], tc[i + 1], int(parts[i]) + 2)[1:-1]
             for i in np.flatnonzero(parts).tolist()}
    # Psi and the phase at both ends and at every sub-step, in one call each.
    psis = evaluate(path, np.concatenate(([a, b], *inner.values())))
    phases = graph_phase(psis)
    raw = np.concatenate((phases[:1], graph_phase(path.matrices[first - 1 + coarse[1:-1]]),
                          phases[1:2]))
    steps = _principal(np.diff(raw))
    worst = np.abs(steps[parts == 0]).max(initial=0.0)
    subs, at = {}, 2
    for i, times in inner.items():
        span = slice(at, at := at + len(times))
        moves = _principal(np.diff(np.concatenate((raw[i:i + 1], phases[span], raw[i + 1:i + 2]))))
        worst = max(worst, np.abs(moves).max())
        steps[i] = moves.sum()
        subs[i] = (times, psis[span], np.cumsum(moves[:-1]))
    if worst >= _QUARTER_TURN:
        raise CrossingResolutionError(
            f"graph phase moves by {worst:.3f} rad in one sample step (limit pi/2); "
            f"refine steps")
    lift = raw[0] + np.concatenate(([0.0], np.cumsum(steps)))
    subs = {i: (t, p, lift[i] + m) for i, (t, p, m) in subs.items()}
    return ts, first - 1, stride, psis[:2], lift, subs


def interpolant_bound(path: SymplecticPath) -> tuple[float, float, float]:
    """(slope, growth, taylor): how far `evaluate` can move within one step.

    Between nodes evaluate(t) = F(Omega(s)) Psi_i, s = t - t_i <= h, with
    Omega(s) = (s/2)(A_1 + A_2) + (sqrt(3)/12) s^2 [A_2, A_1] and F the
    scaled Taylor map of `symplectic_expm`.  Omega(s) is read from the
    generator's step table (`_step_exponents`), so A_k = sum_j b_j J B_j
    with the basis values b at t_i + c_k s, which equals J S(t_i + c_k s)
    to rounding (within 1e-14 of the exponent from values, relative to its
    largest entry; the bounds below are for the exact values).
    With S, L the generator's ``norm_bound`` and ``slope_bound``,
    ||Omega|| <= w = h S + (sqrt(3)/6) h^2 S^2 and ||Omega'|| <=
    S + h L/2 + (sqrt(3)/3) h S^2 + (sqrt(3)/6) h^2 S L, so exp(Omega) Psi_i
    moves at most slope = ||Omega'|| e^w times ||Psi_i|| per unit time, and
    growth = e^w bounds ||exp(Omega)||.

    F(X) = T(X / N)^N with T the degree-8 Taylor polynomial and N = 2^s for
    any s >= 0.  With Y = X / N and y = ||Y|| <= w / N, the remainder is
    ||T(Y) - e^Y|| <= sum_{k >= 9} y^k / k! <= r = y^9 / (9! (1 - y / 10)),
    and ||T(Y)||, ||e^Y|| <= e^y (both have nonnegative coefficients), so
    T^N - e^(NY) = sum_j T^j (T - e^Y) e^((N - 1 - j) Y) gives
    ||F(X) - exp(X)|| <= N r e^((N - 1) y) <= N (w / N)^9 e^w / (9! (1 - w / 10))
    <= taylor = w^9 e^w / (9! (1 - w / 10)), whatever s is.  This is exact
    arithmetic; the gate charges rounding separately (`crossings._certified`).
    For w <= 1 it is at most w^9 e^w / (0.9 9!) < 3.1e-6 w^9 e^w, below the
    3e-5 w^7 e^w of a (3,3) Pade map.  Past w = 1 the slope is infinite.
    """
    h = float(np.diff(path.times).max())  # the longest step, for uneven grids too
    s, lip = path.generator.norm_bound, path.generator.slope_bound
    w = h * s + (math.sqrt(3.0) / 6.0) * h * h * s * s
    if not w <= 1.0:
        return math.inf, math.inf, math.inf
    growth = math.exp(w)
    rate = (s + 0.5 * h * lip + (math.sqrt(3.0) / 3.0) * h * s * s
            + (math.sqrt(3.0) / 6.0) * h * h * s * lip)
    return rate * growth, growth, w**9 * growth / (math.factorial(9) * (1.0 - 0.1 * w))


def _step_exponents(generator: HessianPath, t0: np.ndarray, h) -> np.ndarray:
    """Magnus exponents (h/2)(A_1 + A_2) + (sqrt(3)/12) h^2 [A_2, A_1],
    A_k = J S(t0 + c_k h), of the steps [t0, t0 + h], as an (m, d, d) stack
    for a 1-D array t0 and ``h`` one step length (`integrate`; t0 ascending)
    or an array of one per step (`evaluate`), read from the generator's
    step table: J B_j and the commutator terms (sqrt(3)/12) [J B_k, J B_j]
    (j < k).

    With the basis values b at the two Gauss nodes, A_1 + A_2 =
    sum_j (b_j(g1) + b_j(g2)) J B_j and [A_2, A_1] = sum_{j < k}
    (b_k(g2) b_j(g1) - b_j(g2) b_k(g1)) [J B_k, J B_j], so one weight row
    per step contracts with its knot interval's table into the exponent
    (J is a signed permutation, so this equals J applied after a sum over
    the planes B_j, up to the sign of zero entries).  Steps of one length
    form one matrix of weight rows per knot interval (padded with zero rows
    to the longest, which needs t0 ascending), so a batched product
    contracts every interval at once.  Steps of their own lengths are
    contracted row by row, so each exponent has the same bits whatever
    other steps share the call (a matrix product of several rows may round
    differently from one of a single row).  A spline step whose Gauss nodes lie in two knot
    intervals takes A_1 = J S(g1) and A_2 = J S(g2) from `_values`, the
    one evaluator of S(t), on J B_j, and their commutator directly, as
    `tests/oracles.magnus_exponent` forms them from generator values, bit
    for bit.  A constant generator's exponent is h J S bit for bit: its one
    weight is exactly h.
    """
    i, b = generator._basis(_GAUSS_OFFSETS[:, None] * h + t0)
    (j, k), p, d = generator._pairs, len(b), generator.dim
    b1, b2 = b[:, 0], b[:, 1]
    w = np.concatenate((0.5 * h * (b1 + b2), h * h * (b2[k] * b1[j] - b2[j] * b1[k])))
    if np.ndim(h):  # a row per step, contracted with its own interval's table
        group, row, tables, padded = slice(None), 0, i[0], np.ascontiguousarray(w.T)[:, None]
    else:
        group = i[0] - i[0, 0]
        row = np.arange(len(group)) - np.searchsorted(group, group)
        padded = np.zeros((group[-1] + 1, row.max() + 1, len(w)))
        padded[group, row] = w.T
        tables = slice(i[0, 0], i[0, -1] + 1)
    lin = generator._lin.reshape(len(generator._lin), p, d * d)
    out = padded[..., :p] @ lin[tables]
    out += padded[..., p:] @ generator._comm[tables]
    out = out.reshape(padded.shape[:2] + (d, d))[group, row]
    # Only a spline has knots for a step to straddle.
    if len(lin) > 1 and len(cut := (i[0] != i[1]).nonzero()[0]):
        a1, a2 = _values(i[:, cut], b[:, :, cut], generator._lin)
        hc = h[cut, None, None] if np.ndim(h) else h
        out[cut] = 0.5 * hc * (a1 + a2) + (_COMMUTATOR_WEIGHT * hc * hc) * (a2 @ a1 - a1 @ a2)
    return out


def integrate(generator: HessianPath, t_start: float = 0.0, t_end: float = 1.0,
              steps: int = DEFAULT_STEPS) -> SymplecticPath:
    """Integrate the linearized flow of `generator` over [t_start, t_end].

    Fourth-order Magnus stepping: each step multiplies by the exponential of
    a Gauss-averaged Hamiltonian matrix built from J S, plus the leading
    commutator correction.  Node count is steps + 1.  The step exponents
    come from the generator's step table (`_step_exponents`; no generator
    value is computed or checked here, the stack was checked when the
    generator was built), and they and their exponentials are batched per
    `_BLOCK_STEPS` steps.  The running product is a two-level prefix
    product per block (Blelloch, "Prefix sums and their applications",
    1990): the block's exponentials are split into chunks of
    `_CHUNK_STEPS`, the products within every chunk are formed together,
    the chunk starts follow one by one from the block's first node, and one
    batched product fills the block's nodes.  A generator with
    ``slope_bound == 0.0`` has one value S at every t, so every step has
    the same exponent and node k is E^k: the path takes one exponent and
    one exponential E, of its first step, and fills the nodes by doubling
    (E^(n + j) = E^n E^j for j <= n, about log2(steps) batched products).
    Either way the nodes differ from a step-by-step loop's in the last bits,
    by at most 1e-12 relative to each node's largest entry.

    Parameters
    ----------
    generator : HessianPath
        Symmetric generator S(t), defined on [0, 1].
    t_start, t_end : float
        Integration window, 0 <= t_start < t_end <= 1.
    steps : int
        Uniform step count, at least MIN_STEPS (8).
    """
    if not (0.0 <= t_start < t_end <= 1.0):
        raise ValueError(f"need 0 <= t_start < t_end <= 1, got [{t_start}, {t_end}]")
    steps = int(steps)
    if steps < MIN_STEPS:
        raise ValueError(f"steps must be >= {MIN_STEPS}, got {steps}")
    d = generator.dim
    times = np.linspace(t_start, t_end, steps + 1)
    h = (t_end - t_start) / steps
    mats = np.empty((steps + 1, d, d))
    mats[0] = np.eye(d)
    # Overflow shows up as non-finite nodes and is rejected at construction.
    with np.errstate(over="ignore", invalid="ignore"):
        if generator.slope_bound == 0.0:
            # Node k of a frozen generator is E^k: E^(n + j) = E^n E^j for j <= n.
            mats[1] = symplectic_expm(_step_exponents(generator, times[:1], h))[0]
            n = 1
            while n < steps:
                np.matmul(mats[n], mats[1:min(n, steps - n) + 1], out=mats[n + 1:2 * n + 1])
                n *= 2
        else:
            for lo in range(0, steps, _BLOCK_STEPS):
                w = symplectic_expm(_step_exponents(generator, times[:-1][lo:lo + _BLOCK_STEPS], h))
                m, c = len(w), -(-len(w) // _CHUNK_STEPS)
                if m % _CHUNK_STEPS:  # a short block: pad its last chunk with identities
                    pad = np.broadcast_to(np.eye(d), (c * _CHUNK_STEPS - m, d, d))
                    w = np.concatenate((w, pad))
                loc = w.reshape(c, _CHUNK_STEPS, d, d)
                for i in range(1, _CHUNK_STEPS):
                    np.matmul(loc[:, i], loc[:, i - 1], out=loc[:, i])
                starts = np.empty((c, d, d))
                starts[0] = mats[lo]
                for j in range(1, c):
                    np.dot(loc[j - 1, -1], starts[j - 1], out=starts[j])
                mats[lo + 1:lo + 1 + m] = np.matmul(loc, starts[:, None]).reshape(-1, d, d)[:m]
    return SymplecticPath(dim=d, t_start=t_start, t_end=t_end, times=times,
                          matrices=mats, generator=generator)


def evaluate(path: SymplecticPath, t) -> np.ndarray:
    """Psi(t) anywhere in the path domain, for a time t, or the stack of Psi
    at an array of times (shape t.shape + (d, d)), in any order.

    A time within `_NODE_SNAP` of a node returns the stored matrix; any
    other time re-integrates a single Magnus sub-step from the node before
    it.  Polynomial interpolation is never used, since it would break
    symplecticity.  All sub-steps of a call take one `_step_exponents` (one
    step length per time), one `symplectic_expm` and one batched product,
    and each Psi has the same bits whatever other times share the call, so
    a scalar call is the one-element case.  The domain check and the node
    snap run on Python floats, which costs less than array operations for
    the few times a call takes; the first time outside the domain (NaN
    included) raises ValueError.
    """
    ts, nodes, off, steps = np.asarray(t, dtype=float), [], [], []
    times, lo, hi, last = path.times, path.t_start, path.t_end, len(path.times) - 1
    for x, k in zip((flat := ts.ravel()).tolist(), times.searchsorted(flat, "right").tolist()):
        if not lo - _DOMAIN_SLACK <= x <= hi + _DOMAIN_SLACK:  # NaN too
            raise ValueError(f"time {x} outside path domain [{lo}, {hi}]")
        x, k = min(max(x, lo), hi), max(k - 1, 0)  # node k is the last at or before x
        # The next node when x is within the snap below it and not within it of node k.
        k += k < last and times.item(k + 1) - x <= _NODE_SNAP < x - times.item(k)
        if abs(times.item(k) - x) > _NODE_SNAP:
            off.append(len(nodes))
            steps.append(x - times.item(k))
        nodes.append(k)
    psis = path.matrices.take(nodes, axis=0)
    if off:
        w = _step_exponents(path.generator, times.take([nodes[r] for r in off]), np.array(steps))
        psis[off] = symplectic_expm(w) @ psis.take(off, axis=0)
    return psis.reshape(ts.shape + psis.shape[1:])
