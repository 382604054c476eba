"""Linearized Hamiltonian flow integration.

Integrates Psi'(t) = J S(t) Psi(t), Psi(t_start) = I, where S(t) is the
time-dependent symmetric Hessian of the driving function at a fixed
extremizer.  The stepper is a fourth-order Magnus scheme with two-point
Gauss quadrature; every step multiplies by the exponential of a Hamiltonian
matrix, so the produced path is symplectic by structure, which the crossing
machinery depends on (a generic Runge-Kutta step would leak symplecticity
and create spurious near-unit eigenvalues).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CrossingResolutionError, IntegrationError
from .symplectic import standard_structure, symplectic_expm, symplectic_inverse

__all__ = [
    "NEGATIVE_DEFINITE",
    "POSITIVE_DEFINITE",
    "INDEFINITE",
    "DEFAULT_STEPS",
    "HessianPath",
    "SymplecticPath",
    "integrate",
    "evaluate",
    "restrict",
    "direct_sum",
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

_DEFINITENESS_DELTA = 1e-8
_CLASSIFY_GRID = 129
_SYMMETRY_TOL = 1e-9
_NODE_RESIDUAL_TOL = 1e-9
# Error constant of the Gram eigenvalues, per d^2 eps ||D||_F^2 (`_node_sigma_bounds`).
_GRAM_SLACK = 16.0
# Graph phase sub-steps stay below a quarter turn, at most 64 per grid step.
_QUARTER_TURN = 0.5 * math.pi
_PHASE_SUBSTEPS_MAX = 64
# Steps per numpy call in `integrate`; larger blocks cost memory, not speed.
_BLOCK_STEPS = 512
# Times this far outside a path's or generator's domain still count as inside.
_DOMAIN_SLACK = 1e-12


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

    Transforms map each matrix of the stack.  The evaluator, the
    definiteness tag, ``norm_bound`` and ``slope_bound`` are built once at
    construction and hold for every t in [0, 1] (see `_certified_spectrum`):
    a generator whose definiteness cannot be certified is tagged indefinite,
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
        self._evaluator, certificate = _COMPILERS[kind](self.stack, self.n_cos)
        samples, slack, self.slope_bound = certificate()
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
        outside = (ts < -_DOMAIN_SLACK) | (ts > 1.0 + _DOMAIN_SLACK)
        if outside.any():
            raise ValueError(f"time {ts[outside][0]} outside the generator domain [0, 1]")
        return self._evaluator(np.minimum(np.maximum(ts, 0.0), 1.0))

    def negated(self) -> "HessianPath":
        """The generator -S(t), e.g. to treat a minimizer as a maximizer of -H.
        The bounds hold as they are and the definiteness swaps; only the
        evaluator is compiled again, from the negated stack."""
        neg = copy.copy(self)
        neg.stack = np.negative(self.stack)
        neg.stack.flags.writeable = False
        neg._evaluator = _COMPILERS[self.kind](neg.stack, self.n_cos)[0]
        neg.definiteness = _NEGATED.get(self.definiteness, INDEFINITE)
        return neg

    def congruent(self, c) -> "HessianPath":
        """The congruent generator c^T S(t) c (used for conjugation invariance)."""
        c = np.asarray(c, dtype=float)
        if c.shape != (self.dim, self.dim):
            raise ValueError("congruence matrix shape mismatch")
        return HessianPath(self.kind, [c.T @ m @ c for m in self.stack], self.n_cos)

    def to_payload(self) -> dict:
        """JSON-serializable description (used by scenario files and reports)."""
        if self.kind == "constant":
            return {"kind": "constant", "matrix": self.stack[0].tolist()}
        if self.kind == "fourier":
            s0, cos, sin = _fourier_parts(self.stack, self.n_cos)
            return {
                "kind": "fourier",
                "s0": s0.tolist(),
                "cos": [a.tolist() for a in cos],
                "sin": [b.tolist() for b in sin],
            }
        return {"kind": "sampled", "values": self.stack.tolist()}

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


def _fourier_parts(stack: np.ndarray, n_cos: int):
    """(S0, cosine terms, sine terms) of a constant or Fourier stack."""
    return stack[0], stack[1:1 + n_cos], stack[1 + n_cos:]


# Each compiler returns the evaluator t -> S(t) for a float array t of any
# shape, and a function that returns sample matrices S(t_i), a slack (scalar
# or one per sample) such that every t in [0, 1] has a sample with
# ||S(t) - S(t_i)||_2 <= slack_i, and a bound on ||S'(t)||_2 over [0, 1].


def _compile_constant(stack, n_cos):
    m = stack[0]
    return (lambda t: np.ones(t.shape + (1, 1)) * m), lambda: (stack, 0.0, 0.0)


def _compile_fourier(stack, n_cos):
    # Harmonic of each matrix: 0 for S0, then 1..K (cosines) and 1..L (sines).
    k = np.concatenate(([0], np.arange(1, n_cos + 1), np.arange(1, len(stack) - n_cos)))
    freq = 2.0 * math.pi * k
    cosine = np.arange(len(stack)) <= n_cos

    def evaluator(t):
        # S0 cos(0) = S0, then the terms in stack order with argument (2 pi k) t,
        # all elementwise, so each S(t) is the same in any array shape.
        x = np.multiply.outer(t, freq)
        terms = np.where(cosine, np.cos(x), np.sin(x))[..., None, None] * stack
        out = terms[..., 0, :, :].copy()
        for j in range(1, len(stack)):
            out += terms[..., j, :, :]
        return out

    def certificate():
        # ||S'(t)||_2 <= L = 2 pi sum_k k (||A_k||_2 + ||B_k||_2), and every t
        # is within half a grid step of a grid time.
        lipschitz = 2.0 * math.pi * float(k[1:] @ np.linalg.norm(stack[1:], 2, axis=(1, 2)))
        samples = evaluator(np.linspace(0.0, 1.0, _CLASSIFY_GRID))
        return samples, lipschitz * 0.5 / (_CLASSIFY_GRID - 1), lipschitz

    return evaluator, certificate


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
    could change only the sign of a zero slope.
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
    # 0.0 + y: scipy's evaluation starts its sum at +0.0.
    c = np.stack((0.0 + flat[:-1], b[:-1], (slope - b[:-1]) / dxr - t, t / dxr))
    return c.reshape((4, len(x) - 1) + y.shape[1:])


def _compile_sampled(stack, n_cos):
    x = np.linspace(0.0, 1.0, len(stack))
    coef = _spline_coefficients(x, stack)
    inner, left = x[1:-1], x[:-1]

    def evaluator(t):
        # scipy's PPoly evaluation: interval i with x[i] <= t < x[i + 1] (the
        # last one for t = 1), then c0 + c1 s + c2 (s s) + c3 ((s s) s) summed
        # left to right.  Each entry is computed alone from a symmetric
        # stack, so S(t) is exactly symmetric.
        i = np.searchsorted(inner, t, "right")
        s = (t - left[i])[..., None, None]
        ss = s * s
        c0, c1, c2, c3 = (plane[i] for plane in coef)
        value = c0 + c1 * s
        value += c2 * ss
        value += c3 * (ss * s)
        return value

    def certificate():
        # On knot interval i, S(t) - S(t_i) = sum_{j=1..3} c[j, i] (t - t_i)^j.
        h = np.diff(x)
        norms = np.linalg.norm(coef[1:], 2, axis=(-2, -1))
        slack = norms[0] * h + norms[1] * h**2 + norms[2] * h**3
        slope = norms[0] + 2.0 * norms[1] * h + 3.0 * norms[2] * h**2
        return stack[:-1], slack, float(slope.max())

    return evaluator, certificate


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


def direct_sum(a: HessianPath, b: HessianPath) -> HessianPath:
    """Block-diagonal join of two generators (phase spaces concatenate)."""

    def join(ma, mb):
        da = ma.shape[-1]
        out = np.zeros(ma.shape[:-2] + (da + mb.shape[-1],) * 2)
        out[..., :da, :da] = ma
        out[..., da:, da:] = mb
        return out

    if "sampled" not in (a.kind, b.kind):
        sa, cos_a, sin_a = _fourier_parts(a.stack, a.n_cos)
        sb, cos_b, sin_b = _fourier_parts(b.stack, b.n_cos)
        if a.kind == b.kind == "constant":
            return HessianPath.constant(join(sa, sb))
        za = np.zeros((a.dim, a.dim))
        zb = np.zeros((b.dim, b.dim))
        kmax = max(len(cos_a), len(cos_b), len(sin_a), len(sin_b))
        pad = lambda terms, z, k: terms[k] if k < len(terms) else z
        cos = [join(pad(cos_a, za, k), pad(cos_b, zb, k)) for k in range(kmax)]
        sin = [join(pad(sin_a, za, k), pad(sin_b, zb, k)) for k in range(kmax)]
        return HessianPath.fourier(join(sa, sb), cos, sin)
    grid = np.linspace(0.0, 1.0, 2049)
    return HessianPath.sampled(join(a(grid), b(grid)))


# ---------------------------------------------------------------------------


@dataclass
class SymplecticPath:
    """Monodromy path Psi(t) with Psi(t_start) = I and dense evaluation.

    Node matrices are validated at construction: finite entries, unit start,
    symplectic residual and determinant defect both below 1e-9.  It keeps
    ``end_sigma``, the singular values of Psi(t_end) - I (descending), where
    nondegeneracy is decided; node sigma bounds (`sigma_min_nodes`) and graph
    phases (`graph_phase`) are computed on demand, where the scan reads them.
    Instances are immutable by convention and thread-safe.
    """

    dim: int
    t_start: float
    t_end: float
    times: np.ndarray
    matrices: np.ndarray
    generator: HessianPath
    max_symplectic_residual: float = field(init=False)
    max_det_error: float = field(init=False)
    end_sigma: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not np.isfinite(self.matrices).all():
            raise IntegrationError("flow produced non-finite entries (overflow?)")
        if np.any(np.diff(self.times) <= 0):
            raise IntegrationError("node times must strictly increase")
        if np.abs(self.matrices[0] - np.eye(self.dim)).max() > 1e-12:
            raise IntegrationError("path does not start at the identity")
        om = standard_structure(self.dim // 2).omega_matrix
        res = self.matrices.transpose(0, 2, 1) @ om @ self.matrices - om
        self.max_symplectic_residual = float(np.abs(res).max())
        self.max_det_error = float(np.abs(np.linalg.det(self.matrices) - 1.0).max())
        if self.max_symplectic_residual > _NODE_RESIDUAL_TOL:
            raise IntegrationError(
                f"symplectic residual {self.max_symplectic_residual:.3e} exceeds 1e-9"
            )
        if self.max_det_error > _NODE_RESIDUAL_TOL:
            raise IntegrationError(f"determinant defect {self.max_det_error:.3e} exceeds 1e-9")
        self.end_sigma = np.linalg.svd(self.matrices[-1] - np.eye(self.dim), compute_uv=False)

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


def _graph_frame(diff: np.ndarray) -> np.ndarray:
    """Complex frame Z = (Psi + I) + i J (Psi - I) of the graph of Psi, from
    diff = Psi - I (one matrix or a stack).

    The columns of (Psi + I, J (Psi - I)) span a Lagrangian, so Z is
    invertible and W = conj(Z)^{-1} Z is unitary, with det W =
    exp(2 i arg det Z) and W v = v exactly when (Psi - I) v = 0.
    """
    z = 1j * (standard_structure(diff.shape[-1] // 2).J @ diff)
    z += diff + 2.0 * np.eye(diff.shape[-1])
    return z


def graph_phase(psi: np.ndarray) -> np.ndarray:
    """The graph phase 2 arg det Z, i.e. the eigenangle sum of W mod 2 pi,
    of Psi (one matrix or a stack); see `_graph_frame`.

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
    the stack diff = Psi - I; they pass 0 exactly where Psi has eigenvalue 1."""
    z = _graph_frame(diff)
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
    quarter turn is cut into sub-steps by `evaluate`; the sub-steps map each
    cut step i to the inner times, their Psi and their lifted phases.
    """
    first = int(np.searchsorted(path.times, a + 1e-14, "right"))
    stop = int(np.searchsorted(path.times, b - 1e-14, "left"))
    ts = np.concatenate(([a], path.times[first:stop], [b]))
    rate, step = path.dim * path.generator.norm_bound, float(np.diff(ts).max())
    stride = 1
    while 2 * stride < len(ts) and rate * 2 * stride * step < _QUARTER_TURN:
        stride *= 2
    coarse = np.append(np.arange(0, len(ts) - 1, stride), len(ts) - 1)
    ends = np.stack((evaluate(path, a), evaluate(path, b)))
    end_phase = graph_phase(ends)
    raw = np.concatenate((end_phase[:1], graph_phase(path.matrices[first - 1 + coarse[1:-1]]),
                          end_phase[1:]))
    tc = ts[coarse]
    parts = np.floor(rate * np.diff(tc) / _QUARTER_TURN) if stride == 1 else np.zeros(len(tc) - 1)
    if parts.max() >= _PHASE_SUBSTEPS_MAX:
        raise CrossingResolutionError(
            f"the graph phase may move by {parts.max():.0f} quarter turns in one grid "
            f"step; refine steps")
    steps = _principal(np.diff(raw))
    worst = np.abs(steps[parts == 0]).max(initial=0.0)
    subs = {}
    for i in np.flatnonzero(parts):
        times = np.linspace(tc[i], tc[i + 1], int(parts[i]) + 2)[1:-1]
        psis = np.stack([evaluate(path, t) for t in times])
        moves = _principal(np.diff(np.concatenate(
            (raw[i:i + 1], graph_phase(psis), raw[i + 1:i + 2]))))
        worst = max(worst, np.abs(moves).max())
        steps[i] = moves.sum()
        subs[int(i)] = (times, psis, np.cumsum(moves[:-1]))
    if worst >= _QUARTER_TURN:
        raise CrossingResolutionError(
            f"graph phase moves by {worst:.3f} rad in one sample step (limit pi/2); "
            f"refine steps")
    lift = raw[0] + np.concatenate(([0.0], np.cumsum(steps)))
    subs = {i: (t, p, lift[i] + m) for i, (t, p, m) in subs.items()}
    return ts, first - 1, stride, ends, lift, subs


def interpolant_bound(path: SymplecticPath) -> tuple[float, float, float]:
    """(slope, growth, pade): how far `evaluate` can move within one step.

    Between nodes evaluate(t) = F(Omega(s)) Psi_i, s = t - t_i <= h, with
    Omega(s) = (s/2)(A_1 + A_2) + (sqrt(3)/12) s^2 [A_2, A_1],
    A_k = J S(t_i + c_k s), and F the scaled Pade map of `symplectic_expm`.
    With S, L the generator's ``norm_bound`` and ``slope_bound``,
    ||Omega|| <= w = h S + (sqrt(3)/6) h^2 S^2 and ||Omega'|| <=
    S + h L/2 + (sqrt(3)/3) h S^2 + (sqrt(3)/6) h^2 S L, so exp(Omega) Psi_i
    moves at most slope = ||Omega'|| e^w times ||Psi_i|| per unit time, and
    growth = e^w bounds ||exp(Omega)||.  The (3,3) Pade map has
    ||r(X) - e^X|| <= 2.8e-5 ||X||^7 for ||X|| <= 1 (the absolute sum of its
    Taylor error terms), so ||F(Omega) - exp(Omega)|| <= pade =
    3e-5 w^7 e^w after squaring.  Past w = 1 the slope is infinite.
    """
    h = float(np.diff(path.times).max())  # the longest step, for restricted paths too
    s, lip = path.generator.norm_bound, path.generator.slope_bound
    w = h * s + (math.sqrt(3.0) / 6.0) * h * h * s * s
    if not w <= 1.0:
        return math.inf, math.inf, math.inf
    growth = math.exp(w)
    rate = (s + 0.5 * h * lip + (math.sqrt(3.0) / 3.0) * h * s * s
            + (math.sqrt(3.0) / 6.0) * h * h * s * lip)
    return rate * growth, growth, 3e-5 * w**7 * growth


def _magnus_exponent(generator: HessianPath, J: np.ndarray, t0, h: float) -> np.ndarray:
    """Exponent of the Magnus step [t0, t0 + h], or the (m, d, d) stack of
    exponents for a 1-D array of step starts t0."""
    s = generator(np.add.outer(t0, h * _GAUSS_OFFSETS))  # both Gauss nodes of each step
    scale = np.abs(s).max(axis=(-2, -1))
    with np.errstate(invalid="ignore"):
        skew = np.abs(s - s.swapaxes(-1, -2)).max(axis=(-2, -1))
    bad = ~np.isfinite(scale) | (skew > _SYMMETRY_TOL * np.maximum(1.0, scale))
    if bad.any():
        # Report the first bad node in time order, finiteness checked first.
        if not np.isfinite(scale.flat[np.argmax(bad)]):
            raise IntegrationError("generator returned non-finite values")
        raise IntegrationError("non-symmetric generator value at a quadrature point")
    a = J @ s
    a1, a2 = a[..., 0, :, :], a[..., 1, :, :]
    return 0.5 * h * (a1 + a2) + (math.sqrt(3.0) / 12.0) * h * h * (a2 @ a1 - a1 @ a2)


def integrate(generator: HessianPath, t_start: float = 0.0, t_end: float = 1.0,
              steps: int = DEFAULT_STEPS) -> SymplecticPath:
    """Integrate the linearized flow of `generator` over [t_start, t_end].

    Fourth-order Magnus stepping: each step multiplies by the exponential of
    a Gauss-averaged Hamiltonian matrix built from J S, plus the leading
    commutator correction.  Node count is steps + 1.  Generator values,
    checks and exponentials are batched per `_BLOCK_STEPS` steps; only the
    running product loops, and Psi equals a step-by-step loop bit for bit.

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
    J = standard_structure(d // 2).J
    times = np.linspace(t_start, t_end, steps + 1)
    h = (t_end - t_start) / steps
    mats = np.empty((steps + 1, d, d))
    mats[0] = np.eye(d)
    # Overflow shows up as non-finite nodes and is rejected at construction.
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, steps, _BLOCK_STEPS):
            starts = times[lo:min(lo + _BLOCK_STEPS, steps)]
            exps = symplectic_expm(_magnus_exponent(generator, J, starts, h))
            # np.dot: the product of np.matmul without its ufunc dispatch.
            for e, a, b in zip(exps, mats[lo:], mats[lo + 1:]):
                np.dot(e, a, out=b)
    return SymplecticPath(dim=d, t_start=t_start, t_end=t_end, times=times,
                          matrices=mats, generator=generator)


def evaluate(path: SymplecticPath, t: float) -> np.ndarray:
    """Evaluate Psi(t) anywhere in the path domain.

    At nodes this returns the stored matrix; between nodes it re-integrates
    a single Magnus sub-step from the nearest earlier node.  Polynomial
    interpolation is never used, since it would break symplecticity.
    """
    if t < path.t_start - _DOMAIN_SLACK or t > path.t_end + _DOMAIN_SLACK:
        raise ValueError(f"time {t} outside path domain [{path.t_start}, {path.t_end}]")
    t = min(max(t, path.t_start), path.t_end)
    idx = int(np.searchsorted(path.times, t, side="right")) - 1
    idx = min(max(idx, 0), len(path.times) - 1)
    if abs(path.times[idx] - t) <= 1e-13:
        return path.matrices[idx].copy()
    if idx + 1 < len(path.times) and abs(path.times[idx + 1] - t) <= 1e-13:
        return path.matrices[idx + 1].copy()
    J = standard_structure(path.dim // 2).J
    w = _magnus_exponent(path.generator, J, float(path.times[idx]), t - float(path.times[idx]))
    return symplectic_expm(w) @ path.matrices[idx]


def restrict(path: SymplecticPath, a: float, b: float) -> SymplecticPath:
    """Re-base the same flow on [a, b]: t -> Psi(t) Psi(a)^{-1}.

    The result starts at the identity and is the linearized flow of the same
    generator on the sub-interval (cocycle property).
    """
    if not (path.t_start - _DOMAIN_SLACK <= a < b <= path.t_end + _DOMAIN_SLACK):
        raise ValueError(f"invalid restriction window [{a}, {b}]")
    a = min(max(a, path.t_start), path.t_end)
    b = min(max(b, path.t_start), path.t_end)
    structure = standard_structure(path.dim // 2)
    inv_a = symplectic_inverse(structure, evaluate(path, a))
    inner = (path.times > a + 1e-14) & (path.times < b - 1e-14)
    times = np.concatenate(([a], path.times[inner], [b]))
    mats = np.empty((len(times), path.dim, path.dim))
    mats[0] = np.eye(path.dim)
    if inner.any():
        mats[1:-1] = path.matrices[inner] @ inv_a
    mats[-1] = evaluate(path, b) @ inv_a
    return SymplecticPath(dim=path.dim, t_start=a, t_end=b, times=times,
                          matrices=mats, generator=path.generator)
