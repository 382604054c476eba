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

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import IntegrationError
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
]

NEGATIVE_DEFINITE = "negative_definite"
POSITIVE_DEFINITE = "positive_definite"
INDEFINITE = "indefinite"

DEFAULT_STEPS = 2048
MIN_STEPS = 8

# Two-point Gauss-Legendre nodes on [0, 1].
_GAUSS_OFFSETS = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)

_DEFINITENESS_DELTA = 1e-8
_CLASSIFY_GRID = 129
_SYMMETRY_TOL = 1e-9
_NODE_RESIDUAL_TOL = 1e-9


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def _require_symmetric(m: np.ndarray, what: str) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{what} has non-finite entries")
    scale = max(1.0, float(np.abs(m).max()))
    if float(np.abs(m - m.T).max()) > _SYMMETRY_TOL * scale:
        raise ValueError(f"{what} is not symmetric")
    return _symmetrize(m)


class HessianPath:
    """Time-dependent symmetric generator S(t) on [0, 1].

    Three kinds are supported:

    * ``constant``: one symmetric matrix;
    * ``fourier``: S0 + sum_k (A_k cos(2 pi k t) + B_k sin(2 pi k t));
    * ``sampled``: a uniform time grid of symmetric matrices with cubic
      interpolation, re-symmetrized after interpolation so noise cannot
      break the symmetry invariant.

    The definiteness tag is classified at construction on a time grid
    (eigenvalues must clear +-1e-8 uniformly to count as definite).
    """

    def __init__(self, dim, kind, evaluator, definiteness, payload):
        self.dim = int(dim)
        self.kind = kind
        self._evaluator = evaluator
        self.definiteness = definiteness
        self.payload = payload

    # -- constructors --------------------------------------------------

    @classmethod
    def constant(cls, matrix) -> "HessianPath":
        m = _require_symmetric(matrix, "constant generator")
        cls._check_dim(m.shape[0])
        path = cls(m.shape[0], "constant", lambda t, _m=m: _m, None, {"matrix": m})
        path.definiteness = _classify(path)
        return path

    @classmethod
    def fourier(cls, s0, cos_terms=(), sin_terms=()) -> "HessianPath":
        s0 = _require_symmetric(s0, "fourier mean term")
        cls._check_dim(s0.shape[0])
        cos_terms = [_require_symmetric(a, f"cosine coefficient {k + 1}") for k, a in enumerate(cos_terms)]
        sin_terms = [_require_symmetric(b, f"sine coefficient {k + 1}") for k, b in enumerate(sin_terms)]
        for m in (*cos_terms, *sin_terms):
            if m.shape != s0.shape:
                raise ValueError("fourier coefficient shape mismatch")

        def evaluator(t, _s0=s0, _cos=cos_terms, _sin=sin_terms):
            out = _s0.copy()
            for k, a in enumerate(_cos, start=1):
                out += math.cos(2.0 * math.pi * k * t) * a
            for k, b in enumerate(_sin, start=1):
                out += math.sin(2.0 * math.pi * k * t) * b
            return out

        path = cls(s0.shape[0], "fourier", evaluator, None,
                   {"s0": s0, "cos": cos_terms, "sin": sin_terms})
        path.definiteness = _classify(path)
        return path

    @classmethod
    def sampled(cls, values) -> "HessianPath":
        values = np.asarray(values, dtype=float)
        if values.ndim != 3 or values.shape[0] < 4:
            raise ValueError("sampled generator needs at least 4 matrices on a uniform grid")
        values = np.stack([_require_symmetric(v, f"sample {i}") for i, v in enumerate(values)])
        cls._check_dim(values.shape[1])
        grid = np.linspace(0.0, 1.0, values.shape[0])
        spline = CubicSpline(grid, values, axis=0)

        def evaluator(t, _spline=spline):
            return _symmetrize(np.asarray(_spline(t)))

        path = cls(values.shape[1], "sampled", evaluator, None, {"values": values})
        path.definiteness = _classify(path)
        return path

    @staticmethod
    def _check_dim(d: int) -> None:
        if d < 2 or d % 2 != 0:
            raise ValueError(f"phase-space dimension must be even and >= 2, got {d}")

    # -- evaluation and transforms --------------------------------------

    def __call__(self, t: float) -> np.ndarray:
        if t < -1e-12 or t > 1.0 + 1e-12:
            raise ValueError(f"time {t} outside the generator domain [0, 1]")
        return self._evaluator(min(max(t, 0.0), 1.0))

    def negated(self) -> "HessianPath":
        """The generator -S(t), e.g. to treat a minimizer as a maximizer of -H."""
        if self.kind == "constant":
            return HessianPath.constant(-self.payload["matrix"])
        if self.kind == "fourier":
            return HessianPath.fourier(
                -self.payload["s0"],
                [-a for a in self.payload["cos"]],
                [-b for b in self.payload["sin"]],
            )
        return HessianPath.sampled(-self.payload["values"])

    def congruent(self, c) -> "HessianPath":
        """The congruent generator c^T S(t) c (used for conjugation invariance)."""
        c = np.asarray(c, dtype=float)
        if c.shape != (self.dim, self.dim):
            raise ValueError("congruence matrix shape mismatch")
        tr = lambda m: c.T @ m @ c
        if self.kind == "constant":
            return HessianPath.constant(tr(self.payload["matrix"]))
        if self.kind == "fourier":
            return HessianPath.fourier(
                tr(self.payload["s0"]),
                [tr(a) for a in self.payload["cos"]],
                [tr(b) for b in self.payload["sin"]],
            )
        return HessianPath.sampled(np.stack([tr(v) for v in self.payload["values"]]))

    def to_payload(self) -> dict:
        """JSON-serializable description (used by scenario files and reports)."""
        if self.kind == "constant":
            return {"kind": "constant", "matrix": self.payload["matrix"].tolist()}
        if self.kind == "fourier":
            return {
                "kind": "fourier",
                "s0": self.payload["s0"].tolist(),
                "cos": [a.tolist() for a in self.payload["cos"]],
                "sin": [b.tolist() for b in self.payload["sin"]],
            }
        return {"kind": "sampled", "values": self.payload["values"].tolist()}

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


def _classify(path: HessianPath) -> str:
    lo = math.inf
    hi = -math.inf
    for t in np.linspace(0.0, 1.0, _CLASSIFY_GRID):
        w = np.linalg.eigvalsh(path(t))
        lo = min(lo, float(w[0]))
        hi = max(hi, float(w[-1]))
    if hi < -_DEFINITENESS_DELTA:
        return NEGATIVE_DEFINITE
    if lo > _DEFINITENESS_DELTA:
        return POSITIVE_DEFINITE
    return INDEFINITE


def direct_sum(a: HessianPath, b: HessianPath) -> HessianPath:
    """Block-diagonal join of two generators (phase spaces concatenate)."""

    def join(ma, mb):
        out = np.zeros((ma.shape[0] + mb.shape[0],) * 2)
        out[: ma.shape[0], : ma.shape[0]] = ma
        out[ma.shape[0] :, ma.shape[0] :] = mb
        return out

    if a.kind == "constant" and b.kind == "constant":
        return HessianPath.constant(join(a.payload["matrix"], b.payload["matrix"]))
    if a.kind in ("constant", "fourier") and b.kind in ("constant", "fourier"):
        za = np.zeros((a.dim, a.dim))
        zb = np.zeros((b.dim, b.dim))
        sa = a.payload.get("s0", a.payload.get("matrix"))
        sb = b.payload.get("s0", b.payload.get("matrix"))
        cos_a = a.payload.get("cos", [])
        cos_b = b.payload.get("cos", [])
        sin_a = a.payload.get("sin", [])
        sin_b = b.payload.get("sin", [])
        kmax = max(len(cos_a), len(cos_b), len(sin_a), len(sin_b))
        pad = lambda terms, z, k: terms[k] if k < len(terms) else z
        cos = [join(pad(cos_a, za, k), pad(cos_b, zb, k)) for k in range(kmax)]
        sin = [join(pad(sin_a, za, k), pad(sin_b, zb, k)) for k in range(kmax)]
        return HessianPath.fourier(join(sa, sb), cos, sin)
    grid = np.linspace(0.0, 1.0, 2049)
    return HessianPath.sampled(np.stack([join(a(t), b(t)) for t in grid]))


# ---------------------------------------------------------------------------


@dataclass
class SymplecticPath:
    """Monodromy path Psi(t) with Psi(t_start) = I and dense evaluation.

    Node matrices are validated at construction: finite entries, unit start,
    symplectic residual and determinant defect both below 1e-9.  Instances
    are immutable by convention and safe to share across threads.
    """

    dim: int
    t_start: float
    t_end: float
    times: np.ndarray
    matrices: np.ndarray
    generator: HessianPath
    max_symplectic_residual: float = field(init=False)
    max_det_error: float = field(init=False)
    _sigma_nodes: np.ndarray = field(init=False, repr=False)

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
        diff = self.matrices - np.eye(self.dim)
        self._sigma_nodes = np.linalg.svd(diff, compute_uv=False)[:, -1]

    @property
    def grid_spacing(self) -> float:
        return (self.t_end - self.t_start) / (len(self.times) - 1)

    def sigma_min_nodes(self) -> np.ndarray:
        """sigma_min(Psi(t_i) - I) at every node, computed at construction."""
        return self._sigma_nodes


def _magnus_exponent(generator: HessianPath, J: np.ndarray, t0: float, h: float) -> np.ndarray:
    s1 = generator(t0 + h * _GAUSS_OFFSETS[0])
    s2 = generator(t0 + h * _GAUSS_OFFSETS[1])
    for s in (s1, s2):
        if not np.isfinite(s).all():
            raise IntegrationError("generator returned non-finite values")
        scale = max(1.0, float(np.abs(s).max()))
        if float(np.abs(s - s.T).max()) > _SYMMETRY_TOL * scale:
            raise IntegrationError("non-symmetric generator value at a quadrature point")
    a1 = J @ s1
    a2 = J @ s2
    return 0.5 * h * (a1 + a2) + (math.sqrt(3.0) / 12.0) * h * h * (a2 @ a1 - a1 @ a2)


def integrate(generator: HessianPath, t_start: float = 0.0, t_end: float = 1.0,
              steps: int = DEFAULT_STEPS) -> SymplecticPath:
    """Integrate the linearized flow of `generator` over [t_start, t_end].

    Fourth-order Magnus stepping: each step multiplies by the exponential of
    a Gauss-averaged Hamiltonian matrix built from J S, plus the leading
    commutator correction.  Node count is steps + 1.

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


def evaluate(path: SymplecticPath, t: float) -> np.ndarray:
    """Evaluate Psi(t) anywhere in the path domain.

    At nodes this returns the stored matrix; between nodes it re-integrates
    a single Magnus sub-step from the nearest earlier node.  Polynomial
    interpolation is never used, since it would break symplecticity.
    """
    if t < path.t_start - 1e-12 or t > path.t_end + 1e-12:
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
    if not (path.t_start - 1e-12 <= a < b <= path.t_end + 1e-12):
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
