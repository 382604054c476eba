"""Symplectic conventions and small-matrix primitives.

The whole package runs on a single compiled-in convention pair (J, omega):
J is block-diagonal with 2x2 quarter-turn blocks, one per (q_i, p_i) plane,
and the Gram matrix of omega is -J, so that omega(u, J u) = |u|^2 and the
quadratic Hamiltonian h(z) = z.S z/2 induces the linear field X = J S z.
`hamiltonian_vector_field_selftest` certifies the dynamic consequences of
these choices (flow symplecticity and the sign of the crossing form at a
maximum) instead of trusting the derivation.  `symplectic_expm`, the
exponential of every flow step, is a scaled degree-8 Taylor map: it equals
the exponential to unit roundoff, so it keeps a Hamiltonian matrix's image
symplectic to rounding, with matrix products only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError

__all__ = [
    "StandardStructure",
    "standard_structure",
    "omega",
    "symplectic_residual",
    "symplectic_expm",
    "hamiltonian_vector_field_selftest",
]

# Largest ||Y||_1 at which the degree-8 Taylor remainder ||Y||^9 / 9! is at
# most 2^-53 (`symplectic_expm`); about 0.0700.
_THETA_8 = (2.0**-53 * math.factorial(9)) ** (1.0 / 9.0)


@dataclass(frozen=True)
class StandardStructure:
    """Convention pair on R^{2n}: complex structure J and Gram matrix of omega.

    Values are plain arrays so that deliberately inconsistent structures can
    be constructed for testing; `standard_structure` is the validated factory.
    """

    dim: int
    J: np.ndarray
    omega_matrix: np.ndarray


@functools.lru_cache(maxsize=None)
def standard_structure(n: int) -> StandardStructure:
    """Build the standard structure on R^{2n}.

    Coordinates are interleaved (q_1, p_1, ..., q_n, p_n), so J is the block
    diagonal of n copies of [[0, -1], [1, 0]] and direct sums of planar
    models are literal block diagonals.  The Gram matrix of omega is -J,
    which normalizes omega(u, J u) to the Euclidean |u|^2.  One instance per
    n is shared by every caller, so its arrays are read-only.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    j2 = np.array([[0.0, -1.0], [1.0, 0.0]])
    J = np.kron(np.eye(n), j2)
    om = -J
    J.flags.writeable = False
    om.flags.writeable = False
    return StandardStructure(dim=2 * n, J=J, omega_matrix=om)


def _check_dim(structure: StandardStructure, *arrays: np.ndarray) -> None:
    for a in arrays:
        if a.shape[0] != structure.dim or (a.ndim == 2 and a.shape[1] != structure.dim):
            raise DimensionMismatchError(
                f"operand shape {a.shape} does not match dim {structure.dim}"
            )


def omega(structure: StandardStructure, u, v) -> float:
    """Evaluate the symplectic form omega(u, v) = u . omega_matrix . v."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.ndim != 1 or v.ndim != 1:
        raise DimensionMismatchError("omega expects vectors")
    _check_dim(structure, u, v)
    return float(u @ structure.omega_matrix @ v)


def symplectic_residual(structure: StandardStructure, M) -> float:
    """Max-norm of M^T omega M - omega; zero exactly when M is symplectic."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatchError("M must be square")
    _check_dim(structure, M)
    Om = structure.omega_matrix
    return float(np.abs(M.T @ Om @ M - Om).max())


def symplectic_expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of the degree-8 Taylor map.

    Each matrix X gets its own scaling exponent s, the smallest with
    ||Y||_1 <= `_THETA_8` for Y = X / 2^s, and T_8(Y) = sum_{k <= 8} Y^k / k!
    is squared s times.  The Taylor remainder is at most
    ||Y||^9 / 9! / (1 - ||Y|| / 10) <= 1.01 u (u = 2^-53), so the map is the
    exponential to unit roundoff and maps a Hamiltonian matrix to a
    symplectic one to rounding, as any map does in floating point (Al-Mohy
    and Higham, "A new scaling and squaring algorithm for the matrix
    exponential", 2009; Sastre, Ibanez and Defez, "Boosting the computation
    of the matrix exponential", 2019).  The column sums of the stack's
    entrywise max |x| bound every matrix's 1-norm, so when they are at most
    `_THETA_8` every s is 0 and no per-matrix norm is taken (the step
    exponents of `flows.integrate` are this case); otherwise each matrix's
    column sums give its s.  T_8 is evaluated by Paterson-Stockmeyer with 4
    products and no linear solve:
    I + Y + Y^2/2 + Y^3/6 + Y^4 (I/24 + Y/120 + Y^2/720 + Y^3/5040 + Y^4/40320).
    ``a`` is one matrix or a stack (..., d, d); every operation acts on each
    matrix alone, so a stack equals the per-matrix calls bit for bit.
    """
    a = np.asarray(a, dtype=float)
    x = a.reshape(-1, *a.shape[-2:])
    eye = np.eye(a.shape[-1])
    squarings = 0
    if not np.abs(x).max(axis=0, initial=0.0).sum(axis=0).max() <= _THETA_8:  # NaN too
        norms = np.einsum("nij->nj", np.abs(x)).max(axis=-1)
        s = np.ceil(np.log2(np.maximum(norms / _THETA_8, 1.0)))
        squarings = s.max()
        if not math.isfinite(squarings):
            raise ValueError("non-finite matrix passed to symplectic_expm")
        x = x / (2.0**s)[:, None, None]
    x2 = x @ x
    x3 = x2 @ x
    x4 = x2 @ x2
    r = x4 * (1.0 / 40320.0)
    for p, c in ((x3, 5040.0), (x2, 720.0), (x, 120.0), (eye, 24.0)):
        r += p * (1.0 / c)
    r = x4 @ r
    for p in (x3 * (1.0 / 6.0), x2 * 0.5, x, eye):
        r += p
    for j in range(int(squarings)):
        r = np.where((s > j)[:, None, None], r @ r, r)
    return r.reshape(a.shape)


def hamiltonian_vector_field_selftest(structure: StandardStructure) -> bool:
    """Certify the sign conventions of a structure by direct computation.

    Checks, in order: J^2 = -I with exact entries; omega antisymmetric and
    nondegenerate; omega(u, J u) = |u|^2; the planar flow of the quadratic
    Hamiltonian h(z) = -|z|^2/2 (generator S = -I, field X = J S z) keeps
    symplectic_residual at rounding level, first returns to eigenvalue 1 at
    the full period, and has a crossing form there that both matches the
    Hessian identification and is negative definite on the kernel.  Returns
    False on the first failed check; flipping J or omega flips the crossing
    form sign and fails.
    """
    J = structure.J
    Om = structure.omega_matrix
    d = structure.dim
    eye = np.eye(d)

    if J.shape != (d, d) or Om.shape != (d, d):
        return False
    if not np.array_equal(J @ J, -eye):
        return False
    if not np.array_equal(Om.T, -Om):
        return False
    if abs(np.linalg.det(Om)) < 0.5:
        return False

    rng = np.random.default_rng(0)
    for _ in range(8):
        u = rng.normal(size=d)
        if abs(float(u @ Om @ (J @ u)) - float(u @ u)) > 1e-12 * (1.0 + float(u @ u)):
            return False

    # The planar battery runs on the leading (q_1, p_1) block, which must be
    # decoupled from the rest for the block-diagonal layout this package uses.
    if d > 2 and (np.abs(J[:2, 2:]).max() > 0 or np.abs(J[2:, :2]).max() > 0):
        return False
    J2 = J[:2, :2]
    Om2 = Om[:2, :2]
    eye2 = np.eye(2)
    S = -eye2
    A = J2 @ S

    # Propagate the flow by composing small exponential steps, the same way
    # the integrator does, and watch the whole first period.
    n_steps = 256
    h = 2.0 * math.pi / n_steps
    step = symplectic_expm(h * A)
    psi = eye2.copy()
    for k in range(1, n_steps + 1):
        psi = step @ psi
        t = k * h
        if np.abs(psi.T @ Om2 @ psi - Om2).max() > 1e-12:
            return False
        smin = np.linalg.svd(psi - eye2, compute_uv=False)[-1]
        # No return of eigenvalue 1 strictly inside the period.
        if 0.3 < t < 2.0 * math.pi - 0.3 and smin < 0.05:
            return False
    if np.linalg.svd(psi - eye2, compute_uv=False)[-1] > 1e-9:
        return False

    # Crossing form two ways: omega(v, dPsi/dt v) with dPsi/dt = A Psi must
    # reproduce the Hessian S and be negative on the kernel (all of R^2 here).
    form = Om2 @ (A @ psi)
    form = 0.5 * (form + form.T)
    if np.abs(form - S).max() > 1e-9:
        return False
    if float(np.linalg.eigvalsh(form).max()) >= 0.0:
        return False
    return True
