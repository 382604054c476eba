"""Convention pair, residuals, and the sign self-test."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoferlab import (
    DimensionMismatchError,
    StandardStructure,
    hamiltonian_vector_field_selftest,
    omega,
    standard_structure,
    symplectic_expm,
    symplectic_inverse,
    symplectic_residual,
)


def test_standard_structure_n1_quarter_turn(struct2):
    assert np.array_equal(struct2.J @ struct2.J, -np.eye(2))
    assert np.array_equal(struct2.J, np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_standard_structure_n2_fourth_power(struct4):
    j2 = struct4.J @ struct4.J
    assert np.array_equal(j2 @ j2, np.eye(4))


def test_standard_structure_is_shared_and_read_only(struct4):
    assert standard_structure(2) is struct4
    for arr in (struct4.J, struct4.omega_matrix):
        with pytest.raises(ValueError):
            arr[0, 1] = 5.0
    assert struct4.J[0, 1] == -1.0


def test_metric_positivity_unit_vector(struct2):
    u = np.array([1.0, 0.0])
    assert omega(struct2, u, struct2.J @ u) == 1.0


def test_standard_structure_rejects_zero():
    with pytest.raises(ValueError):
        standard_structure(0)


def test_omega_vanishes_on_diagonal(struct4, rng):
    u = rng.normal(size=4)
    assert omega(struct4, u, u) == pytest.approx(0.0, abs=1e-14)


def test_omega_metric_normalization(struct2):
    u = np.array([1.0, 0.0])
    assert omega(struct2, u, struct2.J @ u) == pytest.approx(1.0, abs=0.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_omega_antisymmetry_random(seed):
    struct = standard_structure(2)
    gen = np.random.default_rng(seed)
    u = gen.normal(size=4)
    v = gen.normal(size=4)
    assert omega(struct, u, v) == pytest.approx(-omega(struct, v, u), abs=1e-12)


def test_omega_dimension_mismatch(struct4):
    with pytest.raises(DimensionMismatchError):
        omega(struct4, np.ones(2), np.ones(4))


def test_residual_identity_and_J(struct2):
    assert symplectic_residual(struct2, np.eye(2)) == 0.0
    assert symplectic_residual(struct2, struct2.J) == 0.0


def test_residual_doubling():
    # M = 2I: M^T omega M - omega = 3 omega, max-norm 3.
    struct = standard_structure(1)
    assert symplectic_residual(struct, 2.0 * np.eye(2)) == pytest.approx(3.0, abs=0.0)


def test_residual_invariant_under_inverse(struct4, rng):
    s = 0.5 * (lambda m: m + m.T)(rng.normal(size=(4, 4)))
    m = symplectic_expm(struct4.J @ s)
    r_fwd = symplectic_residual(struct4, m)
    r_inv = symplectic_residual(struct4, symplectic_inverse(struct4, m))
    cond = np.linalg.cond(m)
    assert r_fwd <= 1e-12
    assert r_inv <= max(1e-12, 100.0 * cond**2 * np.finfo(float).eps)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_hamiltonian_matrices_trace_free(seed):
    struct = standard_structure(3)
    gen = np.random.default_rng(seed)
    s = gen.normal(size=(6, 6))
    s = 0.5 * (s + s.T)
    assert abs(np.trace(struct.J @ s)) <= 1e-12 * max(1.0, np.abs(s).max())


def test_selftest_passes(struct2, struct4):
    assert hamiltonian_vector_field_selftest(struct2)
    assert hamiltonian_vector_field_selftest(struct4)


def test_selftest_fails_with_flipped_J(struct2):
    flipped = StandardStructure(dim=2, J=-struct2.J, omega_matrix=struct2.omega_matrix)
    assert not hamiltonian_vector_field_selftest(flipped)


def test_selftest_fails_with_flipped_omega(struct2):
    flipped = StandardStructure(dim=2, J=struct2.J, omega_matrix=-struct2.omega_matrix)
    assert not hamiltonian_vector_field_selftest(flipped)


def test_symplectic_expm_accurate_at_step_size(rng):
    from scipy.linalg import expm

    struct = standard_structure(2)
    s = 0.5 * (lambda m: m + m.T)(rng.normal(size=(4, 4)))
    a = 0.05 * (struct.J @ s)
    assert np.abs(symplectic_expm(a) - expm(a)).max() <= 1e-12


def test_symplectic_expm_exactly_symplectic_at_any_norm(rng):
    struct = standard_structure(2)
    s = 0.5 * (lambda m: m + m.T)(rng.normal(size=(4, 4)))
    for scale in (0.05, 1.0, 6.0):
        m = symplectic_expm(scale * (struct.J @ s))
        assert symplectic_residual(struct, m) <= 1e-11 * max(1.0, np.abs(m).max() ** 2)


def test_symplectic_expm_stack_matches_per_matrix_calls(rng):
    struct = standard_structure(2)
    m = rng.normal(size=(3, 7, 4, 4))
    s = 0.5 * (m + m.swapaxes(-1, -2))
    # Norms from about 0.01 to 50, so the scaling exponents differ within the stack.
    a = np.exp(rng.uniform(-5.0, 4.0, size=(3, 7)))[..., None, None] * (struct.J @ s)
    stacked = symplectic_expm(a)
    assert stacked.shape == a.shape
    for i in np.ndindex(3, 7):
        assert np.array_equal(stacked[i], symplectic_expm(a[i]))
    a[1, 2, 0, 0] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        symplectic_expm(a)
