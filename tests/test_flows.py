"""Flow integration against trigonometric closed forms and group laws."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag, expm

import hoferlab
from hoferlab import (
    HessianPath,
    IntegrationError,
    evaluate,
    integrate,
    standard_structure,
    symplectic_expm,
    symplectic_residual,
)
from hoferlab.flows import (
    _GAUSS_OFFSETS,
    _NODE_SNAP,
    _WINDOW_SNAP,
    _node_sigma_bounds,
    _require_symmetric,
    _slope_system,
    _spline_coefficients,
    graph_phase,
    interpolant_bound,
    phase_window,
)
from hoferlab.symplectic import _THETA_8
from tests.oracles import (
    aliased_fourier,
    aliased_spline,
    block_flow,
    congruent,
    constant_flow,
    constant_planar,
    direct_sum,
    frame_phase,
    integrate_stepwise,
    magnus_exponent,
    planar_flow,
    TWO_PI,
    random_indefinite_fourier,
    random_negdef_fourier,
    random_symplectic,
    refinement_orders,
    restrict,
    to_payload,
)


# -- HessianPath ------------------------------------------------------------


def test_constant_path_classification():
    assert constant_planar(5.0).definiteness == "negative_definite"
    assert HessianPath.constant(np.eye(2)).definiteness == "positive_definite"
    assert HessianPath.constant(np.diag([1.0, -1.0])).definiteness == "indefinite"


def test_constant_path_rejects_asymmetric():
    with pytest.raises(ValueError):
        HessianPath.constant(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_fourier_path_evaluation():
    s0 = -5.0 * np.eye(2)
    a1 = 0.5 * np.eye(2)
    path = HessianPath.fourier(s0, [a1])
    expected = s0 + math.cos(2.0 * math.pi * 0.3) * a1
    assert np.allclose(path(0.3), expected, atol=1e-14)


def test_sampled_path_symmetrizes(rng):
    grid = np.linspace(0.0, 1.0, 33)
    vals = np.stack([-(5.0 + t) * np.eye(2) for t in grid])
    path = HessianPath.sampled(vals)
    s = path(0.123)
    assert np.abs(s - s.T).max() == 0.0
    assert np.allclose(s, -(5.123) * np.eye(2), atol=1e-6)
    # The spline is fitted and evaluated entry by entry, so every value is
    # exactly symmetric without re-symmetrizing.
    for dim in (2, 4, 6):
        path = HessianPath.sampled(_symmetric_stack(rng, 33, dim))
        s = path(np.concatenate([rng.uniform(size=(512, 2)), grid[:, None].repeat(2, 1)]))
        assert np.array_equal(s, s.swapaxes(-1, -2))


def _symmetric_stack(rng, m: int, dim: int) -> np.ndarray:
    a = rng.normal(size=(m, dim, dim))
    return np.triu(a) + np.triu(a, 1).swapaxes(-1, -2)


def _assert_spline_matches_scipy(gen: HessianPath, times) -> None:
    """The in-package spline of a sampled generator has scipy's
    ``CubicSpline(axis=0)`` coefficients and values, bit for bit."""
    from scipy.interpolate import CubicSpline

    x = np.linspace(0.0, 1.0, len(gen.stack))
    spline = CubicSpline(x, gen.stack, axis=0)
    assert np.array_equal(_spline_coefficients(x, gen.stack)[::-1], spline.c)
    # Values are compared as bits, so the sign of a zero counts too.
    scalars = (0.0, 1.0, float(x[1]), float(np.ravel(times[-1])[0]))
    for t in (x, np.array([0.0, 1.0]), *times, *scalars):
        assert np.array_equal(gen(t).view(np.int64), spline(t).view(np.int64))


@pytest.mark.parametrize("knots", [4, 5, 17, 257, 1025, 2049])
@pytest.mark.parametrize("dim", [2, 4, 6])
def test_sampled_spline_matches_scipy(rng, knots, dim):
    gen = HessianPath.sampled(_symmetric_stack(rng, knots, dim))
    # The time shapes of `integrate` (a block of Gauss nodes) and `evaluate`.
    _assert_spline_matches_scipy(gen, [rng.uniform(size=(512, 2)), rng.uniform(size=2)])


def test_sampled_spline_matches_scipy_on_model_stacks(rng):
    grid = np.linspace(0.0, 1.0, 257)
    warped = (1.0 + 0.3 * np.cos(2.0 * math.pi * grid))[:, None, None]
    sampled = HessianPath.sampled(warped * np.kron(np.diag([-4.0, -9.5, -12.0]), np.eye(2)))
    # -0.0 at t = 0 with negative derivatives: the value there is +0.0.
    cubic = HessianPath.sampled(np.multiply.outer(grid**3 + grid**2 + grid, np.ones((2, 2))))
    for gen in (aliased_spline(), sampled, sampled.negated(), cubic.negated(),
                direct_sum(sampled, constant_planar(7.0))):
        _assert_spline_matches_scipy(gen, [rng.uniform(size=(512, 2)), rng.uniform(size=2)])


@settings(max_examples=60, deadline=None)
@given(knots=st.integers(4, 40), dim=st.sampled_from([2, 4, 6]),
       scale=st.sampled_from([1e-6, 1.0, 1e6]), seed=st.integers(0, 2**32 - 1),
       times=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2))
def test_sampled_spline_matches_scipy_by_hypothesis(knots, dim, scale, seed, times):
    rng = np.random.default_rng(seed)
    gen = HessianPath.sampled(scale * _symmetric_stack(rng, knots, dim))
    _assert_spline_matches_scipy(gen, [rng.uniform(size=(512, 2)), np.array(times)])


def test_slope_system_needs_no_row_interchange():
    # LAPACK dgtsv swaps rows i and i + 1 when |D[i]| < |DL[i]|; the port
    # follows its no-swap branch only.  Eliminate every uniform grid of
    # 4..4097 knots at once (padding rows keep D = 1, DL = DU = 0).
    sizes = range(4, 4098)
    n = sizes[-1]
    lower, upper = np.zeros((2, n - 1, len(sizes)))
    diag = np.ones((n, len(sizes)))
    for k, m in enumerate(sizes):
        lower[:m - 1, k], diag[:m, k], upper[:m - 1, k] = _slope_system(np.linspace(0.0, 1.0, m))
    for i in range(n - 1):
        assert (np.abs(diag[i]) >= np.abs(lower[i])).all()
        diag[i + 1] -= lower[i] / diag[i] * upper[i]


def test_negated_flips_tag():
    assert constant_planar(3.0).negated().definiteness == "positive_definite"


def test_direct_sum_blocks():
    s = direct_sum(constant_planar(7.0), constant_planar(13.0))
    assert s.dim == 4
    assert np.allclose(s(0.5), np.diag([-7.0, -7.0, -13.0, -13.0]))


def test_payload_roundtrip(rng):
    uneven = HessianPath.fourier(-5.0 * np.eye(2), [0.5 * np.eye(2)],
                                 [np.diag([0.3, -0.2]), 0.1 * np.eye(2), np.eye(2)[::-1]])
    for gen in (random_negdef_fourier(4, rng), uneven):
        clone = HessianPath.from_payload(to_payload(gen))
        assert to_payload(clone) == to_payload(gen)
        for t in (0.0, 0.31, 0.99):
            assert np.allclose(gen(t), clone(t), atol=1e-15)


_SYM4 = np.array([[0.0, 1.0, 0.0, 0.5], [1.0, -1.0, 0.0, 0.0],
                  [0.0, 0.0, 0.5, 1.0], [0.5, 0.0, 1.0, 0.0]])


@pytest.mark.parametrize("gen", [
    HessianPath.constant(-3.0 * np.eye(4) + 0.1 * _SYM4),
    HessianPath.fourier(-3.0 * np.eye(4), [0.2 * _SYM4], [0.1 * _SYM4, 0.3 * np.eye(4)]),
    HessianPath.sampled(np.stack([-(3.0 + t) * np.eye(4) + t * _SYM4
                                  for t in np.linspace(0.0, 1.0, 9)])),
], ids=["constant", "fourier", "sampled"])
def test_transforms_keep_kind_and_values(gen):
    c = np.array([[1.0, 0.2, 0.0, 0.0], [0.0, 1.0, 0.0, 0.3],
                  [0.5, 0.0, 2.0, 0.0], [0.0, 0.0, 0.1, 1.0]])
    neg, cong = gen.negated(), congruent(gen, c)
    assert neg.kind == cong.kind == gen.kind
    # The negation keeps the bounds and swaps the tag without recomputing
    # them, as a generator built from the negated stack computes them.
    rebuilt = HessianPath(gen.kind, -gen.stack, gen.n_cos)
    assert (neg.norm_bound, neg.slope_bound, neg.definiteness) == (
        rebuilt.norm_bound, rebuilt.slope_bound, rebuilt.definiteness)
    for t in (0.0, 0.13, 0.5, 0.77, 1.0):
        assert np.array_equal(neg(t), -gen(t))
        assert np.allclose(cong(t), c.T @ gen(t) @ c, atol=1e-13)


def test_stack_is_read_only():
    gen = HessianPath.fourier(-np.eye(2), [0.1 * np.eye(2)])
    assert gen.stack.shape == (2, 2, 2) and gen.n_cos == 1
    with pytest.raises(ValueError):
        gen.stack[0, 0, 0] = 1.0


def _bad_stacks():
    """(kind, stack, n_cos, message): bad stacks and the message that the
    per-matrix `_require_symmetric` loop raised for them."""
    sym, skew = -np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])
    values = np.stack([-(3.0 + 0.1 * k) * np.eye(4) for k in range(9)])
    nan_then_skew = values.copy()
    nan_then_skew[3, 1, 2] = np.nan
    nan_then_skew[5, 0, 1] += 1.0
    skew_then_inf = values.copy()
    skew_then_inf[2, 3, 0] += 1e-6
    skew_then_inf[4, 2, 2] = np.inf
    return [
        ("fourier", [sym, sym, skew, sym], 2, "fourier coefficient 2 is not symmetric"),
        ("sampled", nan_then_skew, 0, "sampled coefficient 3 has non-finite entries"),
        ("sampled", skew_then_inf, 0, "sampled coefficient 2 is not symmetric"),
        ("constant", [np.ones((2, 3))], 0,
         "constant coefficient 0 must be a square matrix, got shape (2, 3)"),
        ("sampled", np.ones((5, 2, 3)), 0,
         "sampled coefficient 0 must be a square matrix, got shape (2, 3)"),
        ("fourier", [sym, np.ones(2)], 0,
         "fourier coefficient 1 must be a square matrix, got shape (2,)"),
        ("fourier", [sym, skew, np.eye(4)], 1, "fourier coefficient 1 is not symmetric"),
        ("fourier", [sym, np.eye(4)], 1, "fourier coefficient shape mismatch"),
        ("constant", [sym, sym], 0, "constant generator has the wrong number of matrices"),
    ]


@pytest.mark.parametrize("kind, stack, n_cos, message", _bad_stacks())
def test_stack_check_names_the_first_bad_coefficient(kind, stack, n_cos, message):
    # The check runs over the whole stack at once and keeps the messages of
    # the per-matrix loop: the first bad matrix, non-finite before skew.
    with pytest.raises(ValueError) as caught:
        HessianPath(kind, stack, n_cos)
    assert str(caught.value) == message


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_stack_check_symmetrizes_each_matrix_as_before(rng, dim):
    # Within the tolerance, each matrix is replaced by (M + M^T) / 2, bit
    # for bit as the per-matrix check returns it.
    stack = _symmetric_stack(rng, 17, dim) * 10.0 ** rng.uniform(-3, 3, size=(17, 1, 1))
    stack += 1e-11 * rng.normal(size=stack.shape) * np.abs(stack).max(axis=(1, 2))[:, None, None]
    gen = HessianPath.sampled(stack)
    assert np.array_equal(gen.stack, np.stack([_require_symmetric(m, "") for m in stack]))
    assert np.array_equal(gen.negated().stack, -gen.stack)


@pytest.mark.parametrize("make", [aliased_fourier, aliased_spline])
def test_definiteness_between_samples_is_certified(make):
    # Both are -I on every sample a time grid would visit, yet S(t) has a
    # positive eigenvalue between samples.
    gen = make()
    assert gen.definiteness == "indefinite"
    assert gen.negated().definiteness == "indefinite"


@pytest.mark.parametrize("make", [
    lambda: HessianPath.constant(-3.0 * np.eye(4) + 0.1 * _SYM4),
    lambda: HessianPath.fourier(-3.0 * np.eye(4), [0.2 * _SYM4], [0.1 * _SYM4]),
    lambda: HessianPath.sampled(np.stack([-(3.0 + t) * np.eye(4) + t * _SYM4
                                          for t in np.linspace(0.0, 1.0, 9)])),
    aliased_fourier,
    aliased_spline,
])
def test_norm_bound_holds_between_samples(make):
    gen = make()
    norms = [np.linalg.norm(gen(t), 2) for t in np.linspace(0.0, 1.0, 4001)]
    assert max(norms) <= gen.norm_bound * (1.0 + 1e-12)


def test_graph_phase_rate_is_bounded(rng):
    # |d/dt 2 arg det Z| <= dim * ||S(t)||_2, which the phase lift relies on.
    for dim in (2, 4, 6):
        m = rng.normal(size=(dim, dim))
        gen = HessianPath.fourier(-4.0 * np.eye(dim) + 0.5 * (m + m.T), [0.3 * (m + m.T)])
        for g in (gen, HessianPath.fourier(0.3 * (m + m.T))):
            path = integrate(g, 0.0, 1.0, 2048)
            moves = np.angle(np.exp(1j * np.diff(graph_phase(path.matrices))))
            assert np.abs(moves).max() <= dim * g.norm_bound * path.grid_spacing


def _stretched_symplectic(dim: int, rng, log_stretch: float) -> np.ndarray:
    """A random symplectic matrix with ||Psi||_2 of about exp(log_stretch)."""
    s = np.exp(rng.uniform(0.9, 1.0, size=dim // 2) * log_stretch)
    stretch = np.diag(np.ravel(np.column_stack([s, 1.0 / s])))
    return random_symplectic(dim, rng) @ stretch @ random_symplectic(dim, rng)


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_graph_phase_matches_exact_frame_determinant(rng, dim):
    # arg det P of the complex-linear block equals arg det Z of the 2n x 2n
    # frame; the oracle takes det Z in exact arithmetic, so the comparison
    # holds at any norm.
    psis = [random_symplectic(dim, rng, scale) for scale in (0.3, 0.6, 1.2) for _ in range(8)]
    psis += [_stretched_symplectic(dim, rng, log_stretch) for log_stretch in (9.3, 11.0, 13.0)]
    assert max(np.linalg.norm(psi, 2) for psi in psis) >= 1e4
    phases = graph_phase(np.stack(psis))
    for psi, phase in zip(psis, phases):
        assert abs(math.remainder(float(phase) - frame_phase(psi), 2.0 * math.pi)) <= 1e-13
        assert float(graph_phase(psi)) == phase


def _assert_sigma_bounds(psis: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> None:
    """The bounds hold against the SVD, and the lower one gives away at most
    1e-5 ||D||_F, so the crossing scan's gate can still clear intervals."""
    diff = psis - np.eye(psis.shape[-1])
    sigma = np.linalg.svd(diff, compute_uv=False)
    assert (lower <= sigma[:, -1]).all() and (upper >= sigma[:, 0]).all()
    frobenius = np.linalg.norm(diff, axis=(1, 2))
    assert (lower >= sigma[:, -1] - 1e-5 * frobenius).all()
    assert (upper <= sigma[:, 0] + 1e-5 * frobenius).all()


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_node_sigma_bounds_hold_on_random_paths(rng, dim):
    for gen in (random_negdef_fourier(dim, rng), random_indefinite_fourier(dim, rng)):
        path = integrate(gen, 0.0, 1.0, 512)
        lower, upper = path.sigma_min_nodes(np.arange(len(path.times)))
        _assert_sigma_bounds(path.matrices, lower, upper)
        # The last node, where nondegeneracy is decided, is exact.
        end = np.linalg.svd(path.matrices[-1] - np.eye(dim), compute_uv=False)
        assert lower[-1] == end[-1] and upper[-1] == end[0]


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_node_sigma_bounds_hold_near_crossings_and_at_large_norm(rng, dim):
    # Nodes of C exp(t J S) C^{-1} in closed form, S = blockdiag(-s I_2,
    # [[0, a], [a, 0]], ...) for dim >= 4: a rotation plane crosses at
    # s t = 2 pi, within 1e-5 .. 1e-11 of it here, and a hyperbolic plane
    # stretches by exp(a t) up to 2e4.
    speed, rate = 9.0, math.log(2e4)
    c = random_symplectic(dim, rng)
    c_inv = np.linalg.inv(c)
    near = TWO_PI / speed + np.outer(10.0 ** -np.arange(5.0, 12.0), [-1.0, 1.0]).ravel()
    psis = []
    for t in np.concatenate((np.linspace(0.0, 1.0, 65), near)):
        blocks = [planar_flow(speed, t)]
        for _ in range(dim // 2 - 1):
            blocks.append(np.diag([math.exp(-rate * t), math.exp(rate * t)]))
        psis.append(c @ block_diag(*blocks) @ c_inv)
    psis = np.stack(psis)
    lower, upper = _node_sigma_bounds(psis)
    _assert_sigma_bounds(psis, lower, upper)
    ratio = np.linalg.svd(psis - np.eye(dim), compute_uv=False)[:, -1] / np.linalg.norm(
        psis, 2, axis=(1, 2))
    assert ((ratio > 1e-11) & (ratio < 1e-9)).any()
    if dim > 2:
        assert np.linalg.norm(psis, 2, axis=(1, 2)).max() >= 1e4


def _run_fresh(code: str, *args: str) -> tuple[int, str]:
    """Exit status of `code` in a fresh interpreter, and the list of scipy
    modules loaded when it exits."""
    prelude = (
        "import atexit, sys\n"
        "atexit.register(lambda: print(sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'scipy'), file=sys.stderr))\n"
    )
    src = pathlib.Path(hoferlab.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", prelude + code, *args], env=env,
                         capture_output=True, text=True)
    return run.returncode, run.stderr.splitlines()[-1]


def test_runtime_loads_no_scipy():
    # The package needs only numpy at run time; scipy is a test dependency.
    code = (
        "import numpy as np, hoferlab, hoferlab.cli\n"
        "from hoferlab import HessianPath, quadratic_scenario, verify_theorem\n"
        "gen = HessianPath.sampled([-(5.0 + t) * np.eye(2) for t in np.linspace(0, 1, 9)])\n"
        "HessianPath.sampled(gen(np.linspace(0, 1, 2049)))(0.3)\n"
        "scn = quadratic_scenario(gen, gen.negated(), lambda t: 1.0, lambda t: -1.0)\n"
        "assert verify_theorem(scn, steps=256).verdict\n"
        "assert verify_theorem(hoferlab.sphere_height_scenario(7.0), steps=256).verdict\n"
    )
    assert _run_fresh(code) == (0, "[]")


def test_cli_verify_of_sampled_scenario_loads_no_scipy(tmp_path):
    values = np.stack([-(6.0 + t) * np.eye(2) for t in np.linspace(0.0, 1.0, 5)])
    scn = tmp_path / "sampled.json"
    scn.write_text(json.dumps({
        "schema_version": 1,
        "model": "quadratic",
        "parameters": {
            "s_max": {"kind": "sampled", "values": values.tolist()},
            "s_min": {"kind": "sampled", "values": (-values).tolist()},
            "max_curve_coeffs": [1.0],
            "min_curve_coeffs": [-1.0],
        },
        "solver": {"steps": 256},
    }), encoding="utf-8")
    # `hoferlab verify <file>` in a fresh process.
    code = (
        "import runpy\n"
        "sys.argv = ['hoferlab', 'verify', sys.argv[1]]\n"
        "runpy.run_module('hoferlab.cli', run_name='__main__')\n"
    )
    assert _run_fresh(code, str(scn)) == (0, "[]")


# -- integrate ---------------------------------------------------------------


def test_integrate_constant_planar_closed_form():
    path = integrate(constant_planar(5.0), 0.0, 1.0, 256)
    assert np.abs(path.matrices[-1] - planar_flow(5.0, 1.0)).max() <= 1e-10


def test_integrate_zero_generator_is_identity():
    path = integrate(HessianPath.constant(np.zeros((2, 2))), 0.0, 1.0, 64)
    assert np.abs(path.matrices - np.eye(2)).max() <= 1e-13


def test_integrate_block_diagonal_closed_form():
    gen = direct_sum(constant_planar(7.0), constant_planar(13.0))
    path = integrate(gen, 0.0, 1.0, 512)
    for t in (0.25, 0.5, 1.0):
        assert np.abs(evaluate(path, t) - block_flow([7.0, 13.0], t)).max() <= 1e-10


def test_integrate_validates_window_and_steps():
    gen = constant_planar(1.0)
    with pytest.raises(ValueError):
        integrate(gen, 0.5, 0.5, 64)
    with pytest.raises(ValueError):
        integrate(gen, 0.0, 1.0, 4)
    with pytest.raises(ValueError):
        integrate(gen, -0.1, 1.0, 64)


def test_integrate_rejects_overflow():
    # Strongly indefinite generator with e^{1000 t} growth overflows fast.
    gen = HessianPath.constant(np.diag([1000.0, -1000.0]))
    with pytest.raises(IntegrationError):
        integrate(gen, 0.0, 1.0, 64)


def test_node_count():
    path = integrate(constant_planar(2.0), 0.0, 1.0, 64)
    assert len(path.times) == 65
    assert path.matrices.shape == (65, 2, 2)


# -- blocked integration ------------------------------------------------------


def _generator(kind: str, dim: int, rng) -> HessianPath:
    fourier = random_negdef_fourier(dim, rng)
    s0 = fourier.stack[0]
    if kind == "constant":
        return HessianPath.constant(s0)
    if kind == "sampled":
        return HessianPath.sampled(fourier(np.linspace(0.0, 1.0, 65)))
    # Time-independent generators of the other two kinds.
    if kind == "flat_fourier":
        return HessianPath.fourier(s0, [0.0 * s0], [0.0 * s0])
    if kind == "flat_sampled":
        return HessianPath.sampled(np.repeat(s0[None], 9, axis=0))
    return fourier


def _assert_matches_loop(path, ref):
    """`path` against `integrate_stepwise`: every node within 1e-12 of the
    loop's, relative to the node's largest entry (the nodes are filled by
    doubling or by a chunked product, not one step after another)."""
    assert np.array_equal(path.times, ref.times)
    err = np.abs(path.matrices - ref.matrices).max(axis=(1, 2))
    assert (err <= 1e-12 * np.abs(ref.matrices).max(axis=(1, 2))).all()


@pytest.mark.parametrize("dim", [2, 4, 6])
@pytest.mark.parametrize("kind", ["constant", "fourier", "sampled", "flat_fourier", "flat_sampled"])
def test_integrate_matches_stepwise_loop(kind, dim, rng):
    # Step counts below, at and above one block of 512 steps.
    gen = _generator(kind, dim, rng)
    # A zero slope bound makes `integrate` share one exponential per path.
    assert (gen.slope_bound > 0.0) == (kind in ("fourier", "sampled"))
    for steps in (8, 512, 513, 1100):
        _assert_matches_loop(integrate(gen, 0.0, 1.0, steps),
                             integrate_stepwise(gen, 0.0, 1.0, steps))
    _assert_matches_loop(integrate(gen, 0.2, 0.7, 600), integrate_stepwise(gen, 0.2, 0.7, 600))


def test_integrate_matches_stepwise_loop_across_scaling_exponents():
    # Step 1-norms from about 0.79 to 8.6 inside one block: scaled to at most
    # _THETA_8, the exponentials of one stack take 4 to 7 squarings.
    gen = HessianPath.fourier(-300.0 * np.eye(2), [-250.0 * np.eye(2)])
    steps = 64
    h = 1.0 / steps
    starts = np.linspace(0.0, 1.0, steps + 1)[:-1]
    exps = magnus_exponent(gen, standard_structure(1).J, starts, h)
    norms = np.abs(exps).sum(axis=-2).max(axis=-1)
    squarings = np.ceil(np.log2(np.maximum(norms / _THETA_8, 1.0)))
    assert set(squarings) == {4.0, 5.0, 6.0, 7.0}
    _assert_matches_loop(integrate(gen, 0.0, 1.0, steps), integrate_stepwise(gen, 0.0, 1.0, steps))


def _table_case(case: str, dim: int, rng) -> tuple[HessianPath, int]:
    """(generator, steps) for the step table tests; the direct sum is a
    2049-knot spline of dimension dim + 2."""
    fourier = random_negdef_fourier(dim, rng)
    s0, cos, sin = fourier.stack[0], fourier.stack[1:3], fourier.stack[3:]
    return {
        "fourier": lambda: (fourier, 512),
        "cos_only": lambda: (HessianPath.fourier(s0, cos), 512),
        "sin_only": lambda: (HessianPath.fourier(s0, (), sin), 512),
        "zero_harmonics": lambda: (HessianPath.fourier(s0, [0.0 * s0], [0.0 * s0]), 512),
        "constant": lambda: (HessianPath.constant(s0), 512),
        "spline_257_aligned": lambda: (HessianPath.sampled(fourier(np.linspace(0, 1, 257))), 8192),
        "spline_10_straddling": lambda: (HessianPath.sampled(fourier(np.linspace(0, 1, 10))), 1100),
        "direct_sum_2049": lambda: (direct_sum(
            HessianPath.sampled(fourier(np.linspace(0.0, 1.0, 65))), constant_planar(2.0)), 2048),
    }[case]()


def _straddling(gen: HessianPath, starts, h) -> np.ndarray:
    """Indices of the steps whose two Gauss nodes lie in different knot
    intervals."""
    if gen.kind != "sampled":
        return np.zeros(0, dtype=int)
    inner = np.linspace(0.0, 1.0, len(gen.stack))[1:-1]
    nodes = np.add.outer(starts, h * (0.5 + np.array([-1.0, 1.0]) * math.sqrt(3.0) / 6.0))
    i = np.searchsorted(inner, nodes, "right")
    return np.flatnonzero(i[:, 0] != i[:, 1])


def _straddling_steps(gen: HessianPath, starts, h) -> int:
    """How many steps have their two Gauss nodes in different knot intervals."""
    return len(_straddling(gen, starts, h))


@pytest.mark.parametrize("negate", [False, True], ids=["plain", "negated"])
@pytest.mark.parametrize("case", ["fourier", "cos_only", "sin_only", "zero_harmonics", "constant",
                                  "spline_257_aligned", "spline_10_straddling", "direct_sum_2049"])
@pytest.mark.parametrize("dim", [2, 4, 6])
def test_step_table_matches_value_exponents(dim, case, negate, rng):
    # Every exponent read from the step table is within 1e-14 of the one
    # formed from checked generator values (`tests/oracles.magnus_exponent`),
    # relative to the step's largest entry; a generator with one value has
    # the exponent h J S bit for bit.
    gen, steps = _table_case(case, dim, rng)
    assert (len(gen.stack) == 2049) == (case == "direct_sum_2049")
    if negate:
        gen = gen.negated()
    J = standard_structure(gen.dim // 2).J
    starts = np.linspace(0.0, 1.0, steps + 1)[:-1]
    h = 1.0 / steps
    table = hoferlab.flows._step_exponents(gen, starts, h)
    values = magnus_exponent(gen, J, starts, h)
    assert (_straddling_steps(gen, starts, h) > 0) == (case == "spline_10_straddling")
    err = np.abs(table - values).max(axis=(1, 2))
    assert (err <= 1e-14 * np.abs(values).max(axis=(1, 2))).all()
    if gen.slope_bound == 0.0:
        assert np.array_equal(table, np.broadcast_to(h * (J @ gen.stack[0]), table.shape))
    # `evaluate`'s sub-steps: one step of any length from a node.
    for t0, s in ((0.0, 0.3 * h), (0.5, 0.77 * h), (starts[-1], h)):
        one = hoferlab.flows._step_exponents(gen, np.array([t0]), s)[0]
        ref = magnus_exponent(gen, J, t0, s)
        assert np.abs(one - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("negate", [False, True], ids=["plain", "negated"])
@pytest.mark.parametrize("knots", [10, 65])
@pytest.mark.parametrize("dim", [2, 4, 6])
def test_straddling_steps_match_value_exponents_bit_for_bit(dim, knots, negate, rng):
    # A step whose Gauss nodes lie in two knot intervals is formed from the
    # generator's values at both nodes, as the reference forms every step.
    gen = HessianPath.sampled(random_negdef_fourier(dim, rng)(np.linspace(0.0, 1.0, knots)))
    if negate:
        gen = gen.negated()
    J = standard_structure(dim // 2).J
    for steps in (37, 1000, 1100):
        starts = np.linspace(0.0, 1.0, steps + 1)[:-1]
        h = 1.0 / steps
        cut = _straddling(gen, starts, h)
        assert len(cut) > 0
        table = hoferlab.flows._step_exponents(gen, starts, h)[cut]
        values = magnus_exponent(gen, J, starts[cut], h)
        assert np.array_equal(table.view(np.int64), values.view(np.int64))


@pytest.mark.parametrize("case", ["constant", "fourier", "spline_257_aligned",
                                  "spline_10_straddling", "direct_sum_2049", "direct_sum_fourier"])
@pytest.mark.parametrize("dim", [2, 4, 6])
def test_negated_reuses_the_compiled_generator(dim, case, rng, monkeypatch):
    # `negated` compiles nothing and shares the compiled table, writing none
    # of it, yet its values (zero signs included), nodes, bounds and tag are
    # those of the generator built from the negated stack, and a second
    # negation gives the generator's own; the direct sums hold zero blocks.
    if case == "direct_sum_fourier":
        gen, steps = direct_sum(random_negdef_fourier(dim, rng), constant_planar(2.0)), 512
    else:
        gen, steps = _table_case(case, dim, rng)
    calls = []
    for kind, compile_ in list(hoferlab.flows._COMPILERS.items()):
        monkeypatch.setitem(hoferlab.flows._COMPILERS, kind,
                            lambda *args, c=compile_: calls.append(args) or c(*args))
    compiled = (gen._planes, gen._lin, gen._comm)
    for table in compiled:
        table.flags.writeable = False
    neg = gen.negated()
    twice = neg.negated()
    assert calls == []
    for copy_ in (neg, twice):
        assert all(a is b for a, b in zip((copy_._planes, copy_._lin, copy_._comm), compiled))
    rebuilt = HessianPath(gen.kind, -gen.stack, gen.n_cos)
    assert len(calls) == 1
    t = np.concatenate((rng.uniform(0.0, 1.0, 500), np.linspace(0.0, 1.0, 2 * len(gen.stack) - 1)))
    assert np.array_equal(neg(t).view(np.int64), rebuilt(t).view(np.int64))
    assert np.array_equal(twice(t).view(np.int64), gen(t).view(np.int64))
    assert (neg.norm_bound, neg.slope_bound, neg.definiteness) == (
        rebuilt.norm_bound, rebuilt.slope_bound, rebuilt.definiteness)
    assert (integrate(neg, 0.0, 1.0, steps).matrices.tobytes()
            == integrate(rebuilt, 0.0, 1.0, steps).matrices.tobytes())
    assert (integrate(twice, 0.0, 1.0, steps).matrices.tobytes()
            == integrate(gen, 0.0, 1.0, steps).matrices.tobytes())


@pytest.mark.parametrize("case", ["fourier", "constant", "spline_257_aligned",
                                  "spline_10_straddling"])
def test_integrate_and_evaluate_never_call_the_generator(case, rng, monkeypatch):
    gen, steps = _table_case(case, 4, rng)
    calls = []
    base = HessianPath.__call__
    monkeypatch.setattr(HessianPath, "__call__", lambda self, t: calls.append(t) or base(self, t))
    path = integrate(gen, 0.0, 1.0, steps)
    for t in (0.123456, 0.5 + 0.3 / steps, 0.999):
        evaluate(path, t)
    assert calls == []
    integrate_stepwise(gen, 0.0, 1.0, 8)
    assert len(calls) == 8


def _patch_generator_values(monkeypatch, defect):
    """Make every generator call return ``defect(t, S(t))`` instead of S(t).
    `integrate` and `evaluate` read the step table and never call it."""
    base = HessianPath.__call__
    monkeypatch.setattr(HessianPath, "__call__",
                        lambda self, t: defect(np.asarray(t, dtype=float), np.array(base(self, t))))


@pytest.mark.parametrize("nan_after, skew_after, message", [
    (0.1, 0.2, "non-finite"),
    (0.2, 0.1, "non-symmetric"),
    (0.6, 0.3, "non-symmetric"),
])
def test_integrate_reports_the_first_bad_generator_value(nan_after, skew_after, message,
                                                         monkeypatch):
    # Values are checked where they are read: by the stepwise reference at
    # each Gauss node (with 1100 steps, 0.1 and 0.2 fall in its first 512
    # steps and 0.6 after), and in the stack when a generator is built.
    def defect(t, s):
        s[..., 0, 0] = np.where(t > nan_after, np.nan, s[..., 0, 0])
        s[..., 0, 1] += np.where(t > skew_after, 1.0, 0.0)
        return s

    gen = constant_planar(3.0)
    expected = integrate(gen, 0.0, 1.0, 1100).matrices
    _patch_generator_values(monkeypatch, defect)
    with pytest.raises(IntegrationError, match=message):
        integrate_stepwise(gen, 0.0, 1.0, 1100)
    assert np.array_equal(integrate(gen, 0.0, 1.0, 1100).matrices, expected)
    monkeypatch.undo()
    knots = np.linspace(0.0, 1.0, 11)
    stack = defect(knots, np.stack([gen(t) for t in knots]))
    first = int(np.argmax(knots > min(nan_after, skew_after)))
    what = "has non-finite entries" if message == "non-finite" else "is not symmetric"
    with pytest.raises(ValueError, match=f"sampled coefficient {first} {what}"):
        HessianPath.sampled(stack)


@pytest.mark.parametrize("bad, message", [("skew", None), ("inf", "generator returned non-finite")])
def test_integrate_block_check_falls_back_to_the_per_matrix_test(bad, message, monkeypatch):
    # Entries about 1e4: a skew of 1e-6 fails the stepwise reference's
    # whole-block test max |S - S^T| <= 1e-9 but passes the per-matrix test
    # relative to the scale; the stack check at construction is relative to
    # each matrix's scale too, so it accepts the same skew and symmetrizes it.
    def defect(t, s):
        if bad == "skew":
            s[..., 0, 1] += 1e-6
        else:
            s[..., 1, 1] = np.where(t > 0.3e-4, np.inf, s[..., 1, 1])
        return s

    gen = constant_planar(1e4)
    stack = defect(np.ones(1), gen.stack.copy())
    _patch_generator_values(monkeypatch, defect)
    if message is None:
        integrate_stepwise(gen, 0.0, 1e-4, 1100)
        monkeypatch.undo()
        symmetrized = 0.5 * (stack + stack.swapaxes(1, 2))
        assert np.array_equal(HessianPath.constant(stack[0]).stack, symmetrized)
        return
    with pytest.raises(IntegrationError, match=message):
        integrate_stepwise(gen, 0.0, 1e-4, 1100)
    monkeypatch.undo()
    with pytest.raises(ValueError, match="constant coefficient 0 has non-finite entries"):
        HessianPath.constant(stack[0])


@pytest.mark.parametrize("kind, exponentials", [("constant", 1), ("fourier", 2048)])
def test_integrate_exponentiates_once_per_path_when_time_independent(kind, exponentials, rng,
                                                                     monkeypatch):
    gen = constant_planar(3.0) if kind == "constant" else random_negdef_fourier(2, rng)
    counted = []

    def counting_expm(a):
        counted.append(np.asarray(a).reshape(-1, 2, 2).shape[0])
        return symplectic_expm(a)

    monkeypatch.setattr("hoferlab.flows.symplectic_expm", counting_expm)
    path = integrate(gen, 0.0, 1.0, 2048)
    assert sum(counted) == exponentials
    monkeypatch.undo()
    _assert_matches_loop(path, integrate_stepwise(gen, 0.0, 1.0, 2048))


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_integrate_time_independent_matches_closed_form(dim, rng):
    # Doubled nodes E^k against exp(t J S) at 8192 steps, with ||S|| = 20 (a
    # few turns).  Magnus is exact for a constant S and the Taylor map is
    # exact to unit roundoff, so only rounding remains: at most 4 steps eps
    # relative to each node's largest entry (the loop's error is the same size).
    s0 = random_negdef_fourier(dim, rng).stack[0]
    s = 20.0 / np.linalg.norm(s0, 2) * s0
    path = integrate(HessianPath.constant(s), 0.0, 1.0, 8192)
    exact = constant_flow(s, path.times)
    err = np.abs(path.matrices - exact).max(axis=(1, 2)) / np.abs(exact).max(axis=(1, 2))
    assert err.max() <= 4 * 8192 * np.finfo(float).eps


def _step_defect(path) -> float:
    """max_i ||Psi_{i+1} - E_i Psi_i||_2 / ||Psi_i||_2 over the nodes of
    `path`, with E_i the step exponential of the loop (`integrate_stepwise`)."""
    J = standard_structure(path.dim // 2).J
    e = symplectic_expm(magnus_exponent(path.generator, J, path.times[:-1], path.grid_spacing))
    psi = path.matrices
    step = np.linalg.norm(psi[1:] - e @ psi[:-1], 2, axis=(1, 2))
    return float((step / np.linalg.norm(psi[:-1], 2, axis=(1, 2))).max())


def _hyperbolic_fourier(dim: int, rng) -> HessianPath:
    """An indefinite Fourier generator whose flow stretches by about e^12: a
    hyperbolic plane with J S(t) = diag(r(t), -r(t)), mean rate 12, plus a
    1e-3 coupling so that its values do not commute, and a random indefinite
    block in dims 4 and 6.  Its axes stay near the coordinate axes, so the
    nodes keep their symplectic residual below 1e-9 at this norm."""
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    plane = HessianPath.fourier(-12.0 * swap + 1e-3 * np.diag([1.0, -1.0]), [-3.0 * swap],
                                [2.0 * swap + 1e-3 * np.eye(2)])
    return plane if dim == 2 else direct_sum(plane, random_indefinite_fourier(dim - 2, rng))


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_each_node_is_one_rounded_step_from_the_last(dim, rng):
    # The crossing gate (`crossings._certified`) takes each node to be within
    # 1e-12 ||Psi_i|| of E_i Psi_i; chunked products (time-dependent
    # generators) and doubling (constant ones) keep it below 1e-13.
    hyperbolic = _hyperbolic_fourier(dim, rng)
    gens = [_generator(kind, dim, rng) for kind in ("fourier", "sampled", "constant")]
    for gen in gens + [hyperbolic]:
        for steps in (8, 513, 1100):
            assert _step_defect(integrate(gen, 0.0, 1.0, steps)) <= 1e-13
    assert hyperbolic.definiteness == "indefinite"
    assert np.linalg.norm(integrate(hyperbolic, 0.0, 1.0, 1100).matrices[-1], 2) >= 1e5


def test_numpy_trig_and_log2_match_math_module():
    # Array and scalar generator calls, and stacked and single exponentials,
    # agree bit for bit only because these hold.
    t = np.linspace(0.0, 1.0, 200001)
    for k in (1, 2, 3):
        x = 2.0 * math.pi * k * t
        assert np.array_equal(np.cos(x), [math.cos(v) for v in x])
        assert np.array_equal(np.sin(x), [math.sin(v) for v in x])
    rng = np.random.default_rng(7)
    powers = 2.0 ** np.arange(1, 60)
    norms = np.concatenate((np.exp(rng.uniform(0.0, 40.0, 200000)), powers,
                            np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)))
    assert np.array_equal(np.ceil(np.log2(norms)), [math.ceil(math.log2(v)) for v in norms])


@pytest.mark.parametrize("kind", ["constant", "fourier", "sampled"])
def test_generator_array_call_matches_scalar_calls(kind, rng):
    # The 129-point grid is the one the definiteness certificate samples.
    gen = _generator(kind, 4, rng)
    times = np.concatenate((np.linspace(0.0, 1.0, 129), rng.random(1999), [-1e-13, 1.0 + 1e-13]))
    expected = np.stack([gen(float(t)) for t in times])
    assert np.array_equal(gen(times), expected)
    assert np.array_equal(gen(times.reshape(-1, 2)), expected.reshape(-1, 2, 4, 4))
    with pytest.raises(ValueError, match="time 1.5 outside"):
        gen(np.array([0.5, 1.5, -2.0]))


def test_fourier_evaluation_is_the_term_by_term_sum(rng):
    # S0, then the cosine terms, then the sine terms, each weight a Python
    # float from math.cos/math.sin of 2.0 * math.pi * k * t.
    gen = random_negdef_fourier(4, rng, kmax=3)
    s0, cos, sin = gen.stack[0], gen.stack[1:1 + gen.n_cos], gen.stack[1 + gen.n_cos:]
    for t in np.concatenate(([0.0, 1.0], rng.random(200))):
        expected = s0.copy()
        for k, a in enumerate(cos, start=1):
            expected += math.cos(2.0 * math.pi * k * t) * a
        for k, b in enumerate(sin, start=1):
            expected += math.sin(2.0 * math.pi * k * t) * b
        assert np.array_equal(gen(t), expected)


def test_direct_sum_of_sampled_matches_pointwise_join(rng):
    a = _generator("sampled", 2, rng)
    b = random_negdef_fourier(4, rng)
    joined = direct_sum(a, b)
    expected = np.stack([block_diag(a(t), b(t)) for t in np.linspace(0.0, 1.0, 2049)])
    assert np.array_equal(joined.stack, expected)


# -- evaluate ----------------------------------------------------------------


def test_evaluate_at_start_is_identity():
    path = integrate(constant_planar(3.0), 0.0, 1.0, 64)
    assert np.array_equal(evaluate(path, 0.0), np.eye(2))


def test_evaluate_at_node_returns_stored():
    path = integrate(constant_planar(3.0), 0.0, 1.0, 64)
    t = float(path.times[17])
    assert np.array_equal(evaluate(path, t), path.matrices[17])


def test_evaluate_between_nodes_matches_closed_form():
    path = integrate(constant_planar(5.0), 0.0, 1.0, 256)
    for t in (0.1234567, 0.5, 0.999):
        assert np.abs(evaluate(path, t) - planar_flow(5.0, t)).max() <= 1e-10


def test_evaluate_outside_domain():
    path = integrate(constant_planar(3.0), 0.0, 0.5, 64)
    with pytest.raises(ValueError):
        evaluate(path, 0.75)


@pytest.mark.parametrize("dim", [2, 4, 6])
@pytest.mark.parametrize("kind", ["constant", "fourier", "sampled"])
def test_array_evaluate_equals_scalar_calls_bit_for_bit(kind, dim, rng):
    # 100 steps over the spline's 64 knot intervals: some sub-steps have
    # their Gauss nodes on both sides of a knot.  Times within _NODE_SNAP of
    # a node, on either side, return the stored node; 1e-11 away they do not.
    gen = _generator(kind, dim, rng)
    path = integrate(gen, 0.0, 1.0, 100)
    nodes = rng.integers(1, 100, size=8)
    at = path.times[nodes]
    knots = np.linspace(0.0, 1.0, 65)[1:-1]
    before = path.times[np.searchsorted(path.times, knots) - 1]
    straddle = (before + 1.5 * (knots - before))[knots - before < path.grid_spacing / 1.5]
    near = 0.9 * _NODE_SNAP  # node + _NODE_SNAP itself may round to a little more
    times = np.concatenate((rng.uniform(0.0, 1.0, 24), at, at + near, at - near,
                            at + 1e-11, straddle, [0.0, 1.0, -0.5e-12, 1.0 + 0.5e-12]))
    times = rng.permutation(np.concatenate((times, times[:10])))
    stack = evaluate(path, times)
    assert stack.shape == (len(times), dim, dim)
    for t, psi in zip(times.tolist(), stack):
        assert np.array_equal(psi, evaluate(path, t))
    assert np.array_equal(evaluate(path, times.reshape(-1, 2)), stack.reshape(-1, 2, dim, dim))
    for offset in (0.0, near, -near):
        assert np.array_equal(evaluate(path, at + offset), path.matrices[nodes])
    assert not np.array_equal(evaluate(path, at + 1e-11), path.matrices[nodes])
    assert np.array_equal(evaluate(path, [-0.5e-12, 1.0 + 0.5e-12]), path.matrices[[0, -1]])
    if kind == "sampled":
        base = path.times[np.searchsorted(path.times, straddle) - 1]
        gauss = _GAUSS_OFFSETS[:, None] * (straddle - base) + base
        assert len(straddle) >= 10 and (np.searchsorted(knots, gauss[0], "right")
                                        != np.searchsorted(knots, gauss[1], "right")).all()


def test_array_evaluate_names_the_first_bad_time():
    path = integrate(constant_planar(3.0), 0.0, 0.5, 64)
    for bad, first in (([0.1, 0.75, math.nan], "0.75"), ([0.2, math.nan, -1.0], "nan")):
        with pytest.raises(ValueError, match=f"time {first} outside path domain"):
            evaluate(path, np.array(bad))
    assert evaluate(path, np.empty(0)).shape == (0, 2, 2)


def test_phase_window_drops_nodes_next_to_its_ends():
    # A window end within _WINDOW_SNAP of a node stands for it, so no
    # sample interval is shorter than that; 2 _WINDOW_SNAP away the node is
    # a sample of its own.
    path = integrate(constant_planar(3.0), 0.0, 1.0, 64)
    t10, t50 = float(path.times[10]), float(path.times[50])
    ts = phase_window(path, t10 - 0.5 * _WINDOW_SNAP, t50 + 0.5 * _WINDOW_SNAP)[0]
    assert ts[1] == path.times[11] and ts[-2] == path.times[49]
    ts = phase_window(path, t10 - 2.0 * _WINDOW_SNAP, t50 + 2.0 * _WINDOW_SNAP)[0]
    assert ts[1] == t10 and ts[-2] == t50


def test_nan_time_is_outside_every_domain():
    gen = constant_planar(3.0)
    path = integrate(gen, 0.0, 1.0, 64)
    for call in (lambda: gen(math.nan), lambda: gen(np.array([0.5, math.nan])),
                 lambda: evaluate(path, math.nan), lambda: restrict(path, math.nan, 0.5)):
        with pytest.raises(ValueError, match="outside|invalid"):
            call()


# -- restrict ----------------------------------------------------------------


def test_restrict_full_window_is_same_path():
    path = integrate(constant_planar(5.0), 0.0, 1.0, 128)
    sub = restrict(path, 0.0, 1.0)
    assert np.abs(sub.matrices[-1] - path.matrices[-1]).max() <= 1e-12


def test_restrict_rotation_duration():
    path = integrate(constant_planar(5.0), 0.0, 1.0, 256)
    sub = restrict(path, 0.25, 0.75)
    assert np.abs(evaluate(sub, 0.75) - planar_flow(5.0, 0.5)).max() <= 1e-10


def test_restrict_cocycle_identity(rng):
    gen = random_negdef_fourier(4, rng)
    path = integrate(gen, 0.0, 1.0, 512)
    a, b = 0.3, 0.8
    sub = restrict(path, a, b)
    lhs = evaluate(sub, b) @ evaluate(path, a)
    assert np.abs(lhs - evaluate(path, b)).max() <= 1e-9


def test_restrict_rejects_degenerate_interval():
    path = integrate(constant_planar(5.0), 0.0, 1.0, 64)
    with pytest.raises(ValueError):
        restrict(path, 0.5, 0.5)


# -- invariants ---------------------------------------------------------------


def test_symplecticity_on_random_fourier(rng):
    struct = standard_structure(2)
    for _ in range(3):
        gen = random_negdef_fourier(4, rng)
        path = integrate(gen, 0.0, 1.0, 512)
        assert path.max_symplectic_residual <= 1e-9
        for t in np.linspace(0.01, 0.99, 40):
            assert symplectic_residual(struct, evaluate(path, t)) <= 1e-9


def test_autonomous_group_law(rng):
    gen = HessianPath.constant(-0.5 * (lambda m: m + m.T)(rng.normal(size=(4, 4)))
                               - 4.0 * np.eye(4))
    path = integrate(gen, 0.0, 1.0, 1024)
    for s, t in ((0.2, 0.3), (0.45, 0.31), (0.1, 0.77)):
        lhs = evaluate(path, s + t)
        rhs = evaluate(path, s) @ evaluate(path, t)
        assert np.abs(lhs - rhs).max() <= 1e-8


def _hyperbolic_draw(dim: int, rng) -> HessianPath:
    """12 diag(1, -1, ...) + m with harmonics m cos and m' sin (random
    symmetric m, m'): a hyperbolic flow whose axes turn, ||Psi(1)|| 1e4-1e6."""
    m, m2 = (0.5 * (a + a.T) for a in rng.normal(size=(2, dim, dim)))
    return HessianPath.fourier(12.0 * np.kron(np.eye(dim // 2), np.diag([1.0, -1.0])) + m,
                               [m], [m2])


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_node_gate_is_relative_to_the_node_size(dim, rng):
    # The symplectic residual rounds like eps ||Psi||^2; an absolute 1e-9
    # rejected these correct flows.
    gen = _hyperbolic_draw(dim, rng)
    om = standard_structure(dim // 2).omega_matrix
    for steps in (64, 512, 2048):
        path = integrate(gen, 0.0, 1.0, steps)
        m = path.matrices
        size = np.abs(m).max(axis=(1, 2)) ** 2
        assert size.max() >= 1e8 and path.max_symplectic_residual > 1e-9
        residual = np.abs(m.swapaxes(1, 2) @ om @ m - om).max(axis=(1, 2))
        assert (residual <= 64 * np.finfo(float).eps * size).all()
        _assert_matches_loop(path, integrate_stepwise(gen, 0.0, 1.0, steps))


@pytest.mark.parametrize("make", [random_negdef_fourier, _hyperbolic_draw])
def test_node_off_the_group_raises(make, rng):
    path = integrate(make(4, rng), 0.0, 1.0, 512)
    for node in (100, 512):
        mats = path.matrices.copy()
        mats[node] += 1e-6 * np.abs(mats[node]).max() * rng.normal(size=(4, 4))
        with pytest.raises(IntegrationError, match=f"symplectic residual .* at node {node}"):
            dataclasses.replace(path, matrices=mats)


def _node_residuals(m: np.ndarray) -> np.ndarray:
    """max |M^T Omega M - Omega| of each node, over the whole array at once."""
    om = standard_structure(m.shape[-1] // 2).omega_matrix
    return np.abs((m.swapaxes(1, 2) @ om) @ m - om).max(axis=(1, 2))


def _gate_message(m: np.ndarray, node: int) -> str:
    defect, tol = _node_residuals(m)[node], 1e-9 * max(1.0, np.abs(m[node]).max() ** 2)
    return (f"symplectic residual {defect:.3e} exceeds 1e-9 max(1, max|Psi|^2) = {tol:.3e} "
            f"at node {node}")


@pytest.mark.parametrize("steps", [8, 512, 1024, 8192])
def test_blocked_node_gate_keeps_the_full_array_residual(steps, rng):
    # The gate runs per block of `_BLOCK_STEPS` nodes plus the next block's
    # first: 9, 513, 1025 and 8193 nodes take one short block, one full
    # block, 2 and 16 blocks.
    for path in (integrate(_hyperbolic_draw(4, rng), 0.0, 1.0, steps),
                 integrate(random_negdef_fourier(6, rng), 0.0, 1.0, steps)):
        assert path.max_symplectic_residual == _node_residuals(path.matrices).max()


@pytest.mark.parametrize("node", [700, 1024])
def test_blocked_node_gate_names_the_first_bad_node(node, rng):
    # Node 700 lies inside the second block, node 1024 ends it and starts the
    # third; a later bad node does not hide it.
    path = integrate(random_negdef_fourier(4, rng), 0.0, 1.0, 2048)
    mats = path.matrices.copy()
    for k in (node + 200, node):
        mats[k] += 1e-6 * rng.normal(size=(4, 4))
    with pytest.raises(IntegrationError) as info:
        dataclasses.replace(path, matrices=mats)
    assert str(info.value) == _gate_message(mats, node)


def test_blocked_node_gate_is_relative_in_a_later_block(rng):
    # A large symplectic node, rounded off the group by 1e-14 of its size,
    # in the third block: above 1e-9 absolute, within 1e-9 max|Psi|^2.
    path = integrate(random_negdef_fourier(4, rng), 0.0, 1.0, 2048)
    stretch = np.diag([1e4, 1e-4, 1e4, 1e-4])
    big = stretch @ path.matrices[1200]
    mats = path.matrices.copy()
    mats[1200] = big + 1e-14 * np.abs(big).max() * rng.normal(size=(4, 4))
    residuals = _node_residuals(mats)
    assert 1e-9 < residuals[1200] < 1e-9 * np.abs(mats[1200]).max() ** 2
    assert dataclasses.replace(path, matrices=mats).max_symplectic_residual == residuals.max()


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_interpolant_bound_covers_the_taylor_map(dim, rng):
    # The crossing gate charges `interpolant_bound`'s third term for the
    # distance between `symplectic_expm` and the exponential at step norm w.
    # The rounding allowance 64 d eps e^w comes on top: up to 6 squarings
    # (||Omega||_1 <= sqrt(6) w) each double the rounding of the Taylor map,
    # plus scipy's own error (measured below 24 eps e^w).
    eps = np.finfo(float).eps
    J = standard_structure(dim // 2).J
    for w in (1e-3, _THETA_8, 0.3, 1.0):
        # S = -c I at 8 steps: w = h c + (sqrt(3)/6) h^2 c^2 with h = 1/8.
        k, h = math.sqrt(3.0) / 6.0, 0.125
        c = (-h + math.sqrt(h * h + 4.0 * k * h * h * w)) / (2.0 * k * h * h)
        path = integrate(HessianPath.constant(-c * np.eye(dim)), 0.0, 1.0, 8)
        _slope, growth, taylor = interpolant_bound(path)
        assert growth == pytest.approx(math.exp(w), rel=1e-12)
        assert taylor <= 3e-5 * w**7 * growth  # a (3,3) Pade map's term
        for _ in range(20):
            s = rng.normal(size=(dim, dim))
            omega = J @ (s + s.T)
            omega *= w / np.linalg.norm(omega, 2)
            gap = np.linalg.norm(symplectic_expm(omega) - expm(omega), 2)
            assert gap <= taylor + 64 * dim * eps * growth


def test_determinant_one_everywhere(rng):
    gen = random_negdef_fourier(6, rng)
    path = integrate(gen, 0.0, 1.0, 512)
    assert np.abs(np.linalg.det(path.matrices) - 1.0).max() <= 1e-9


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_symplectic_residual_bounds_the_determinant_defect(dim, rng):
    # The node gate reads only E = M^T Omega M - Omega, and det M - 1 =
    # tr(Omega^-1 E) / 2 + O(||E||^2) gives |det M - 1| <= (d/2) max |E_ij|
    # to first order. Perturbed nodes stay within that, with 1% for the
    # second-order term and 8 d eps max(1, max|M|^2) for the rounding of det
    # and E; from d = 4 on, some defect exceeds max |E_ij| itself.
    eps = np.finfo(float).eps
    om = standard_structure(dim // 2).omega_matrix
    worst = 0.0
    for make in (random_negdef_fourier, _hyperbolic_draw):
        m = integrate(make(dim, rng), 0.0, 1.0, 256).matrices[::8]
        for rel in 10.0 ** np.arange(-12.0, -5.5):
            p = m + rel * np.abs(m).max(axis=(1, 2))[:, None, None] * rng.normal(size=m.shape)
            e = np.abs(p.swapaxes(1, 2) @ om @ p - om).max(axis=(1, 2))
            defect = np.abs(np.linalg.det(p) - 1.0)
            rounding = 8 * dim * eps * np.maximum(1.0, np.abs(p).max(axis=(1, 2)) ** 2)
            keep = e <= 1e-3
            assert keep.any()
            assert (defect <= dim / 2 * e * (1 + 1e-2) + rounding)[keep].all()
            worst = max(worst, (defect / e)[keep & (e > 1e3 * rounding)].max(initial=0.0))
    assert dim == 2 or worst > 1.0


def test_refinement_convergence_order():
    # Time-dependent generators whose values do not commute: the error is
    # the fourth-order Magnus scheme's, measured against a 16384-step run.
    for dim, seed in ((2, 16180), (6, 2718)):
        orders, errs = refinement_orders(random_negdef_fourier(dim, np.random.default_rng(seed)))
        assert min(orders) >= 3.7, f"dim {dim}: orders {orders}, errors {errs}"
    # A constant generator: the Magnus average is exact and the exponential
    # is exact to unit roundoff, so at every step count only rounding is left.
    speed = 40.0
    for steps in (64, 128, 256):
        path = integrate(constant_planar(speed), 0.0, 1.0, steps)
        err = np.abs(path.matrices[-1] - planar_flow(speed, 1.0)).max()
        assert err <= 4 * steps * np.finfo(float).eps
