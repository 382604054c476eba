"""Flow integration against trigonometric closed forms and group laws."""

from __future__ import annotations

import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import block_diag

import hoferlab
from hoferlab import (
    HessianPath,
    IntegrationError,
    direct_sum,
    evaluate,
    integrate,
    restrict,
    standard_structure,
    symplectic_residual,
)
from hoferlab.flows import _magnus_exponent
from tests.oracles import (
    aliased_fourier,
    aliased_spline,
    block_flow,
    constant_planar,
    integrate_stepwise,
    planar_flow,
    random_negdef_fourier,
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
        clone = HessianPath.from_payload(gen.to_payload())
        assert clone.to_payload() == gen.to_payload()
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
    neg, cong = gen.negated(), gen.congruent(c)
    assert neg.kind == cong.kind == gen.kind
    for t in (0.0, 0.13, 0.5, 0.77, 1.0):
        assert np.array_equal(neg(t), -gen(t))
        assert np.allclose(cong(t), c.T @ gen(t) @ c, atol=1e-13)


def test_stack_is_read_only():
    gen = HessianPath.fourier(-np.eye(2), [0.1 * np.eye(2)])
    assert gen.stack.shape == (2, 2, 2) and gen.n_cos == 1
    with pytest.raises(ValueError):
        gen.stack[0, 0, 0] = 1.0


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
            moves = np.angle(np.exp(1j * np.diff(path.phase_nodes())))
            assert np.abs(moves).max() <= dim * g.norm_bound * path.grid_spacing


def test_scipy_loads_only_for_sampled_generators():
    # scipy.optimize and scipy.interpolate are most of the start-up time of
    # `hoferlab verify`; only the spline of a sampled generator needs them.
    code = (
        "import sys, numpy as np, hoferlab, hoferlab.cli\n"
        "hoferlab.verify_theorem(hoferlab.sphere_height_scenario(7.0), steps=256)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "hoferlab.HessianPath.sampled([-np.eye(2)] * 5)\n"
        "print('scipy.interpolate' in sys.modules)\n"
    )
    src = pathlib.Path(hoferlab.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout.splitlines() == ["[]", "True"]


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
    if kind == "constant":
        return HessianPath.constant(fourier.stack[0])
    if kind == "sampled":
        return HessianPath.sampled(fourier(np.linspace(0.0, 1.0, 65)))
    return fourier


def _assert_same_path(path, ref):
    assert np.array_equal(path.times, ref.times)
    assert np.array_equal(path.matrices, ref.matrices)
    assert np.array_equal(path.sigma_min_nodes(), ref.sigma_min_nodes())
    assert np.array_equal(path.phase_nodes(), ref.phase_nodes())


@pytest.mark.parametrize("dim", [2, 4, 6])
@pytest.mark.parametrize("kind", ["constant", "fourier", "sampled"])
def test_integrate_matches_stepwise_loop(kind, dim, rng):
    # Step counts below, at and above one block of 512 steps.
    gen = _generator(kind, dim, rng)
    for steps in (8, 512, 513, 1100):
        _assert_same_path(integrate(gen, 0.0, 1.0, steps), integrate_stepwise(gen, 0.0, 1.0, steps))
    _assert_same_path(integrate(gen, 0.2, 0.7, 600), integrate_stepwise(gen, 0.2, 0.7, 600))


def test_integrate_matches_stepwise_loop_across_scaling_exponents():
    # Step norms from about 0.8 to 8.6 inside one block: the exponentials of
    # one stack take 0 to 4 squarings.
    gen = HessianPath.fourier(-300.0 * np.eye(2), [-250.0 * np.eye(2)])
    steps = 64
    h = 1.0 / steps
    starts = np.linspace(0.0, 1.0, steps + 1)[:-1]
    exps = _magnus_exponent(gen, standard_structure(1).J, starts, h)
    squarings = np.ceil(np.log2(np.maximum(np.abs(exps).sum(axis=-2).max(axis=-1), 1.0)))
    assert set(squarings) == {0.0, 1.0, 2.0, 3.0, 4.0}
    _assert_same_path(integrate(gen, 0.0, 1.0, steps), integrate_stepwise(gen, 0.0, 1.0, steps))


@pytest.mark.parametrize("nan_after, skew_after, message", [
    (0.1, 0.2, "non-finite"),
    (0.2, 0.1, "non-symmetric"),
    (0.6, 0.3, "non-symmetric"),
])
def test_integrate_reports_the_first_bad_generator_value(nan_after, skew_after, message):
    # With 1100 steps, 0.1 and 0.2 fall in the first block and 0.6 in the second.
    gen = constant_planar(3.0)
    base = gen._evaluator

    def evaluator(t):
        s = np.array(base(t))
        s[..., 0, 0] = np.where(t > nan_after, np.nan, s[..., 0, 0])
        s[..., 0, 1] += np.where(t > skew_after, 1.0, 0.0)
        return s

    gen._evaluator = evaluator
    for run in (integrate, integrate_stepwise):
        with pytest.raises(IntegrationError, match=message):
            run(gen, 0.0, 1.0, 1100)


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


def test_determinant_one_everywhere(rng):
    gen = random_negdef_fourier(6, rng)
    path = integrate(gen, 0.0, 1.0, 512)
    assert path.max_det_error <= 1e-9


def test_refinement_convergence_order():
    # Constant generator: the Magnus average is exact, so the measured order
    # is that of the fixed-order exponential map (six), comfortably above
    # the fourth-order floor the stepper guarantees for time-dependent S.
    speed = 40.0
    gen = constant_planar(speed)
    errs = []
    for steps in (64, 128, 256):
        path = integrate(gen, 0.0, 1.0, steps)
        errs.append(np.abs(path.matrices[-1] - planar_flow(speed, 1.0)).max())
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(orders) >= 3.7
