"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every expected value here comes from a closed-form oracle (rotation angles,
floor counts of full turns, block sums) or from an exact structural
identity; nothing is copied from the implementation under test.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from hoferlab import (
    DegenerateEndpointError,
    HessianPath,
    StandardStructure,
    direct_sum,
    evaluate,
    find_crossings,
    hamiltonian_vector_field_selftest,
    hofer_lengths,
    integrate,
    morse_index,
    quadratic_scenario,
    rs_index,
    sphere_height_scenario,
    standard_structure,
    symplectic_residual,
    verify_theorem,
)
from tests.oracles import (
    TWO_PI,
    concatenation_check,
    constant_planar,
    crossing_times,
    full_turns,
    planar_flow,
    random_nondegenerate_negdef,
    random_symplectic,
)

PLANAR_SPEEDS = (1.0, 5.0, 7.0, 13.0, 20.0)
BLOCK_FIXTURES = {
    "block(7,13)": (7.0, 13.0),
    "block(5,7,13)": (5.0, 7.0, 13.0),
    "block(5,7,13,20)": (5.0, 7.0, 13.0, 20.0),
}


@contextmanager
def criterion(num: int, desc: str, budget: float | None = None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} [{desc}]: FAIL")
        raise
    dt = time.perf_counter() - t0
    if budget is not None:
        assert dt < budget, f"criterion {num} took {dt:.2f}s, budget {budget}s"
    print(f"ACCEPTANCE {num} [{desc}]: PASS ({dt:.2f} s)")


def block_generator(speeds) -> HessianPath:
    gen = constant_planar(speeds[0])
    for s in speeds[1:]:
        gen = direct_sum(gen, constant_planar(s))
    return gen


def theorem_sides_from_path(path) -> tuple[int, int]:
    """(multiplicity sum, |CZ(1) - CZ(eps)|) via the two independent
    assemblies: unsigned counting of the scan's crossings vs the signed
    spectral flow on (eps, 1], which is CZ(1) - CZ(eps)."""
    crossings = find_crossings(path, (0.0, 1.0))
    lhs = sum(c.multiplicity for c in crossings)
    eps = 0.5 if not crossings else 0.5 * crossings[0].time
    cz_int = rs_index(path, interval=(eps, 1.0), policy="open_open")
    return lhs, abs(cz_int.half_units) // 2


def test_criterion_1_convention_selftest():
    with criterion(1, "convention self-test and sign flips", budget=1.0):
        good = standard_structure(1)
        assert hamiltonian_vector_field_selftest(good)
        flipped_j = StandardStructure(dim=2, J=-good.J, omega_matrix=good.omega_matrix)
        flipped_om = StandardStructure(dim=2, J=good.J, omega_matrix=-good.omega_matrix)
        assert not hamiltonian_vector_field_selftest(flipped_j)
        assert not hamiltonian_vector_field_selftest(flipped_om)


def test_criterion_2_planar_rotation_fixtures():
    with criterion(2, "planar rotation fixtures", budget=5.0):
        for lam in PLANAR_SPEEDS:
            gen = constant_planar(lam)
            path = integrate(gen, 0.0, 1.0, 2048)
            expected_times = crossing_times(lam)
            found = find_crossings(path, (0.0, 1.0))
            assert len(found) == len(expected_times), f"lambda={lam}"
            for c, tau in zip(found, expected_times):
                assert abs(c.time - tau) <= 1e-8
                assert c.multiplicity == 2
            turns = full_turns(lam)
            assert morse_index(gen, steps=2048) == 2 * turns
            if expected_times:
                eps = 0.5 * expected_times[0]
                assert rs_index(path, interval=(eps, 1.0)).value == -2 * turns
            else:
                assert rs_index(path, interval=(0.5, 1.0)).value == 0


def test_criterion_3_theorem_identity():
    with criterion(3, "index identity on fixtures, blocks, random paths", budget=60.0):
        failures = 0
        # (a) planar fixtures
        for lam in PLANAR_SPEEDS:
            path = integrate(constant_planar(lam), 0.0, 1.0, 1024)
            lhs, rhs = theorem_sides_from_path(path)
            expected = 2 * full_turns(lam)
            if not lhs == rhs == expected:
                failures += 1
        # (b) block sums up to dimension 8
        for name, speeds in BLOCK_FIXTURES.items():
            gen = block_generator(speeds)
            scenario = quadratic_scenario(
                gen, gen.negated(),
                max_value_curve=lambda t: 1.0,
                min_value_curve=lambda t: -1.0,
                name=name,
            )
            report = verify_theorem(scenario, steps=1024)
            expected = sum(2 * full_turns(s) for s in speeds)
            if not (report.verdict and report.theorem_lhs == expected):
                failures += 1
        # (c) 200 random negative definite Fourier paths, dims {2, 4, 6}
        rng = np.random.default_rng(31415)
        for i in range(200):
            dim = (2, 4, 6)[i % 3]
            _gen, path = random_nondegenerate_negdef(dim, rng, steps=512)
            lhs, rhs = theorem_sides_from_path(path)
            if lhs != rhs:
                failures += 1
        assert failures == 0


def test_criterion_4_concatenation_additivity():
    with criterion(4, "concatenation additivity on random paths"):
        rng = np.random.default_rng(27182)
        done = 0
        while done < 100:
            dim = (2, 4)[done % 2]
            _gen, path = random_nondegenerate_negdef(dim, rng, steps=384)
            taus = [c.time for c in find_crossings(path, (0.0, 1.0))]
            m = None
            for _ in range(50):
                cand = float(rng.uniform(0.05, 0.95))
                if all(abs(cand - tau) > 5e-3 for tau in taus):
                    m = cand
                    break
            if m is None:
                continue
            assert concatenation_check(path, m)
            done += 1


def test_criterion_5_sphere_family_sweep():
    with criterion(5, "sphere family sweep with lengths"):
        for lam in np.arange(0.5, 13.0 + 1e-9, 0.5):
            lam = float(lam)
            report = verify_theorem(sphere_height_scenario(lam), steps=1024)
            assert report.verdict, f"lambda={lam}"
            assert report.morse_index_total == 4 * full_turns(lam), f"lambda={lam}"
            lengths = hofer_lengths(sphere_height_scenario(lam))
            assert abs(lengths["L_plus"] - lam) <= 1e-10
            assert abs(lengths["L_minus"] - lam) <= 1e-10
            assert abs(lengths["L"] - 2 * lam) <= 1e-10
        for lam in (TWO_PI, 2 * TWO_PI):
            with pytest.raises(DegenerateEndpointError):
                verify_theorem(sphere_height_scenario(lam), steps=1024)


def test_criterion_6_discretization_independence():
    with criterion(6, "integer outputs stable across step counts"):
        step_grid = (256, 512, 1024, 2048, 4096)
        fixtures: dict[str, HessianPath] = {
            f"planar({lam:g})": constant_planar(lam) for lam in PLANAR_SPEEDS
        }
        fixtures["block(7,13)"] = block_generator((7.0, 13.0))
        for name, gen in fixtures.items():
            outcomes = set()
            for steps in step_grid:
                path = integrate(gen, 0.0, 1.0, steps)
                crossings = find_crossings(path, (0.0, 1.0))
                lhs, rhs = theorem_sides_from_path(path)
                assert lhs == rhs, f"{name} at {steps} steps"
                outcomes.add((
                    lhs, rhs,
                    tuple(c.multiplicity for c in crossings),
                    tuple(c.signature for c in crossings),
                ))
            assert len(outcomes) == 1, f"{name}: {outcomes}"
        # Sphere scenario end to end, both sides.
        sphere_outcomes = set()
        for steps in step_grid:
            report = verify_theorem(sphere_height_scenario(7.0), steps=steps)
            sphere_outcomes.add((
                report.morse_index_plus, report.morse_index_minus,
                report.theorem_lhs, report.theorem_rhs, report.verdict,
                report.cz_at_1.half_units, report.cz_at_epsilon.half_units,
                report.cz_interval.half_units,
            ))
        assert len(sphere_outcomes) == 1


def test_criterion_7_symplecticity_and_order():
    with criterion(7, "symplectic residuals and convergence order"):
        worst = 0.0
        rng = np.random.default_rng(16180)
        for lam in PLANAR_SPEEDS:
            path = integrate(constant_planar(lam), 0.0, 1.0, 2048)
            struct = standard_structure(1)
            worst = max(worst, path.max_symplectic_residual)
            for t in rng.uniform(0.0, 1.0, size=50):
                worst = max(worst, symplectic_residual(struct, evaluate(path, float(t))))
        gen8 = block_generator((5.0, 7.0, 13.0, 20.0))
        path8 = integrate(gen8, 0.0, 1.0, 2048)
        struct8 = standard_structure(4)
        worst = max(worst, path8.max_symplectic_residual)
        for t in rng.uniform(0.0, 1.0, size=50):
            worst = max(worst, symplectic_residual(struct8, evaluate(path8, float(t))))
        assert worst <= 1e-9

        # Refinement study on a constant generator against the closed form.
        speed = 40.0
        errs = []
        for steps in (64, 128, 256, 512):
            path = integrate(constant_planar(speed), 0.0, 1.0, steps)
            errs.append(float(np.abs(path.matrices[-1] - planar_flow(speed, 1.0)).max()))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        assert min(orders) >= 3.7, f"orders {orders}"


def test_criterion_8_epsilon_robustness():
    with criterion(8, "epsilon robustness of verdict and rhs"):
        for lam in (7.0, 13.0, 20.0):
            scenario = sphere_height_scenario(lam)
            tau1 = TWO_PI / lam
            seen = set()
            for frac in (0.25, 0.5, 0.75):
                report = verify_theorem(scenario, steps=1024, epsilon=frac * tau1)
                seen.add((report.verdict, report.theorem_rhs))
            assert len(seen) == 1
            assert next(iter(seen)) == (True, 2 * full_turns(lam))


def test_criterion_9_invariance_suite():
    with criterion(9, "conjugation and reparametrization invariance"):
        rng = np.random.default_rng(14142)
        # Symplectic conjugation: 50 cases.
        from hoferlab import symplectic_inverse

        for i in range(50):
            dim = (2, 4)[i % 2]
            gen, path = random_nondegenerate_negdef(dim, rng, steps=512)
            m = random_symplectic(dim, rng, scale=0.5)
            m_inv = symplectic_inverse(standard_structure(dim // 2), m)
            gen_c = gen.congruent(m_inv)
            path_c = integrate(gen_c, 0.0, 1.0, 512)
            ca = find_crossings(path, (0.0, 1.0))
            cb = find_crossings(path_c, (0.0, 1.0))
            assert len(ca) == len(cb)
            for x, y in zip(ca, cb):
                assert abs(x.time - y.time) <= 1e-6
                assert x.multiplicity == y.multiplicity
                assert x.signature == y.signature
            eps = 0.02 if not ca else 0.5 * ca[0].time
            assert rs_index(path, interval=(eps, 1.0)).half_units == \
                rs_index(path_c, interval=(eps, 1.0)).half_units

        # Time reparametrization: 50 cases.
        from scipy.optimize import brentq

        grid = np.linspace(0.0, 1.0, 1025)
        for i in range(50):
            dim = (2, 4)[i % 2]
            gen, path = random_nondegenerate_negdef(dim, rng, steps=512)
            beta = float(rng.uniform(-0.7, 0.7))
            warp = lambda t: t + beta * math.sin(TWO_PI * t) / TWO_PI
            dwarp = lambda t: 1.0 + beta * math.cos(TWO_PI * t)
            gen_w = HessianPath.sampled(
                np.stack([dwarp(t) * gen(warp(t)) for t in grid])
            )
            path_w = integrate(gen_w, 0.0, 1.0, 512)
            ca = find_crossings(path, (0.0, 1.0))
            cb = find_crossings(path_w, (0.0, 1.0))
            assert len(ca) == len(cb)
            for x, y in zip(ca, cb):
                assert x.multiplicity == y.multiplicity
                assert x.signature == y.signature
                pulled = brentq(lambda t: warp(t) - x.time, 0.0, 1.0, xtol=1e-13)
                assert abs(pulled - y.time) <= 1e-6
            assert rs_index(path).half_units == rs_index(path_w).half_units
