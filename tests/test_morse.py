"""Conjugate-time Morse indices, epsilon windows, and the index identity."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest

from hoferlab import (
    DegenerateEndpointError,
    IrregularCrossingError,
    admissible_epsilon,
    check_nondegenerate,
    find_crossings,
    integrate,
    morse_index,
    quadratic_scenario,
    sphere_height_scenario,
    verify_theorem,
    HessianPath,
)
from tests.oracles import (
    TWO_PI,
    constant_planar,
    direct_sum,
    full_turns,
    random_nondegenerate_negdef,
)


# -- admissible_epsilon --------------------------------------------------------


def test_epsilon_half_first_crossing():
    assert admissible_epsilon(constant_planar(7.0)) == pytest.approx(math.pi / 7.0, abs=1e-9)


def test_epsilon_cap_without_crossing():
    assert admissible_epsilon(constant_planar(5.0)) == 0.5


def test_epsilon_cap_slow_flow():
    assert admissible_epsilon(constant_planar(0.1)) == 0.5


def test_epsilon_window_is_crossing_free():
    gen = constant_planar(13.0)
    eps = admissible_epsilon(gen)
    path = integrate(gen, 0.0, 1.0, 2048)
    assert find_crossings(path, (0.0, eps)) == []


def test_epsilon_rejects_crossings_below_grid_resolution():
    from hoferlab import CrossingResolutionError

    # Speed 60 with 8 steps puts the crossing spacing (about 0.105) below
    # the grid spacing 0.125, which must be rejected, not silently wrong.
    with pytest.raises(CrossingResolutionError):
        admissible_epsilon(constant_planar(60.0), steps=8)


# -- check_nondegenerate ---------------------------------------------------------


def test_nondegenerate_lam7():
    assert check_nondegenerate(integrate(constant_planar(7.0), 0.0, 1.0, 512))


def test_degenerate_full_rotation():
    assert not check_nondegenerate(integrate(constant_planar(TWO_PI), 0.0, 1.0, 512))


def test_degenerate_zero_generator():
    path = integrate(HessianPath.constant(np.zeros((2, 2))), 0.0, 1.0, 64)
    assert not check_nondegenerate(path)


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_end_sigma_and_norm_match_separate_decompositions(dim, rng):
    # sigma(Psi(1) - I) and ||Psi(1)||_2, read by `check_nondegenerate`, come
    # from one SVD call with the bits of the separate calls.
    for _ in range(5):
        _gen, path = random_nondegenerate_negdef(dim, rng, steps=128)
        end = path.matrices[-1]
        assert np.array_equal(path.end_sigma, np.linalg.svd(end - np.eye(dim), compute_uv=False))
        assert path.end_norm == np.linalg.norm(end, 2)


# -- morse_index -----------------------------------------------------------------


def test_morse_index_planar_values():
    assert morse_index(constant_planar(5.0)) == 0
    assert morse_index(constant_planar(7.0)) == 2


def test_morse_index_block_sum():
    gen = direct_sum(constant_planar(7.0), constant_planar(13.0))
    assert morse_index(gen) == 6


def test_morse_index_rejects_degenerate():
    with pytest.raises(DegenerateEndpointError):
        morse_index(constant_planar(TWO_PI))


def test_morse_index_rejects_irregular():
    amp = TWO_PI / 0.75 / (1.0 + 2.0 / (3.0 * math.pi))
    gen = HessianPath.fourier(-amp * np.eye(2), sin_terms=[-amp * np.eye(2)])
    with pytest.raises(IrregularCrossingError):
        morse_index(gen)


def test_morse_staircase_on_restrictions():
    # Rescaling time maps the restriction to [0, tau] onto [0, 1]; the index
    # of the rescaled flow must equal the partial multiplicity sum.
    base = 13.0
    path = integrate(constant_planar(base), 0.0, 1.0, 2048)
    crossings = find_crossings(path, (0.0, 1.0))
    previous = 0
    for tau in (0.2, 0.4, 0.6, 0.8, 0.99):
        scaled = HessianPath.constant(-base * tau * np.eye(2))
        expected = sum(c.multiplicity for c in crossings if c.time < tau)
        got = morse_index(scaled, steps=1024)
        assert got == expected
        assert got >= previous
        previous = got


# -- verify_theorem ----------------------------------------------------------------


def test_theorem_lam7():
    report = verify_theorem(sphere_height_scenario(7.0), steps=1024)
    assert report.verdict
    assert report.theorem_lhs == 2 and report.theorem_rhs == 2
    assert report.cz_interval.value == -2.0


def test_theorem_lam5_no_crossings():
    report = verify_theorem(sphere_height_scenario(5.0), steps=1024)
    assert report.verdict
    assert report.theorem_lhs == 0 and report.theorem_rhs == 0


def test_theorem_degenerate_errors():
    with pytest.raises(DegenerateEndpointError):
        verify_theorem(sphere_height_scenario(TWO_PI), steps=512)


@pytest.mark.parametrize("gap", [5e-7, 2e-7])
def test_crossing_next_to_t1_is_decided_by_sigma_alone(gap):
    # A full turn at t = 1 - gap: sigma_min(Psi(1) - I) ~ 2 pi gap clears
    # 1e-6 ||Psi(1)||, so the endpoint is nondegenerate and the crossing counts.
    scenario = sphere_height_scenario(TWO_PI / (1.0 - gap))
    for steps in (512, 2048):
        report = verify_theorem(scenario, steps=steps)
        assert report.verdict and report.theorem_lhs == report.theorem_rhs == 2
        assert [c.time for c in report.crossings_max] == pytest.approx([1.0 - gap], abs=1e-9)
    assert morse_index(scenario.S_max, steps=512) == 2
    # Closer still, sigma_min falls below the threshold and the endpoint is degenerate.
    with pytest.raises(DegenerateEndpointError, match="max side"):
        verify_theorem(sphere_height_scenario(TWO_PI / (1.0 - 1.5e-7)), steps=512)


def test_theorem_total_split():
    report = verify_theorem(sphere_height_scenario(7.0), steps=1024)
    assert report.morse_index_total == report.morse_index_plus + report.morse_index_minus
    assert report.morse_index_total == 4


def test_theorem_epsilon_override_and_robustness():
    scenario = sphere_height_scenario(7.0)
    tau1 = TWO_PI / 7.0
    values = []
    for frac in (0.25, 0.5, 0.75):
        report = verify_theorem(scenario, steps=1024, epsilon=frac * tau1)
        values.append((report.verdict, report.theorem_rhs))
    assert len(set(values)) == 1
    assert values[0] == (True, 2)
    # Fast rotations on coarse grids: the lift cuts every step, and eps
    # falls inside a cut step, where its phase is one principal step from
    # the sub-step at or before it.
    for lam, steps in ((40.0, 16), (25.0, 8)):
        for frac in (0.3, 0.9):
            report = verify_theorem(sphere_height_scenario(lam), steps,
                                    epsilon=frac * TWO_PI / lam)
            assert report.verdict and report.cz_at_epsilon.half_units == -2, (lam, frac)


def test_theorem_computes_each_stage_once(monkeypatch):
    # One validation, one nondegeneracy check per side, one scan of [0, 1]
    # on each side, and one graph-phase lift per path: CZ(eps) and the
    # index on (eps, 1] are read off the maximizer's lift, which evaluates
    # Psi(eps) once (counted over the times of every `evaluate` call).
    import hoferlab.crossings
    import hoferlab.models
    import hoferlab.morse

    calls = []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            if name == "evaluate":
                calls.extend(("evaluate", t) for t in np.ravel(args[1]).tolist())
            else:
                calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    for module, name in ((hoferlab.models, "validate_ustilovsky"),
                         (hoferlab.morse, "check_nondegenerate"),
                         (hoferlab.crossings, "_scan_closed"),
                         (hoferlab.morse, "_scan_closed"),
                         (hoferlab.crossings, "phase_window"),
                         (hoferlab.morse, "phase_window"),
                         (hoferlab.crossings, "evaluate")):
        monkeypatch.setattr(module, name, counted(module, name))
    report = verify_theorem(sphere_height_scenario(13.0), steps=512)
    assert calls.count("validate_ustilovsky") == 1
    assert calls.count("check_nondegenerate") == 2
    assert calls.count("_scan_closed") == 2
    assert calls.count("phase_window") == 2
    assert calls.count(("evaluate", report.epsilon)) == 1


def test_theorem_decomposes_each_matrix_once(monkeypatch):
    # One kernel rule for the scan and the index: sigma(Psi - I) and
    # ||Psi||_2 of a stack come from one SVD call (`crossings._kernels`,
    # and `SymplecticPath` for Psi(1), whose norm `check_nondegenerate`
    # reads), and the window end Psi(1) is decomposed once per scan.  An
    # ord-2 norm is a further SVD, so both are counted; none is left.
    scenario = sphere_height_scenario(7.0)
    calls = []
    svd, norm = np.linalg.svd, np.linalg.norm

    def counted_svd(*args, **kwargs):
        calls.append(("svd", sys._getframe(1).f_globals["__name__"]))
        return svd(*args, **kwargs)

    def counted_norm(x, ord=None, *args, **kwargs):
        if ord == 2:
            calls.append(("norm", sys._getframe(1).f_globals["__name__"]))
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(np.linalg, "norm", counted_norm)
    verify_theorem(scenario, steps=512)
    assert len(calls) <= 11, calls
    assert not [call for call in calls if call[0] == "norm"], calls


def test_theorem_rejects_inadmissible_epsilon():
    with pytest.raises(ValueError):
        verify_theorem(sphere_height_scenario(7.0), steps=512, epsilon=0.95)


def test_theorem_random_negdef_batch(rng):
    for dim in (2, 4, 6):
        for _ in range(4):
            gen, _path = random_nondegenerate_negdef(dim, rng, steps=384)
            scenario = quadratic_scenario(
                gen, gen.negated(),
                max_value_curve=lambda t: 1.0,
                min_value_curve=lambda t: -1.0,
                name="random",
            )
            report = verify_theorem(scenario, steps=384)
            assert report.verdict, f"identity failed in dim {dim}"


def test_report_serialization_roundtrip():
    report = verify_theorem(sphere_height_scenario(13.0), steps=1024)
    doc = report.to_dict()
    assert doc["verdict"] == "pass"
    assert doc["morse_index_plus"] == 4
    assert len(doc["crossings_max"]) == 2
    assert doc["cz_at_1"]["policy"] == "rs_halves"
    assert set(doc["residuals"]) == {
        "symplectic_residual_max_path", "symplectic_residual_min_path",
        "sigma_min_at_1_max_path", "sigma_min_at_1_min_path", "normalization_residual"}
    import json

    json.dumps(doc)  # must be JSON-serializable as-is


def test_sweep_staircase_matches_floor_formula():
    for lam in (1.0, 3.0, 5.5, 7.0, 9.0, 11.0, 12.5):
        report = verify_theorem(sphere_height_scenario(lam), steps=1024)
        assert report.morse_index_plus == 2 * full_turns(lam)
        assert report.verdict
