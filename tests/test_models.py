"""Scenario builders, Hofer lengths, normalization, and validation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from hoferlab import (
    HessianPath,
    ScenarioValidationError,
    find_crossings,
    hofer_lengths,
    integrate,
    quadratic_scenario,
    sphere_height_scenario,
    sphere_profile_scenario,
    validate_ustilovsky,
    verify_theorem,
)
from hoferlab.models import _gauss_legendre
from tests.oracles import TWO_PI, aliased_fourier, aliased_spline


# -- sphere height ---------------------------------------------------------------


def test_sphere_height_indices():
    report = verify_theorem(sphere_height_scenario(7.0), steps=1024)
    assert (report.morse_index_plus, report.morse_index_minus) == (2, 2)
    assert report.morse_index_total == 4


def test_sphere_height_stable_short_rotation():
    report = verify_theorem(sphere_height_scenario(5.0), steps=1024)
    assert report.morse_index_total == 0


def test_sphere_height_rejects_zero():
    with pytest.raises(ValueError):
        sphere_height_scenario(0.0)


def test_sphere_height_metadata():
    scenario = sphere_height_scenario(-3.3)
    assert scenario.name == "sphere_height(lam=-3.3)"
    assert scenario.metadata == {"model": "sphere_height", "lambda": -3.3, "pole_speed_max": 3.3,
                                 "pole_speed_min": 3.3, "max_at": "south_pole"}
    assert scenario.max_value_curve(0.4) == 3.3 and scenario.min_value_curve(0.4) == -3.3


def test_sphere_height_negative_lambda():
    scenario = sphere_height_scenario(-7.0)
    assert scenario.metadata["max_at"] == "south_pole"
    report = verify_theorem(scenario, steps=1024)
    assert report.morse_index_plus == 2


def test_sphere_height_certificate():
    scenario = sphere_height_scenario(7.0)
    assert scenario.normalization_certificate.residual <= 1e-8


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_sphere_height_rejects_non_finite(lam):
    with pytest.raises(ValueError, match="lam must be finite"):
        sphere_height_scenario(lam)


# -- sphere profile ----------------------------------------------------------------


def test_profile_rejects_quadrature_points_below_one():
    with pytest.raises(ValueError, match="quadrature_points must be at least 1, got 0"):
        sphere_profile_scenario(lambda z: 7.0 * z, quadrature_points=0)


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_gauss_legendre_rule_is_cached_read_only_leggauss(n):
    nodes, weights = _gauss_legendre(n)
    expected = np.polynomial.legendre.leggauss(n)
    assert np.array_equal(nodes, expected[0]) and np.array_equal(weights, expected[1])
    assert not nodes.flags.writeable and not weights.flags.writeable
    assert _gauss_legendre(n)[0] is nodes


def test_profile_linear_matches_height():
    prof = sphere_profile_scenario(lambda z: 7.0 * z, lambda z: 7.0)
    height = sphere_height_scenario(7.0)
    r1 = verify_theorem(prof, steps=1024)
    r2 = verify_theorem(height, steps=1024)
    assert (r1.morse_index_plus, r1.morse_index_minus) == \
        (r2.morse_index_plus, r2.morse_index_minus)
    assert prof.metadata["normalization_shift"] == pytest.approx(0.0, abs=1e-12)


def test_profile_constant_shift_is_normalized_away():
    prof = sphere_profile_scenario(lambda z: 7.0 * z + 3.0, lambda z: 7.0)
    assert prof.metadata["normalization_shift"] == pytest.approx(-3.0, abs=1e-10)
    lengths = hofer_lengths(prof)
    assert lengths["L_plus"] == pytest.approx(7.0, abs=1e-10)
    assert lengths["L_minus"] == pytest.approx(7.0, abs=1e-10)


def test_profile_cubic_pole_speeds():
    prof = sphere_profile_scenario(lambda z: 7.0 * z + z**3, lambda z: 7.0 + 3.0 * z * z)
    assert prof.metadata["pole_speed_max"] == pytest.approx(10.0, abs=1e-12)
    assert prof.metadata["pole_speed_min"] == pytest.approx(10.0, abs=1e-12)
    # Speed 10 completes exactly one full turn before t = 1 (2 pi / 10 < 1
    # but 4 pi / 10 > 1), so the maximizer side contributes index 2.
    report = verify_theorem(prof, steps=1024)
    assert report.morse_index_plus == 2
    assert report.verdict


def test_profile_decreasing():
    prof = sphere_profile_scenario(lambda z: -7.0 * z, lambda z: -7.0)
    assert prof.metadata["max_at"] == "south_pole"
    assert verify_theorem(prof, steps=1024).morse_index_plus == 2


def test_profile_rejects_vanishing_derivative():
    with pytest.raises(ValueError):
        sphere_profile_scenario(lambda z: z**2, lambda z: 2.0 * z)
    with pytest.raises(ValueError):
        sphere_profile_scenario(lambda z: z**3, lambda z: 3.0 * z * z)


def test_profile_finite_difference_fallback():
    prof = sphere_profile_scenario(lambda z: 7.0 * z)
    assert prof.metadata["pole_speed_max"] == pytest.approx(7.0, rel=1e-6)


def test_profile_archimedes_normalization():
    # Uniform pushforward in z: c = -(1/2) integral of f, here analytically
    # -1 for f = 7z + z^3 + 1; the 2D sphere quadrature must agree.
    prof = sphere_profile_scenario(lambda z: 7.0 * z + z**3 + 1.0,
                                   lambda z: 7.0 + 3.0 * z * z)
    assert prof.metadata["normalization_shift"] == pytest.approx(-1.0, abs=1e-10)
    assert prof.normalization_certificate.residual <= 1e-8


# -- quadratic scenarios --------------------------------------------------------------


def test_quadratic_matches_sphere_germs():
    scenario = quadratic_scenario(
        HessianPath.constant(-7.0 * np.eye(2)),
        HessianPath.constant(+7.0 * np.eye(2)),
        max_value_curve=lambda t: 7.0,
        min_value_curve=lambda t: -7.0,
    )
    r1 = verify_theorem(scenario, steps=1024)
    r2 = verify_theorem(sphere_height_scenario(7.0), steps=1024)
    assert r1.morse_index_total == r2.morse_index_total
    assert r1.theorem_rhs == r2.theorem_rhs


def test_quadratic_time_dependent_crossing_time():
    # Speed 6 + 2t accumulates angle t^2 + 6t; the crossing solves
    # tau^2 + 6 tau = 2 pi, i.e. tau = -3 + sqrt(9 + 2 pi).
    grid = np.linspace(0.0, 1.0, 257)
    vals = np.stack([-(6.0 + 2.0 * t) * np.eye(2) for t in grid])
    gen = HessianPath.sampled(vals)
    path = integrate(gen, 0.0, 1.0, 2048)
    found = find_crossings(path, (0.0, 1.0))
    tau = -3.0 + math.sqrt(9.0 + TWO_PI)
    assert len(found) == 1
    assert found[0].time == pytest.approx(tau, abs=1e-8)


def test_quadratic_time_dependent_full_verify():
    grid = np.linspace(0.0, 1.0, 257)
    gen = HessianPath.sampled(np.stack([-(6.0 + 2.0 * t) * np.eye(2) for t in grid]))
    scenario = quadratic_scenario(
        gen, gen.negated(),
        max_value_curve=lambda t: 6.0 + 2.0 * t,
        min_value_curve=lambda t: -(6.0 + 2.0 * t),
        name="ramp",
    )
    report = verify_theorem(scenario, steps=1024)
    assert report.verdict
    assert report.morse_index_plus == 2 and report.theorem_rhs == 2


def test_quadratic_rejects_indefinite():
    with pytest.raises(ValueError):
        quadratic_scenario(
            HessianPath.constant(np.diag([-1.0, 1.0])),
            HessianPath.constant(np.eye(2)),
            max_value_curve=lambda t: 1.0,
            min_value_curve=lambda t: -1.0,
        )


def test_quadratic_rejects_curve_collision():
    with pytest.raises(ValueError):
        quadratic_scenario(
            HessianPath.constant(-np.eye(2)),
            HessianPath.constant(np.eye(2)),
            max_value_curve=lambda t: 0.3 - t,
            min_value_curve=lambda t: t - 0.7,
        )


# -- hofer lengths ------------------------------------------------------------------


def test_hofer_lengths_sphere():
    lengths = hofer_lengths(sphere_height_scenario(7.0))
    assert lengths["L_plus"] == pytest.approx(7.0, abs=1e-10)
    assert lengths["L_minus"] == pytest.approx(7.0, abs=1e-10)
    assert lengths["L"] == pytest.approx(14.0, abs=1e-10)


def test_hofer_length_split_exact():
    scenario = quadratic_scenario(
        HessianPath.constant(-3.0 * np.eye(2)),
        HessianPath.constant(+2.0 * np.eye(2)),
        max_value_curve=lambda t: 2.0 + t * (1.0 - t),
        min_value_curve=lambda t: -1.0 - t,
    )
    lengths = hofer_lengths(scenario)
    assert lengths["L"] == lengths["L_plus"] + lengths["L_minus"]
    assert lengths["L_plus"] == pytest.approx(2.0 + 1.0 / 6.0, abs=1e-12)
    assert lengths["L_minus"] == pytest.approx(1.5, abs=1e-12)


# -- validation ---------------------------------------------------------------------


def test_validate_sphere_is_clean():
    assert validate_ustilovsky(sphere_height_scenario(7.0)) == []


def test_validate_reports_definiteness_violation():
    scenario = sphere_height_scenario(7.0)
    scenario.S_max = HessianPath.fourier(-0.5 * np.eye(2), [0.6 * np.eye(2)])
    violations = validate_ustilovsky(scenario)
    assert any("S_max not negative definite" in v for v in violations)


@pytest.mark.parametrize("make", [aliased_fourier, aliased_spline])
def test_validate_rejects_definiteness_lost_between_samples(make):
    scenario = sphere_height_scenario(7.0)
    scenario.S_max = make()
    assert validate_ustilovsky(scenario) == ["S_max not negative definite"]
    with pytest.raises(ValueError, match="S_max not negative definite"):
        quadratic_scenario(make(), HessianPath.constant(np.eye(2)),
                           max_value_curve=lambda t: 1.0, min_value_curve=lambda t: -1.0)


def test_validate_reports_curve_collision():
    scenario = sphere_height_scenario(7.0)
    scenario.max_value_curve = lambda t: -7.0
    violations = validate_ustilovsky(scenario)
    assert any("collide" in v for v in violations)


def test_verify_refuses_invalid_scenario():
    scenario = sphere_height_scenario(7.0)
    scenario.max_value_curve = lambda t: -7.0
    with pytest.raises(ScenarioValidationError):
        verify_theorem(scenario, steps=512)
