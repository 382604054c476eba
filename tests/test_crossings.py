"""Crossing detection, crossing forms, index assembly, and the planar oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hoferlab.crossings as crossings_module
from hoferlab import (
    EndpointCrossingError,
    HessianPath,
    IrregularCrossingError,
    concatenation_check,
    crossing_form,
    direct_sum,
    find_crossings,
    integrate,
    morse_index,
    rs_index,
)
from hoferlab.errors import CrossingResolutionError
from tests.oracles import (
    TWO_PI,
    constant_planar,
    crossing_form_index,
    crossing_times,
    planar_winding_index,
    random_negdef_fourier,
    random_nondegenerate_negdef,
    trigger_candidates_loop,
)


# -- find_crossings -----------------------------------------------------------


def test_single_crossing_lam7():
    path = integrate(constant_planar(7.0), 0.0, 1.0, 2048)
    found = find_crossings(path, (0.0, 1.0))
    assert len(found) == 1
    assert found[0].multiplicity == 2
    assert abs(found[0].time - TWO_PI / 7.0) <= 1e-10


def test_no_crossing_lam5():
    path = integrate(constant_planar(5.0), 0.0, 1.0, 2048)
    assert find_crossings(path, (0.0, 1.0)) == []


def test_two_crossings_lam13():
    path = integrate(constant_planar(13.0), 0.0, 1.0, 2048)
    found = find_crossings(path, (0.0, 1.0))
    expected = crossing_times(13.0)
    assert len(found) == len(expected) == 2
    for c, tau in zip(found, expected):
        assert c.multiplicity == 2
        assert abs(c.time - tau) <= 1e-10


def test_start_identity_excluded_from_half_open_window():
    path = integrate(constant_planar(5.0), 0.0, 1.0, 512)
    # Psi(0) = I is always an eigenvalue-1 point but lies outside (0, b].
    assert find_crossings(path, (0.0, 0.5)) == []


def test_kernel_vectors_are_kernel_vectors():
    path = integrate(constant_planar(13.0), 0.0, 1.0, 2048)
    for c in find_crossings(path, (0.0, 1.0)):
        psi = np.array([[math.cos(13 * c.time), math.sin(13 * c.time)],
                        [-math.sin(13 * c.time), math.cos(13 * c.time)]])
        res = np.abs((psi - np.eye(2)) @ c.kernel_basis).max()
        assert res <= 1e-7


def test_resolution_guard_raises():
    # Fabricated near-coincident minima exercise the guard directly.
    path = integrate(direct_sum(constant_planar(7.0), constant_planar(6.9)), 0.0, 1.0, 64)
    with pytest.raises(CrossingResolutionError):
        find_crossings(path)


@pytest.mark.parametrize("spacing", [1.05, 1.5, 1.95])
def test_close_block_crossings_are_all_found(spacing):
    # Crossings of two planar blocks `spacing` grid steps apart: the scan
    # closes its count against the graph phase and refines the interval
    # that the node trigger skipped.
    steps = 512
    lam2 = TWO_PI / (TWO_PI / 7.0 + spacing / steps)
    gen = direct_sum(constant_planar(7.0), constant_planar(lam2))
    path = integrate(gen, 0.0, 1.0, steps)
    found = find_crossings(path, (0.0, 1.0))
    expected = sorted(crossing_times(7.0) + crossing_times(lam2))
    assert len(found) == len(expected) == 2
    for c, tau in zip(found, expected):
        assert c.multiplicity == 2
        assert abs(c.time - tau) <= 1e-8


def test_scans_leave_no_state_on_the_path():
    # A path is a value: scanning it must not hang caches on the instance.
    path = integrate(constant_planar(13.0), 0.0, 1.0, 512)
    before = set(vars(path))
    find_crossings(path, (0.0, 1.0))
    rs_index(path, interval=(0.0, 1.0), policy="rs_halves")
    assert set(vars(path)) == before


def test_scan_refines_only_unknown_minima(monkeypatch):
    # The identity at the path start is placed by the endpoint rule, so the
    # one crossing of lam = 7 is the only refinement; a window starting at
    # an interior node still refines that node when the trigger fires.
    path = integrate(constant_planar(7.0), 0.0, 1.0, 512)
    locate, evaluate = crossings_module._locate, crossings_module.evaluate
    brackets, evaluations = [], []

    def counting_locate(p, lo, hi):
        brackets.append((float(lo), float(hi)))
        return locate(p, lo, hi)

    def counting_evaluate(p, t):
        evaluations.append(t)
        return evaluate(p, t)

    monkeypatch.setattr(crossings_module, "_locate", counting_locate)
    monkeypatch.setattr(crossings_module, "evaluate", counting_evaluate)
    assert len(find_crossings(path, (0.0, 1.0))) == 1
    assert len(brackets) == 1 and brackets[0][0] < TWO_PI / 7.0 < brackets[0][1]
    assert len(evaluations) == 26

    first_after = float(path.times[np.searchsorted(path.times, TWO_PI / 7.0)])
    brackets.clear()
    assert find_crossings(path, (first_after, 1.0)) == []
    assert [lo for lo, _hi in brackets] == [first_after]


_SIGMA_LEVELS = st.sampled_from([0.0, 1e-9, 1e-4, 1e-3, 1.001e-3, 0.01, 0.5, 1.0])


@settings(max_examples=300, deadline=None)
@given(st.lists(_SIGMA_LEVELS | st.floats(0.0, 4.0), min_size=2, max_size=24))
def test_vectorized_trigger_matches_node_loop(values):
    # Exact ties and plateaus come from the repeated levels; the gate and the
    # slope tests must pick the same nodes, in the same order, as the loop.
    fs = np.array(values)
    assert crossings_module._candidates(fs).tolist() == trigger_candidates_loop(fs)


_BRACKET_WIDTHS = st.one_of(
    st.sampled_from([4.0 * crossings_module.TIME_TOL, 1e-9, 1e-6, 1e-3, 0.3]),
    st.floats(4.0 * crossings_module.TIME_TOL, 0.3))
# Vertex position in bracket units: inside, at either bound, or outside.
_VERTEX = st.one_of(st.sampled_from([0.0, 1.0, -0.3, 1.3]), st.floats(-0.5, 1.5))


def _bracket_function(shape, lo, width, vertex, slope):
    c = lo + vertex * width
    return {
        "v": lambda t: abs(slope * (t - c)),
        "parabola": lambda t: slope * (t - c) ** 2 + 0.25,
        "constant": lambda t: 0.5,
        "abs_sin": lambda t: abs(math.sin(7.0 * math.pi * (t - c) / width)),
        "stepped_v": lambda t: round(slope * abs(t - c) / width) / 4.0,
        "several_minima": lambda t: (math.cos(12.0 * math.pi * (t - lo) / width)
                                     + 0.1 * slope * abs(t - c) / width),
    }[shape]


def _brent_both_ways(func, lo, hi):
    """(x, fun, evaluation times) from scipy's bounded Brent and from the port."""
    from scipy.optimize import minimize_scalar

    seen = ([], [])

    def counted(k):
        return lambda t: seen[k].append(float(t)) or func(t)

    res = minimize_scalar(counted(0), bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12})
    assert res.nfev == len(seen[0])
    x, fun = crossings_module._minimize_bounded(counted(1), lo, hi)
    return (float(res.x), float(res.fun), seen[0]), (x, fun, seen[1])


@settings(max_examples=400, deadline=None)
@given(shape=st.sampled_from(["v", "parabola", "constant", "abs_sin", "stepped_v",
                              "several_minima"]),
       lo=st.floats(0.0, 1.0), width=_BRACKET_WIDTHS, vertex=_VERTEX,
       slope=st.floats(0.1, 100.0))
def test_bounded_brent_port_matches_scipy(shape, lo, width, vertex, slope):
    hi = lo + width
    scipy_result, port = _brent_both_ways(
        _bracket_function(shape, lo, width, vertex, slope), lo, hi)
    assert port == scipy_result


def test_bounded_brent_port_matches_scipy_on_seeded_brackets():
    # Plateau ties, which steer the bracket updates, are rare per draw.
    rng = np.random.default_rng(17)
    for shape in ("v", "stepped_v", "several_minima"):
        for _ in range(1000):
            lo, width = rng.uniform(0.0, 1.0), 10.0 ** rng.uniform(-9.0, -0.5)
            vertex, slope = rng.uniform(-0.3, 1.3), rng.uniform(0.5, 30.0)
            func = _bracket_function(shape, lo, width, vertex, slope)
            scipy_result, port = _brent_both_ways(func, lo, lo + width)
            assert port == scipy_result


def test_brent_sign_is_numpy_sign_with_zero_as_plus_one():
    values = [0.0, -0.0, 5e-324, -5e-324, 2.5, -2.5, math.inf, -math.inf]
    for v in values:
        assert crossings_module._sign(v) == np.sign(v) + (v == 0)
    assert math.isnan(crossings_module._sign(math.nan))


@pytest.mark.parametrize("make, steps", [
    (lambda: constant_planar(7.0), 512),
    (lambda: constant_planar(13.0), 64),
    (lambda: random_negdef_fourier(4, np.random.default_rng(5)), 384),
], ids=["lam7", "lam13", "fourier_dim4"])
def test_bounded_brent_port_matches_scipy_on_sigma_min(make, steps):
    # The function `_locate` minimizes, on node brackets across the path.
    path = integrate(make(), 0.0, 1.0, steps)
    ts = path.times
    for i in range(1, steps, max(1, steps // 48)):
        scipy_result, port = _brent_both_ways(
            lambda t: crossings_module._sigma_min_at(path, t), ts[i - 1], ts[i + 1])
        assert port == scipy_result


def test_window_validation():
    path = integrate(constant_planar(7.0), 0.0, 1.0, 256)
    with pytest.raises(ValueError):
        find_crossings(path, (0.5, 0.2))


# -- crossing_form -------------------------------------------------------------


def test_form_negative_definite_at_maximum():
    assert crossing_form(-7.0 * np.eye(2), np.eye(2)) == (0, 2)


def test_form_positive_definite_at_minimum():
    assert crossing_form(7.0 * np.eye(2), np.eye(2)) == (2, 0)


def test_form_restricts_to_kernel_block():
    s = np.diag([-7.0, -7.0, 13.0, 13.0])
    basis = np.zeros((4, 2))
    basis[0, 0] = 1.0
    basis[1, 1] = 1.0
    assert crossing_form(s, basis) == (0, 2)


def test_form_requires_orthonormal_basis():
    with pytest.raises(ValueError):
        crossing_form(np.eye(2), 2.0 * np.eye(2))


# -- rs_index -------------------------------------------------------------------


def test_rs_index_lam7_window():
    path = integrate(constant_planar(7.0), 0.0, 1.0, 2048)
    iv = rs_index(path, interval=(math.pi / 7.0, 1.0))
    assert iv.half_units == -4 and iv.value == -2.0


def test_rs_index_lam13_window():
    path = integrate(constant_planar(13.0), 0.0, 1.0, 2048)
    assert rs_index(path, interval=(math.pi / 13.0, 1.0)).value == -4.0


def test_rs_halves_counts_identity_start():
    path = integrate(constant_planar(5.0), 0.0, 1.0, 2048)
    iv = rs_index(path, interval=(0.0, 1.0), policy="rs_halves")
    assert iv.half_units == -2 and iv.value == -1.0


def test_open_open_whole_path_skips_identity_start():
    path = integrate(constant_planar(13.0), 0.0, 1.0, 2048)
    assert rs_index(path).value == -4.0


def test_open_open_rejects_endpoint_crossing():
    path = integrate(constant_planar(7.0), 0.0, 1.0, 2048)
    tau = TWO_PI / 7.0
    with pytest.raises(EndpointCrossingError):
        rs_index(path, interval=(tau, 1.0))
    with pytest.raises(EndpointCrossingError):
        rs_index(path, interval=(0.1, tau))


def test_rs_index_raises_on_irregular_crossing():
    # Speed c (1 + sin(2 pi t)) accumulates angle 2 pi exactly at t = 3/4,
    # where the generator vanishes: the crossing form is singular there.
    amp = TWO_PI / 0.75 / (1.0 + 2.0 / (3.0 * math.pi))
    gen = HessianPath.fourier(-amp * np.eye(2), sin_terms=[-amp * np.eye(2)])
    path = integrate(gen, 0.0, 1.0, 2048)
    found = find_crossings(path, (0.0, 1.0))
    assert len(found) == 1
    # The zero is quadratically flat (the generator vanishes), so the time
    # is only identifiable to ~1e-5 here; regular crossings get 1e-10.
    assert abs(found[0].time - 0.75) < 1e-4
    assert not found[0].regular
    # The spectral flow is defined there: both eigenangles pass 0 upward.
    assert rs_index(path, interval=(0.25, 0.9)).half_units == -4
    with pytest.raises(IrregularCrossingError):
        morse_index(gen)


def test_rs_index_through_eigenvalue_minus_one():
    # Psi(pi/7) = -I: the graph unitary has eigenvalue -1 there, which is no
    # crossing and moves no count.
    path = integrate(constant_planar(7.0), 0.0, 1.0, 2048)
    for policy in ("open_open", "rs_halves"):
        assert rs_index(path, interval=(0.3, 0.6), policy=policy).half_units == 0


def test_rs_index_on_fast_rotation_and_coarse_grid():
    # 2 * 25 / 8 = 6.25 rad of graph phase per grid step, 0.033 short of a
    # whole turn: the lift has to sub-sample each step to see it.
    path = integrate(constant_planar(25.0), 0.0, 1.0, 8)
    assert rs_index(path).half_units == -12
    assert rs_index(path, policy="rs_halves").half_units == -14


def test_fast_rotation_crossings_are_all_found():
    # Crossings 3.2 grid steps apart, with the phase moving 3.9 rad per step.
    path = integrate(constant_planar(1000.0), 0.0, 1.0, 512)
    expected = crossing_times(1000.0)
    found = find_crossings(path)
    assert len(found) == len(expected)
    assert max(abs(c.time - t) for c, t in zip(found, expected)) < 1e-4
    assert rs_index(path).half_units == -4 * len(expected)


def test_phase_lift_rejects_unresolvable_steps():
    path = integrate(constant_planar(1.0e4), 0.0, 1.0, 8)
    with pytest.raises(CrossingResolutionError):
        rs_index(path)


def test_window_ending_just_past_a_crossing():
    # sigma_min(Psi(b) - I) is about 7e-8, inside the 1e-7 kernel rule: the
    # scan and the spectral flow both put the crossing at b.
    path = integrate(constant_planar(7.0), 0.0, 1.0, 2048)
    b = TWO_PI / 7.0 + 1e-8
    assert [c.time for c in find_crossings(path, (0.0, b))] == [b]
    assert (rs_index(path, interval=(0.0, b), policy="rs_halves").half_units
            == crossing_form_index(path, (0.0, b), "rs_halves").half_units == -4)
    for index in (rs_index, crossing_form_index):
        with pytest.raises(EndpointCrossingError):
            index(path, (0.1, b))


def test_rs_index_matches_crossing_form_assembly():
    # The spectral flow against the signature sums of the scanned crossings,
    # on definite generators of both signs and windows with and without the
    # path's start.
    rng = np.random.default_rng(8128)
    compared = 0
    for dim in (2, 4, 6):
        for _ in range(3):
            gen, path = random_nondegenerate_negdef(dim, rng, steps=384)
            neg = integrate(gen.negated(), 0.0, 1.0, 384)
            u = np.sort(rng.uniform(0.05, 0.95, size=3))
            windows = ((0.0, 1.0), (0.0, float(u[0])), (float(u[1]), 1.0),
                       (float(u[0]), float(u[2])))
            for p in (path, neg):
                for window in windows:
                    for policy in ("open_open", "rs_halves"):
                        try:
                            expected = crossing_form_index(p, window, policy)
                        except CrossingResolutionError:
                            continue
                        assert rs_index(p, window, policy) == expected, (dim, window, policy)
                        compared += 1
    assert compared >= 120


# -- concatenation ---------------------------------------------------------------


def test_concatenation_split_lam13():
    path = integrate(constant_planar(13.0), 0.0, 1.0, 2048)
    assert rs_index(path, interval=(0.0, 0.7)).value == -2.0
    assert rs_index(path, interval=(0.7, 1.0)).value == -2.0
    assert concatenation_check(path, 0.7)


def test_concatenation_empty_side():
    path = integrate(constant_planar(5.0), 0.0, 1.0, 512)
    assert concatenation_check(path, 0.9)


def test_concatenation_rejects_crossing_split():
    path = integrate(constant_planar(7.0), 0.0, 1.0, 2048)
    with pytest.raises(ValueError):
        concatenation_check(path, TWO_PI / 7.0)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_concatenation_random_paths(seed):
    gen_rng = np.random.default_rng(seed)
    gen, path = random_nondegenerate_negdef(4, gen_rng, steps=384)
    taus = [c.time for c in find_crossings(path, (0.0, 1.0))]
    for _ in range(20):
        m = float(gen_rng.uniform(0.05, 0.95))
        if all(abs(m - tau) > 5e-3 for tau in taus):
            break
    else:
        pytest.skip("no clear split point for this draw")
    assert concatenation_check(path, m)


# -- planar winding oracle ---------------------------------------------------------


def test_winding_agrees_lam7():
    path = integrate(constant_planar(7.0), 0.0, 1.0, 2048)
    eps = math.pi / 7.0
    assert planar_winding_index(path, (eps, 1.0)).value == -2.0
    assert planar_winding_index(path, (eps, 1.0)).half_units == \
        rs_index(path, interval=(eps, 1.0)).half_units


def test_winding_zero_lam5():
    path = integrate(constant_planar(5.0), 0.0, 1.0, 2048)
    assert planar_winding_index(path, (math.pi / 5.0, 1.0)).value == 0.0


def test_winding_zero_generator():
    path = integrate(HessianPath.constant(np.zeros((2, 2))), 0.0, 1.0, 256)
    assert planar_winding_index(path, (0.25, 1.0)).value == 0.0


def test_winding_positive_direction():
    gen = HessianPath.constant(+7.0 * np.eye(2))
    path = integrate(gen, 0.0, 1.0, 2048)
    assert planar_winding_index(path, (0.2, 1.0)).value == +2.0


def test_winding_requires_dim2(rng):
    path = integrate(random_negdef_fourier(4, rng), 0.0, 1.0, 256)
    with pytest.raises(ValueError):
        planar_winding_index(path)


def test_winding_matches_rs_on_random_planar(rng):
    for _ in range(10):
        _gen, path = random_nondegenerate_negdef(2, rng, steps=512)
        a = 0.01
        w = planar_winding_index(path, (a, 1.0))
        r = rs_index(path, interval=(a, 1.0))
        assert w.half_units == r.half_units


# -- structural invariants ----------------------------------------------------------


def test_block_additivity(rng):
    ga = constant_planar(7.0)
    gb = constant_planar(13.0)
    pa = integrate(ga, 0.0, 1.0, 1024)
    pb = integrate(gb, 0.0, 1.0, 1024)
    pj = integrate(direct_sum(ga, gb), 0.0, 1.0, 1024)
    window = (0.05, 1.0)
    total = rs_index(pj, interval=window).half_units
    assert total == rs_index(pa, interval=window).half_units + \
        rs_index(pb, interval=window).half_units


def test_multiplicity_matches_eigen_decomposition():
    path = integrate(constant_planar(13.0), 0.0, 1.0, 2048)
    for c in find_crossings(path, (0.0, 1.0)):
        from hoferlab import evaluate

        w = np.linalg.eigvals(evaluate(path, c.time))
        geo = int(np.sum(np.abs(w - 1.0) < 1e-6))
        assert geo == c.multiplicity


def test_definite_generator_law(rng):
    # Negative definite generators force every crossing signature to
    # (0, mult), so the index over a window is minus the multiplicity sum.
    for dim in (2, 4):
        for _ in range(3):
            _gen, path = random_nondegenerate_negdef(dim, rng, steps=512)
            crossings = find_crossings(path, (0.0, 1.0))
            for c in crossings:
                assert c.signature == (0, c.multiplicity)
            eps = 0.01 if not crossings else 0.5 * crossings[0].time
            iv = rs_index(path, interval=(eps, 1.0))
            assert iv.value == -sum(c.multiplicity for c in crossings)
