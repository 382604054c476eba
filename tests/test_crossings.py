"""Crossing detection, crossing forms, index assembly, and the planar oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hoferlab.crossings as crossings_module
import hoferlab.flows as flows_module
from hoferlab import (
    NEGATIVE_DEFINITE,
    EndpointCrossingError,
    HessianPath,
    IrregularCrossingError,
    crossing_form,
    evaluate,
    find_crossings,
    integrate,
    morse_index,
    rs_index,
    sphere_height_scenario,
)
from hoferlab.errors import CrossingResolutionError
from hoferlab.flows import graph_angles, interpolant_bound, phase_window
from tests.oracles import (
    TWO_PI,
    brent_zero,
    cayley_index,
    concatenation_check,
    constant_planar,
    crossing_form_index,
    crossing_times,
    direct_sum,
    exact_gate,
    planar_winding_index,
    random_indefinite_fourier,
    random_negdef_fourier,
    random_nondegenerate_negdef,
    random_symplectic,
    sequential_roots,
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


@pytest.mark.parametrize("spacing", [1.05, 1.5, 1.95, 2.0, 2.5])
def test_close_block_crossings_are_all_found(spacing):
    # Crossings of two planar blocks `spacing` grid steps apart, so that
    # one node interval can hold two angles near 0: each is root-found by
    # its order, not by its nearness to 0.
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


def _recording_brent(monkeypatch):
    """Patch `_brent_zero` to log (xa, xb, the times it asks for) per root-find."""
    brent, log = crossings_module._brent_zero, []

    def recording(xa, xb, fa, fb):
        times, root, f = [], brent(xa, xb, fa, fb), None
        log.append((xa, xb, times))
        try:
            while True:
                times.append(root.send(f))
                f = yield times[-1]
        except StopIteration as stop:
            return stop.value

    monkeypatch.setattr(crossings_module, "_brent_zero", recording)
    return log


def test_scan_refines_only_unknown_minima(monkeypatch):
    # The identity at the path start is placed by the endpoint rule, so the
    # one crossing of lam = 7 is the only root-finding; a window that starts
    # after it root-finds nothing.
    path = integrate(constant_planar(7.0), 0.0, 1.0, 512)
    log = _recording_brent(monkeypatch)
    assert len(find_crossings(path, (0.0, 1.0))) == 1
    assert len(log) == 1 and 0.0 < log[0][0] < TWO_PI / 7.0 < log[0][1]
    # The angle is linear in t here, so Brent's zero takes two evaluations
    # (the bounded Brent refinement of sigma_min it replaced took 26).
    assert len(log[0][2]) == 2

    first_after = float(path.times[np.searchsorted(path.times, TWO_PI / 7.0)])
    log.clear()
    assert find_crossings(path, (first_after, 1.0)) == []
    assert log == []


def _spying_roots(monkeypatch):
    """Patch `_roots` to keep (path, intervals, crossings per interval) of
    each call."""
    roots, calls = crossings_module._roots, []

    def spying(path, intervals):
        calls.append((path, intervals, roots(path, intervals)))
        return calls[-1][2]

    monkeypatch.setattr(crossings_module, "_roots", spying)
    return calls


def _crossing_bits(crossings):
    return [(c.time, c.multiplicity, c.signature, c.regular, c.kernel_basis.tobytes())
            for c in crossings]


def test_lockstep_roots_match_sequential_reference(monkeypatch):
    # Every root-find of a scan runs in lockstep, on batched `evaluate` and
    # `graph_angles` calls.  On the same samples, one root after another on
    # scalar calls finds the same crossings, bit for bit, and each root-find
    # evaluates the same times; rotations add crossings of multiplicity 2,
    # whose second sign change is never root-found.
    rng = np.random.default_rng(8128)
    paths = [integrate(random_negdef_fourier(dim, rng), 0.0, 1.0, 512)
             for dim in (2, 4, 6) for _ in range(5)]
    paths += [integrate(sphere_height_scenario(lam).S_max, 0.0, 1.0, 1024)
              for lam in (9.0, 13.0, 20.0)]
    with monkeypatch.context() as patch:
        calls, log = _spying_roots(patch), _recording_brent(patch)
        for path in paths:
            find_crossings(path)
    reference_log = []
    for path, intervals, found in calls:
        reference = sequential_roots(path, intervals, reference_log)
        assert [_crossing_bits(f) for f in found] == [_crossing_bits(r) for r in reference]
    assert sorted(log) == sorted(reference_log)
    assert len(log) >= 30


def test_multiple_crossing_is_root_found_once(monkeypatch):
    # sphere_height at lambda = 9 crosses once on [0, 1], with multiplicity
    # 2.  Its two sign changes form one group, and the first root accounts
    # for both, so the scan makes 2 Brent evaluations, not 4.
    path = integrate(sphere_height_scenario(9.0).S_max, 0.0, 1.0, 2048)
    log = _recording_brent(monkeypatch)
    assert [c.multiplicity for c in find_crossings(path)] == [2]
    assert len(log) == 1 and len(log[0][2]) == 2


def test_definite_scan_makes_no_empty_evaluate_call(monkeypatch):
    # A definite generator never bisects, so the scan has no run middles to
    # classify and must not call `evaluate` on an empty list of times.
    sizes = []

    def counting(path, t):
        sizes.append(np.size(t))
        return evaluate(path, t)

    monkeypatch.setattr(crossings_module, "evaluate", counting)
    rng = np.random.default_rng(4711)
    for dim in (2, 4):
        gen = random_negdef_fourier(dim, rng)
        assert gen.definiteness == NEGATIVE_DEFINITE
        find_crossings(integrate(gen, 0.0, 1.0, 512))
    assert sizes and min(sizes) > 0


def _brentq_both_ways(func, lo, hi):
    """(x, evaluation times) from scipy's brentq and from the port."""
    from scipy.optimize import brentq

    seen = ([], [])

    def counted(k):
        return lambda t: seen[k].append(float(t)) or func(t)

    # disp=False: after 100 iterations brentq returns its last iterate, as the port does.
    x, res = brentq(counted(0), lo, hi, xtol=crossings_module._ROOT_XTOL, full_output=True,
                    disp=False)
    assert res.function_calls == len(seen[0])
    f = counted(1)
    port = brent_zero(f, lo, hi, f(lo), f(hi))
    return (float(x), seen[0]), (port, seen[1])


def _zero_function(shape, lo, width, root, slope):
    c = lo + root * width
    return {
        "linear": lambda t: slope * (t - c),
        "cubic": lambda t: slope * (t - c) ** 3,
        "atan": lambda t: math.atan(slope * (t - c) / width),
        "step": lambda t: -1.0 if t < c else 2.0,
        "odd_sin": lambda t: math.sin(3.0 * math.pi * (t - c) / width) + 0.3 * slope * (t - c),
        "falling": lambda t: math.exp(-slope * (t - lo) / width) - math.exp(-slope * root),
    }[shape]


@settings(max_examples=400, deadline=None)
@given(shape=st.sampled_from(["linear", "cubic", "atan", "step", "odd_sin", "falling"]),
       lo=st.floats(0.0, 1.0), width=st.floats(1e-11, 0.3),
       root=st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0.0, 1.0)),
       slope=st.floats(0.1, 100.0))
def test_brent_zero_port_matches_scipy_brentq(shape, lo, width, root, slope):
    # The zero at the bracket ends, inside it and on plateaus of a step.
    hi = lo + width
    func = _zero_function(shape, lo, width, root, slope)
    f_lo, f_hi = func(lo), func(hi)
    if f_lo != 0.0 and f_hi != 0.0 and math.copysign(1.0, f_lo) == math.copysign(1.0, f_hi):
        return
    scipy_result, port = _brentq_both_ways(func, lo, hi)
    assert port == scipy_result


def test_brent_zero_port_matches_scipy_on_seeded_brackets():
    rng = np.random.default_rng(23)
    compared = 0
    for shape in ("linear", "cubic", "atan", "step", "odd_sin", "falling"):
        for _ in range(400):
            lo, width = rng.uniform(0.0, 1.0), 10.0 ** rng.uniform(-10.0, -0.5)
            func = _zero_function(shape, lo, width, rng.uniform(0.0, 1.0), rng.uniform(0.5, 30.0))
            if math.copysign(1.0, func(lo)) == math.copysign(1.0, func(lo + width)):
                continue
            scipy_result, port = _brentq_both_ways(func, lo, lo + width)
            assert port == scipy_result
            compared += 1
    assert compared >= 2000


def test_brent_zero_port_matches_scipy_on_eigenangles():
    # The functions the scan root-finds: eigenangles of W on node intervals
    # around each crossing of a dim-4 Fourier path.
    path = integrate(random_negdef_fourier(4, np.random.default_rng(5)), 0.0, 1.0, 384)
    compared = 0
    for c in find_crossings(path):
        i = int(np.searchsorted(path.times, c.time)) - 1
        lo, hi = float(path.times[i]), float(path.times[i + 1])
        for rank in range(4):
            def angle(t, rank=rank):
                psi = crossings_module.evaluate(path, t)
                return float(np.sort(graph_angles(psi - np.eye(4)))[rank])
            if math.copysign(1.0, angle(lo)) != math.copysign(1.0, angle(hi)):
                scipy_result, port = _brentq_both_ways(angle, lo, hi)
                assert port == scipy_result
                compared += 1
    assert compared >= 2


@pytest.mark.parametrize("dim", [2, 4])
def test_multiple_crossing_on_a_node_is_found_once(dim):
    # At node 426 of 512 the equal angles of lam I straddle 0 by rounding,
    # so one of them is root-found on each side of the node.
    lam = TWO_PI * 512 / 426
    found = find_crossings(integrate(HessianPath.constant(-lam * np.eye(dim)), 0.0, 1.0, 512))
    assert [c.multiplicity for c in found] == [dim]
    assert abs(found[0].time - TWO_PI / lam) <= 1e-10


@pytest.mark.parametrize("lam", [7.0, TWO_PI * 512 / 460], ids=["lam7", "at_node"])
def test_indefinite_pair_with_no_count_change_is_found(lam):
    # Two angles pass 0 upward and two downward at 2 pi / lam: the spectral
    # count does not change, and bisection on sigma_min finds the crossing.
    # At node 460 of 512 the pieces of both node intervals join into one run.
    gen = direct_sum(constant_planar(lam), constant_planar(-lam))
    found = find_crossings(integrate(gen, 0.0, 1.0, 512))
    assert len(found) == 1
    assert abs(found[0].time - TWO_PI / lam) <= 1e-10
    assert found[0].multiplicity == 4 and found[0].signature == (2, 2)


def test_indefinite_opposite_blocks_keep_their_signatures():
    gen = direct_sum(constant_planar(7.0), constant_planar(-9.0))
    found = find_crossings(integrate(gen, 0.0, 1.0, 512))
    assert [(c.multiplicity, c.signature) for c in found] == [(2, (2, 0)), (2, (0, 2))]
    for c, tau in zip(found, (TWO_PI / 9.0, TWO_PI / 7.0)):
        assert abs(c.time - tau) <= 1e-10


def _definite_generators(rng):
    """(generator, steps): negative definite constant, Fourier and sampled
    generators in dims 2, 4 and 6, a positive definite negation, and step
    counts from 64 to 512."""
    for dim, steps in ((2, (512, 64, 128, 64)), (4, (256, 64, 128, 64)), (6, (128, 64, 64, 64))):
        speeds = np.repeat(rng.uniform(3.0, 14.0, size=dim // 2), 2)
        fourier = random_negdef_fourier(dim, rng)
        warp = 1.0 + rng.uniform(0.1, 0.5) * np.cos(TWO_PI * np.linspace(0.0, 1.0, 33))
        sampled = HessianPath.sampled(warp[:, None, None] * -np.diag(speeds))
        yield from zip((HessianPath.constant(-np.diag(speeds)), fourier, fourier.negated(),
                        sampled), steps)


def _sign_changes(psis):
    """(upward, downward) eigenangle passages through 0 along a stack of
    Psi, ranks matched across each step by the whole turns of the phase."""
    d = psis.shape[-1]
    theta = np.sort(graph_angles(psis - np.eye(d)), axis=1)
    up = down = 0
    for th0, th1 in zip(theta, theta[1:]):
        moved = th1.sum() - th0.sum()
        shift = round((math.remainder(moved, TWO_PI) - moved) / TWO_PI)
        for i in range(max(0, -shift), min(d, d - shift)):
            up += th0[i] <= 0.0 < th1[i + shift]
            down += th1[i + shift] <= 0.0 < th0[i]
    return up, down


def test_certified_intervals_hold_no_crossing():
    # The gate against dense sampling: sigma_min stays above the kernel
    # threshold and no eigenangle changes sign inside a certified interval;
    # each crossing's angle passages match its signature (upward ones q).
    rng = np.random.default_rng(31415)
    evaluate = crossings_module.evaluate
    certified_total = 0
    for gen, steps in _definite_generators(rng):
        assert gen.definiteness != "indefinite"
        path = integrate(gen, 0.0, 1.0, steps)
        ts, (sigma, upper) = path.times, path.sigma_min_nodes(np.arange(len(path.times)))
        norms = 1.0 + upper[:-1]
        certified = np.flatnonzero(crossings_module._certified(
            sigma[:-1], sigma[1:], np.diff(ts), norms, interpolant_bound(path),
            crossings_module.KERNEL_RATIO))
        certified_total += len(certified)
        for i in certified:
            psis = np.stack([evaluate(path, t) for t in np.linspace(ts[i], ts[i + 1], 18)])
            smin = np.linalg.svd(psis[1:-1] - np.eye(path.dim), compute_uv=False)[:, -1]
            norm = np.linalg.norm(psis[1:-1], 2, axis=(1, 2))
            assert (smin > crossings_module.KERNEL_RATIO * norm).all()
            assert _sign_changes(psis) == (0, 0)
        for c in find_crossings(path):
            delta = 0.25 * path.grid_spacing
            psis = np.stack([evaluate(path, c.time - delta),
                             evaluate(path, min(c.time + delta, path.t_end))])
            assert _sign_changes(psis) == (c.signature[1], c.signature[0])
    assert certified_total > 1000


@pytest.mark.parametrize("gram_slack", [None, 1e12])
def test_gate_on_node_bounds_opens_the_exact_intervals(monkeypatch, gram_slack):
    # On these paths the gate on the node bounds opens exactly the intervals
    # of the gate on exact node sigma (in general its spans open a subset,
    # see test_span_gate_is_sound).  It hands the open intervals the bounds
    # themselves: sigma at most, and norms at least, the exact values.
    # Bounds loosened until they open many more intervals (1e12) open a
    # superset, and the scan still finds what the scan on the exact gate
    # finds: the extra intervals hold no sign change.
    if gram_slack is not None:
        monkeypatch.setattr(flows_module, "_GRAM_SLACK", gram_slack)
    rng = np.random.default_rng(31415)
    opened = extra = 0
    for gen, steps in _definite_generators(rng):
        path = integrate(gen, 0.0, 1.0, steps)
        for a, b in ((0.0, 1.0), (0.3 + 0.1 / steps, 0.8)):
            ts, base, stride, ends, _lift, _subs = phase_window(path, a, b)
            end_sigma = crossings_module._kernels(ends)[0][:, -1]
            bound = interpolant_bound(path)
            open_, sigma, norms = crossings_module._open_intervals(
                path, ts, base, stride, end_sigma, bound)
            ref, ref_sigma, ref_norms = exact_gate(path, ts, base, stride, end_sigma, bound)
            if gram_slack is None:
                assert np.array_equal(open_, ref)
            assert np.isin(ref, open_).all()
            assert (sigma[open_] <= ref_sigma[open_]).all()
            assert (sigma[open_ + 1] <= ref_sigma[open_ + 1]).all()
            assert (norms[open_] >= ref_norms[open_]).all()
            opened += len(ref)
            extra += len(open_) - len(ref)
        found = find_crossings(path)
        with monkeypatch.context() as patch:
            patch.setattr(crossings_module, "_open_intervals", exact_gate)
            reference = find_crossings(path)
        assert [(c.time, c.multiplicity, c.signature) for c in found] == [
            (c.time, c.multiplicity, c.signature) for c in reference]
        assert all(np.array_equal(c.kernel_basis, r.kernel_basis)
                   for c, r in zip(found, reference))
    assert opened > 10
    if gram_slack is not None:
        assert extra > 10


def _cleared_spans(path, ts, base, stride, end_sigma, bound):
    """The spans (lo, hi) of two or more sample intervals that the walk of
    `_open_intervals` clears, from the node bounds at every node."""
    last = len(ts) - 1
    lower, upper = path.sigma_min_nodes(base + np.arange(last))
    sigma = np.concatenate(([end_sigma[0]], lower[1:], [end_sigma[1]]))
    spans = [(lo, min(lo + stride, last)) for lo in range(0, last, stride)]
    cleared = []
    while spans:
        lo, hi = spans.pop()
        if hi - lo == 1:
            continue
        if crossings_module._certified(sigma[lo], sigma[hi], ts[hi] - ts[lo], 1.0 + upper[lo],
                                       bound, crossings_module.KERNEL_RATIO, hi - lo):
            cleared.append((lo, hi))
        else:
            spans += [(lo, (lo + hi) // 2), ((lo + hi) // 2, hi)]
    return cleared


def test_span_gate_is_sound(monkeypatch):
    # Spans the coarse-to-fine gate clears, sampled densely (three points a
    # step): sigma_min stays above the kernel threshold, ||Psi|| within the
    # span's norm bound, and no eigenangle changes sign.  The gate opens
    # only intervals that the single-interval gate on exact sigma opens,
    # among them every interval with a crossing, and the scan finds what
    # the scan on that gate finds, bit for bit.
    rng = np.random.default_rng(2718)
    evaluate = crossings_module.evaluate
    paths = [integrate(gen, 0.0, 1.0, steps) for gen, steps in _definite_generators(rng)]
    paths += [integrate(random_indefinite_fourier(dim, rng), 0.0, 1.0, 256) for dim in (2, 4, 6)]
    spans = 0
    for path in paths:
        ts, base, stride, ends, _lift, _subs = phase_window(path, 0.0, 1.0)
        end_sigma = crossings_module._kernels(ends)[0][:, -1]
        bound = interpolant_bound(path)
        _slope, growth, pade = bound
        for lo, hi in _cleared_spans(path, ts, base, stride, end_sigma, bound):
            spans += 1
            norm = 1.0 + path.sigma_min_nodes(np.array([base + lo]))[1][0]
            reach = (growth + pade) * crossings_module._span_norm(norm, bound, hi - lo)
            psis = np.stack([evaluate(path, t)
                             for t in np.linspace(ts[lo], ts[hi], 3 * (hi - lo) + 1)])
            smin = np.linalg.svd(psis - np.eye(path.dim), compute_uv=False)[:, -1]
            scale = np.linalg.norm(psis, 2, axis=(1, 2))
            assert (smin > crossings_module.KERNEL_RATIO * scale).all()
            assert (scale <= reach).all()
            assert _sign_changes(psis) == (0, 0)
        open_ = crossings_module._open_intervals(path, ts, base, stride, end_sigma, bound)[0]
        assert np.isin(open_, exact_gate(path, ts, base, stride, end_sigma, bound)[0]).all()
        found = find_crossings(path)
        with monkeypatch.context() as patch:
            patch.setattr(crossings_module, "_open_intervals", exact_gate)
            reference = find_crossings(path)
        assert [(c.time, c.multiplicity, c.signature, c.regular) for c in found] == [
            (c.time, c.multiplicity, c.signature, c.regular) for c in reference]
        assert all(np.array_equal(c.kernel_basis, r.kernel_basis)
                   for c, r in zip(found, reference))
        held = np.searchsorted(ts, [c.time for c in found], "right") - 1
        assert np.isin(np.minimum(held, len(ts) - 2), open_).all()
    assert spans > 100


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10_000), dim=st.sampled_from([4, 6]), negate=st.booleans())
def test_rs_index_matches_cayley_index(seed, dim, negate):
    # The spectral flow of W against the inertia of the Cayley form, which
    # reads no eigenangle, on windows clear of eigenvalue -1.
    rng = np.random.default_rng(seed)
    gen, path = random_nondegenerate_negdef(dim, rng, steps=384)
    if negate:
        path = integrate(gen.negated(), 0.0, 1.0, 384)
    eye = np.eye(dim)
    clear = np.array([np.linalg.svd(m + eye, compute_uv=False)[-1] >= 0.1 * np.linalg.norm(m, 2)
                      for m in path.matrices])
    # Runs of clear nodes: window ends are drawn inside one run.
    edges = np.flatnonzero(np.diff(np.concatenate(([0], clear.astype(int), [0]))))
    compared = 0
    for start, stop in zip(edges[::2], edges[1::2]):
        if stop - start < 3:
            continue
        lo, hi = path.times[start], path.times[stop - 1]
        u = np.sort(rng.uniform(lo, hi, size=2))
        for window in ((float(lo), float(u[1])), (float(u[0]), float(u[1]))):
            for policy in ("open_open", "rs_halves"):
                try:
                    expected = cayley_index(path, window, policy)
                except (EndpointCrossingError, ValueError):
                    continue
                assert rs_index(path, window, policy) == expected, (window, policy)
                compared += 1
    assert compared >= 2


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
    # At lam = 40 and 16 steps the lift cuts every step into four (stride 1,
    # three sub-steps). Window ends inside those steps are read from a lift
    # of their own window and, as `verify_theorem` reads them, from the
    # [0, 1] lift, where each end is one principal step from the sub-step
    # at or before it.
    path = integrate(constant_planar(40.0), 0.0, 1.0, 16)
    whole = phase_window(path, 0.0, 1.0)
    assert whole[2] == 1 and all(len(sub[0]) == 3 for sub in whole[5].values())
    assert len(whole[5]) == 16
    taus = np.array(crossing_times(40.0))
    rng = np.random.default_rng(4040)
    for a, b in np.sort(rng.uniform(0.0, 1.0, size=(60, 2)), axis=1):
        expected = -4 * int(((taus > a) & (taus <= b)).sum())
        for policy in ("open_open", "rs_halves"):
            assert rs_index(path, (a, b), policy).half_units == expected, (a, b, policy)
            assert (crossings_module._index(path, whole, [a, b], [policy])[0].half_units
                    == expected), (a, b, policy)


def test_fast_rotation_crossings_are_all_found():
    # Crossings 3.2 grid steps apart, with the phase moving 3.9 rad per step.
    path = integrate(constant_planar(1000.0), 0.0, 1.0, 512)
    expected = crossing_times(1000.0)
    found = find_crossings(path)
    assert len(found) == len(expected)
    assert max(abs(c.time - t) for c, t in zip(found, expected)) < 1e-4
    assert rs_index(path).half_units == -4 * len(expected)


@pytest.mark.parametrize("slow, fast, steps", [(10.0, 35.0, 24), (8.0, 52.0, 32)])
def test_fast_distinct_rotations_are_followed_through_phase_substeps(slow, fast, steps):
    # The angle sum moves 3.75 rad per step, past the principal range, so the
    # phase bound cuts every step into sub-steps; the two blocks' angles
    # differ, so each rank has to be followed through the sub-steps.
    gen = direct_sum(constant_planar(slow), constant_planar(fast))
    found = find_crossings(integrate(gen, 0.0, 1.0, steps))
    expected = sorted(crossing_times(slow) + crossing_times(fast))
    assert [c.multiplicity for c in found] == [2] * len(expected)
    assert max(abs(c.time - t) for c, t in zip(found, expected)) < 1e-4


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


# -- the kernel rule ------------------------------------------------------------


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_kernels_match_separate_decompositions(dim, rng, monkeypatch):
    # sigma(Psi - I) and ||Psi||_2 from one SVD call equal the separate
    # calls bit for bit, and the mask is sigma < KERNEL_RATIO ||Psi||_2.
    outputs = []
    svd = np.linalg.svd

    def recorded_svd(*args, **kwargs):
        outputs.append(svd(*args, **kwargs))
        return outputs[-1]

    monkeypatch.setattr(np.linalg, "svd", recorded_svd)
    for n in (1, 2, 7):
        psis = np.stack([random_symplectic(dim, rng) for _ in range(n)])
        outputs.clear()
        sigma, mask = crossings_module._kernels(psis)
        assert len(outputs) == 1
        norm = np.linalg.norm(psis, 2, axis=(1, 2))
        assert np.array_equal(sigma, svd(psis - np.eye(dim), compute_uv=False))
        assert np.array_equal(outputs[0][n:, 0], norm)
        assert np.array_equal(mask, sigma < crossings_module.KERNEL_RATIO * norm[:, None])


@pytest.mark.parametrize("stretch", [0.0, 1.5])
def test_kernel_mask_flips_at_the_threshold(stretch):
    # A rotation by a tiny angle theta, alone or next to a hyperbolic block:
    # sigma(Psi - I) is 2 sin(theta / 2) twice, and ||Psi||_2 = e^stretch.
    # Just below KERNEL_RATIO ||Psi||_2 both are kernel, just above neither.
    threshold = crossings_module.KERNEL_RATIO * math.exp(stretch)
    kernels = []
    for factor in (0.999, 1.001):
        theta = 2.0 * math.asin(0.5 * factor * threshold)
        psi = np.diag([1.0, 1.0, math.exp(stretch), math.exp(-stretch)][:4 if stretch else 2])
        psi[:2, :2] = [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        sigma, mask = crossings_module._kernels(psi[None])
        assert abs(sigma[0, -1] / threshold - factor) < 1e-9
        kernels.append(int(mask.sum()))
    assert kernels == [2, 0]


@pytest.mark.parametrize("speeds", [(7.0,), (7.0, 7.0), (7.0, 5.0)])
def test_crossings_at_reads_the_kernel_of_the_full_svd(speeds):
    # At a multiple crossing the kernel basis is the right singular vectors
    # of the full SVD whose singular values fall under the rule, and the
    # signature is the crossing form's on them, as before the mask was
    # read from `_kernels`.
    gen = constant_planar(speeds[0])
    for speed in speeds[1:]:
        gen = direct_sum(gen, constant_planar(speed))
    path = integrate(gen, 0.0, 1.0, 2048)
    (found,) = find_crossings(path, (0.0, 1.0))
    psi = evaluate(path, found.time)
    _u, s, vh = np.linalg.svd(psi - np.eye(path.dim))
    basis = vh[s < crossings_module.KERNEL_RATIO * np.linalg.norm(psi, 2)].T
    (c,) = crossings_module._crossings_at(path, [found.time], psi[None],
                                          crossings_module._kernels(psi[None])[1])
    assert c.multiplicity == basis.shape[1] == 2 * speeds.count(7.0)
    assert np.array_equal(c.kernel_basis, basis) and np.array_equal(found.kernel_basis, basis)
    assert c.signature == found.signature == crossing_form(gen(found.time), basis)
