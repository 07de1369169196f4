import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import friedrichs as fr
from friedrichs import quadrature as qd
from friedrichs import spectral as sp
from friedrichs.waveguide import closed_form_delta

from _support import random_model


def _panels(rng, n_nodes, half):
    """Uneven nodes on [0, pi] and the band phase mid - half*cos(k)."""
    gaps = rng.uniform(0.2, 1.0, n_nodes - 1)
    k = np.concatenate([[0.0], np.cumsum(gaps)]) * (np.pi / gaps.sum())
    return k, 0.3 - half * np.cos(k)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 4),
    st.integers(20, 400),
    st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_rows_match_single_level_calls(seed, n_rows, n_nodes, uniform):
    rng = np.random.default_rng(seed)
    k, phase = _panels(rng, n_nodes, rng.uniform(0.1, 5.0))
    f = rng.normal(size=(n_rows, n_nodes)) + 1j * rng.normal(size=(n_rows, n_nodes))
    t_max = rng.uniform(1.0, 300.0)
    times = np.linspace(0.0, t_max, 300) if uniform else np.sort(rng.uniform(0, t_max, 300))
    both = qd.fourier_linear(k, f, times, phase=phase)
    assert both.shape == (n_rows, times.size)
    for row, values in zip(f, both):
        single = qd.fourier_linear(k, row, times, phase=phase)
        assert single.shape == times.shape
        assert np.max(np.abs(values - single)) <= 1e-13


@given(
    st.integers(0, 2**32 - 1),
    st.floats(10.0, 1e4),
    st.integers(200, 1000),
)
@settings(max_examples=6, deadline=None)
def test_phase_recurrence_matches_direct_evaluation(seed, t_band, n_nodes):
    # a uniform grid takes the recurred phases; the same times interleaved
    # with jittered ones form a non-uniform grid that computes them directly
    rng = np.random.default_rng(seed)
    half = rng.uniform(0.1, 5.0)
    k, phase = _panels(rng, n_nodes, half)
    f = np.exp(1j * rng.uniform(0, 2 * np.pi, (2, n_nodes))) * rng.uniform(0, 1, n_nodes)
    times = np.linspace(0.0, t_band / (2.0 * half), 2001)
    jitter = times[:-1] + rng.uniform(0.1, 0.9, times.size - 1) * (times[1] - times[0])
    mixed = np.empty(2 * times.size - 1)
    mixed[0::2], mixed[1::2] = times, jitter
    recurred = qd.fourier_linear(k, f, times, phase=phase)
    direct = qd.fourier_linear(k, f, mixed, phase=phase)[:, 0::2]
    assert np.max(np.abs(recurred - direct)) <= 1e-12


@given(st.integers(0, 2**32 - 1), st.integers(2, 300))
@settings(max_examples=20, deadline=None)
def test_exact_for_linear_integrand(seed, n_nodes):
    # f = a + b*x against the linear phase x is integrated exactly on any
    # nodes, through both the series (small t*h) and closed-form panels
    rng = np.random.default_rng(seed)
    length = rng.uniform(0.5, 4.0)
    gaps = rng.uniform(0.2, 1.0, n_nodes - 1)
    x = np.concatenate([[0.0], np.cumsum(gaps)]) * (length / gaps.sum())
    a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
    times = np.linspace(0.0, 2000.0 / length, 301)
    got = qd.fourier_linear(x, a + b * x, times)

    mpmath.mp.dps = 40
    ell = mpmath.mpf(length)
    for t, value in zip(times[::10], got[::10]):
        if t == 0.0:
            exact = a * ell + b * ell**2 / 2
        else:
            t = mpmath.mpf(t)
            ph = mpmath.exp(-1j * ell * t)
            exact = a * (1 - ph) / (1j * t) + b * (ph * (1 + 1j * ell * t) - 1) / t**2
        assert abs(complex(exact) - value) <= 1e-13 * (abs(a) + abs(b)) * length**2


# ---------------------------------------------------------------------------
# the graded Delta rule


def _near_edges(rng, lo, up, n):
    """n energies within 1e-6 of the band width of each edge (>= 1e-7)."""
    d = (up - lo) * 10.0 ** rng.uniform(-7.0, -6.0, (2, n))
    return np.concatenate([lo + d[0], up - d[1]])


def _delta_error(seed, with_zero):
    """max |delta_on_grid - principal_value| / max |Delta| on a random model.

    random_model draws edge exponents from {0.5, 1, 2}; the grid holds
    random targets and targets next to both edges, which set the grading.
    """
    rng = np.random.default_rng(seed)
    model = random_model(rng, with_zero=with_zero)
    lo, up = model.omega_low, model.omega_up
    e = np.sort(np.concatenate([rng.uniform(lo, up, 8), _near_edges(rng, lo, up, 2)]))
    got = qd.delta_on_grid(model.j, lo, up, e)
    ref = np.array([qd.principal_value(model.j, lo, up, x, epsrel=1e-13)[0] for x in e])
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=15, deadline=None)
def test_delta_matches_principal_value(seed, with_zero):
    assert _delta_error(seed, with_zero) <= 1e-10


@pytest.mark.parametrize("seed", [5, 59, 133])
def test_delta_middle_panels_see_mirror_pole(seed):
    # each of these has a target within 1e-6 of a half-integer edge; when
    # the first middle panel started closer to the edge than a third of its
    # width, the mirror pole of that target cost up to 1.7e-10 here
    assert _delta_error(seed, bool(seed % 2)) <= 1e-11


@pytest.mark.parametrize("site", [1, 2, 5])
def test_delta_matches_waveguide_closed_form(site):
    params = fr.WaveguideParams(3, 1.0, 0.75, 0.25, site)
    model = fr.build_waveguide_model(params)
    lo, up = model.omega_low, model.omega_up
    e = np.linspace(lo, up, 2001)
    e = e[(e - lo >= 1e-3 * (up - lo)) & (up - e >= 1e-3 * (up - lo))]
    ref = closed_form_delta(params)(e)
    got = qd.delta_on_grid(model.j, lo, up, e)
    assert np.max(np.abs(got - ref)) <= 5e-12 * np.max(np.abs(ref))


def test_delta_quarter_power_edge():
    # s = 1/4 puts a k**1.5 branch point on the lower edge; mpmath on the
    # subtracted integrand is the reference, targets include the first
    # interior Filon node (about 2e-9 of the band from the edge)
    lo, up = -1.3, 2.1

    def j(om):
        om = np.asarray(om, dtype=float)
        inside = (om > lo) & (om < up)
        out = np.zeros_like(om)
        w = om[inside]
        out[inside] = (w - lo) ** 0.25 * (up - w) * (1.0 + 0.3 * np.cos(w))
        return out

    mpmath.mp.dps = 30

    def j_mp(w):
        return (w - lo) ** mpmath.mpf(0.25) * (up - w) * (1 + mpmath.mpf(0.3) * mpmath.cos(w))

    e = 0.4 - 1.7 * np.cos(np.linspace(0.0, np.pi, 32769)[1:-1])
    probe = [0, 5, 500, 16000, e.size - 6, e.size - 1]
    got = qd.delta_on_grid(j, lo, up, e)
    ref = []
    for i in probe:
        x = mpmath.mpf(e[i])
        jx = j_mp(x)
        val = mpmath.quad(lambda w: 0 if w == x else (j_mp(w) - jx) / (x - w), [lo, x, up])
        ref.append(float(val + jx * mpmath.log((x - lo) / (up - x))))
    ref = np.array(ref)
    assert np.max(np.abs(got[probe] - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_delta_next_to_van_hove_edge():
    # J = (w-lo)^2 / sqrt(up-w): Delta stays finite at the divergent edge
    # while J(E) ln((E-lo)/(up-E)) grows, so the rule must integrate the
    # compensated part to the same relative accuracy; mpmath in k is the
    # reference (the uniform 2000-node rule was off by 4.6e-7 at 1e-3)
    lo, up = -1.0, 1.5

    def j(om):
        om = np.asarray(om, dtype=float)
        inside = (om > lo) & (om < up)
        out = np.zeros_like(om)
        out[inside] = (om[inside] - lo) ** 2 / np.sqrt(up - om[inside])
        return out

    mpmath.mp.dps = 40
    mid, half = mpmath.mpf(0.25), mpmath.mpf(1.25)

    def reference(x):
        # the subtracted integrand in k, with w - lo and up - w exact
        x = mpmath.mpf(x)
        k_x = mpmath.acos((mid - x) / half)
        j_x = (x - lo) ** 2 / mpmath.sqrt(up - x)

        def f(k):
            a, b = 2 * half * mpmath.sin(k / 2) ** 2, 2 * half * mpmath.cos(k / 2) ** 2
            if a == 0 or b == 0 or lo + a == x:
                return mpmath.mpf(0)
            return (a**2 / mpmath.sqrt(b) - j_x) / (x - lo - a) * half * mpmath.sin(k)

        pts = [0, k_x / 2, k_x, (mpmath.pi + k_x) / 2, mpmath.pi - (mpmath.pi - k_x) / 4, mpmath.pi]
        return float(mpmath.quad(f, pts) + j_x * mpmath.log((x - lo) / (up - x)))

    e = 0.25 - 1.25 * np.cos(np.linspace(0.0, np.pi, 2049)[1:-1])
    probe = [0, 1000, e.size - 40]  # the last is 9.4e-4 of the band from up
    got = qd.delta_on_grid(j, lo, up, e)[probe]
    ref = np.array([reference(e[i]) for i in probe])
    assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("kappa, bound", [(0.75, 1e-10), (4.0, 1e-10)])
def test_delta_vanishes_on_infinite_waveguide(kappa, bound):
    # Delta is identically 0; J's own rounding next to the van Hove edges
    # limits every rule (the uniform 2000-node rule reached 9.8e-10 and
    # 1.0e-10 here)
    model = fr.build_waveguide_model(fr.WaveguideParams(3, 1.0, kappa, 0.25, math.inf))
    lo, up = model.omega_low, model.omega_up
    e = np.linspace(lo, up, 2001)
    e = e[(e - lo >= 1e-2 * (up - lo)) & (up - e >= 1e-2 * (up - lo))]
    assert np.max(np.abs(qd.delta_on_grid(model.j, lo, up, e))) <= bound


def test_delta_rule_grading():
    # nodes stay inside the band, the node count follows the log of the
    # nearest target's k-distance, and the weights integrate dw exactly
    lo, up = -2.0, 3.0
    e = 0.5 - 2.5 * np.cos(np.linspace(0.0, np.pi, 32769)[1:-1])
    om, wgt = qd.delta_rule(lo, up, e)
    assert om.size == 252 and om.size % qd.PANEL_NODES == 0
    assert np.all((om > lo) & (om < up))
    assert abs(wgt.sum() - (up - lo)) <= 1e-14 * (up - lo)
    coarse, _ = qd.delta_rule(lo, up, e[::64])
    assert coarse.size < om.size


# ---------------------------------------------------------------------------
# the graded Sigma and Sigma' rule of kernel_integral

_LO, _UP = -1.3, 2.1
#: every edge exponent at both edges; None marks a divergent (van Hove) edge
_EDGE_PAIRS = [(0.25, 0.5), (0.5, 1.0), (1.0, 1.5), (1.5, 2.0), (2.0, None), (None, 0.25)]


def _power_density(s_lo, s_up, zeros=(), amp=1.0, wobble=0.3):
    """J(a, b, w, cos) = amp a^s_lo b^s_up (1 + wobble cos w) prod (w-z)^2 from
    a = w - lo and b = up - w, for numpy or mpmath arguments."""

    def density(a, b, w, cos):
        out = amp * a ** (-0.5 if s_lo is None else s_lo) * b ** (-0.5 if s_up is None else s_up)
        out = out * (1 + wobble * cos(w))
        for z in zeros:
            out = out * (w - z) ** 2
        return out

    return density


def _model(density, exps, zeros=(), lo=_LO, up=_UP, level=5.0, coupling=0.3):
    def j(om):
        om = np.asarray(om, dtype=float)
        out = np.zeros_like(om)
        inside = (om > lo) & (om < up)
        w = om[inside]
        out[inside] = density(w - lo, up - w, w, np.cos)
        return out

    exps = tuple(fr.DIVERGENT if s is None else s for s in exps)
    band = fr.ContinuumBand(lo, up, j, edge_exponents=exps, interior_zeros=zeros)
    return fr.validate_model(fr.FriedrichsModel(fr.DiscreteSpectrum([level], [coupling]), band))


def _kernel_reference(density, e, power, zeros=(), lo=_LO, up=_UP):
    """30-digit integral J(w)/(e-w)^power dw in k; w - lo, up - w and e - w
    are formed without cancellation, panels graded toward the pole of e."""
    mpmath.mp.dps = 30
    lo, up, e = mpmath.mpf(lo), mpmath.mpf(up), mpmath.mpf(e)
    span, near_up = up - lo, 2 * e > lo + up

    def f(k):
        a, b = span * mpmath.sin(k / 2) ** 2, span * mpmath.cos(k / 2) ** 2
        jac = density(a, b, lo + a, mpmath.cos) * mpmath.sqrt(a * b)
        return jac / ((e - up) + b if near_up else (e - lo) - a) ** power

    pts = {mpmath.mpf(0), mpmath.pi / 2, mpmath.pi}
    for dist, at in ((lo - e, 0), (e - up, mpmath.pi)):
        x = 2 * mpmath.asinh(mpmath.sqrt(dist / span)) / 16 if dist > 0 else mpmath.pi
        while x < mpmath.pi / 2:
            pts.add(abs(at - x))
            x *= 4
    for p in (*zeros, e):
        if lo < p < up:
            pts.add(2 * mpmath.asin(mpmath.sqrt((p - lo) / span)))
    return float(mpmath.quad(f, sorted(pts)))


def _kernel_error(model, density, e, power, zeros=(), at=None):
    """Relative error of Sigma (power 1) or -Sigma' (power 2) at e against
    the reference at `at` (default e)."""
    got = fr.self_energy(model, e) if power == 1 else -fr.self_energy_derivative(model, e)
    at = e if at is None else at
    ref = _kernel_reference(density, at, power, zeros, model.omega_low, model.omega_up)
    return abs(got - ref) / abs(ref)


#: (power, distance) at which the rule misses its bound next to an edge of
#: exponent 1/4: J is sampled no closer than one ulp to the edge, and there
#: the first ulp of the band carries more than the bound of the integral
#: (Sigma' 1.3e-8 and 3.2e-8 at 1e-10 of the band, 2.4e-7 and 5.7e-7 at
#: 1e-11; Sigma 1.3e-10 and 1.8e-10 at 1e-11), which the rule extrapolates
_QUARTER_POWER_UNRESOLVED = [(1, 1e-11), (2, 1e-11), (2, 1e-10)]


def _kernel_cases(s_lo, s_up, power):
    """(e, reference energy, exponent of the nearer edge, distance in band
    widths): e at 1e-11, 1e-10, 1e-8 and 1e-3 of the band outside each edge
    and two band widths away; where the integral converges on the edge also
    e on it and 1e-13 of the band to either side, which `self_energy` takes
    as the edge (within 1e-12 of the model's scale)."""
    span = _UP - _LO
    cases = []
    for edge, s, sign in ((_LO, s_lo, -1.0), (_UP, s_up, 1.0)):
        if s is not None and s > power - 1.0:
            cases += [(edge + d * span, edge, s, 0.0) for d in (0.0, -1e-13, 1e-13)]
        for d in (1e-11, 1e-10, 1e-8, 1e-3, 2.0):
            if not (s == 0.25 and (power, d) in _QUARTER_POWER_UNRESOLVED):
                cases.append((edge + sign * d * span, None, s, d))
    return cases


@pytest.mark.parametrize("s_lo, s_up", _EDGE_PAIRS)
def test_sigma_matches_mpmath(s_lo, s_up):
    density = _power_density(s_lo, s_up)
    model = _model(density, (s_lo, s_up))
    for e, at, _, _ in _kernel_cases(s_lo, s_up, 1):
        assert _kernel_error(model, density, e, 1, at=at) <= sp.SIGMA_EPSREL, e


@pytest.mark.parametrize("s_lo, s_up", _EDGE_PAIRS)
def test_sigma_derivative_matches_mpmath(s_lo, s_up):
    density = _power_density(s_lo, s_up)
    model = _model(density, (s_lo, s_up))
    for e, at, _, _ in _kernel_cases(s_lo, s_up, 2):
        assert _kernel_error(model, density, e, 2, at=at) <= sp.SIGMA_DERIV_EPSREL, e


@pytest.mark.xfail(strict=True, reason="J cannot be sampled within one ulp of the edge")
@pytest.mark.parametrize("power, dist", _QUARTER_POWER_UNRESOLVED)
@pytest.mark.parametrize("exps", [(0.25, 0.5), (None, 0.25)])
def test_quarter_power_edge_below_resolution(exps, power, dist):
    density = _power_density(*exps)
    model = _model(density, exps)
    span = _UP - _LO
    e = _LO - dist * span if exps[0] == 0.25 else _UP + dist * span
    bound = sp.SIGMA_EPSREL if power == 1 else sp.SIGMA_DERIV_EPSREL
    assert _kernel_error(model, density, e, power) <= bound


@pytest.mark.parametrize("power", [1, 2])
def test_sigma_at_declared_zero(power):
    # J = ... (w - z)^2: Sigma and Sigma' are regular at a declared zero,
    # where the panels break
    zeros = (-0.4, 0.9)
    density = _power_density(0.5, None, zeros)
    model = _model(density, (0.5, None), zeros)
    bound = sp.SIGMA_EPSREL if power == 1 else sp.SIGMA_DERIV_EPSREL
    for z in zeros:
        assert _kernel_error(model, density, z, power, zeros) <= bound, z


def test_solver_root_next_to_divergent_edge():
    # a root 2e-6 of the band below a divergent edge; adaptive quad missed
    # SIGMA_EPSREL there and warned (IntegrationWarning) in the root solve
    lo, up, z = -2.8807903727811937, 2.962954860908671, 0.9386521580331617
    density = _power_density(None, 0.5, (z,), amp=0.0010668399352075043, wobble=0.0)
    coupling = 0.39214142701412713 + 0.22559266453763543j
    model = _model(density, (None, 0.5), (z,), lo, up, 4.265344772371797, coupling)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        states = fr.solve_bound_states(model, fr.count_bound_states(model))
    assert min(abs(s.energy - lo) for s in states) <= 2e-6 * (up - lo)
    for state in states:
        assert _kernel_error(model, density, state.energy, 1, (z,)) <= sp.SIGMA_EPSREL, state.energy
