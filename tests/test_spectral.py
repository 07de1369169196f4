import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import friedrichs as fr
from friedrichs import quadrature as qd
from friedrichs import spectral as sp
from friedrichs.errors import (
    DivergentDerivative,
    EInsideBand,
    NonconvergentEdge,
    PoleHit,
    RootNotFound,
)

from _support import k_real_grid, random_model, without_overrides


@pytest.fixture(scope="module")
def wg3():
    params = fr.WaveguideParams(3, 1.0, 0.75, 0.25, 3)
    return params, fr.build_waveguide_model(params)


@pytest.fixture(scope="module")
def wg_inf():
    params = fr.WaveguideParams(3, 1.0, 0.75, 0.25, fr.INFINITE)
    return params, fr.build_waveguide_model(params)


def test_sigma_edge_value_finite_l(wg3):
    _, m = wg3
    kap = 0.75
    assert fr.self_energy(m, -2 * kap) == pytest.approx(-3 / kap, rel=1e-12)
    assert fr.self_energy(m, 2 * kap) == pytest.approx(3 / kap, rel=1e-12)
    # quadrature path agrees at the edge
    assert fr.self_energy(without_overrides(m), -2 * kap) == pytest.approx(-3 / kap, rel=1e-8)


def test_sigma_infinite_waveguide_closed_form(wg_inf):
    _, m = wg_inf
    kap = 0.75
    e = 2.5 * kap
    expected = 1.0 / math.sqrt(e * e - 4 * kap * kap)  # = 2/(3 kappa)
    assert expected == pytest.approx(2.0 / (3.0 * kap), rel=1e-14)
    assert fr.self_energy(m, e) == pytest.approx(expected, rel=1e-12)
    assert fr.self_energy(without_overrides(m), e) == pytest.approx(expected, rel=1e-8)


def test_sigma_antisymmetric_for_symmetric_density(wg_inf):
    _, m = wg_inf
    for e in (1.6, 2.0, 3.5, 7.0):
        assert fr.self_energy(m, e) == pytest.approx(-fr.self_energy(m, -e), rel=1e-12)


def test_sigma_domain_errors(wg_inf, wg3):
    _, mi = wg_inf
    with pytest.raises(EInsideBand):
        fr.self_energy(mi, 0.3)
    with pytest.raises(NonconvergentEdge):
        fr.self_energy(mi, 1.5)  # van Hove edge
    _, m3 = wg3
    with pytest.raises(EInsideBand):
        fr.self_energy(m3, 0.9)  # inside band, not a J-zero


def test_sigma_derivative_negative_and_vanishing(wg3):
    _, m = wg3
    vals = [fr.self_energy_derivative(m, e) for e in (-8.0, -3.0, -1.6, 1.7, 4.0)]
    assert all(v < 0 for v in vals)
    far = fr.self_energy_derivative(m, -1e4)
    assert -1e-6 < far < 0


def test_sigma_derivative_at_interior_zero_matches_fd():
    params = fr.WaveguideParams(3, 1.0, 0.75, 0.25, 2)
    m = fr.build_waveguide_model(params)
    # J-zero at E=0; oracle: centered finite difference of the closed-form
    # principal-value part
    h = 1e-5
    delta = m.overrides.delta
    fd = (delta(h) - delta(-h)) / (2 * h)
    val = fr.self_energy_derivative(m, 0.0)
    assert val == pytest.approx(fd, rel=1e-6)
    assert val == pytest.approx(-2 * 2 / (4 * 0.75**2), rel=1e-12)


def test_sigma_derivative_divergent_at_sqrt_edge(wg3):
    _, m = wg3
    with pytest.raises(DivergentDerivative):
        fr.self_energy_derivative(m, -1.5)


def test_delta_closed_form_matches_quadrature(wg3):
    _, m = wg3
    stripped = without_overrides(m)
    for e in (-1.2, -0.4, 0.3, 1.1):
        d_closed, g_closed = fr.delta_gamma(m, e)
        d_quad, g_quad = fr.delta_gamma(stripped, e)
        assert d_quad == pytest.approx(d_closed, rel=1e-8, abs=1e-10)
        assert g_quad == g_closed
    # next to the edges: sqrt edges at finite sites, van Hove edges at the
    # infinite one, where an adaptive principal value is off by ~3e-6 * Gamma
    for kappa in (0.75, 4.0):
        for site in (1, 2, 5, fr.INFINITE):
            wg = fr.build_waveguide_model(fr.WaveguideParams(3, 1.0, kappa, 0.25, site))
            stripped = without_overrides(wg)
            width = wg.omega_up - wg.omega_low
            for frac in np.geomspace(0.3, 1e-6, 12):
                for e in (wg.omega_low + frac * width, wg.omega_up - frac * width):
                    d_closed, g = fr.delta_gamma(wg, e)
                    d_quad, _ = fr.delta_gamma(stripped, e)
                    assert abs(d_quad - d_closed) <= 1e-8 * max(1.0, g), (kappa, site, e)


@pytest.mark.parametrize("seed", range(6))
def test_delta_at_single_targets_matches_principal_value(seed):
    # single energies well inside the band, as the root solve and the
    # spectrum table ask for them, take the band's one rule, graded for
    # targets next to the edges; the adaptive principal value agrees
    rng = np.random.default_rng(seed)
    model = random_model(rng, with_zero=bool(seed % 2))
    lo, up = model.omega_low, model.omega_up
    for e in lo + (up - lo) * rng.uniform(0.05, 0.95, 5):
        ref, _ = qd.principal_value(model.j, lo, up, e, epsrel=1e-13)
        delta, _ = fr.delta_gamma(model, e)
        assert abs(delta - ref) <= 1e-10 * abs(ref), (seed, e)
    assert list(model._rules) == ["band"]


def test_gamma_value_l1():
    params = fr.WaveguideParams(1, 1.0, 0.75, 0.25, 1)
    m = fr.build_waveguide_model(params)
    _, g = fr.delta_gamma(m, 0.0)
    assert g == pytest.approx(1.0 / 0.75, rel=1e-12)


def test_gamma_nonnegative_inside_band(wg3):
    _, m = wg3
    for e in np.linspace(-1.49, 1.49, 41):
        _, g = fr.delta_gamma(m, float(e))
        assert g >= 0.0


def test_k_zeros_waveguide(wg3):
    _, m = wg3
    zeros = fr.k_zeros(m)
    expected = np.sort(-2.0 * np.cos(np.pi * np.arange(1, 3) / 3))
    assert np.allclose(zeros, expected, atol=1e-12)


def test_k_single_level():
    m = fr.validate_model(
        fr.FriedrichsModel(
            discrete=fr.DiscreteSpectrum(np.array([0.3]), np.array([0.5])),
            continuum=fr.ContinuumBand(
                1.0, 2.0, lambda om: np.clip((om - 1.0) * (2.0 - om), 0, None)
            ),
        )
    )
    assert fr.k_zeros(m).size == 0
    assert fr.k_function(m, 1.3) == pytest.approx(0.25 / (1.3 - 0.3))


def test_k_derivative_matches_finite_difference():
    rng = np.random.default_rng(42)
    m = random_model(rng, n_max=4)
    for z in (3.5, -4.0 + 0.3j, 2.7 - 1.1j):
        h = 1e-6
        fd = (fr.k_function(m, z + h) - fr.k_function(m, z - h)) / (2 * h)
        assert fr.k_derivative(m, z) == pytest.approx(fd, rel=1e-7)


def test_k_monotone_between_poles():
    rng = np.random.default_rng(3)
    m = random_model(rng, n_max=4)
    eps = m.levels
    segments = [(eps[i] + 1e-3, eps[i + 1] - 1e-3) for i in range(len(eps) - 1)]
    segments += [(eps[-1] + 0.05, eps[-1] + 3.0), (eps[0] - 3.0, eps[0] - 0.05)]
    for a, b in segments:
        if b <= a:
            continue
        grid = np.linspace(a, b, 30)
        vals = k_real_grid(m, grid)
        assert np.all(np.diff(vals) < 0)


def test_k_zero_count_and_interlacing():
    rng = np.random.default_rng(11)
    for _ in range(5):
        m = random_model(rng, n_max=4)
        zeros = fr.k_zeros(m)
        assert zeros.size == m.n_levels - 1
        for i, z in enumerate(zeros):
            assert m.levels[i] < z < m.levels[i + 1]


def test_sigma_inverse_increasing_outside_band(wg3):
    _, m = wg3
    for grid in (np.linspace(-4.0, -1.55, 25), np.linspace(1.55, 4.0, 25)):
        vals = np.array([1.0 / fr.self_energy(m, float(e)) for e in grid])
        assert np.all(np.diff(vals) > 0)


def test_pole_hit_guard(wg3):
    _, m = wg3
    with pytest.raises(PoleHit):
        fr.k_function(m, m.levels[0])
    with pytest.raises(PoleHit):
        fr.i_function(m, fr.InitialState.normalized(np.ones(3)), m.levels[1])


def test_i_function_single_component(wg3):
    _, m = wg3
    c = fr.InitialState(np.array([1.0, 0.0, 0.0], dtype=complex))
    z = 2.2 + 0.1j
    expected = np.conj(m.couplings[0]) / (z - m.levels[0])
    assert fr.i_function(m, c, z) == pytest.approx(expected)


def test_i_function_vanishes_when_initial_avoids_couplings():
    # f_n^* c_n = 0 for every n requires c to live on decoupled levels
    m = fr.validate_model(
        fr.FriedrichsModel(
            discrete=fr.DiscreteSpectrum(
                np.array([-1.0, 0.0, 1.0]), np.array([0.5, 0.0, 0.3])
            ),
            continuum=fr.ContinuumBand(
                -2.0, 2.0, lambda om: np.clip((om + 2.0) * (2.0 - om), 0, None) / 10
            ),
        )
    )
    c = fr.InitialState(np.array([0.0, 1.0, 0.0], dtype=complex))
    for z in (3.0, -2.5 + 0.4j, 0.7 + 1.0j):
        assert fr.i_function(m, c, z) == 0


def test_sigma_quadrature_matches_override(wg3, wg_inf):
    for _, m in (wg3, wg_inf):
        lo, up = m.omega_low, m.omega_up
        offs = np.geomspace(0.03, 4.0, 10)
        energies = np.concatenate([lo - offs, up + offs])
        stripped = without_overrides(m)
        for e in energies:
            quad_val = fr.self_energy(stripped, float(e))
            closed_val = m.overrides.sigma(float(e))
            assert quad_val == pytest.approx(closed_val, rel=1e-8)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_sigma_derivative_negative_random_models(seed):
    m = random_model(np.random.default_rng(seed), n_max=3)
    e = m.omega_low - 0.37 * m.scale
    assert fr.self_energy_derivative(m, float(e)) < 0


def direct_sums(m, c):
    """K, K' and I as the plain rational sums, term order as in the package."""
    f2 = np.abs(m.couplings) ** 2
    w = np.conj(m.couplings) * c.amplitudes
    return {
        "k": lambda z: complex(np.sum(f2 / (z - m.levels))),
        "k_prime": lambda z: complex(-np.sum(f2 / (z - m.levels) ** 2)),
        "i": lambda z: complex(np.sum(w / (z - m.levels))),
    }


def rational_sums(m, c):
    return {
        "k": lambda z: fr.k_function(m, z),
        "k_prime": lambda z: fr.k_derivative(m, z),
        "i": lambda z: fr.i_function(m, c, z),
    }


@pytest.mark.parametrize("name", ["k", "k_prime", "i"])
def test_rational_sums_keep_the_pole_guard(wg3, name):
    _, m = wg3
    fn = rational_sums(m, fr.InitialState.normalized(np.ones(3)))[name]
    tol = 1e-13 * m.scale
    for level in m.levels:
        for z in (level, level + 0.9 * tol, level - 0.9 * tol, complex(level, 0.9 * tol)):
            with pytest.raises(PoleHit, match=re.escape(str(level))):
                fn(z)
        for z in (level + 1.1 * tol, level - 1.1 * tol, complex(level, 1.1 * tol)):
            assert np.isfinite(fn(z))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_rational_sums_equal_direct_sums(seed):
    rng = np.random.default_rng(seed)
    m = random_model(rng, n_max=4)
    c = fr.InitialState.normalized(rng.normal(size=m.n_levels) + 1j * rng.normal(size=m.n_levels))
    fast, direct = rational_sums(m, c), direct_sums(m, c)
    gaps = 0.5 * (m.levels[:-1] + m.levels[1:])
    for z in (*gaps, m.levels[0] - 0.7, m.levels[-1] + 1.3, 0.3 + 0.2j, m.levels[0] - 1e-3j):
        for name in fast:
            assert fast[name](z) == direct[name](z)


def both_routes(fn, model, e):
    """fn at e through the model's closed form and through the rule: each
    a float, or the type of the typed error it raised."""
    out = []
    for m in (model, without_overrides(model)):
        try:
            out.append(fn(m, e))
        except fr.errors.FriedrichsError as exc:
            out.append(type(exc))
    return out


def assert_routes_agree(model, e):
    """Sigma within 1e-8 relative (1e-12 absolute on a J-zero) and Sigma'
    within 1e-8 relative by both routes, or the same typed error from both."""
    at_zero = model.is_interior_zero(e)
    for fn in (fr.self_energy, fr.self_energy_derivative):
        closed, rule = both_routes(fn, model, e)
        if isinstance(closed, type) or isinstance(rule, type):
            assert closed is rule, (fn.__name__, e, closed, rule)
        elif fn is fr.self_energy and at_zero:
            assert abs(closed - rule) <= 1e-12, (e, closed, rule)
        else:
            assert rule == pytest.approx(closed, rel=1e-8), (fn.__name__, e)


@pytest.mark.parametrize("e", [-1.5 + 1e-13, 1.5 - 1e-13, 2e-9, -2e-9])
def test_routes_agree_at_classified_points(e):
    # scale 3: +-1e-13 of an edge is the edge, 2e-9 of the J-zero at 0 is the
    # zero; both routes evaluate there, not at e
    m = fr.build_waveguide_model(fr.WaveguideParams(3, 1.0, 0.75, 0.25, 2))
    assert_routes_agree(m, e)
    if abs(e) < 1:
        for sigp in both_routes(fr.self_energy_derivative, m, e):
            assert sigp == pytest.approx(-16 / 9, rel=1e-8)
    else:
        assert fr.self_energy(m, e) == math.copysign(2 / 0.75, e)


@given(
    st.sampled_from([1, 2, 3, 4, 5, fr.INFINITE]),
    st.integers(1, 5),
    st.floats(0.2, 2.0),
    st.floats(0.05, 2.0),
    st.sampled_from(["outside", "edge", "zero"]),
    st.floats(-0.999, 0.999),  # a point on a tolerance's end rounds to either side
    st.floats(-11.0, 1.0),
    st.integers(0, 3),
)
@settings(max_examples=60, deadline=None)
def test_routes_agree_on_classified_energies(site, n_atoms, kappa, xi, zone, u, log_d, pick):
    """Outside the band (1e-11 to 10 of the scale from an edge, where the
    closed forms read the distance to the edge exactly), within the edge
    tolerance on either side of an edge, and within the J-zero tolerance of
    a zero."""
    m = fr.build_waveguide_model(fr.WaveguideParams(n_atoms, 1.0, kappa, xi, site))
    edge = (m.omega_low, m.omega_up)[pick % 2]
    if zone == "outside":
        e = edge + math.copysign(10.0**log_d * m.scale, edge)
    elif zone == "edge":
        e = edge + u * 1e-12 * m.scale
    else:
        assume(m.interior_zeros)
        e = m.interior_zeros[pick % len(m.interior_zeros)] + u * 1e-9 * m.scale
    assert_routes_agree(m, e)


@pytest.mark.parametrize("site", [3, fr.INFINITE])
def test_closed_sigma_next_to_edge_matches_rule(site):
    m = fr.build_waveguide_model(fr.WaveguideParams(3, 1.0, 0.3, 0.25, site))
    for d in (1.001e-12, 1e-11, 1e-10):
        assert_routes_agree(m, m.omega_up + d * m.scale)


# ---------------------------------------------------------------------------
# the in-package Brent solve against scipy.optimize.brentq

#: f(x) = scale * shape((x - root) / width)
SHAPES = {
    "linear": lambda u: u,
    "cubic": lambda u: u**3,
    "tanh": math.tanh,
    "steep": lambda u: math.atan(1e6 * u),
    "staircase": lambda u: math.floor(7.0 * u) + 0.5,
}
RTOL = 8.9e-16  # both call sites


def _outcome(solve, failures):
    """The root, or "raised" when the solve fails with one of failures."""
    try:
        return solve()
    except failures:
        return "raised"


def _assert_same_as_brentq(f, a, b, xtol, maxiter):
    ours = _outcome(lambda: sp._brent(f, a, b, xtol, RTOL, maxiter), RootNotFound)
    theirs = _outcome(
        lambda: brentq(f, a, b, xtol=xtol, rtol=RTOL, maxiter=maxiter), (ValueError, RuntimeError)
    )
    assert ours == theirs, (ours, theirs)
    if ours != "raised":  # bit for bit, the sign of a zero included
        assert math.copysign(1.0, ours) == math.copysign(1.0, theirs)


@given(
    st.sampled_from(sorted(SHAPES)),
    st.one_of(
        st.sampled_from([1e-300, 1e-200, 1e200]),
        st.floats(-250.0, 250.0).map(lambda x: 10.0**x),
    ),
    st.floats(-5.0, 5.0),  # root
    st.floats(-3.0, 1.0).map(lambda x: 10.0**x),  # width
    st.floats(-10.0, 10.0),  # a
    st.floats(-10.0, 10.0),  # b
    st.floats(-3.0, 3.0).map(lambda x: 10.0**x),  # the call sites' model.scale
    st.sampled_from([100, 200, 3, 10]),
)
@settings(max_examples=400, deadline=None)
@example("cubic", 1e-200, 0.3, 1.0, 0.0, 1.0, 1.0, 100)  # products underflow to 0
@example("linear", 1e200, 0.123456789, 1.0, -2.0, 4.0, 3.0, 200)
def test_brent_is_brentq_bit_for_bit(shape, scale, root, width, a, b, x_scale, maxiter):
    """Every root == scipy's, and a failure wherever scipy fails: ends of one
    sign, no convergence in maxiter (3 and 10 run out on most draws)."""
    assume(a != b)
    h = SHAPES[shape]

    def f(x):
        return scale * h((x - root) / width)

    _assert_same_as_brentq(f, a, b, 1e-15 * x_scale, maxiter)


def test_brent_bisects_where_the_interpolation_divides_by_zero():
    # at 1e-200 the inverse-quadratic denominator dblk*dpre*(fblk - fpre)
    # underflows to 0: C's step is +-inf or NaN and fails the step test, so
    # the port has to bisect too; at scale 1 the same staircase interpolates
    # and lands on a different root
    def staircase(scale):
        return lambda x: scale * (math.floor(8.0 * x) - 2.5)

    for scale in (1e-200, 1e-150, 1.0):
        _assert_same_as_brentq(staircase(scale), 0.0, 1.0, 1e-15, 100)
    tiny = sp._brent(staircase(1e-200), 0.0, 1.0, 1e-15, RTOL, 100)
    assert tiny != sp._brent(staircase(1.0), 0.0, 1.0, 1e-15, RTOL, 100)


@pytest.mark.parametrize("a, b", [(0.0, 2.0), (-1.0, 0.0), (0.0, 0.0)])
def test_brent_returns_an_end_where_f_vanishes(a, b):
    f = lambda x: x
    for maxiter in (100, 200):
        _assert_same_as_brentq(f, a, b, 1e-15, maxiter)
    assert sp._brent(f, a, b, 1e-15, RTOL, 100) == 0.0


@pytest.mark.parametrize("f, a, b, named", [
    (lambda x: x * x + 1.0, -1.0, 2.0, "same sign"),
    (lambda x: 1e-200 * (x + 3.0), -1.0, 2.0, "same sign"),
    (lambda x: math.nan if x == 2.0 else x, -1.0, 2.0, "NaN at 2.0"),
    (lambda x: math.nan if 0.0 < x < 1.0 else x - 0.5, -1.0, 2.0, "NaN at"),
    (math.atan, -1.0, 2.0, "no convergence in 3 steps"),
])
def test_brent_failure_is_root_not_found_naming_the_bracket(f, a, b, named):
    with pytest.raises(RootNotFound, match=re.escape(named)) as exc:
        sp._brent(f, a, b, 1e-15, RTOL, 3)
    assert f"{b}" in str(exc.value) and f"{a}" in str(exc.value)


def test_both_call_sites_match_brentq(monkeypatch):
    """The K-zero search of `k_zeros` (maxiter 100) and the bound-state solve
    (200), each call replayed through scipy's brentq on the same function."""
    settings_seen = set()
    own = sp._brent

    def checked(f, a, b, xtol, rtol, maxiter):
        root = own(f, a, b, xtol, rtol, maxiter)
        assert root == brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter)
        settings_seen.add((rtol, maxiter))
        return root

    monkeypatch.setattr(sp, "_brent", checked)
    rng = np.random.default_rng(11)
    models = [random_model(rng, n_max=4, with_zero=True) for _ in range(6)]
    for site in (1, 2, fr.INFINITE):
        models.append(fr.build_waveguide_model(fr.WaveguideParams(5, 1.0, 0.4, 0.8, site)))
    for model in models:
        fr.all_bound_states(model)
        fr.k_zeros(model)
    assert settings_seen == {(RTOL, 100), (RTOL, 200)}
