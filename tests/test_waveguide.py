import importlib.util
import math
from dataclasses import replace
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import friedrichs as fr
from friedrichs.errors import ConfigError, PoleHit
from friedrichs.waveguide import _census_over_xi, _edge_pair, j_zeros

from _support import SIGMA_DERIV_EPSREL, without_overrides

GENERATOR = Path(__file__).resolve().parents[1] / "perfbench" / "generator.py"


def load_generator():
    """The benchmark's input generator (numpy only), for its waveguide grid."""
    spec = importlib.util.spec_from_file_location("perfbench_generator", GENERATOR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_levels_n3():
    params = fr.WaveguideParams(3, 1.0, 0.75, 0.25, 1)
    m = fr.build_waveguide_model(params)
    assert np.allclose(m.levels, [-math.sqrt(2), 0.0, math.sqrt(2)], atol=1e-12)
    assert m.levels[1] == 0.0


def test_infinite_waveguide_density_and_edges():
    params = fr.WaveguideParams(3, 1.0, 0.75, 0.25, fr.INFINITE)
    m = fr.build_waveguide_model(params)
    om = np.array([0.0, 1.0, -1.2])
    expected = 1.0 / (np.pi * np.sqrt(4 * 0.75**2 - om**2))
    assert np.allclose(m.j(om), expected, rtol=1e-14)
    assert m.continuum.edge_exponents == (fr.DIVERGENT, fr.DIVERGENT)
    assert m.interior_zeros == ()


def test_j_zero_layout_and_edge_values():
    for l in (2, 3, 5):
        params = fr.WaveguideParams(2, 1.0, 0.6, 0.3, l)
        m = fr.build_waveguide_model(params)
        zeros = np.asarray(m.interior_zeros)
        assert zeros.size == l - 1
        assert np.allclose(np.asarray(m.j(zeros)), 0.0, atol=1e-14)
        assert fr.self_energy(m, -1.2) == pytest.approx(-l / 0.6, rel=1e-12)
        assert fr.self_energy(m, 1.2) == pytest.approx(l / 0.6, rel=1e-12)


def test_k_zeros_closed_form():
    params = fr.WaveguideParams(5, 1.3, 0.8, 0.45, 1)
    m = fr.build_waveguide_model(params)
    zeros = fr.k_zeros(m)
    expected = np.sort(-2 * 1.3 * np.cos(np.pi * np.arange(1, 5) / 5))
    assert np.allclose(zeros, expected, atol=1e-11)


def test_default_initial_state_values():
    p2 = fr.WaveguideParams(2, 1.0, 1.0, 0.2, 1)
    c2 = fr.default_initial_state(p2).amplitudes
    expected = np.sqrt(2 / 3) * np.sin(np.pi * np.arange(1, 3) * 2 / 3)
    assert np.allclose(c2.real, expected, atol=1e-15)
    for n_atoms in (1, 3, 6):
        p = fr.WaveguideParams(n_atoms, 1.0, 1.0, 0.2, 1)
        c = fr.default_initial_state(p).amplitudes
        assert abs(np.sum(np.abs(c) ** 2) - 1.0) < 1e-14
    p1 = fr.WaveguideParams(1, 1.0, 1.0, 0.2, 1)
    assert np.allclose(fr.default_initial_state(p1).amplitudes, [1.0])


def test_closed_sigma_matches_quadrature():
    rng = np.random.default_rng(23)
    for site in (1, 2, 3, fr.INFINITE):
        params = fr.WaveguideParams(3, 1.0, 0.75, 0.25, site)
        m = fr.build_waveguide_model(params)
        stripped = without_overrides(m)
        for _ in range(20):
            e = float(rng.uniform(1.55, 6.0)) * (1 if rng.integers(2) else -1)
            assert fr.self_energy(stripped, e) == pytest.approx(
                m.overrides.sigma(e), rel=1e-8
            )


def test_census_paper_cases():
    inf_params = fr.WaveguideParams(3, 1.0, 0.75, 0.25, fr.INFINITE)
    census = fr.waveguide_bound_state_count(inf_params)
    assert (census.m_below, census.m_above, census.m_bic) == (1, 1, 0)
    l1 = fr.waveguide_bound_state_count(fr.WaveguideParams(3, 1.0, 0.75, 0.25, 1))
    assert l1.m_outside == 0 and l1.m_bic == 0
    l2 = fr.waveguide_bound_state_count(fr.WaveguideParams(3, 1.0, 0.75, 0.25, 2))
    assert l2.m_outside == 0 and l2.m_bic == 1


def test_specialized_census_matches_generic():
    rng = np.random.default_rng(29)
    for _ in range(25):
        n_atoms = int(rng.integers(1, 6))
        site = [1, 2, 4, fr.INFINITE][int(rng.integers(4))]
        params = fr.WaveguideParams(
            n_atoms,
            1.0,
            float(rng.uniform(0.1, 1.4)),
            float(rng.uniform(0.05, 2.5)),
            site,
        )
        fast = fr.waveguide_bound_state_count(params)
        generic = fr.count_bound_states(fr.build_waveguide_model(params))
        assert (fast.m_below, fast.m_above) == (generic.m_below, generic.m_above)
        assert (fast.n_low, fast.n_up) == (generic.n_low, generic.n_up)


@pytest.mark.parametrize("kappa", [1 + 1e-10, 1 + 1e-11])
def test_closed_and_generic_censuses_match_levels_to_zeros_alike(kappa):
    # levels -sqrt(2), 0, sqrt(2) sit 1.4e-10 and 1.4e-11 from the J-zeros
    # -sqrt(2) kappa, 0, sqrt(2) kappa: inside the one J-zero tolerance
    params = fr.WaveguideParams(3, 1.0, kappa, 0.5, 4)
    fast = fr.waveguide_bound_state_count(params)
    model = fr.build_waveguide_model(params)
    generic = fr.count_bound_states(model)
    counts = lambda c: (c.n_low, c.n_up, c.m_below, c.m_above, c.m_bic)
    assert counts(fast) == counts(generic) == (0, 0, 0, 0, 3)
    assert fr.waveguide_bic_energies(params) == list(model.levels)


@pytest.mark.parametrize("site", [1, 2, 4, fr.INFINITE])
def test_uncoupled_chain_levels_inside_the_band_are_bics_on_both_routes(site):
    # xi = 0: every level inside the band is an eigenstate of its own; at
    # sites 2 and 4 the level 0 also sits on a J-zero and counts once
    params = fr.WaveguideParams(3, 1.0, 0.75, 0.0, site)
    model = fr.build_waveguide_model(params)
    closed = fr.waveguide_bound_state_count(params)
    generic = fr.count_bound_states(model)
    counts = lambda c: (c.n_low, c.n_up, c.m_below, c.m_above, c.m_bic)
    assert counts(closed) == counts(generic) == (0, 0, 0, 0, 3)
    assert fr.waveguide_bic_energies(params) == list(model.levels)
    assert [s.energy for s in fr.all_bound_states(model)] == list(model.levels)
    over_xi = _census_over_xi(params, [0.0, 0.25])
    assert [over_xi.census(i).m_bic for i in (0, 1)] == [3, int(site in (2, 4))]


@pytest.mark.parametrize("params, uncoupled", [
    # f_n^2 underflows to 0 on every level: each is an eigenstate of its own
    (fr.WaveguideParams(3, 1.0, 0.75, 1e-162, fr.INFINITE), [0, 1, 2]),
    # only the two end levels at each side of a long chain underflow
    (fr.WaveguideParams(50, 0.5, 1.5, 5e-161, fr.INFINITE), [0, 1, 48, 49]),
])
def test_levels_whose_coupling_underflows_are_bics_on_both_routes(params, uncoupled):
    model = fr.build_waveguide_model(params)
    assert list(np.flatnonzero(model._f2 == 0)) == uncoupled
    closed = fr.waveguide_bound_state_count(params)
    generic = fr.count_bound_states(model)
    counts = lambda c: (c.n_low, c.n_up, c.m_below, c.m_above, c.m_bic)
    assert counts(closed) == counts(generic)
    assert closed.m_bic == len(uncoupled)
    assert fr.waveguide_bic_energies(params) == [s.energy for s in fr.find_bics(model)]
    assert fr.waveguide_bic_energies(params) == list(model.levels[uncoupled])
    over_xi = _census_over_xi(params, [0.5, params.xi, 0.0])
    assert over_xi.m_bic == [0, len(uncoupled), params.n_atoms]


def test_infinite_site_amplitude_criterion_follows_energy_criterion():
    # divergent-edge case: the only remaining condition is the energy criterion
    for kap, xi in ((0.2, 0.01), (0.2, 3.0), (0.9, 0.5)):
        params = fr.WaveguideParams(4, 1.0, kap, xi, fr.INFINITE)
        census = fr.waveguide_bound_state_count(params)
        trace = census.criteria_trace
        if trace["energy_criterion"]["ok"] and census.n_low + census.n_up > 0:
            assert census.m_outside == census.n_low + census.n_up + 2


def test_bic_energy_list_special_cases():
    # even l, odd N: zero-energy mode always a BIC
    for l, n_atoms in ((2, 3), (4, 5), (6, 3)):
        params = fr.WaveguideParams(n_atoms, 1.0, 0.7, 0.3, l)
        assert 0.0 in fr.waveguide_bic_energies(params)
    # kappa = lambda with l = N+1: every level is a BIC
    for n_atoms in (2, 3, 5):
        params = fr.WaveguideParams(n_atoms, 1.0, 1.0, 0.4, n_atoms + 1)
        bics = fr.waveguide_bic_energies(params)
        assert np.allclose(bics, fr.build_waveguide_model(params).levels, atol=1e-12)
    # at l = N-1 only a subset can match (none for N=2, the zero mode for N=3)
    assert fr.waveguide_bic_energies(fr.WaveguideParams(2, 1.0, 1.0, 0.4, 1)) == []
    assert fr.waveguide_bic_energies(fr.WaveguideParams(3, 1.0, 1.0, 0.4, 2)) == [0.0]
    assert fr.waveguide_bic_energies(fr.WaveguideParams(3, 1.0, 0.7, 0.3, 1)) == []


def test_bound_state_set_symmetric():
    params = fr.WaveguideParams(4, 1.0, 0.35, 1.2, fr.INFINITE)
    m = fr.build_waveguide_model(params)
    states = fr.solve_bound_states(m)
    energies = np.array([s.energy for s in states])
    assert energies.size % 2 == 0
    assert np.allclose(np.sort(energies), np.sort(-energies), atol=1e-10)


def test_specialized_census_respects_max_counts():
    for n_atoms in range(1, 7):
        best = 0
        for kap in (0.05, 0.15, 0.3, 0.6, 1.0):
            for xi in (0.2, 1.0, 3.0, 6.0):
                for site in (1, 3, fr.INFINITE):
                    census = fr.waveguide_bound_state_count(
                        fr.WaveguideParams(n_atoms, 1.0, kap, xi, site)
                    )
                    best = max(best, census.m_outside)
        expected = n_atoms + 1 if n_atoms % 2 else n_atoms
        assert best == expected


@pytest.mark.parametrize("n_atoms", [3, 10, 20, 40])
def test_closed_k_at_band_edge_when_kappa_equals_lambda(n_atoms):
    # at kappa = lambda the band edge E = -2 kappa is x = -1, where
    # sin(N phi)/sin((N+1) phi) is 0/0; the exact value is -(xi^2/lambda) N/(N+1)
    for lam in (1.0, 0.7):
        params = fr.WaveguideParams(n_atoms, lam, lam, 1.5, 2)
        m = fr.build_waveguide_model(params)
        k_edge = fr.waveguide_bound_state_count(params).criteria_trace[
            "amplitude_criterion"
        ]["k_edge"]
        rational = float(np.real(fr.k_function(m, -2.0 * lam)))
        assert abs(k_edge - rational) <= 1e-12 * abs(rational)
        assert abs(rational + 1.5**2 / lam * n_atoms / (n_atoms + 1)) <= 1e-12


@pytest.mark.parametrize("n_atoms", [1, 3, 10, 40])
def test_threshold_at_kappa_equals_lambda(n_atoms):
    # K(-2 kappa) = -(xi^2/lambda) N/(N+1) < -kappa/l  <=>  l xi^2 > kappa lambda (N+1)/N
    for lam, site in ((1.0, 1), (0.7, 2), (2.5, 5)):
        for xi in (0.5, 1.5):
            params = fr.WaveguideParams(n_atoms, lam, lam, xi, site)
            amp = fr.waveguide_bound_state_count(params).criteria_trace["amplitude_criterion"]
            assert amp["threshold_on_l_xi_squared"] == pytest.approx(
                lam * lam * (n_atoms + 1) / n_atoms, rel=1e-15
            )
            assert amp["ok"] == (site * xi**2 > amp["threshold_on_l_xi_squared"])


@given(
    st.integers(1, 40),
    st.one_of(st.just(1.0), st.floats(1e-6, 3.0)),
    st.floats(0.1, 10.0),
    st.floats(0.0, 5.0),
    st.integers(1, 40),
)
@settings(max_examples=200, deadline=None)
@example(2, 1.0, 1.0, 1.6055793508807068e-156, 1)  # K(-2*kappa) subnormal
@example(4, 1.0, 1.0, 2.6256795422105356e-158, 1)  # the two routes 2 subnormal spacings apart
def test_threshold_decides_amplitude_criterion(n_atoms, ratio, lam, xi, site):
    params = fr.WaveguideParams(n_atoms, lam, ratio * lam, xi, site)
    model = fr.build_waveguide_model(params)
    edge = -2.0 * params.kappa
    # a level within 1e-3 of the scale from the edge: the rounding of the
    # levels moves the rational sum by more than 1e-12 of its scale
    assume(np.min(np.abs(model.levels - edge)) > 1e-3 * model.scale)
    amp = fr.waveguide_bound_state_count(params).criteria_trace["amplitude_criterion"]
    a, b = _edge_pair(params)
    threshold, l_xi2 = amp["threshold_on_l_xi_squared"], amp["l_xi_squared"]
    assert (threshold is None) == (a * b >= 0)
    if threshold is None:
        assert not amp["ok"]
    elif abs(l_xi2 - threshold) > 1e-12 * threshold:
        assert amp["ok"] == (l_xi2 > threshold)
    # relative to the scale of the rational sum's rounding: K may vanish
    # here.  Where K is subnormal, each rounding onto the subnormal grid (of
    # xi^2, of each |f_n|^2, and of every product and quotient after them)
    # is off by up to half its spacing s, whatever the value's size.  The
    # sum of the |f_n|^2/|edge - eps_n| then meets K within
    # s/2 * sum_n (1 + 1/|edge - eps_n|), the closed form xi^2*a/(lam*b),
    # rounded at xi^2, at xi^2*a and at the quotient, within
    # s/2 * (|a/(lam*b)| + 1/|lam*b| + 1); a sum of subnormals is exact.
    # The floor is a few spacings per level, more for a level next to the
    # edge, so it changes nothing where k_scale is well above the subnormal
    # range.
    rational = float(np.real(fr.k_function(model, edge)))
    dist = np.abs(edge - model.levels)
    k_scale = float(np.sum(np.abs(model.couplings) ** 2 / dist))
    terms = np.sum(1.0 + 1.0 / dist) + (abs(a) + 1.0) / abs(params.lam * b) + 1.0
    floor = 0.5 * terms * np.spacing(0.0)  # s/2 alone rounds to 0
    assert abs(amp["k_edge"] - rational) <= 1e-12 * k_scale + floor


@pytest.mark.parametrize("n_atoms", [3, 10, 20, 40])
def test_census_at_kappa_equals_lambda(n_atoms):
    # kappa/lambda = 1 is where the paper's energy criterion sits
    for xi in (0.5, 1.5, 3.0):
        for site in (1, 2, 5, fr.INFINITE):
            params = fr.WaveguideParams(n_atoms, 1.0, 1.0, xi, site)
            fast = fr.waveguide_bound_state_count(params)
            generic = fr.count_bound_states(fr.build_waveguide_model(params))
            assert (fast.m_below, fast.m_above) == (generic.m_below, generic.m_above)
            assert (fast.n_low, fast.n_up) == (generic.n_low, generic.n_up)


def test_amplitude_tie_when_k_vanishes_on_both_edges():
    # kappa/lambda = cos(pi/3) puts the gap's K-zero on both edges, where the
    # infinite waveguide has 1/Sigma = 0: K there is rounding, a tie each side
    params = fr.WaveguideParams(3, 1.0, 0.5, 1.5, fr.INFINITE)
    model = fr.build_waveguide_model(params)
    census = fr.count_bound_states(model)
    closed = fr.waveguide_bound_state_count(params)
    assert (census.m_below, census.m_above) == (closed.m_below, closed.m_above) == (1, 1)
    assert census.criteria_trace["low"]["tie"] and census.criteria_trace["up"]["tie"]
    energies = [s.energy for s in fr.solve_bound_states(model, census)]
    assert energies == pytest.approx([-1.985934304926, 1.985934304926], abs=1e-12)


def test_closed_k_at_a_chain_level_raises_typed_error():
    # N=5, lambda=1: E = -1 is a root of U_5(E/2), i.e. a chain level; with
    # kappa = 1/2 it is also the band edge the closed census evaluates
    params = fr.WaveguideParams(5, 1.0, 0.5, 1.5, 2)
    with pytest.raises(PoleHit):
        fr.waveguide_bound_state_count(params)
    with pytest.raises(PoleHit):
        _census_over_xi(params, [0.0, 1.5])


#: x*x (so numpy's square) and Python's x**2 differ in the last bit here
SQUARE_TRAP = 4.118906791963858


@st.composite
def xi_census_cases(draw):
    """(N, lambda, kappa, site, xis): kappa/lambda random, 1, cos(pi m/N)
    (where the energy criterion ties) or cos(pi m/(N+1)) (a level on the
    edge), and an xi array that holds 0 and SQUARE_TRAP."""
    n_atoms = draw(st.integers(1, 40))
    lam = draw(st.one_of(st.just(1.0), st.floats(0.1, 10.0)))  # 1: exact ratios
    m = draw(st.integers(1, 40)) % n_atoms
    ratio = draw(st.one_of(
        st.floats(1e-3, 3.0),
        st.just(1.0),
        st.just(math.cos(math.pi * m / n_atoms)),
        st.just(math.cos(math.pi * m / (n_atoms + 1))),
    ))
    assume(ratio > 0.0)
    site = draw(st.one_of(st.integers(1, 40), st.just(fr.INFINITE)))
    xis = draw(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=12))
    return n_atoms, lam, ratio * lam, site, [0.0, SQUARE_TRAP, *xis]


@given(xi_census_cases())
@settings(max_examples=200, deadline=None)
def test_xi_array_census_equals_scalar_census(case):
    n_atoms, lam, kappa, site, xis = case
    base = fr.WaveguideParams(n_atoms, lam, kappa, 0.0, site)
    try:
        a, b = _edge_pair(base)
    except PoleHit:  # -2 kappa is a root of U_N: both calls raise
        with pytest.raises(PoleHit):
            _census_over_xi(base, xis)
        with pytest.raises(PoleHit):
            fr.waveguide_bound_state_count(replace(base, xi=xis[-1]))
        return
    over_xi = _census_over_xi(base, xis)
    counts = lambda c: (c.n_low, c.n_up, c.m_below, c.m_above, c.m_bic)
    for i, xi in enumerate(xis):
        scalar = fr.waveguide_bound_state_count(replace(base, xi=xi))
        entry = over_xi.census(i)
        assert counts(entry) == counts(scalar)
        assert entry.criteria_trace == scalar.criteria_trace
        assert over_xi.k_edge[i] == xi**2 * a / (lam * b)  # the scalar operation order
        assert over_xi.amplitude_ok[i] == scalar.criteria_trace["amplitude_criterion"]["ok"]


@pytest.mark.parametrize("field, value", [
    ("lam", math.nan), ("lam", math.inf), ("kappa", math.nan), ("kappa", math.inf),
    ("xi", math.nan), ("xi", math.inf), ("site", math.nan), ("site", -math.inf),
])
def test_non_finite_params_are_a_config_error(field, value):
    # xi = nan used to give both censuses (0, 0, 0) and xi = inf two different
    # ones; site = nan raised a bare ValueError
    args = {"n_atoms": 3, "lam": 1.0, "kappa": 1.0, "xi": 0.5, "site": 1, field: value}
    with pytest.raises(ConfigError, match=f"{field}={value}"):
        fr.WaveguideParams(**args)


@pytest.mark.parametrize("n_atoms", [2.5, 2.0, True, "3", 0])
def test_n_atoms_is_a_positive_integer(n_atoms):
    # 2.5 and 2.0 used to end in a raw TypeError, and True built a 1-atom chain
    with pytest.raises(ConfigError, match=f"n_atoms={n_atoms} "):
        fr.WaveguideParams(n_atoms, 1.0, 1.0, 0.5, 1)
    assert fr.WaveguideParams(np.int64(3), 1.0, 1.0, 0.5, 1).n_atoms == 3


@pytest.mark.parametrize("site", [2.5, 2.0, True, "3", 0, -math.inf])
def test_site_is_a_positive_integer_or_infinite(site):
    # True used to build site 1, and 2.0 was stored as a float
    with pytest.raises(ConfigError, match=f"site={site} "):
        fr.WaveguideParams(3, 1.0, 1.0, 0.5, site)
    assert fr.WaveguideParams(3, 1.0, 1.0, 0.5, np.int64(2)).site == 2
    assert fr.WaveguideParams(3, 1.0, 1.0, 0.5, fr.INFINITE).infinite


# ---------------------------------------------------------------------------
# closed forms against 40-digit mpmath, written in the textbook variables

SITES = [1, 2, 5, 40, fr.INFINITE]


def mp_sigma_pair(l, kappa, e):
    """(Sigma, Sigma') at E outside the band: with |E| = 2 kappa cosh th,
    Sigma = sign(E) (1 - e^{-2 l th}) / (2 kappa sinh th)."""
    with mp.workdps(40):
        a, k = abs(mp.mpf(e)), mp.mpf(kappa)
        th = mp.acosh(a / (2 * k))
        s = 2 * k * mp.sinh(th)
        ex = 0 if l == fr.INFINITE else mp.exp(-2 * l * th)
        sigma = (1 - ex) / s
        sigma_deriv = (2 * l * ex * s - (1 - ex) * a) / s**3 if ex else -a / s**3
        return float(mp.sign(e) * sigma), float(sigma_deriv)


def mp_j_delta(l, kappa, e):
    """(J, Delta) strictly inside the band, each times the envelope
    sqrt(4 kappa^2 - E^2): with E = 2 kappa cos phi, (2/pi) sin^2(l phi) and
    sin(2 l phi); at site inf 1/pi and 0."""
    if l == fr.INFINITE:
        return 1 / math.pi, 0.0
    with mp.workdps(40):
        phi = mp.acos(mp.mpf(e) / (2 * mp.mpf(kappa)))
        return float(2 * mp.sin(l * phi) ** 2 / mp.pi), float(mp.sin(2 * l * phi))


@pytest.mark.parametrize("kappa", [0.3, 0.75, 2.0])
@pytest.mark.parametrize("site", SITES)
def test_closed_sigma_pair_matches_mpmath(site, kappa):
    # from just past the edge tolerance (1e-12 * scale) to 100 band widths;
    # E^2 - 4 kappa^2 and arccosh(|E|/2 kappa) used to lose up to 6 digits
    m = fr.build_waveguide_model(fr.WaveguideParams(1, 1.0, kappa, 0.1, site))
    ov = m.overrides
    for d in np.geomspace(1.0001e-12 * m.scale, 100 * 4 * kappa, 60):
        for e in (2 * kappa + d, -2 * kappa - d):
            sigma, sigma_deriv = mp_sigma_pair(site, kappa, e)
            assert ov.sigma(e) == pytest.approx(sigma, rel=1e-15, abs=0), (e, d)
            assert ov.sigma_deriv(e) == pytest.approx(
                sigma_deriv, rel=SIGMA_DERIV_EPSREL, abs=0
            ), (e, d)


@pytest.mark.parametrize("kappa", [0.3, 0.75, 2.0])
@pytest.mark.parametrize("site", SITES)
def test_closed_j_and_delta_match_mpmath(site, kappa):
    """J and Delta within 1e-14 of the envelope 1/sqrt(4 kappa^2 - E^2) from
    one ulp inside each edge to the middle of the band.  Across the band the
    floor is the rounding of the angle 2 l psi (up to l pi) itself: a few
    l * eps, which at site 40 is above 1e-14."""
    m = fr.build_waveguide_model(fr.WaveguideParams(1, 1.0, kappa, 0.1, site))
    edge = 2 * kappa
    inner = np.nextafter(edge, 0.0)
    to_middle = [inner, *(edge - np.geomspace(edge - inner, edge, 40)[1:])]
    across = np.linspace(-edge, edge, 401)[1:-1]
    eps = np.finfo(float).eps
    for points, tol in ((to_middle, 1e-14), (across, max(1e-14, 2 * math.pi * site * eps))):
        e = np.concatenate([points, np.negative(points)])
        envelope = 1 / np.sqrt((edge - e) * (edge + e))
        j, delta = m.j(e) / envelope, m.overrides.delta(e) / envelope
        for i, ei in enumerate(e):
            j_ref, delta_ref = mp_j_delta(site, kappa, ei)
            assert abs(j[i] - j_ref) <= tol, (ei, j[i], j_ref)
            assert abs(delta[i] - delta_ref) <= tol, (ei, delta[i], delta_ref)


def test_norm_b2_on_the_grid_matches_mpmath():
    """|B|^2 = -Sigma / (K' Sigma + K Sigma') of every state solved on the
    waveguide grid with xi = 0.01, against 40-digit arithmetic at the solved
    energy: the bound states closest to the edges.  The site-inf Sigma' used
    to cancel there and left |B|^2 off by 1.2e-7."""
    grid = [c for c in load_generator().waveguide_grid() if c["xi"] == 0.01]
    solved = 0
    for case in grid:
        site = fr.INFINITE if case["site"] == "inf" else case["site"]
        params = fr.WaveguideParams(case["n_atoms"], 1.0, case["kappa"], case["xi"], site)
        m = fr.build_waveguide_model(params)
        try:
            states = fr.solve_bound_states(m)
        except fr.errors.FriedrichsError:
            continue  # the levels on an edge (ROADMAP item 1) solve nothing
        for state in states:
            e = state.energy
            sigma, sigma_deriv = mp_sigma_pair(site, params.kappa, e)
            with mp.workdps(40):
                d = [mp.mpf(e) - mp.mpf(float(v)) for v in m.levels]
                f2 = [mp.mpf(float(v)) for v in m._f2]
                k = mp.fsum(f / x for f, x in zip(f2, d))
                kp = -mp.fsum(f / x**2 for f, x in zip(f2, d))
                b2 = float(-sigma / (kp * sigma + k * sigma_deriv))
            assert state.norm_b2 == pytest.approx(b2, rel=1e-13, abs=0), (case, e)
            solved += 1
    assert solved > 400
