import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import friedrichs as fr
from friedrichs import bound_states as bs
from friedrichs import quadrature as qd
from friedrichs import spectral as sp
from friedrichs.bound_states import BoundStateKind
from friedrichs.cli import model_from_doc
from friedrichs.errors import ConfigError, NonconvergentEdge, PoleHit

from _support import census_bruteforce, census_margin, random_model, residual, total_norm


def test_single_far_level_weak_coupling():
    # decoupled limit: the root stays within 1% of the bare level
    lo, up = 0.0, 1.0
    eps = lo - 10.0 * (up - lo)

    def j(om):
        om = np.asarray(om, dtype=float)
        out = np.zeros_like(om)
        inside = (om > lo) & (om < up)
        out[inside] = 0.02 * (om[inside] - lo) * (up - om[inside])
        return out

    m = fr.validate_model(
        fr.FriedrichsModel(
            discrete=fr.DiscreteSpectrum(np.array([eps]), np.array([0.05])),
            continuum=fr.ContinuumBand(lo, up, j, edge_exponents=(1.0, 1.0)),
        )
    )
    states = fr.solve_bound_states(m)
    assert len(states) == 1
    assert states[0].kind is BoundStateKind.BELOW_BAND
    assert abs(states[0].energy - eps) < 0.01 * abs(eps)


def test_waveguide_infinite_two_symmetric_roots():
    params = fr.WaveguideParams(3, 1.0, 0.75, 0.25, fr.INFINITE)
    m = fr.build_waveguide_model(params)
    states = fr.solve_bound_states(m)
    assert len(states) == 2
    assert states[0].energy == pytest.approx(-states[1].energy, rel=1e-12)
    assert states[0].energy < -1.5 < 1.5 < states[1].energy


def test_plugback_residual():
    rng = np.random.default_rng(101)
    checked = 0
    for _ in range(12):
        m = random_model(rng, n_max=4)
        for state in fr.solve_bound_states(m):
            assert residual(m, state) < 1e-10
            checked += 1
    assert checked >= 5


def test_census_equals_solved_count():
    rng = np.random.default_rng(57)
    for _ in range(15):
        m = random_model(rng, n_max=4)
        census = fr.count_bound_states(m)
        states = fr.solve_bound_states(m, census)
        assert len(states) == census.m_below + census.m_above


def test_census_against_bruteforce_scan():
    rng = np.random.default_rng(7)
    done = 0
    while done < 12:
        m = random_model(rng, n_max=4)
        if census_margin(m) < 1e-2:
            continue
        census = fr.count_bound_states(m)
        below, above = census_bruteforce(m, n_grid=40_000)
        assert (census.m_below, census.m_above) == (below, above)
        done += 1


def test_interlacing_below_band():
    rng = np.random.default_rng(31)
    for _ in range(10):
        m = random_model(rng, n_max=4)
        census = fr.count_bound_states(m)
        states = fr.solve_bound_states(m, census)
        below = [s.energy for s in states if s.kind is BoundStateKind.BELOW_BAND]
        poles = [e for e in m.levels if e < m.omega_low]
        # at most one root per monotone branch segment
        bounds = [-np.inf] + poles + [m.omega_low]
        for a, b in zip(bounds[:-1], bounds[1:]):
            assert sum(1 for e in below if a < e < b) <= 1


def test_zero_coupling_limit_monotone():
    params = fr.WaveguideParams(3, 1.0, 0.75, 1.0, fr.INFINITE)
    gaps = []
    for s in (1.0, 0.5, 0.25, 0.125):
        scaled = fr.WaveguideParams(3, 1.0, 0.75, 1.0 * s, fr.INFINITE)
        m = fr.build_waveguide_model(scaled)
        states = fr.solve_bound_states(m)
        e_above = max(st.energy for st in states)
        gaps.append(e_above - 1.5)  # distance to the band edge it collapses onto
    assert all(g > 0 for g in gaps)
    assert all(b < a for a, b in zip(gaps[:-1], gaps[1:]))


def test_total_norm_unity():
    rng = np.random.default_rng(201)
    checked = 0
    for _ in range(8):
        m = random_model(rng, n_max=3)
        for state in fr.solve_bound_states(m):
            assert total_norm(m, state) == pytest.approx(1.0, abs=1e-6)
            checked += 1
    params = fr.WaveguideParams(3, 1.0, 0.75, 0.25, 2)
    m2 = fr.build_waveguide_model(params)
    for state in fr.find_bics(m2):
        assert total_norm(m2, state) == pytest.approx(1.0, abs=1e-6)
        checked += 1
    assert checked >= 3


def test_bic_special_case_zero_energy():
    params = fr.WaveguideParams(3, 1.0, 0.75, 0.25, 2)
    m = fr.build_waveguide_model(params)
    bics = fr.find_bics(m)
    assert len(bics) == 1
    bic = bics[0]
    assert bic.kind is BoundStateKind.IN_CONTINUUM
    assert bic.energy == pytest.approx(0.0, abs=1e-12)
    assert bic.level_index == 1
    f2 = abs(m.couplings[1]) ** 2
    sigp = fr.self_energy_derivative(m, 0.0)
    assert bic.norm_b2 == pytest.approx(1.0 / (1.0 - f2 * sigp), rel=1e-12)
    # amplitudes live on the pinned level only
    assert abs(bic.amplitudes[0]) == 0 and abs(bic.amplitudes[2]) == 0


def test_all_levels_become_bics_at_matched_hopping():
    params = fr.WaveguideParams(3, 1.0, 1.0, 0.4, 4)
    m = fr.build_waveguide_model(params)
    bics = fr.find_bics(m)
    assert len(bics) == 3
    assert np.allclose(sorted(s.energy for s in bics), m.levels, atol=1e-12)


def test_no_bics_without_interior_zeros():
    params = fr.WaveguideParams(3, 1.0, 0.75, 0.25, 1)
    m = fr.build_waveguide_model(params)
    assert fr.find_bics(m) == []


def test_generic_bic_at_declared_zero():
    # tune a single level against a quadratic J-zero so K(e0) = 1/Sigma(e0)
    lo, up, z0 = -1.0, 1.0, 0.2

    def j(om):
        om = np.asarray(om, dtype=float)
        out = np.zeros_like(om)
        inside = (om > lo) & (om < up)
        out[inside] = 0.15 * (om[inside] - lo) * (up - om[inside]) * (om[inside] - z0) ** 2
        return out

    def build(eps):
        return fr.validate_model(
            fr.FriedrichsModel(
                discrete=fr.DiscreteSpectrum(np.array([eps]), np.array([0.4])),
                continuum=fr.ContinuumBand(
                    lo, up, j, edge_exponents=(1.0, 1.0), interior_zeros=(z0,)
                ),
            )
        )

    sig0 = fr.self_energy(build(-0.5), z0)  # independent of eps
    eps_star = z0 - 0.16 * sig0  # K(z0) = |f|^2/(z0-eps) = 1/Sigma(z0)
    m = build(eps_star)
    bics = fr.find_bics(m)
    assert len(bics) == 1
    assert bics[0].energy == pytest.approx(z0)
    assert bics[0].level_index is None
    assert total_norm(m, bics[0]) == pytest.approx(1.0, abs=1e-6)
    # detuned level: no BIC
    assert fr.find_bics(build(eps_star + 0.05)) == []


def test_census_counts_shifted_band():
    # three levels below a high band: all three appear as bound states
    lo, up = 5.0, 7.0

    def j(om):
        om = np.asarray(om, dtype=float)
        out = np.zeros_like(om)
        inside = (om > lo) & (om < up)
        out[inside] = 0.05 * (om[inside] - lo) * (up - om[inside])
        return out

    m = fr.validate_model(
        fr.FriedrichsModel(
            discrete=fr.DiscreteSpectrum(
                np.array([-1.0, 0.0, 1.0]), np.array([0.3, 0.2, 0.25])
            ),
            continuum=fr.ContinuumBand(lo, up, j, edge_exponents=(1.0, 1.0)),
        )
    )
    census = fr.count_bound_states(m)
    assert census.n_low == 3 and census.n_up == 0
    states = fr.solve_bound_states(m, census)
    assert len(states) == census.m_below + census.m_above >= 3


def assert_census_zero_is_k_zero(m):
    """Each edge's energy criterion, read off the sign of K at the edge,
    says whether the edge lies past the zero k_zeros gives for its gap."""
    zeros = fr.k_zeros(m)
    trace = fr.count_bound_states(m).criteria_trace
    for side in ("low", "up"):
        tr = trace[side]
        n_side = tr["n_side"]
        if not 1 <= n_side <= m.n_levels - 1:
            assert tr["energy_ok"]
            continue
        j = n_side - 1 if side == "low" else m.n_levels - 1 - n_side
        assert m.levels[j] < zeros[j] < m.levels[j + 1]
        assert tr["energy_ok"] == (tr["edge"] > zeros[j] if side == "low" else tr["edge"] < zeros[j])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_census_zero_is_k_zero_random(seed):
    assert_census_zero_is_k_zero(random_model(np.random.default_rng(seed), n_max=4))


@pytest.mark.parametrize("n_atoms", [2, 5, 10])
@pytest.mark.parametrize("kappa", [0.3, 0.8])
def test_census_zero_is_k_zero_waveguide(n_atoms, kappa):
    for site in (3, fr.INFINITE):
        params = fr.WaveguideParams(n_atoms, 1.0, kappa, 0.5, site)
        assert_census_zero_is_k_zero(fr.build_waveguide_model(params))


# ---------------------------------------------------------------------------
# the one outward walk: carried bracket values and mirror symmetry

EDGE_CLASSES = (0.5, 1.0, 2.0, "divergent")


def power_edges_doc(rng) -> dict:
    """A random CLI power_edges document, divergent (van Hove) edges included."""
    n = int(rng.integers(1, 5))
    while True:
        levels = np.sort(rng.uniform(-3.4, 3.4, n))
        if n == 1 or np.min(np.diff(levels)) > 0.3:
            break
    lo, up = float(rng.uniform(-3.0, -1.0)), float(rng.uniform(1.0, 3.0))
    s_low, s_up = (EDGE_CLASSES[int(i)] for i in rng.integers(4, size=2))
    a, b = (-0.5 if s == "divergent" else s for s in (s_low, s_up))
    # amplitude for a band mass in (0.05, 0.25), the J-zero factor aside
    log_mass = (a + b + 1) * math.log(up - lo) + math.lgamma(a + 1) + math.lgamma(b + 1)
    log_mass -= math.lgamma(a + b + 2)
    zeros = [float(rng.uniform(lo + 0.3 * (up - lo), up - 0.3 * (up - lo)))] * int(
        rng.integers(2)
    )
    couplings = rng.uniform(0.15, 0.5, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    return {
        "kind": "generic",
        "levels": [float(e) for e in levels],
        "couplings": [[float(c.real), float(c.imag)] for c in couplings],
        "band": [lo, up],
        "spectral_density": {
            "form": "power_edges",
            "amplitude": float(rng.uniform(0.05, 0.25)) * math.exp(-log_mass),
            "s_low": s_low,
            "s_up": s_up,
            "zeros": zeros,
        },
    }


def mirrored_doc(doc: dict) -> dict:
    """The document of the reflected model E -> -E: J(w) -> J(-w)."""
    lo, up = doc["band"]
    spec = doc["spectral_density"]
    return dict(
        doc,
        levels=[-e for e in reversed(doc["levels"])],
        couplings=list(reversed(doc["couplings"])),
        band=[-up, -lo],
        spectral_density=dict(
            spec, s_low=spec["s_up"], s_up=spec["s_low"], zeros=[-z for z in spec["zeros"]]
        ),
    )


def assert_brackets_carry_exact_values(m):
    """Each bracket end carries g = (K - 1/Sigma) * prod_p |E - p| (p the
    pole ends): the exact limit s*|f_p|^2 at a pole end, the census's K -
    1/Sigma at the edge and K - 1/Sigma at the far sentinel, each times the
    distance to a pole end; the solver's g returns these at the ends with no
    Sigma call, g(a) > 0 > g(b), and inside g is K - 1/Sigma times that
    distance."""
    census = fr.count_bound_states(m)
    for side, sgn, want in (("low", -1, census.m_below), ("up", +1, census.m_above)):
        trace = census.criteria_trace[side]
        brackets, uncoupled = bs._brackets_one_side(m, trace, sgn)
        assert len(brackets) + len(uncoupled) == want
        for br in brackets:
            assert br.a < br.b
            pole_ends = {float(m.levels[n]): n for n, _ in br.poles}
            for end, other, value, s in ((br.a, br.b, br.ga, 1.0), (br.b, br.a, br.gb, -1.0)):
                factor = abs(end - other) if other in pole_ends else 1.0
                if end in pole_ends:
                    exact = s * m._f2[pole_ends[end]] * factor
                elif end == trace["edge"]:
                    exact = (trace["k_edge"] - trace["sigma_inv_edge"]) * factor
                else:
                    exact = bs._mismatch(m, end) * factor
                assert value == exact
            sig_invs = {}
            g = bs._pole_free(m, br, sig_invs)
            assert g(br.a) == br.ga > 0 > br.gb == g(br.b)
            assert sig_invs == {}
            mid = 0.5 * (br.a + br.b)
            got = g(mid)
            factor = math.prod(abs(mid - m.levels[n]) for n, _ in br.poles)
            size = float(np.sum(m._f2 / np.abs(mid - m.levels))) + abs(sig_invs[mid])
            assert got == pytest.approx(bs._mismatch(m, mid) * factor, abs=1e-12 * size * factor)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_bracket_values_exact_random(seed):
    model, _, _ = model_from_doc(power_edges_doc(np.random.default_rng(seed)))
    assert_brackets_carry_exact_values(model)


@pytest.mark.parametrize("kappa", [0.99, 1.0, 1.01])
@pytest.mark.parametrize("n_atoms", [1, 2, 5, 10])
def test_bracket_values_exact_waveguide(n_atoms, kappa):
    for xi in (0.01, 0.5, 1.5, 3.0):
        for site in (1, 2, 5, fr.INFINITE):
            params = fr.WaveguideParams(n_atoms, 1.0, kappa, xi, site)
            assert_brackets_carry_exact_values(fr.build_waveguide_model(params))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_mirror_symmetry(seed):
    doc = power_edges_doc(np.random.default_rng(seed))
    m, _, _ = model_from_doc(doc)
    r, _, _ = model_from_doc(mirrored_doc(doc))
    if min(census_margin(m), census_margin(r)) < 1e-9:
        return
    cm, cr = fr.count_bound_states(m), fr.count_bound_states(r)
    assert (cr.m_below, cr.m_above) == (cm.m_above, cm.m_below)
    em = [s.energy for s in fr.solve_bound_states(m, cm)]
    er = [-s.energy for s in reversed(fr.solve_bound_states(r, cr))]
    assert len(em) == len(er)
    assert np.allclose(em, er, rtol=0.0, atol=1e-12 * m.scale)


def _uncoupled_level_model(levels, couplings, zeros=()):
    """Levels and couplings on J = 0.3(1 - w^2) prod_z (w - z)^2 over [-1, 1]."""
    def j(om):
        om = np.asarray(om, dtype=float)
        shape = np.prod([(om - z) ** 2 for z in zeros], axis=0) if zeros else 1.0
        return np.where(np.abs(om) < 1.0, 0.3 * (1.0 - om**2) * shape, 0.0)

    return fr.validate_model(fr.FriedrichsModel(
        fr.DiscreteSpectrum(np.array(levels), np.array(couplings)),
        fr.ContinuumBand(-1.0, 1.0, j, interior_zeros=zeros),
    ))


def test_uncoupled_level_next_to_an_edge_gap():
    # f_2 = 0 leaves level 2 (inside the band) without a K-pole, so no K-zero
    # bounds the gap (-2, 0.3) next to the low edge; the energy criterion
    # reads the sign of K at the edge and needs none.  The census used to
    # raise ConfigError here.  The uncoupled level stays put (p = 1), and
    # the coupled one decays as it does without it
    model = _uncoupled_level_model([-2.0, 0.3], [0.3, 0.0])
    census = fr.count_bound_states(model)
    assert (census.m_below, census.m_above, census.m_bic) == (1, 0, 1)
    assert census_bruteforce(model) == (1, 0)
    assert "k_zero_boundary" not in census.criteria_trace["low"]
    t = np.linspace(0.0, 50.0, 26)
    stays = fr.survival_probability(model, fr.InitialState(np.array([0.0, 1.0])), t)
    assert np.max(np.abs(stays.p - 1.0)) <= 1e-12
    decays = fr.survival_probability(model, fr.InitialState(np.array([1.0, 0.0])), t)
    alone = fr.survival_probability(
        _uncoupled_level_model([-2.0], [0.3]), fr.InitialState(np.array([1.0])), t
    )
    assert np.max(np.abs(decays.p - alone.p)) <= 1e-13


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_one_uncoupled_level_census_random(seed):
    # one coupling set to 0: the census, which raised ConfigError whenever
    # the uncoupled level bordered the gap of an edge, equals the brute-force
    # count, and the solve returns as many states
    rng = np.random.default_rng(seed)
    m = random_model(rng, n_max=4, complex_couplings=False)
    couplings = m.couplings.copy()
    couplings[int(rng.integers(m.n_levels))] = 0.0
    m = fr.validate_model(fr.FriedrichsModel(fr.DiscreteSpectrum(m.levels, couplings), m.continuum))
    assume(census_margin(m) >= 1e-2)
    census = fr.count_bound_states(m)
    assert (census.m_below, census.m_above) == census_bruteforce(m, n_grid=40_000)
    assert len(fr.solve_bound_states(m, census)) == census.m_outside


@pytest.mark.parametrize("site", [1, 2, fr.INFINITE])
def test_uncoupled_chain_matches_closed_census_and_oracle(site):
    # xi = 0 uncouples every level of the chain: the census equals the
    # closed one and p(t) the lattice oracle
    params = fr.WaveguideParams(3, 1.0, 0.3, 0.0, site)
    model = fr.build_waveguide_model(params)
    census, closed = fr.count_bound_states(model), fr.waveguide_bound_state_count(params)
    assert (census.m_below, census.m_above, census.m_bic) == (
        closed.m_below, closed.m_above, closed.m_bic
    )
    t = np.linspace(0.0, 50.0, 201)
    series = fr.survival_probability(model, fr.default_initial_state(params), t)
    oracle = fr.evolve_lattice(params, t)
    assert np.max(np.abs(series.p - oracle.p)) <= 1e-13


@pytest.mark.xfail(strict=True, raises=PoleHit, reason="root within the PoleHit guard of its level")
@pytest.mark.parametrize("site", [1, 2, 5, fr.INFINITE])
def test_root_next_to_its_level(site):
    # xi = 1e-6 puts a root 1.9e-13 below the level -sqrt(2), inside the
    # 1e-13*scale guard that `spectral._k_real` keeps, which the Newton
    # steps and the state of `bound_states._bracket_state` read K and K'
    # through
    params = fr.WaveguideParams(3, 1.0, 0.3, 1e-6, site)
    model = fr.build_waveguide_model(params)
    census = fr.count_bound_states(model)
    states = fr.solve_bound_states(model, census)
    assert len(states) == census.m_outside
    assert all(residual(model, state) < 1e-10 for state in states)


@pytest.mark.xfail(strict=True, raises=NonconvergentEdge, reason="root within the edge tolerance")
def test_root_next_to_a_divergent_edge():
    # at site inf, xi = 1e-3 puts the extra root 3.525e-13 outside the
    # divergent edge -0.6 (40-digit mpmath), within the 1e-12*scale =
    # 2.83e-12 that `self_energy` takes as the edge itself, where Sigma
    # diverges
    params = fr.WaveguideParams(3, 1.0, 0.3, 1e-3, fr.INFINITE)
    model = fr.build_waveguide_model(params)
    census = fr.count_bound_states(model)
    states = fr.solve_bound_states(model, census)
    assert len(states) == census.m_outside
    assert all(residual(model, state) < 1e-10 for state in states)


@pytest.mark.parametrize("levels, couplings", [([-2.0, -1.5], [0.3, 0.0]), ([-1.5], [0.0])])
def test_uncoupled_level_outside_the_band_is_a_pinned_state(levels, couplings):
    # f = 0 gives the level no K-pole: it is an eigenstate on its own, which
    # the census counts and the solve returns pinned to the level
    model = _uncoupled_level_model(levels, couplings)
    census = fr.count_bound_states(model)
    assert (census.m_below, census.m_above) == (len(levels), 0)
    states = fr.solve_bound_states(model, census)
    assert len(states) == census.m_outside
    pinned = [s for s in states if s.level_index is not None]
    assert len(pinned) == 1
    n = len(levels) - 1
    state = pinned[0]
    assert state.energy == -1.5 and state.kind is BoundStateKind.BELOW_BAND
    assert state.level_index == n and state.norm_b2 == 1.0
    assert np.array_equal(state.amplitudes, np.eye(len(levels))[n])
    assert np.all(state.continuum_profile(np.linspace(-0.9, 0.9, 7)) == 0.0)
    for other in states:
        if other is not state:
            assert residual(model, other) < 1e-10


def test_survival_on_an_uncoupled_level_stays_one():
    model = _uncoupled_level_model([-2.0, -1.5], [0.3, 0.0])
    series = fr.survival_probability(
        model, fr.InitialState(np.array([0.0, 1.0])), np.linspace(0.0, 50.0, 26)
    )
    assert np.max(np.abs(series.p - 1.0)) <= 1e-12


@pytest.mark.parametrize("zeros", [(), (0.3,)])
def test_uncoupled_level_inside_the_band_is_a_pinned_bic(zeros):
    # f = 0 strictly inside the band: an eigenstate on the level alone, which
    # used to be lost (p = 0); on a declared J-zero the zero's branch pins it,
    # and it is counted once
    model = _uncoupled_level_model([-0.5, 0.3], [0.2, 0.0], zeros)
    bics = fr.find_bics(model)
    census = fr.count_bound_states(model)
    assert len(bics) == census.m_bic == 1
    state = bics[0]
    assert state.energy == 0.3 and state.kind is BoundStateKind.IN_CONTINUUM
    assert state.level_index == 1 and state.norm_b2 == 1.0
    assert np.array_equal(state.amplitudes, [0.0, 1.0])
    assert np.all(state.continuum_profile(np.linspace(-0.9, 0.9, 7)) == 0.0)
    series = fr.survival_probability(
        model, fr.InitialState(np.array([0.0, 1.0])), np.linspace(0.0, 50.0, 26)
    )
    assert np.max(np.abs(series.p - 1.0)) <= 1e-12


#: N = 40 grid cases at kappa in {0.1, 2}, and the waveguide next to a
#: divergent edge that used to take 78 Sigma calls for its 2 states
_WORK_CASES = [
    (40, 1.0, kappa, xi, site)
    for kappa in (0.1, 2.0)
    for xi in (0.01, 0.5, 1.5, 3.0)
    for site in (1, 2, 5, fr.INFINITE)
] + [(1, 1.0, 2.0, 0.01, fr.INFINITE)]


def test_solve_spends_at_most_ten_sigma_calls_per_state(monkeypatch):
    calls = []
    plain = sp.self_energy

    def counted(model, e):
        calls.append(e)
        return plain(model, e)

    monkeypatch.setattr(sp, "self_energy", counted)
    states = 0
    for case in _WORK_CASES:
        model = fr.build_waveguide_model(fr.WaveguideParams(*case))
        census = fr.count_bound_states(model)
        calls.clear()
        solved = fr.solve_bound_states(model, census)
        assert len(solved) == census.m_outside
        assert len(calls) <= 10 * len(solved), case
        states += len(solved)
    assert states > len(_WORK_CASES)


def test_no_energy_gets_sigma_prime_twice_in_one_solve(monkeypatch):
    # the bracket's one pass evaluates K, K', Sigma and Sigma' once at each
    # energy it visits; a state rebuilt at the last Newton energy used to
    # read Sigma' there a second time, on 1,725 of the 2,385 roots of the
    # benchmark's waveguide grid
    energies = []
    plain = sp.self_energy_derivative

    def recorded(model, e):
        energies.append(e)
        return plain(model, e)

    monkeypatch.setattr(sp, "self_energy_derivative", recorded)
    models = [fr.build_waveguide_model(fr.WaveguideParams(*case)) for case in _WORK_CASES]
    models += [
        fr.build_waveguide_model(fr.WaveguideParams(n, 1.0, kappa, 0.5, 2))
        for n in (2, 5, 10) for kappa in (0.99, 1.0, 1.01)
    ]
    rng = np.random.default_rng(17)
    models += [random_model(rng, n_max=4, with_zero=seed % 2 == 1) for seed in range(12)]
    solved = 0
    for model in models:
        census = fr.count_bound_states(model)
        for solve in (lambda: fr.solve_bound_states(model, census), lambda: fr.find_bics(model)):
            energies.clear()
            solved += len(solve())
            assert len(set(energies)) == len(energies), energies
    assert solved > len(models)


def test_every_sigma_evaluation_is_a_self_energy_call(monkeypatch):
    # the Sigma counters (the test above, the traced self_energy_per_state)
    # wrap spectral.self_energy: a Sigma kernel evaluated outside it, by a
    # closed form or by the graded rule, would go uncounted
    depth, evaluations, uncounted = [0], [], []

    def counted(model, e):
        depth[0] += 1
        try:
            return plain(model, e)
        finally:
            depth[0] -= 1

    def kernel(e):
        evaluations.append(e)
        if depth[0] == 0:
            uncounted.append(e)

    def watched(closed):
        def sigma(e):
            kernel(e)
            return closed(e)

        return sigma

    def rule(*args, **kwargs):
        if kwargs["power"] == 1:
            kernel(args[3])
        return plain_rule(*args, **kwargs)

    plain, plain_rule = sp.self_energy, qd.kernel_integral
    monkeypatch.setattr(sp, "self_energy", counted)
    monkeypatch.setattr(qd, "kernel_integral", rule)
    models = []
    for case in _WORK_CASES[::3]:  # every site
        model = fr.build_waveguide_model(fr.WaveguideParams(*case))
        overrides = replace(model.overrides, sigma=watched(model.overrides.sigma))
        model = fr.FriedrichsModel(model.discrete, model.continuum, overrides)
        models.append(fr.validate_model(model))
    rng = np.random.default_rng(5)
    models += [model_from_doc(power_edges_doc(rng))[0] for _ in range(8)]
    for model in models:
        census = fr.count_bound_states(model)
        fr.solve_bound_states(model, census)
        fr.all_bound_states(model)
    assert len(evaluations) > 100
    assert uncounted == []


def test_closed_census_passed_to_the_solver_is_a_config_error():
    # the closed census traces its criteria without per-edge entries
    params = fr.WaveguideParams(3, 1.0, 0.75, 0.25, 2)
    model = fr.build_waveguide_model(params)
    with pytest.raises(ConfigError, match=r"count_bound_states\(model\)"):
        fr.solve_bound_states(model, fr.waveguide_bound_state_count(params))
