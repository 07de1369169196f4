import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import friedrichs as fr
from friedrichs import cli
from friedrichs import dynamics as dyn
from friedrichs import quadrature as qd
from friedrichs import spectral as sp
from friedrichs.errors import ConfigError, QuadratureBudgetExceeded

from _support import census_bruteforce, delta_rule, random_initial, random_model


@pytest.fixture(scope="module")
def fig_cases():
    out = {}
    for site in (1, 2, fr.INFINITE):
        params = fr.WaveguideParams(3, 1.0, 0.75, 0.25, site)
        model = fr.build_waveguide_model(params)
        initial = fr.default_initial_state(params)
        bound = fr.all_bound_states(model)
        out[site] = (params, model, initial, bound)
    return out


def test_no_bound_states_forces_complete_decay(fig_cases):
    _, model, initial, bound = fig_cases[1]
    assert bound == []
    coeffs = fr.decay_coefficients(model, initial, bound)
    assert coeffs.R.shape == (3, 0)
    limit = fr.long_time_limit(model, initial, bound)
    assert limit.mean == 0.0 and limit.beats == []


def test_bic_row_structure(fig_cases):
    _, model, initial, bound = fig_cases[2]
    assert len(bound) == 1
    coeffs = fr.decay_coefficients(model, initial, bound)
    r = coeffs.R[:, 0]
    assert r[0] == 0 and r[2] == 0
    expected = initial.amplitudes[1] / (
        1 - abs(model.couplings[1]) ** 2 * fr.self_energy_derivative(model, 0.0)
    )
    assert r[1] == pytest.approx(expected, rel=1e-12)


def test_decay_coefficients_match_the_paper_formula(fig_cases):
    # R[n, m] = |B|^2 f_n I(E_m)/(E_m - eps_n), and |B|^2 c_n alone on the
    # row n of a state pinned to level n (the fig. 4 BIC at site 2)
    rng = np.random.default_rng(19)
    cases = [fig_cases[2][1:]]
    for _ in range(12):
        model = random_model(rng, n_max=4, with_zero=bool(rng.integers(2)))
        initial = random_initial(rng, model.n_levels)
        cases.append((model, initial, fr.all_bound_states(model)))
    checked = 0
    for model, initial, bound in cases:
        r = fr.decay_coefficients(model, initial, bound).R
        for m, state in enumerate(bound):
            if state.level_index is not None:
                paper = np.zeros(model.n_levels, dtype=complex)
                paper[state.level_index] = state.norm_b2 * initial.amplitudes[state.level_index]
            else:
                i_val = fr.i_function(model, initial, state.energy)
                paper = state.norm_b2 * model.couplings * i_val / (state.energy - model.levels)
            assert np.max(np.abs(r[:, m] - paper)) <= 1e-13 * np.max(np.abs(paper))
            checked += 1
    assert checked >= 12


def test_r_column_zero_when_initial_orthogonal():
    # I(E_m) = 0 makes the whole column vanish for a generic bound state
    params = fr.WaveguideParams(2, 1.0, 0.3, 0.8, fr.INFINITE)
    model = fr.build_waveguide_model(params)
    bound = fr.solve_bound_states(model)
    assert bound
    e0 = bound[0].energy
    f = model.couplings
    # c with  sum_n f_n^* c_n/(e0 - eps_n) = 0
    w = np.array(
        [1.0, -(np.conj(f[0]) / (e0 - model.levels[0])) * (e0 - model.levels[1]) / np.conj(f[1])]
    )
    initial = fr.InitialState.normalized(w)
    assert abs(fr.i_function(model, initial, e0)) < 1e-14
    coeffs = fr.decay_coefficients(model, initial, bound)
    assert np.max(np.abs(coeffs.R[:, 0])) < 1e-13


def test_p0_equals_one(fig_cases):
    for site in (1, 2, fr.INFINITE):
        _, model, initial, bound = fig_cases[site]
        coeffs = fr.decay_coefficients(model, initial, bound)
        series = fr.survival_probability(model, initial, np.array([0.0]), coefficients=coeffs)
        assert series.p[0] == pytest.approx(1.0, abs=1e-4)


def test_completeness_sum_rule_componentwise(fig_cases):
    for site in (1, 2, fr.INFINITE):
        _, model, initial, bound = fig_cases[site]
        amps = fr.survival_amplitudes(model, initial, np.array([0.0]))[:, 0]
        assert np.allclose(amps, initial.amplitudes, atol=5e-5)


def test_parts_recombine_exactly(fig_cases):
    _, model, initial, bound = fig_cases[2]
    t = np.linspace(0.0, 30.0, 40)
    coeffs = fr.decay_coefficients(model, initial, bound)
    series = fr.survival_probability(model, initial, t, coefficients=coeffs)
    total = series.parts["bound"] + series.parts["scatter"] + series.parts["cross"]
    assert np.max(np.abs(total - series.p)) < 1e-12


def test_probability_range(fig_cases):
    for site in (1, 2, fr.INFINITE):
        _, model, initial, bound = fig_cases[site]
        t = np.linspace(0.0, 40.0, 81)
        coeffs = fr.decay_coefficients(model, initial, bound)
        series = fr.survival_probability(model, initial, t, coefficients=coeffs)
        assert np.all(series.p >= 0.0)
        assert np.all(series.p <= 1.0 + 1e-6)


def test_time_reversal_symmetry(fig_cases):
    # real couplings and real initial amplitudes: p(t) = p(-t)
    _, model, initial, bound = fig_cases[2]
    coeffs = fr.decay_coefficients(model, initial, bound)
    for t in (0.7, 3.3, 11.0):
        amps = dyn.survival_amplitudes(
            model, initial, np.array([-t, t]), coefficients=coeffs
        )
        p = np.sum(np.abs(amps) ** 2, axis=0)
        assert p[0] == pytest.approx(p[1], rel=1e-10)


def test_riemann_lebesgue_scattering_decay(fig_cases):
    _, model, initial, bound = fig_cases[1]
    coeffs = fr.decay_coefficients(model, initial, bound)
    maxima = []
    for t_win in (25.0, 50.0, 100.0):
        t = np.linspace(t_win, 2 * t_win, 120)
        series = fr.survival_probability(model, initial, t, coefficients=coeffs)
        maxima.append(float(np.max(series.parts["scatter"])))
    assert maxima[0] > maxima[1] > maxima[2]


def test_match_oracle_all_geometries(fig_cases):
    for site in (1, 2, fr.INFINITE):
        params, model, initial, bound = fig_cases[site]
        t = np.linspace(0.0, 50.0, 201)
        coeffs = fr.decay_coefficients(model, initial, bound)
        series = fr.survival_probability(model, initial, t, coefficients=coeffs)
        oracle = fr.evolve_lattice(params, t)
        assert np.max(np.abs(series.p - oracle.p)) < 1e-13


def test_uncoupled_level_inside_the_band_matches_the_oracle():
    # xi = 0 leaves the chain level 0 inside the band uncoupled: p = 1, as the
    # lattice gives, where the dynamics used to return p = 0
    params = fr.WaveguideParams(1, 1.0, 0.75, 0.0, 1)
    model = fr.build_waveguide_model(params)
    t = np.linspace(0.0, 20.0, 81)
    series = fr.survival_probability(model, fr.default_initial_state(params), t)
    oracle = fr.evolve_lattice(params, t)
    assert np.max(np.abs(series.p - 1.0)) <= 1e-12
    assert np.max(np.abs(series.p - oracle.p)) <= 1e-12


def test_long_time_limit_structure(fig_cases):
    _, model2, initial2, bound2 = fig_cases[2]
    lim2 = fr.long_time_limit(model2, initial2, bound2)
    assert lim2.beats == []  # single bound state: constant plateau
    assert 0.4 < lim2.mean < 0.5

    _, modelI, initialI, boundI = fig_cases[fr.INFINITE]
    limI = fr.long_time_limit(modelI, initialI, boundI)
    assert len(limI.beats) == 1
    freq = limI.beats[0][0]
    e = sorted(s.energy for s in boundI)
    assert freq == pytest.approx(e[1] - e[0], rel=1e-12)
    assert limI.mean <= 1.0


def test_beat_frequency_visible_in_oracle(fig_cases):
    # over t in [100, 200] transient bound-scattering interference still
    # rides on the signal; the persistent beat is the dominant component
    # above the transient band
    params, model, initial, bound = fig_cases[fr.INFINITE]
    lim = fr.long_time_limit(model, initial, bound)
    beat = lim.beats[0][0]
    oracle = fr.evolve_lattice(params, np.linspace(0.0, 200.0, 4001))
    mask = oracle.times >= 100.0
    sig = oracle.p[mask]
    idx = np.arange(sig.size)
    sig = (sig - np.polyval(np.polyfit(idx, sig, 2), idx)) * np.hanning(sig.size)
    freqs = 2 * np.pi * np.fft.rfftfreq(sig.size, d=0.05)
    spec = np.abs(np.fft.rfft(sig))
    upper = freqs > 0.75 * beat
    peak = freqs[upper][int(np.argmax(spec[upper]))]
    assert abs(peak - beat) <= freqs[1]


def test_sum_rule_random_models():
    rng = np.random.default_rng(77)
    done = 0
    while done < 6:
        m = random_model(rng, n_max=3, with_zero=False)
        initial = random_initial(rng, m.n_levels)
        series = fr.survival_probability(m, initial, np.array([0.0]))
        assert series.p[0] == pytest.approx(1.0, abs=1e-10)
        done += 1


def test_error_budget_enforced(fig_cases):
    _, model, initial, bound = fig_cases[1]
    t = np.linspace(0.0, 10.0, 11)
    coeffs = fr.decay_coefficients(model, initial, bound)
    with pytest.raises(QuadratureBudgetExceeded):
        # the estimate carries the rounding of the sums, so it is never 0
        fr.survival_probability(model, initial, t, coefficients=coeffs, error_budget=0.0)
    series = fr.survival_probability(
        model, initial, t, coefficients=coeffs, error_budget=1e-10
    )
    assert series.p.size == 11
    assert 0.0 < series.meta["transform_error"] <= 1e-10
    assert series.meta["delta_nodes"] == 0  # the waveguide's closed-form Delta


_SHORT_STATE_ROUTES = {
    "survival_probability": lambda m, c, bound: fr.survival_probability(m, c, [0.0, 1.0]),
    "long_time_limit": lambda m, c, bound: fr.long_time_limit(m, c, bound),
    "decay_coefficients": lambda m, c, bound: fr.decay_coefficients(m, c, bound),
    "markovian_closed": lambda m, c, bound: fr.markovian_survival(
        fr.build_markovian(m, 0.1), c, [0.0, 1.0]
    ),
    "markovian_expm": lambda m, c, bound: fr.markovian_survival(
        fr.build_markovian(m, 0.1), c, [0.0, 1.0], method="expm"
    ),
    "decay_components": lambda m, c, bound: fr.decay_components(fr.build_markovian(m, 0.1), c),
    "i_function": lambda m, c, bound: fr.i_function(m, c, 0.5j),
}


@pytest.mark.parametrize("route", sorted(_SHORT_STATE_ROUTES))
def test_initial_state_of_the_wrong_length_is_a_config_error(fig_cases, route):
    # a raw numpy ValueError used to escape from the matrix products
    _, model, _, bound = fig_cases[2]
    short = fr.InitialState(np.array([1.0, 0.0]))
    with pytest.raises(ConfigError, match="2 amplitudes, the model 3 levels"):
        _SHORT_STATE_ROUTES[route](model, short, bound)


def _delta_grids(monkeypatch) -> list:
    """The energy grids the calls after this one pass to delta_on_grid."""
    grids = []
    inner = qd.delta_on_grid

    def recorded(j, lo, up, e_grid, *args, **kwargs):
        grids.append(np.array(e_grid))
        return inner(j, lo, up, e_grid, *args, **kwargs)

    monkeypatch.setattr(qd, "delta_on_grid", recorded)
    return grids


def _generic_case():
    model = random_model(np.random.default_rng(5), n_max=2, with_zero=True)
    return model, random_initial(np.random.default_rng(6), model.n_levels)


def test_delta_node_count_reported():
    # delta_nodes is the node count of the band's Delta rule, whatever
    # grids asked for Delta before
    model, initial = _generic_case()
    times = np.linspace(0.0, 5.0, 6)
    sp.delta_gamma(model, 0.5 * (model.omega_low + model.omega_up))
    coeffs = fr.decay_coefficients(model, initial, fr.all_bound_states(model))
    series = fr.survival_probability(model, initial, times, coefficients=coeffs)
    kern, _ = dyn._transform(coeffs, times, None)
    assert series.meta["transform_nodes"] == kern.e_nodes.size
    assert series.meta["delta_nodes"] == delta_rule(model.omega_low, model.omega_up)[0].size
    assert 0 < series.meta["delta_nodes"] < 400


def test_delta_node_count_of_a_closed_form_delta():
    # a closed-form Delta reads no rule, even where Sigma has built the band's
    model, initial = _generic_case()
    closed = fr.AnalyticOverrides(delta=lambda e: sp._delta(model, e))
    partial = fr.validate_model(fr.FriedrichsModel(model.discrete, model.continuum, closed))
    series = fr.survival_probability(partial, initial, np.linspace(0.0, 5.0, 6))
    assert list(partial._rules) == ["band"] and series.meta["delta_nodes"] == 0


def test_delta_once_per_node_energy(monkeypatch):
    # the peak grid's panels come back in the kernel and each round's
    # kernel holds the halves of the one before: 649 of the 3006 energies
    # here reached delta_on_grid twice when each step formed Delta afresh
    model, initial = _generic_case()
    grids = _delta_grids(monkeypatch)
    fr.survival_probability(model, initial, np.linspace(0.0, 50.0, 50))
    e = np.concatenate(grids)
    assert len(grids) > 1 and np.unique(e).size == e.size


def test_delta_rules_built_once_per_model():
    # J is read on the nodes of the band's one rule once per model: a
    # census, a solve, two transforms, Delta at single energies and a
    # spectrum table read Sigma, Sigma' and Delta on that rule alone
    model, initial = _generic_case()
    lo, up = model.omega_low, model.omega_up
    reads = []

    def j(x):
        reads.append(np.array(x, dtype=float))
        return model.j(x)

    counted = dataclasses.replace(model, _j=j)
    times = np.linspace(0.0, 50.0, 50)
    fr.solve_bound_states(counted, fr.count_bound_states(counted))
    first = fr.survival_probability(counted, initial, times)
    again = fr.survival_probability(counted, initial, times)
    for e in lo + (up - lo) * np.array([1e-9, 0.3, 0.7, 1.0 - 1e-9]):
        sp.delta_gamma(counted, e)
    rows = [cli._spectrum_row(counted, e) for e in np.linspace(lo - 1.0, up + 1.0, 41)]
    assert np.isfinite(np.array(rows)[:, 1]).sum() > 30
    assert list(counted._rules) == ["band"]
    nodes = counted._rules["band"][0][0]
    assert sum(np.array_equal(nodes, x) for x in reads) == 1
    assert np.array_equal(first.p, again.p)


def test_model_keeps_only_recurring_rules(monkeypatch):
    # a census, a solve and a transform ask for Sigma at many energies and
    # for Delta on many grids; the model keeps the band's one rule, never a
    # rule per energy or grid
    model, initial = _generic_case()
    grids = _delta_grids(monkeypatch)
    energies = []
    inner = qd.kernel_integral

    def recorded(j, lo, up, e, *args, **kwargs):
        energies.append(e)
        return inner(j, lo, up, e, *args, **kwargs)

    monkeypatch.setattr(qd, "kernel_integral", recorded)
    census = fr.count_bound_states(model)
    fr.solve_bound_states(model, census)
    fr.survival_probability(model, initial, np.linspace(0.0, 50.0, 50))
    assert list(model._rules) == ["band"]
    assert len(set(energies)) > 1 and len(grids) > 1


def _finer(model, initial, times, series, factor=4):
    """p(t) on the same panels, each cut into `factor` equal panels."""
    return fr.survival_probability(
        model, initial, times, n_base_nodes=factor * series.meta["transform_nodes"]
    )


@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=12, deadline=None)
def test_halving_estimate_bounds_error(seed, with_zero):
    rng = np.random.default_rng(seed)
    model = random_model(rng, n_max=3, with_zero=with_zero)
    initial = random_initial(rng, model.n_levels)
    times = np.linspace(0.0, rng.uniform(5.0, 60.0), 41)
    series = fr.survival_probability(model, initial, times)
    fine = _finer(model, initial, times, series)
    assert fine.meta["transform_nodes"] >= 4 * series.meta["transform_nodes"]
    # 1e-12: Delta on the finer rule's nodes carries its own rounding, up
    # to about 1e-14, which a resonance of half-width 1e-4 lifts to 1e-13
    assert np.max(np.abs(series.p - fine.p)) <= series.meta["transform_error"] + 1e-12
    # next to a resonance narrower than about 1e-9, the rounding of
    # 1 - Delta*K limits p, and the estimate says so
    assert abs(series.p[0] - 1.0) <= series.meta["transform_error"]


def _narrow_resonance_model(f_2):
    """Level 0.3 inside the band [-1, 1] coupled by f_2, a resonance of
    half-width about pi*J(0.3)*f_2^2 = 0.86*f_2^2, and level -2 below the
    band coupled by 0.3."""
    def j(om):
        om = np.asarray(om, dtype=float)
        return np.where(np.abs(om) < 1.0, 0.3 * (1.0 - om**2), 0.0)

    return fr.validate_model(fr.FriedrichsModel(
        fr.DiscreteSpectrum(np.array([-2.0, 0.3]), np.array([0.3, f_2])),
        fr.ContinuumBand(-1.0, 1.0, j),
    ))


@pytest.mark.parametrize("f_2", [1e-6, 1e-5])
def test_transform_error_bounds_p0_next_to_a_narrow_resonance(f_2):
    # half-widths 8.6e-13 and 8.6e-11: S is finite on the level with its
    # pole multiplied out, so the nodes graded onto the peak resolve it
    model = _narrow_resonance_model(f_2)
    series = fr.survival_probability(
        model, fr.InitialState(np.array([0.0, 1.0])), np.linspace(0.0, 50.0, 11)
    )
    assert abs(series.p[0] - 1.0) <= 1e-6
    assert abs(series.p[0] - 1.0) <= series.meta["transform_error"]


@pytest.mark.parametrize("f_2", [1e-9, 1e-8, 1e-7])
def test_census_and_p0_estimate_next_to_a_sub_ulp_resonance(f_2):
    # the K-zero of the gap (-2, 0.3) lies within 2.6e-13 of the level 0.3,
    # inside the level's pole guard (and on the level itself, to rounding,
    # at f_2 = 1e-9): the census finds it with both poles multiplied out
    model = _narrow_resonance_model(f_2)
    census = fr.count_bound_states(model)
    assert (census.m_below, census.m_above) == census_bruteforce(model)
    assert len(fr.solve_bound_states(model, census)) == census.m_outside
    # a peak narrower than about one ulp of E is beyond any rule on float
    # nodes (p(0) = 3.26 at f_2 = 1e-8); the a(0) = c term of the estimate
    # reports that
    series = fr.survival_probability(model, fr.InitialState(np.array([0.0, 1.0])), [0.0])
    assert abs(series.p[0] - 1.0) <= series.meta["transform_error"]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_time_rejected(fig_cases, bad):
    _, model, initial, bound = fig_cases[1]
    coeffs = fr.decay_coefficients(model, initial, bound)
    with pytest.raises(ConfigError, match=str(bad)):
        fr.survival_probability(model, initial, [0.0, 1.0, bad], coefficients=coeffs)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_time_rejected_by_amplitudes(fig_cases, bad):
    # it used to warn from the transform's panel layout, then raise a raw ValueError
    _, model, initial, bound = fig_cases[1]
    coeffs = fr.decay_coefficients(model, initial, bound)
    with pytest.raises(ConfigError, match=str(bad)):
        fr.survival_amplitudes(model, initial, [0.0, 1.0, bad], coefficients=coeffs)


def test_amplitudes_take_negative_and_unsorted_times(fig_cases):
    _, model, initial, bound = fig_cases[1]
    coeffs = fr.decay_coefficients(model, initial, bound)
    t = np.array([2.0, -1.0, 0.5])
    order = np.argsort(t)
    amps = fr.survival_amplitudes(model, initial, t, coefficients=coeffs)
    ordered = fr.survival_amplitudes(model, initial, t[order], coefficients=coeffs)
    assert np.allclose(amps[:, order], ordered, rtol=0.0, atol=1e-15)


def _power_edges_model(band, s_low, s_up, zeros, amplitude, levels, couplings):
    """J = A (w-lo)^s_low (up-w)^s_up prod (w-z)^2; s = -1/2 is a van Hove edge."""
    lo, up = band

    def j(omega):
        om = np.asarray(omega, dtype=float)
        out = np.zeros_like(om)
        inside = (om > lo) & (om < up)
        v = amplitude * (om[inside] - lo) ** s_low * (up - om[inside]) ** s_up
        for z in zeros:
            v = v * (om[inside] - z) ** 2
        out[inside] = v
        return out if out.ndim else float(out)

    edges = tuple(fr.DIVERGENT if s < 0 else s for s in (s_low, s_up))
    return fr.validate_model(
        fr.FriedrichsModel(
            discrete=fr.DiscreteSpectrum(np.array(levels), np.array(couplings)),
            continuum=fr.ContinuumBand(
                omega_low=lo,
                omega_up=up,
                spectral_density=j,
                edge_exponents=edges,
                interior_zeros=tuple(zeros),
            ),
        )
    )


def test_narrow_peaks_away_from_their_levels():
    # resonance peaks of half-width 2.9e-4 and 1.1e-4 sit 40 and 74 widths
    # from the bare levels -0.61813 and -0.30795: the panels are graded
    # toward the peaks, not the levels
    model = _power_edges_model(
        (-1.0138360192890525, 1.1497793384281398),
        2.0,
        -0.5,
        (-0.07070052241242081,),
        0.018757885947219013,
        [-0.6181302457553708, -0.30794697006621297, 2.062181810175674, 2.602526661671174],
        [
            -0.08873672351452631 + 0.3548700491536091j,
            0.01627312723505382 - 0.2828993418282594j,
            0.24406510956420105 - 0.2388185636480464j,
            0.027512577023892686 + 0.41580325491536907j,
        ],
    )
    initial = fr.InitialState.normalized(
        np.array([0.6037 - 0.1967j, 0.5144 - 0.4332j, 0.0285 - 0.0452j, -0.2882 + 0.2423j])
    )
    coeffs = fr.decay_coefficients(model, initial, fr.all_bound_states(model))
    lo, up = model.omega_low, model.omega_up
    table = dyn._DeltaTable(model)
    grid = qd.panel_rule(lo, up, dyn._transform_breaks(coeffs, 60.0, table))[0]
    peaks = dyn._peaks(table, grid)
    narrow = sorted(e for e, width in peaks if width < 1e-3)
    assert narrow == pytest.approx([-0.62943, -0.31572], abs=1e-5)
    times = np.linspace(0.0, 60.0, 61)
    series = fr.survival_probability(model, initial, times, coefficients=coeffs)
    fine = _finer(model, initial, times, series)
    assert np.max(np.abs(series.p - fine.p)) <= 1e-10
    assert abs(series.p[0] - 1.0) <= 1e-10


def test_minimum_without_a_zero_is_given_up_within_three_steps(monkeypatch):
    # the model of test_narrow_peaks_away_from_their_levels: besides its two
    # narrow peaks, |h| has a minimum near E = 1.11 (an overdamped pair) where
    # 1 - Delta*K has no zero; its Newton steps grow by about 1.7x each, and
    # all 40 of them used to run before the minimum was dropped
    model = _power_edges_model(
        (-1.0138360192890525, 1.1497793384281398),
        2.0,
        -0.5,
        (-0.07070052241242081,),
        0.018757885947219013,
        [-0.6181302457553708, -0.30794697006621297, 2.062181810175674, 2.602526661671174],
        [
            -0.08873672351452631 + 0.3548700491536091j,
            0.01627312723505382 - 0.2828993418282594j,
            0.24406510956420105 - 0.2388185636480464j,
            0.027512577023892686 + 0.41580325491536907j,
        ],
    )
    initial = fr.InitialState.normalized(
        np.array([0.6037 - 0.1967j, 0.5144 - 0.4332j, 0.0285 - 0.0452j, -0.2882 + 0.2423j])
    )
    steps, found = [], []
    factored, peaks = dyn._factored, dyn._peaks

    def counted(m, x, delta):
        if x.size == 3:  # one Newton step of `_peaks`
            steps.append(float(x[1]))
        return factored(m, x, delta)

    def recorded(table, e):
        out = peaks(table, e)
        found.extend(out)
        return out

    monkeypatch.setattr(dyn, "_factored", counted)
    monkeypatch.setattr(dyn, "_peaks", recorded)
    series = fr.survival_probability(model, initial, np.linspace(0.0, 50.0, 50))
    assert len([x for x in steps if x > 0.5]) <= 3
    assert len(steps) <= 9
    assert [e for e, _ in found] == pytest.approx([-0.6294255127, -0.3157139761], abs=1e-9)
    assert abs(series.p[0] - 1.0) <= 1e-10


def test_long_run_matches_oracle(fig_cases):
    # t_max = 200: panels one wavelength of exp(-iE t_max) wide
    params, model, initial, bound = fig_cases[fr.INFINITE]
    oracle = fr.evolve_lattice(params, np.linspace(0.0, 200.0, 401))
    coeffs = fr.decay_coefficients(model, initial, bound)
    series = fr.survival_probability(model, initial, oracle.times, coefficients=coeffs)
    assert np.max(np.abs(series.p - oracle.p)) < 1e-13
    assert series.meta["transform_nodes"] < 2100


def test_coefficients_of_another_state_or_model_are_rejected():
    # the coefficients of e_1 used to be taken for e_2: p(2.5) read 0.9569, e_1's value
    params = fr.WaveguideParams(3, 1.0, 0.75, 0.25, 2)
    model = fr.build_waveguide_model(params)
    e1, e2 = (fr.InitialState(np.eye(3)[n]) for n in (0, 1))
    coeffs = fr.decay_coefficients(model, e1, fr.all_bound_states(model))
    p2 = fr.survival_probability(model, e2, [2.5]).p[0]
    assert p2 == pytest.approx(0.8981, abs=1e-4)
    assert fr.survival_probability(model, e1, [2.5]).p[0] == pytest.approx(0.9569, abs=1e-4)
    for call in (fr.survival_probability, fr.survival_amplitudes):
        with pytest.raises(ConfigError, match="initial amplitudes"):
            call(model, e2, [2.5], coefficients=coeffs)
        with pytest.raises(ConfigError, match="another model"):
            call(fr.build_waveguide_model(params), e1, [2.5], coefficients=coeffs)
    # equal amplitudes in another InitialState are the same state
    same = fr.survival_probability(model, fr.InitialState(np.eye(3)[0]), [2.5], coefficients=coeffs)
    assert same.p[0] == fr.survival_probability(model, e1, [2.5]).p[0]
