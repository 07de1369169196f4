import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import expm_multiply
from scipy.special import jv

import friedrichs as fr
from friedrichs import lattice
from friedrichs.cli import main
from friedrichs.errors import ConfigError, LightConeViolation, NormDrift


def test_decoupled_chain_stays_put():
    params = fr.WaveguideParams(3, 1.0, 0.75, 0.0, 1)
    series = fr.evolve_lattice(params, np.linspace(0.0, 10.0, 21))
    assert np.allclose(series.p, 1.0, atol=1e-12)


def test_norm_conservation():
    params = fr.WaveguideParams(3, 1.0, 0.75, 0.25, 2)
    series = fr.evolve_lattice(params, np.linspace(0.0, 50.0, 101))
    assert series.meta["norm_drift"] < 1e-6


def _expm_reference(params, t_max, n_out):
    n_sites, attach = lattice._required_sites(params, t_max)
    h, _ = lattice._hamiltonian(params, n_sites, attach)
    y0 = np.zeros(h.shape[0], dtype=complex)
    y0[params.n_atoms - 1] = 1.0
    states = expm_multiply(-1j * h, y0, start=0.0, stop=t_max, num=n_out + 1, endpoint=True)
    return np.sum(np.abs(states[:, : params.n_atoms]) ** 2, axis=1)


@pytest.mark.parametrize(
    "params, t_max, n_out",
    [
        (fr.WaveguideParams(3, 1.0, 0.75, 0.25, 2), 50.0, 399),  # fig. 4, l=2
        (fr.WaveguideParams(2, 1.0, 4.0, 4.0, fr.INFINITE), 10.0, 200),  # fig. 5 EP
    ],
    ids=["fig4_l2", "fig5_xi4"],
)
def test_propagator_matches_expm_multiply(params, t_max, n_out):
    series = fr.evolve_lattice(params, np.linspace(0.0, t_max, n_out + 1))
    assert np.max(np.abs(series.p - _expm_reference(params, t_max, n_out))) <= 1e-11
    assert series.meta["chebyshev_terms"] >= 2


def test_chebyshev_truncation_order():
    # tightening the Bessel cut-off adds terms and lowers the error of one
    # long interval, evaluated as one segment, against expm_multiply, down
    # to rounding
    params = fr.WaveguideParams(3, 1.0, 0.75, 0.25, 2)
    h, radius = lattice._hamiltonian(params, 200, 2)
    y0 = np.zeros(h.shape[0])
    y0[2] = 1.0
    dt = 5.0
    ref = expm_multiply(-1j * dt * h, y0)
    bessel = lattice._bessel_table([radius * dt])
    terms, errors = [], []
    for tol in (1e-2, 1e-4, 1e-8, 1e-12, 1e-16):
        n_terms = lattice._n_terms(bessel[0], radius * dt, tol)
        amps, norms, y = lattice._segment(
            h / radius, y0, bessel[:, :n_terms], params.n_atoms, carry=True
        )
        # the table and the moments read the state the series sums to
        assert np.max(np.abs(amps[0] - y[: params.n_atoms])) < 1e-14
        assert abs(norms[0] - np.vdot(y, y).real) < 1e-13
        terms.append(n_terms)
        errors.append(np.max(np.abs(y - ref)))
    assert np.all(np.diff(terms) > 0)
    assert np.all(np.diff(errors) < 0)
    assert errors[1] < 1e-3 and errors[2] < 1e-7
    assert errors[-1] < 1e-13


@pytest.mark.parametrize("n_terms", [2, 40, 400, None])
def test_bessel_table_matches_scipy(n_terms):
    # Miller's recurrence against scipy from z = 1e-6 to past a segment's
    # z, with orders far beyond z; its rescaling must not overflow
    z = np.concatenate(
        [np.geomspace(1e-6, 1.0, 13), np.linspace(1.5, 1.5 * lattice.SEGMENT_Z, 60)]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = lattice._bessel_table(z, n_terms)
    ref = jv(np.arange(table.shape[1]), z[:, None])
    # by default the orders reach far past the largest z
    assert table.shape == (z.size, n_terms) if n_terms else table.shape[1] > z[-1] + 64
    assert np.max(np.abs(table - ref)) <= 1e-14


def _eigh_reference(params, t_max, n_out):
    """p(t) on the output grid from a dense eigendecomposition of the same
    truncated H: within about 1e-14 of the propagation, where expm_multiply
    drifts to 1e-11 by t ~ 260."""
    n_sites, attach = lattice._required_sites(params, t_max)
    h, _ = lattice._hamiltonian(params, n_sites, attach)
    energies, vectors = np.linalg.eigh(h.toarray())
    phases = np.exp(-1j * np.outer(energies, np.linspace(0.0, t_max, n_out + 1)))
    amps = vectors[: params.n_atoms] @ (vectors[params.n_atoms - 1, :, None] * phases)
    return np.sum(np.abs(amps) ** 2, axis=0)


@settings(max_examples=24, deadline=None)
@given(
    n_atoms=st.integers(1, 5),
    kappa=st.floats(0.3, 2.0),
    xi=st.floats(0.0, 2.0, allow_subnormal=False),
    site=st.sampled_from([1, 2, 5, fr.INFINITE]),
    grid=st.sampled_from(["one segment", "many segments", "one interval each"]),
)
# expm_multiply(start, stop, num) was off by 1.04e-11 here, at t ~ 259
@example(n_atoms=2, kappa=0.5, xi=0.00390625, site=5, grid="one interval each")
def test_segments_match_dense_eigh(n_atoms, kappa, xi, site, grid):
    params = fr.WaveguideParams(n_atoms, 1.0, kappa, xi, site)
    longest = lattice.SEGMENT_Z / (2.0 * max(1.0, kappa) + xi)  # T_seg
    t_max, n_out, segments = {
        "one segment": (0.8 * longest, 40, 1),
        "many segments": (3.3 * longest, 60, 4),
        "one interval each": (3.6 * longest, 3, 3),
    }[grid]
    series = fr.evolve_lattice(params, np.linspace(0.0, t_max, n_out + 1))
    assert series.meta["segments"] == segments
    assert np.max(np.abs(series.p - _eigh_reference(params, t_max, n_out))) <= 1e-11


@pytest.mark.parametrize("t_max, n_out", [(50.0, 399), (300.0, 30), (300.0, 2)])
def test_norm_drift_when_series_cut_short(monkeypatch, t_max, n_out):
    # the moment norm sees a series truncated far above rounding, on one
    # segment, several, and one interval per segment
    params = fr.WaveguideParams(3, 1.0, 0.75, 0.25, 2)
    monkeypatch.setattr(lattice, "CHEBYSHEV_TOL", 1e-3)
    with pytest.raises(NormDrift):
        fr.evolve_lattice(params, np.linspace(0.0, t_max, n_out + 1))


def test_reproduce_all_oracle_work(tmp_path, monkeypatch):
    # the six oracle runs of `reproduce all` (figs. 4 and 5) run about one
    # series each: at most 1,200 products with H in all
    metas = []
    evolve = lattice.evolve

    def counted(*args, **kwargs):
        series = evolve(*args, **kwargs)
        metas.append(series.meta)
        return series

    monkeypatch.setattr(lattice, "evolve", counted)
    for figure in ("fig4", "fig5"):
        assert main(["reproduce", figure, "--outdir", str(tmp_path)]) == 0
    assert len(metas) == 6
    assert sum(m["segments"] * (m["chebyshev_terms"] - 1) for m in metas) <= 1200


def test_truncation_independence(monkeypatch):
    # a lattice twice as long gives the same p
    params = fr.WaveguideParams(3, 1.0, 0.75, 0.25, 1)
    times = np.linspace(0.0, 40.0, 41)
    a = fr.evolve_lattice(params, times)
    monkeypatch.setattr(lattice, "LIGHT_CONE_MARGIN", 33.35)
    b = fr.evolve_lattice(params, times)
    assert a.meta["n_trunc"] == 1000 and b.meta["n_trunc"] > 2000
    assert np.max(np.abs(a.p - b.p)) < 1e-8


def test_truncation_auto_raise():
    params = fr.WaveguideParams(2, 1.0, 4.0, 0.5, 1)
    series = fr.evolve_lattice(params, np.linspace(0.0, 120.0, 31))
    assert series.meta["n_trunc"] >= 2.5 * 4.0 * 120.0


def test_light_cone_cap():
    params = fr.WaveguideParams(2, 1.0, 4.0, 0.5, 1)
    with pytest.raises(LightConeViolation):
        fr.evolve_lattice(params, np.linspace(0.0, 1e6, 101))


def test_complete_decay_regime_long_run():
    # no bound states at these parameters: the excitation drains out
    params = fr.WaveguideParams(3, 1.0, 0.75, 0.25, 1)
    series = fr.evolve_lattice(params, np.linspace(0.0, 300.0, 31))
    assert series.p[-1] < 0.01
    assert np.all(np.diff(series.p[-10:]) < 0)  # still monotone draining


def test_ep_decay_against_markovian_formula():
    params = fr.WaveguideParams(2, 1.0, 4.0, 4.0, fr.INFINITE)
    series = fr.evolve_lattice(params, np.linspace(0.0, 10.0, 101))
    t = series.times
    formula = (2 * t**2 + 2 * t + 1) * np.exp(-2 * t)
    assert np.max(np.abs(series.p - formula)) < 5e-2


def test_initial_site_selectable():
    params = fr.WaveguideParams(3, 1.0, 0.75, 0.25, 1)
    times = np.linspace(0.0, 5.0, 11)
    end = fr.evolve_lattice(params, times, initial_site=3)
    coupled = fr.evolve_lattice(params, times, initial_site=1)
    # starting on the coupled site decays faster at early times
    assert coupled.p[2] < end.p[2]


@pytest.mark.parametrize("site", [2.5, 2.0, True, "2", 0, 4])
def test_initial_site_is_an_integer_chain_site(site):
    # 2.5 used to run site 2
    params = fr.WaveguideParams(3, 1.0, 0.75, 0.25, 1)
    with pytest.raises(ConfigError, match=f"initial_site={site} "):
        fr.evolve_lattice(params, np.linspace(0.0, 5.0, 11), initial_site=site)


@pytest.mark.parametrize("times", [
    np.linspace(0.0, 7.3, 23),
    np.arange(11) * 0.1,  # uniform within 4 ulps
    [0.0, 0.5, 1.0],
])
def test_times_are_the_callers(times):
    series = fr.evolve_lattice(fr.WaveguideParams(2, 1.0, 1.0, 0.3, 2), times)
    assert series.times.tobytes() == np.asarray(times, dtype=float).tobytes()
    assert series.p.shape == series.times.shape


@pytest.mark.parametrize("times, t_max", [
    ([0.0, 1.0, 3.0], "3.0"),  # not uniform
    (np.linspace(1.0, 3.0, 5), "3.0"),  # not from 0
    (np.linspace(0.0, -1.0, 5), "-1.0"),  # descending
    (np.zeros(4), "0.0"),  # no step
    ([0.0, np.nan, 2.0], "2.0"),
    ([0.0, np.inf], "inf"),
    ([np.nan], "nan"),
    ([2.0], "2.0"),
    ([], "None"),
    ([[0.0, 1.0]], "1.0"),
])
def test_times_off_a_uniform_grid_from_zero_are_a_config_error(times, t_max):
    params = fr.WaveguideParams(2, 1.0, 1.0, 0.3, 2)
    with pytest.raises(ConfigError, match=f"t_max={t_max}$"):
        fr.evolve_lattice(params, times)


def test_single_time_is_p_one_without_a_series(monkeypatch):
    def no_table(*args):
        raise AssertionError("a Bessel table for one time")

    monkeypatch.setattr(lattice, "_bessel_table", no_table)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        series = fr.evolve_lattice(fr.WaveguideParams(3, 1.0, 0.75, 0.25, 1), [0.0])
    assert series.times.tolist() == [0.0] and series.p.tolist() == [1.0]
