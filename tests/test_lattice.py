import numpy as np
import pytest
from scipy.sparse.linalg import expm_multiply

import friedrichs as fr
from friedrichs import lattice
from friedrichs.errors import LightConeViolation


def test_decoupled_chain_stays_put():
    params = fr.WaveguideParams(3, 1.0, 0.75, 0.0, 1)
    series = fr.evolve_lattice(params, t_max=10.0, dt_out=0.5)
    assert np.allclose(series.p, 1.0, atol=1e-12)


def test_norm_conservation():
    params = fr.WaveguideParams(3, 1.0, 0.75, 0.25, 2)
    series = fr.evolve_lattice(params, t_max=50.0, dt_out=0.5)
    assert series.meta["norm_drift"] < 1e-6


@pytest.mark.parametrize(
    "params, t_max, n_out",
    [
        (fr.WaveguideParams(3, 1.0, 0.75, 0.25, 2), 50.0, 399),  # fig. 4, l=2
        (fr.WaveguideParams(2, 1.0, 4.0, 4.0, fr.INFINITE), 10.0, 200),  # fig. 5 EP
    ],
    ids=["fig4_l2", "fig5_xi4"],
)
def test_propagator_matches_expm_multiply(params, t_max, n_out):
    series = fr.evolve_lattice(params, t_max=t_max, dt_out=t_max / n_out)
    n_sites, attach = lattice._required_sites(params, t_max)
    h, _ = lattice._hamiltonian(params, n_sites, attach)
    y0 = np.zeros(h.shape[0], dtype=complex)
    y0[params.n_atoms - 1] = 1.0
    states = expm_multiply(-1j * h, y0, start=0.0, stop=t_max, num=n_out + 1, endpoint=True)
    p_ref = np.sum(np.abs(states[:, : params.n_atoms]) ** 2, axis=1)
    assert np.max(np.abs(series.p - p_ref)) <= 1e-11
    assert series.meta["chebyshev_terms"] >= 2


def test_chebyshev_truncation_order():
    # tightening the Bessel cut-off adds terms and lowers the error of one
    # long interval against expm_multiply, down to rounding
    params = fr.WaveguideParams(3, 1.0, 0.75, 0.25, 2)
    h, radius = lattice._hamiltonian(params, 200, 2)
    y0 = np.zeros(h.shape[0], dtype=complex)
    y0[2] = 1.0
    dt = 5.0
    ref = expm_multiply(-1j * dt * h, y0)
    terms, errors = [], []
    for tol in (1e-2, 1e-4, 1e-8, 1e-12, 1e-16):
        coeffs = lattice._chebyshev_coefficients(radius * dt, tol)
        y = lattice._apply_series(h / radius, coeffs, y0)
        terms.append(coeffs.size)
        errors.append(np.max(np.abs(y - ref)))
    assert np.all(np.diff(terms) > 0)
    assert np.all(np.diff(errors) < 0)
    assert errors[1] < 1e-3 and errors[2] < 1e-7
    assert errors[-1] < 1e-13


def test_truncation_independence():
    params = fr.WaveguideParams(3, 1.0, 0.75, 0.25, 1)
    a = fr.evolve_lattice(params, t_max=40.0, dt_out=1.0, n_trunc=1000)
    b = fr.evolve_lattice(params, t_max=40.0, dt_out=1.0, n_trunc=2000)
    assert np.max(np.abs(a.p - b.p)) < 1e-8


def test_truncation_auto_raise():
    params = fr.WaveguideParams(2, 1.0, 4.0, 0.5, 1)
    series = fr.evolve_lattice(params, t_max=120.0, dt_out=4.0)
    assert series.meta["n_trunc"] >= 2.5 * 4.0 * 120.0


def test_light_cone_cap():
    params = fr.WaveguideParams(2, 1.0, 4.0, 0.5, 1)
    with pytest.raises(LightConeViolation):
        fr.evolve_lattice(params, t_max=1e6, dt_out=1e4)


def test_complete_decay_regime_long_run():
    # no bound states at these parameters: the excitation drains out
    params = fr.WaveguideParams(3, 1.0, 0.75, 0.25, 1)
    series = fr.evolve_lattice(params, t_max=300.0, dt_out=10.0)
    assert series.p[-1] < 0.01
    assert np.all(np.diff(series.p[-10:]) < 0)  # still monotone draining


def test_ep_decay_against_markovian_formula():
    params = fr.WaveguideParams(2, 1.0, 4.0, 4.0, fr.INFINITE)
    series = fr.evolve_lattice(params, t_max=10.0, dt_out=0.1)
    t = series.times
    formula = (2 * t**2 + 2 * t + 1) * np.exp(-2 * t)
    assert np.max(np.abs(series.p - formula)) < 5e-2


def test_initial_site_selectable():
    params = fr.WaveguideParams(3, 1.0, 0.75, 0.25, 1)
    end = fr.evolve_lattice(params, initial_site=3, t_max=5.0, dt_out=0.5)
    coupled = fr.evolve_lattice(params, initial_site=1, t_max=5.0, dt_out=0.5)
    # starting on the coupled site decays faster at early times
    assert coupled.p[2] < end.p[2]
