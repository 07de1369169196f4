"""Shared fixtures: random model families and brute-force census scanning."""
from __future__ import annotations

import numpy as np

import friedrichs as fr
from friedrichs import quadrature as qd
from friedrichs import spectral as sp


def random_model(rng, n_max=4, with_zero=False, complex_couplings=True):
    """A well-separated random model with a smooth positive band density.

    J(w) = A * (w-lo)^s_lo * (up-w)^s_up * (1 + 0.5 cos(b w + phi)) [* (w-z0)^2]
    with A scaled so the integrated coupling stays moderate.
    """
    n = int(rng.integers(1, n_max + 1))
    while True:
        levels = np.sort(rng.uniform(-3.4, 3.4, n))
        if n == 1 or np.min(np.diff(levels)) > 0.3:
            break
    mags = rng.uniform(0.15, 0.5, n)
    if complex_couplings:
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        couplings = mags * phases
    else:
        couplings = mags.astype(complex)
    lo = float(rng.uniform(-3.0, -1.0))
    up = float(rng.uniform(1.0, 3.0))
    s_lo, s_up = rng.choice([0.5, 1.0, 2.0], size=2)
    b = float(rng.uniform(0.5, 2.0))
    phi = float(rng.uniform(0, 2 * np.pi))
    zeros = ()
    z0 = None
    if with_zero:
        z0 = float(rng.uniform(lo + 0.3 * (up - lo), up - 0.3 * (up - lo)))
        zeros = (z0,)

    def j_raw(om):
        om = np.asarray(om, dtype=float)
        out = np.zeros_like(om)
        inside = (om > lo) & (om < up)
        v = (om[inside] - lo) ** s_lo * (up - om[inside]) ** s_up
        v = v * (1.0 + 0.5 * np.cos(b * om[inside] + phi))
        if z0 is not None:
            v = v * (om[inside] - z0) ** 2
        out[inside] = v
        return out if out.ndim else float(out)

    mass, _ = qd.band_integral(lambda w: float(j_raw(np.atleast_1d(w))[0]), lo, up)
    amp = float(rng.uniform(0.05, 0.25)) / max(mass, 1e-12)

    def j(om):
        return amp * j_raw(om)

    model = fr.FriedrichsModel(
        discrete=fr.DiscreteSpectrum(levels, couplings),
        continuum=fr.ContinuumBand(
            omega_low=lo,
            omega_up=up,
            spectral_density=j,
            edge_exponents=(float(s_lo), float(s_up)),
            interior_zeros=zeros,
        ),
    )
    return fr.validate_model(model)


def without_overrides(model):
    """The same model with its closed forms dropped: every kernel by quadrature."""
    return fr.validate_model(fr.FriedrichsModel(discrete=model.discrete, continuum=model.continuum))


def random_initial(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return fr.InitialState.normalized(v)


def census_margin(model) -> float:
    """Smallest relative margin in the two edge criteria (tie-robustness)."""
    out = np.inf
    for side in ("low", "up"):
        edge = model.omega_low if side == "low" else model.omega_up
        k_edge = float(np.real(sp.k_function(model, edge)))
        sig_inv, _ = sp.sigma_inverse_at_edge(model, side)
        scale = max(abs(k_edge), abs(sig_inv), 1e-12)
        out = min(out, abs(k_edge - sig_inv) / scale)
    return out


def _band_nodes_weights(lo, up, n_nodes):
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    k = 0.5 * (x + 1.0) * np.pi
    wk = w * (np.pi / 2.0)
    mid, half = 0.5 * (lo + up), 0.5 * (up - lo)
    om = mid - half * np.cos(k)
    jac = half * np.sin(k)
    return om, wk * jac


def sigma_on_grid(j, lo, up, e_grid, n_nodes=600, chunk=4096):
    """Sigma(E) on a grid of energies outside a finite band (fixed rule).

    A uniform Gauss-Legendre rule in k, independent of the graded rule
    behind `self_energy`, so the brute-force census checks that rule too.
    """
    om, wgt = _band_nodes_weights(lo, up, n_nodes)
    jw = np.asarray(j(om), dtype=float) * wgt
    e_grid = np.asarray(e_grid, dtype=float)
    out = np.empty_like(e_grid)
    for i in range(0, e_grid.size, chunk):
        blk = e_grid[i : i + chunk]
        out[i : i + chunk] = (jw[None, :] / (blk[:, None] - om[None, :])).sum(axis=1)
    return out


def census_bruteforce(model, n_grid=100_000, reach=2.5, collar=1e-6):
    """Sign-change count of det[E - H_eff(E)] on a dense grid outside the band.

    det = (1 - Sigma(E) K(E)) * prod_n (E - eps_n); Sigma evaluated with a
    vectorized fixed rule.  Returns (count_below, count_above).
    """
    lo, up = model.omega_low, model.omega_up
    span = model.scale
    g_lo = min(lo, model.levels[0]) - reach * span
    g_up = max(up, model.levels[-1]) + reach * span
    len_b = lo - g_lo
    len_a = g_up - up
    n_b = max(int(n_grid * len_b / (len_b + len_a)), 1000)
    n_a = max(n_grid - n_b, 1000)

    def count(e_grid):
        for eps in model.levels:
            hit = np.abs(e_grid - eps) < 1e-12 * span
            e_grid[hit] += 3e-12 * span
        sig = sigma_on_grid(model.j, lo, up, e_grid, n_nodes=600)
        k = sp.k_real_grid(model, e_grid)
        det = (1.0 - sig * k) * np.prod(
            e_grid[:, None] - model.levels[None, :], axis=1
        )
        s = np.sign(det)
        return int(np.sum(s[1:] * s[:-1] < 0))

    below = count(np.linspace(g_lo, lo - collar * span, n_b))
    above = count(np.linspace(up + collar * span, g_up, n_a))
    return below, above
