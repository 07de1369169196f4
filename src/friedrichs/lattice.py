"""Direct time evolution on the real-space lattice: the brute-force oracle.

The chain and a hard-wall truncated waveguide form a sparse real symmetric
Hamiltonian H.  Each output interval applies exp(-i H dt_out) as a
Chebyshev series (Tal-Ezer & Kosloff 1984) on H scaled into [-1, 1] by a
Gershgorin bound, truncated where the Bessel coefficients fall below
rounding, so the oracle has no step-size error.  The truncation is sized so
the light cone (speed 2*kappa sites per unit time) never reaches the
artificial wall.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import sparse
from scipy.special import jv

from .dynamics import SurvivalSeries
from .errors import LightConeViolation, NormDrift
from .waveguide import WaveguideParams

MAX_SITES = 2_000_000
LIGHT_CONE_MARGIN = 1.25
CHEBYSHEV_TOL = 1e-16


def _required_sites(params: WaveguideParams, t_max: float) -> tuple[int, int]:
    """(n_trunc, attachment_index 1-based) honoring the light-cone margin."""
    reach = int(math.ceil(2.0 * LIGHT_CONE_MARGIN * params.kappa * t_max))
    if params.infinite:
        n = max(1000, 2 * reach + 1)
        return n, n // 2 + 1
    l = params.l_int
    n = max(1000, l + reach)
    return n, l


def _hamiltonian(params: WaveguideParams, n_sites: int, attach: int):
    """(H, radius): chain sites first, then the waveguide; |spec H| <= radius.

    Hopping -lambda along the chain, -kappa along the waveguide, and +xi
    between chain site 1 and waveguide site `attach`.  Every row sum of |H|
    is at most 2*max(lambda, kappa) + xi (Gershgorin).
    """
    n_atoms = params.n_atoms
    dim = n_atoms + n_sites
    hop = np.concatenate(
        [np.full(n_atoms - 1, -params.lam), [0.0], np.full(n_sites - 1, -params.kappa)]
    )
    link = n_atoms + attach - 1
    rows = np.concatenate([np.arange(dim - 1), np.arange(1, dim), [0, link]])
    cols = np.concatenate([np.arange(1, dim), np.arange(dim - 1), [link, 0]])
    vals = np.concatenate([hop, hop, [params.xi, params.xi]])
    h = sparse.csr_matrix((vals.astype(complex), (rows, cols)), shape=(dim, dim))
    radius = 2.0 * max(params.lam, params.kappa) + params.xi
    return h, radius


def _chebyshev_coefficients(z: float, tol: float = CHEBYSHEV_TOL) -> np.ndarray:
    """c_k with exp(-i z x) = sum_k c_k T_k(x) on [-1, 1], truncated.

    c_0 = J_0(z), c_k = 2 (-i)^k J_k(z).  J_k(z) decays faster than
    geometrically once k > z; the series stops at the first such k with
    |J_k(z)| < tol.
    """
    k = np.arange(int(math.ceil(z + 10.0 * z ** (1.0 / 3.0))) + 64)
    bessel = jv(k, z)
    small = (k > z) & (np.abs(bessel) < tol)
    n_terms = max(int(np.argmax(small)) if small.any() else k.size, 2)
    coeffs = 2.0 * (-1j) ** k[:n_terms] * bessel[:n_terms]
    coeffs[0] *= 0.5
    return coeffs


def _apply_series(h_scaled, coeffs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] T_k(h_scaled) y by the three-term recurrence."""
    prev = y
    cur = h_scaled @ y
    acc = coeffs[0] * prev + coeffs[1] * cur
    for c in coeffs[2:]:
        nxt = h_scaled @ cur
        nxt *= 2.0
        nxt -= prev
        acc += c * nxt
        prev, cur = cur, nxt
    return acc


def evolve(
    params: WaveguideParams,
    initial_site: int | None = None,
    t_max: float = 50.0,
    dt_out: float | None = None,
    n_trunc: int | None = None,
) -> SurvivalSeries:
    """Propagate a single excitation (default: at the open chain end).

    Returns the survival probability on the output grid, checking norm
    conservation at the 1e-6 level.  meta holds the lattice size
    (`n_trunc`), the worst norm drift (`norm_drift`) and the Chebyshev
    terms per output interval (`chebyshev_terms`).
    """
    initial_site = params.n_atoms if initial_site is None else int(initial_site)
    if not 1 <= initial_site <= params.n_atoms:
        raise ValueError("initial_site must index a chain site")
    dt_out = t_max / 400.0 if dt_out is None else float(dt_out)

    n_needed, attach = _required_sites(params, t_max)
    if n_trunc is not None:
        if params.infinite:
            attach = int(n_trunc) // 2 + 1
        n_needed = int(n_trunc)
    if n_needed > MAX_SITES:
        raise LightConeViolation(
            f"t_max={t_max} needs {n_needed} lattice sites (cap {MAX_SITES})"
        )
    n_out = int(round(t_max / dt_out))

    h, radius = _hamiltonian(params, n_needed, attach)
    coeffs = _chebyshev_coefficients(radius * dt_out)
    h_scaled = h / radius

    y = np.zeros(params.n_atoms + n_needed, dtype=complex)
    y[initial_site - 1] = 1.0
    times = np.empty(n_out + 1)
    p = np.empty(n_out + 1)
    times[0] = 0.0
    p[0] = 1.0
    worst_drift = 0.0
    for i in range(1, n_out + 1):
        y = _apply_series(h_scaled, coeffs, y)
        times[i] = i * dt_out
        p[i] = float(np.sum(np.abs(y[: params.n_atoms]) ** 2))
        worst_drift = max(worst_drift, abs(1.0 - float(np.vdot(y, y).real)))
    if worst_drift > 1e-6:
        raise NormDrift(f"norm drifted by {worst_drift:.3e} (> 1e-6)")
    return SurvivalSeries(
        times=times,
        p=p,
        meta={
            "n_trunc": n_needed,
            "norm_drift": worst_drift,
            "chebyshev_terms": int(coeffs.size),
        },
    )
