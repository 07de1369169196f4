"""Direct time evolution on the real-space lattice: the brute-force oracle.

The chain and a hard-wall truncated waveguide form a sparse real symmetric
Hamiltonian H, scaled into [-1, 1] by a Gershgorin bound `radius`.  From a
state y,

    exp(-i H tau) y = sum_k c_k(radius tau) v_k,   v_k = T_k(H / radius) y,
    c_k(z) = (2 - delta_k0) (-i)^k J_k(z)

(Tal-Ezer & Kosloff 1984), truncated where the Bessel coefficients fall
below rounding, so the oracle has no step-size error.  The lattice is
sized from the last time alone, so the light cone (speed 2*kappa sites
per unit time) never reaches the artificial wall.

The caller's times, a uniform grid from 0, are cut into segments of equal
length T_seg with radius*T_seg <= SEGMENT_Z (one step of the grid when a
single step is longer).  Each segment runs the three-term recurrence for
the v_k once and keeps only what the output times need:

- the chain components of every v_k: the chain amplitudes at the segment's
  output times are C @ chain, with C[j, k] = c_k(radius tau_j);
- the Chebyshev moments mu_m = <y, T_m y>, from mu_2k = 2<v_k, v_k> - mu_0:
  the norm at every output time is c^H G c with
  G_kl = <v_k, v_l> = (mu_k+l + mu_|k-l|)/2, and NormDrift is checked at
  each of them (H is real, so only k + l even enters; `_segment`);
- sum_k c_k(radius T_seg) v_k, the state that starts the next segment.

The grid is uniform, so the times tau_j relative to a segment's start are
the same in every segment and C is built once per call, by Miller's
backward recurrence for J_k normalised by J_0 + 2 sum_k J_2k = 1.
scipy.sparse, for H, is imported when `_hamiltonian` runs.
"""
from __future__ import annotations

import math

import numpy as np

from .dynamics import SurvivalSeries
from .errors import ConfigError, LightConeViolation, NormDrift
from .quadrature import _uniform_step
from .waveguide import WaveguideParams, _is_int

MAX_SITES = 2_000_000
LIGHT_CONE_MARGIN = 1.25
CHEBYSHEV_TOL = 1e-16
# radius * T_seg of the longest segment.  A longer segment restarts the
# series less often (each series runs some 50 terms past its z) but its
# readout costs rows * terms^2.  Measured in process time on one core of a
# 2-vCPU VM: the six figure runs take 25-40 ms for any value from 64 to
# 256, and long runs (t_max 120-300) are fastest from 128 to 160.  At 144
# each figure run is one segment.
SEGMENT_Z = 144.0
# Output times per segment, so the coefficient table stays near 1 MB on
# dense output grids.
SEGMENT_ROWS = 400
_RESCALE_AT = 2.0**600  # Miller's recurrence rescales its rows past this


def _required_sites(params: WaveguideParams, t_max: float) -> tuple[int, int]:
    """(n_trunc, attachment_index 1-based) honoring the light-cone margin."""
    reach = int(math.ceil(2.0 * LIGHT_CONE_MARGIN * params.kappa * t_max))
    if params.infinite:
        n = max(1000, 2 * reach + 1)
        return n, n // 2 + 1
    l = params.l_int
    n = max(1000, l + reach)
    return n, l


def _hamiltonian(params: WaveguideParams, n_needed: int, attach: int):
    """(H, radius): real CSR, chain sites first, then the waveguide;
    |spec H| <= radius.

    Hopping -lambda along the chain, -kappa along the waveguide, and +xi
    between chain site 1 and waveguide site `attach`.  Every row sum of |H|
    is at most 2*max(lambda, kappa) + xi (Gershgorin).
    """
    from scipy import sparse

    n_atoms = params.n_atoms
    dim = n_atoms + n_needed
    hop = np.concatenate(
        [np.full(n_atoms - 1, -params.lam), [0.0], np.full(n_needed - 1, -params.kappa)]
    )
    link = n_atoms + attach - 1
    rows = np.concatenate([np.arange(dim - 1), np.arange(1, dim), [0, link]])
    cols = np.concatenate([np.arange(1, dim), np.arange(dim - 1), [link, 0]])
    vals = np.concatenate([hop, hop, [params.xi, params.xi]])
    h = sparse.csr_matrix((vals, (rows, cols)), shape=(dim, dim))
    radius = 2.0 * max(params.lam, params.kappa) + params.xi
    return h, radius


def _bessel_table(z, n_terms: int | None = None) -> np.ndarray:
    """J_k(z_j) for k < n_terms, shape (len(z), n_terms); every z_j > 0.

    n_terms defaults to enough orders for the cut-off of `_n_terms` at the
    largest z.  Miller's backward recurrence J_{k-1} = (2k/z) J_k - J_{k+1}
    runs from an even order well past both n_terms and z and is normalised
    by J_0 + 2 sum_k J_2k = 1.  Rows are scaled down by powers of two
    before any can overflow; what that pushes below the smallest double
    lies far below the rounding of J_0.
    """
    z = np.asarray(z, dtype=float)
    z_max = float(np.max(z))
    reach = int(math.ceil(z_max + 10.0 * z_max ** (1.0 / 3.0)))
    n_terms = reach + 64 if n_terms is None else n_terms
    top = 2 * ((max(n_terms, reach) + 33) // 2)
    table = np.zeros((n_terms, z.size))
    two_over_z = 2.0 / z
    above = np.zeros(z.size)  # J_{k+1}
    cur = np.ones(z.size)  # J_k, unnormalised
    norm = np.zeros(z.size)
    for k in range(top, 0, -1):
        if k < n_terms:
            table[k] = cur
        if k % 2 == 0:
            norm += cur
        above, cur = cur, (k * two_over_z) * cur - above
        if np.abs(cur).max() > _RESCALE_AT:
            # every row that grew past 1 back into [1/2, 1), exactly
            down = np.ldexp(1.0, -np.maximum(np.frexp(cur)[1], 0))
            for arr in (table[k:], above, cur, norm):
                arr *= down
    table[0] = cur
    return (table / (2.0 * norm + cur)).T


def _n_terms(bessel: np.ndarray, z: float, tol: float) -> int:
    """Terms of the series for exp(-i z x) on [-1, 1] from bessel = J_k(z):
    up to the first k > z with |J_k(z)| < tol (J_k(z) decays faster than
    geometrically there), at least 2."""
    k = np.arange(bessel.size)
    small = (k > z) & (np.abs(bessel) < tol)
    return max(int(np.argmax(small)) if small.any() else k.size, 2)


def _segment(h_scaled, y: np.ndarray, bessel: np.ndarray, n_atoms: int, carry: bool):
    """One series from y, read at the times tau_j of the rows of
    bessel[j, k] = J_k(radius tau_j).

    Returns the chain amplitudes (rows, n_atoms), the norm c^H G c at each
    row, and the state at the last row's time when `carry` (else None).
    H is real and symmetric, so G is real, and since c_k = (-i)^k a_k J_k
    only the even-even and odd-odd blocks of c^H G c survive: with the real
    w_k = (-1)^(k//2) a_k J_k the norm is w_e G_ee w_e + w_o G_oo w_o.
    Those blocks read only the even moments mu_2p = 2<v_p, v_p> - mu_0.
    """
    n_terms = bessel.shape[1]
    k = np.arange(n_terms)
    scale = np.where(k > 0, 2.0, 1.0)
    coeffs = bessel * (scale * np.array([1.0, -1j, -1.0, 1j])[k % 4])
    chain = np.empty((n_terms, n_atoms), dtype=y.dtype)
    squares = np.empty(n_terms)  # <v_k, v_k>
    twice = 2.0 * h_scaled  # exact; a step is then one product, one subtraction
    prev, cur = y, h_scaled @ y
    chain[0], chain[1] = prev[:n_atoms], cur[:n_atoms]
    squares[0], squares[1] = np.vdot(prev, prev).real, np.vdot(cur, cur).real
    end = coeffs[-1, 0] * prev + coeffs[-1, 1] * cur if carry else None
    for j in range(2, n_terms):
        nxt = twice @ cur
        nxt -= prev
        chain[j] = nxt[:n_atoms]
        squares[j] = np.vdot(nxt, nxt).real
        if carry:
            end += coeffs[-1, j] * nxt
        prev, cur = cur, nxt

    mu = 2.0 * squares - squares[0]  # mu[p] = mu_2p, mu_0 included
    w = bessel * (scale * np.array([1.0, 1.0, -1.0, -1.0])[k % 4])
    norms = np.zeros(bessel.shape[0])
    for b in (0, 1):
        kb = k[b::2]
        gram = 0.5 * (mu[(kb[:, None] + kb) // 2] + mu[np.abs(kb[:, None] - kb) // 2])
        norms += np.sum((w[:, b::2] @ gram) * w[:, b::2], axis=1)
    return coeffs @ chain, norms, end


def evolve(params: WaveguideParams, times, initial_site: int | None = None) -> SurvivalSeries:
    """Propagate a single excitation (default: at the open chain end) and
    return its survival probability at the times, which ascend uniformly
    from 0 (`quadrature._uniform_step`: any np.linspace(0, t_max, points);
    [0.0] alone is p = [1.0]).  The lattice is the light-cone size for
    times[-1] (`_required_sites`).  Each segment of the times is one
    Chebyshev series (module docstring), and the norm from its moments is
    checked at every time at the 1e-6 level.  meta holds the lattice size
    (`n_trunc`), the worst norm drift (`norm_drift`), the number of segments
    (`segments`) and the Chebyshev terms per segment (`chebyshev_terms`; a
    shorter last segment may use fewer).  A segment applies H terms - 1
    times.  ConfigError names any other grid and an initial_site that is
    not an integer chain site 1..N.
    """
    times = np.asarray(times, dtype=float)
    from_zero = times.ndim == 1 and times.size > 0 and np.isfinite(times).all() and times[0] == 0.0
    step = _uniform_step(times) if from_zero else math.nan
    if not (step > 0.0 or from_zero and times.size == 1):
        last = times.flat[-1] if times.size else None
        raise ConfigError(f"times must ascend uniformly from 0 (np.linspace), got t_max={last}")
    initial_site = params.n_atoms if initial_site is None else initial_site
    if not (_is_int(initial_site) and 1 <= initial_site <= params.n_atoms):
        raise ConfigError(
            f"initial_site={initial_site} must be an integer chain site 1..{params.n_atoms}"
        )
    n_out = times.size - 1
    n_needed, attach = _required_sites(params, times[-1])
    if n_needed > MAX_SITES:
        raise LightConeViolation(
            f"t_max={times[-1]} needs {n_needed} lattice sites (cap {MAX_SITES})"
        )
    p = np.ones(times.size)
    meta = {"n_trunc": n_needed, "norm_drift": 0.0, "segments": 0, "chebyshev_terms": 0}
    if not n_out:
        return SurvivalSeries(times=times, p=p, meta=meta)

    h, radius = _hamiltonian(params, n_needed, attach)
    h_scaled = h / radius
    z_step = radius * step
    longest = max(1, min(int(SEGMENT_Z // z_step), SEGMENT_ROWS))
    n_segments = math.ceil(n_out / longest)
    rows = math.ceil(n_out / n_segments)  # segments of equal length
    z = z_step * np.arange(1, rows + 1)
    bessel = _bessel_table(z)
    meta["chebyshev_terms"] = _n_terms(bessel[-1], z[-1], CHEBYSHEV_TOL)

    y = np.zeros(params.n_atoms + n_needed)
    y[initial_site - 1] = 1.0
    for start in range(0, n_out, rows):
        m = min(rows, n_out - start)
        k = _n_terms(bessel[m - 1], z[m - 1], CHEBYSHEV_TOL)
        amps, norms, y = _segment(
            h_scaled, y, bessel[:m, :k], params.n_atoms, carry=start + m < n_out
        )
        p[start + 1 : start + m + 1] = np.sum(np.abs(amps) ** 2, axis=1)
        meta["norm_drift"] = max(meta["norm_drift"], float(np.max(np.abs(1.0 - norms))))
        meta["segments"] += 1
    if meta["norm_drift"] > 1e-6:
        raise NormDrift(f"norm drifted by {meta['norm_drift']:.3e} (> 1e-6)")
    return SurvivalSeries(times=times, p=p, meta=meta)
