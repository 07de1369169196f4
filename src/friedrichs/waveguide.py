"""Tight-binding chain side-coupled to a semi-infinite photonic lattice.

An N-site atomic chain (hopping lambda) couples with strength xi from its
site 1 to site l of a half-infinite waveguide (hopping kappa).  In the Bloch
basis this is a discrete-levels-plus-continuum model with

    eps_n = -2*lambda*cos(pi n/(N+1)),    f_n = xi*sqrt(2/(N+1))*sin(pi n/(N+1)),
    band [-2 kappa, 2 kappa],             J per a sin^2(l * arccos(w/2kappa)) profile,

and closed forms for Sigma, Sigma', Delta and real K.  site=math.inf
selects the infinite-waveguide limit (flat attachment deep in the bulk): J
turns into the bare inverse-square-root density with divergent (van Hove)
edges and no interior zeros.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bound_states import BoundStateCensus
from .errors import ConfigError, EInsideBand, PoleHit
from .model import (
    DIVERGENT,
    AnalyticOverrides,
    ContinuumBand,
    DiscreteSpectrum,
    FriedrichsModel,
    InitialState,
    ValidatedModel,
    validate_model,
)

INFINITE = math.inf


@dataclass(frozen=True)
class WaveguideParams:
    n_atoms: int
    lam: float
    kappa: float
    xi: float
    site: float  # integer >= 1, or INFINITE

    def __post_init__(self):
        if self.n_atoms < 1:
            raise ConfigError("n_atoms must be >= 1")
        if self.lam <= 0 or self.kappa <= 0:
            raise ConfigError("hoppings lambda and kappa must be positive")
        if self.xi < 0:
            raise ConfigError("coupling xi must be >= 0")
        if self.site != INFINITE and (self.site < 1 or int(self.site) != self.site):
            raise ConfigError("site must be an integer >= 1 or math.inf")

    @property
    def infinite(self) -> bool:
        return self.site == INFINITE

    @property
    def l_int(self) -> int:
        if self.infinite:
            raise ConfigError("infinite attachment site has no integer value")
        return int(self.site)


def _mirrored_cosines(a: float, m: int) -> np.ndarray:
    """-2a*cos(pi n/m) for n = 1..m-1, with the exact mirror symmetry
    v_{m-n} = -v_n of the analytic values (and 0 in the middle)."""
    count = m - 1
    out = -2.0 * a * np.cos(np.pi * np.arange(1, m) / m)
    half = count // 2
    out[count - half :] = -out[:half][::-1]
    if count % 2 == 1:
        out[half] = 0.0
    return out


def chain_levels(params: WaveguideParams) -> np.ndarray:
    return _mirrored_cosines(params.lam, params.n_atoms + 1)


def chain_couplings(params: WaveguideParams) -> np.ndarray:
    # sin(pi n/(N+1)) is mirror symmetric; copy the first half exactly
    n_tot = params.n_atoms
    n = np.arange(1, n_tot + 1)
    out = params.xi * np.sqrt(2.0 / (n_tot + 1)) * np.sin(np.pi * n / (n_tot + 1))
    half = n_tot // 2
    out[n_tot - half :] = out[:half][::-1]
    return out


def j_zeros(params: WaveguideParams) -> tuple:
    if params.infinite or params.l_int < 2:
        return ()
    return tuple(float(v) for v in _mirrored_cosines(params.kappa, params.l_int))


def _spectral_density(params: WaveguideParams):
    kap = params.kappa
    if params.infinite:
        def j(omega):
            om = np.asarray(omega, dtype=float)
            out = np.zeros_like(om)
            inside = np.abs(om) < 2 * kap
            # (2k - w)(2k + w), not 4k^2 - w^2: next to an edge the difference
            # would lose the digits a van Hove divergence magnifies
            x = om[inside]
            out[inside] = 1.0 / (np.pi * np.sqrt((2 * kap - x) * (2 * kap + x)))
            return out if out.ndim else float(out)

        return j

    l = params.l_int

    def j(omega):
        om = np.asarray(omega, dtype=float)
        out = np.zeros_like(om)
        inside = np.abs(om) < 2 * kap
        phi = np.arccos(om[inside] / (2 * kap))
        out[inside] = (2.0 / np.pi) * np.sin(l * phi) ** 2 / np.sqrt(
            4 * kap**2 - om[inside] ** 2
        )
        return out if out.ndim else float(out)

    return j


# ---------------------------------------------------------------------------
# closed forms

def _sigma_finite_l(e: float, kappa: float, l: int, zeros: tuple) -> float:
    # outside the band: Sigma = -/+ expm1(-2 l th)/(2 kappa sinh th); edge limit l/kappa
    if abs(e) >= 2 * kappa:
        th = np.arccosh(max(abs(e) / (2 * kappa), 1.0))
        if th < 1e-12:
            val = l / kappa
        else:
            val = -np.expm1(-2 * l * th) / (2 * kappa * np.sinh(th))
        return math.copysign(val, e)
    if any(abs(e - z) <= 1e-9 * max(kappa, 1.0) for z in zeros):
        return 0.0
    raise EInsideBand(f"E={e} strictly inside the band is not a J-zero")


def _sigma_deriv_finite_l(e: float, kappa: float, l: int, zeros: tuple) -> float:
    if abs(e) > 2 * kappa:
        th = np.arccosh(abs(e) / (2 * kappa))
        if th < 1e-4:
            g = -2.0 * l**2 * th**2 + (8.0 * l**3 - 2.0 * l) * th**3 / 3.0
        else:
            g = 2 * l * math.exp(-2 * l * th) * math.sinh(th) - (
                -math.expm1(-2 * l * th)
            ) * math.cosh(th)
        return g / (4 * kappa**2 * math.sinh(th) ** 3)
    if any(abs(e - z) <= 1e-9 * max(kappa, 1.0) for z in zeros):
        # derivative of the principal-value part at an interior zero
        return -2.0 * l / (4 * kappa**2 - e**2)
    raise EInsideBand(f"E={e} strictly inside the band is not a J-zero")


def _sigma_infinite(e: float, kappa: float) -> float:
    if abs(e) <= 2 * kappa:
        raise EInsideBand(f"E={e} inside the band; Sigma has no closed value there")
    return math.copysign(1.0, e) / math.sqrt(e * e - 4 * kappa**2)


def _sigma_deriv_infinite(e: float, kappa: float) -> float:
    if abs(e) <= 2 * kappa:
        raise EInsideBand(f"E={e} inside the band")
    return -abs(e) * (e * e - 4 * kappa**2) ** -1.5


def _delta_finite_l(e, kappa: float, l: int):
    # callers guarantee |e| < 2*kappa strictly; e may be an array
    e = np.asarray(e, dtype=float)
    phi = np.arccos(np.clip(e / (2 * kappa), -1.0, 1.0))
    return np.sin(2 * l * phi) / np.sqrt(4 * kappa**2 - e * e)


def closed_form_sigma(params: WaveguideParams):
    kap = params.kappa
    if params.infinite:
        return lambda e: _sigma_infinite(float(e), kap)
    l, zs = params.l_int, j_zeros(params)
    return lambda e: _sigma_finite_l(float(e), kap, l, zs)


def closed_form_sigma_deriv(params: WaveguideParams):
    kap = params.kappa
    if params.infinite:
        return lambda e: _sigma_deriv_infinite(float(e), kap)
    l, zs = params.l_int, j_zeros(params)
    return lambda e: _sigma_deriv_finite_l(float(e), kap, l, zs)


def closed_form_delta(params: WaveguideParams):
    """Delta(E) inside the band; takes a float or an array of energies."""
    kap = params.kappa
    if params.infinite:
        return lambda e: np.zeros_like(np.asarray(e, dtype=float))
    l = params.l_int
    return lambda e: _delta_finite_l(e, kap, l)


def closed_form_k_real(params: WaveguideParams):
    n, lam, xi = params.n_atoms, params.lam, params.xi

    def k(e):
        e = float(e)
        x = e / (2 * lam)
        if x < -1.0:
            phi = math.acosh(-x)
            return -(xi**2) * math.sinh(n * phi) / (lam * math.sinh((n + 1) * phi))
        if x > 1.0:
            phi = math.acosh(x)
            return (xi**2) * math.sinh(n * phi) / (lam * math.sinh((n + 1) * phi))
        # sin(n phi)/sin((n+1) phi) = U_{n-1}(x)/U_n(x): the recurrence stays
        # exact at x = +-1, where the sines are both zero
        u_prev, u = 1.0, 2.0 * x
        for _ in range(n - 1):
            u_prev, u = u, 2.0 * x * u - u_prev
        if u == 0.0:
            raise PoleHit(f"E={e} is a root of U_N: K has a pole at this chain level")
        return (xi**2) * u_prev / (lam * u)

    return k


# ---------------------------------------------------------------------------
# model construction

def build_waveguide_model(params: WaveguideParams) -> ValidatedModel:
    kap = params.kappa
    if params.infinite:
        edges = (DIVERGENT, DIVERGENT)
        rho = lambda om: 1.0 / np.sqrt(np.maximum(4 * kap**2 - np.asarray(om) ** 2, 0.0))
        g = lambda om: np.full_like(np.asarray(om, dtype=float), 1.0 / math.sqrt(math.pi))
    else:
        edges = (0.5, 0.5)
        l = params.l_int
        rho = lambda om: 1.0 / np.sqrt(np.maximum(4 * kap**2 - np.asarray(om) ** 2, 1e-300))

        def g(om):
            om = np.asarray(om, dtype=float)
            return np.sqrt(2.0 / np.pi) * np.sin(
                l * np.arccos(np.clip(-om / (2 * kap), -1.0, 1.0))
            )

    band = ContinuumBand(
        omega_low=-2 * kap,
        omega_up=2 * kap,
        spectral_density=_spectral_density(params),
        edge_exponents=edges,
        interior_zeros=j_zeros(params),
        density_of_states=rho,
        coupling_profile=g,
    )
    overrides = AnalyticOverrides(
        sigma=closed_form_sigma(params),
        sigma_deriv=closed_form_sigma_deriv(params),
        delta=closed_form_delta(params),
    )
    model = FriedrichsModel(
        discrete=DiscreteSpectrum(chain_levels(params), chain_couplings(params)),
        continuum=band,
        overrides=overrides,
    )
    return validate_model(model)


def default_initial_state(params: WaveguideParams) -> InitialState:
    """Excitation at the open chain end, expressed in the level basis."""
    n_tot = params.n_atoms
    n = np.arange(1, n_tot + 1)
    c = np.sqrt(2.0 / (n_tot + 1)) * np.sin(np.pi * n * n_tot / (n_tot + 1))
    return InitialState.normalized(c)


# ---------------------------------------------------------------------------
# specialized bound-state criteria

def _k_at_lower_edge(params: WaveguideParams) -> float:
    return closed_form_k_real(params)(-2.0 * params.kappa)


def waveguide_bound_state_count(params: WaveguideParams) -> BoundStateCensus:
    """Census from the closed-form criteria (spectrally symmetric model).

    Energy criterion: kappa/lambda < cos(pi*N_out/(2N)) for N_out >= 2
    (vacuous otherwise).  Amplitude criterion: K(-2k) < 1/Sigma(-2k) with
    Sigma(-2k) = -l/kappa for finite l and the signed limit 0- for the
    infinite waveguide, i.e. l*xi^2 above a kappa,lambda-dependent
    threshold.
    """
    lam, kap = params.lam, params.kappa
    n_tot = params.n_atoms
    levels = chain_levels(params)
    n_low = int(np.sum(levels < -2 * kap))
    n_up = int(np.sum(levels > 2 * kap))
    n_out = n_low + n_up  # even by symmetry

    if n_out == 0:
        energy_ok = True
        e_boundary = None
    else:
        e_boundary = -2 * lam * math.cos(math.pi * n_low / n_tot)  # K-zero at the gap
        energy_ok = kap / lam < math.cos(math.pi * n_out / (2 * n_tot))

    k_edge = _k_at_lower_edge(params)
    if params.infinite:
        sigma_inv_edge = -0.0
        amplitude_ok = k_edge < 0.0
        threshold = None
    else:
        l = params.l_int
        sigma_inv_edge = -kap / l
        amplitude_ok = k_edge < sigma_inv_edge
        # threshold on l*xi^2 implied by K(-2k) < -kappa/l
        x = kap / lam
        if x <= 1.0:
            a = math.acos(x)
            num, den = math.sin((n_tot + 1) * a), math.sin(n_tot * a)
        else:
            a = math.acosh(x)
            num, den = math.sinh((n_tot + 1) * a), math.sinh(n_tot * a)
        threshold = kap * lam * num / den if den != 0.0 else math.inf

    extra = bool(energy_ok and amplitude_ok)
    m_side_low = n_low + (1 if extra else 0)
    m_side_up = n_up + (1 if extra else 0)
    trace = {
        "specialized": True,
        "n_out": n_out,
        "energy_criterion": {
            "kappa_over_lambda": kap / lam,
            "bound": math.cos(math.pi * n_out / (2 * n_tot)) if n_out else None,
            "k_zero_at_gap": e_boundary,
            "ok": energy_ok,
        },
        "amplitude_criterion": {
            "k_edge": k_edge,
            "sigma_inv_edge": sigma_inv_edge,
            "l_xi_squared": None if params.infinite else params.l_int * params.xi**2,
            "threshold_on_l_xi_squared": threshold,
            "ok": amplitude_ok,
        },
    }
    return BoundStateCensus(
        n_low=n_low,
        n_up=n_up,
        m_below=m_side_low,
        m_above=m_side_up,
        m_bic=len(waveguide_bic_energies(params)),
        criteria_trace=trace,
    )


def waveguide_bic_energies(params: WaveguideParams) -> list[float]:
    """Level energies that coincide with interior J-zeros (exact matches)."""
    if params.infinite or params.l_int < 2:
        return []
    tol = 1e-12 * params.lam
    zeros = np.asarray(j_zeros(params))
    out = []
    for e in chain_levels(params):
        if np.any(np.abs(zeros - e) <= tol):
            out.append(float(e))
    return sorted(out)
