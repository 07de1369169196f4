"""Tight-binding chain side-coupled to a semi-infinite photonic lattice.

An N-site atomic chain (hopping lambda) couples with strength xi from its
site 1 to site l of a half-infinite waveguide (hopping kappa).  In the Bloch
basis this is a discrete-levels-plus-continuum model with

    eps_n = -2*lambda*cos(pi n/(N+1)),    f_n = xi*sqrt(2/(N+1))*sin(pi n/(N+1)),
    band [-2 kappa, 2 kappa],             J per a sin^2(l * arccos(w/2kappa)) profile,

and closed forms for Sigma, Sigma' and Delta.  site=math.inf
selects the infinite-waveguide limit (flat attachment deep in the bulk): J
turns into the bare inverse-square-root density with divergent (van Hove)
edges and no interior zeros.  Each kernel is one form for every site l,
with site inf as l = inf, read from the distance to the nearer band edge.

The closed forms of Sigma, Sigma' and Delta are the model's overrides
(`_closed_forms`).  They decide nothing about where E lies: `spectral`
classifies E first and calls them only outside the band, on a convergent
edge or exactly at a declared J-zero.  The specialized census reads K only
at the edge -2 kappa (`_edge_pair`) and the BICs by `find_bics`'s per-level
rule (`_bic_mask`).  Of its criteria only K(-2 kappa) = xi^2 a/(lambda b)
and the BICs depend on xi, so the census runs over a whole array of xi at
once (`_census_over_xi`): (a, b), the level counts and the energy criterion
once per (N, lambda, kappa, site), the rest per xi.
`waveguide_bound_state_count` is its one-xi call; fig. 3 calls it once per
(N, kappa).
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .bound_states import BoundStateCensus
from .errors import ConfigError, PoleHit
from .model import (
    DIVERGENT,
    AnalyticOverrides,
    ContinuumBand,
    DiscreteSpectrum,
    FriedrichsModel,
    InitialState,
    ValidatedModel,
    energy_scale,
    near_declared_zero,
    validate_model,
)

INFINITE = math.inf


def _is_int(value) -> bool:
    """value is an int or a numpy integer, and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class WaveguideParams:
    n_atoms: int
    lam: float
    kappa: float
    xi: float
    site: float  # integer >= 1, or INFINITE

    def __post_init__(self):
        if not (_is_int(self.n_atoms) and self.n_atoms >= 1):
            raise ConfigError(f"n_atoms={self.n_atoms} must be an integer >= 1")
        for name, value in (("lam", self.lam), ("kappa", self.kappa), ("xi", self.xi)):
            if not math.isfinite(value):
                raise ConfigError(f"{name}={value} must be finite")
        if self.lam <= 0 or self.kappa <= 0:
            raise ConfigError("hoppings lambda and kappa must be positive")
        if self.xi < 0:
            raise ConfigError("coupling xi must be >= 0")
        if not (self.site == INFINITE or (_is_int(self.site) and self.site >= 1)):
            raise ConfigError(f"site={self.site} must be an integer >= 1 or math.inf")

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
    return _couplings_over_xi(params, [params.xi])[0]


def _couplings_over_xi(params: WaveguideParams, xis) -> np.ndarray:
    """f_n for each xi in xis, shape (len(xis), N); params.xi is not read."""
    # sin(pi n/(N+1)) is mirror symmetric; copy the first half exactly
    n_tot = params.n_atoms
    n = np.arange(1, n_tot + 1)
    out = np.multiply.outer(
        np.asarray(xis, dtype=float) * np.sqrt(2.0 / (n_tot + 1)), np.sin(np.pi * n / (n_tot + 1))
    )
    half = n_tot // 2
    out[:, n_tot - half :] = out[:, :half][:, ::-1]
    return out


def j_zeros(params: WaveguideParams) -> tuple:
    if params.infinite or params.l_int < 2:
        return ()
    return tuple(float(v) for v in _mirrored_cosines(params.kappa, params.l_int))


def _band_angle(a, kap):
    """psi = arccos(a/2 kappa) for 0 <= a = |E| < 2 kappa, read from the
    distance to the edge, which a/2 kappa would round away next to it."""
    return 2 * np.arcsin(np.sqrt((2 * kap - a) / (4 * kap)))


def _spectral_density(params: WaveguideParams):
    kap, l = params.kappa, params.site

    def j(omega):
        om = np.asarray(omega, dtype=float)
        out = np.zeros_like(om)
        inside = np.abs(om) < 2 * kap
        x = om[inside]
        # 2 sin^2(l psi), and its bulk average 1 at l = inf; (2k - x)(2k + x),
        # as 4k^2 - x^2 would lose the digits a van Hove edge magnifies
        w = 1.0 if params.infinite else 2 * np.sin(l * _band_angle(np.abs(x), kap)) ** 2
        out[inside] = w / (np.pi * np.sqrt((2 * kap - x) * (2 * kap + x)))
        return out if out.ndim else float(out)

    return j


# ---------------------------------------------------------------------------
# closed forms

def _closed_forms(params: WaveguideParams) -> AnalyticOverrides:
    """Sigma, Sigma' and Delta in closed form, one of each for every site l.

    `spectral` calls sigma and sigma_deriv only at a classified energy:
    outside the band, on a convergent edge (finite sites; the infinite
    waveguide's van Hove edges are rejected before) or exactly at a
    declared J-zero.  Strictly inside the band E is therefore a J-zero,
    where J = 0 leaves Sigma = Delta = 0 and Sigma' = Delta'.

    Outside the band d = |E| - 2 kappa is formed first, exact next to the
    edge (Sterbenz) where E^2 - 4 kappa^2 and arccosh(|E|/2 kappa) round it
    away; then s = sqrt(d (|E| + 2 kappa)) = sqrt(E^2 - 4 kappa^2) and
    |E| = 2 kappa cosh theta, theta = log1p((d + s)/2 kappa).  Site inf is
    l = inf, where e^{-2 l theta} = 0: only Delta, whose sin(2 l psi)
    averages to 0 in the bulk, needs a case of its own.
    """
    kap, l = params.kappa, params.site

    def outside(a):
        """(s, theta) at |E| = a >= 2 kappa."""
        d = a - 2 * kap
        s = math.sqrt(d * (a + 2 * kap))
        return s, math.log1p((d + s) / (2 * kap))

    def sigma(e):
        if abs(e) < 2 * kap:
            return 0.0
        s, th = outside(abs(e))
        # (1 - e^{-2 l theta})/s, and the edge value l/kappa of a finite site
        return math.copysign(l / kap if s == 0 else -math.expm1(-2 * l * th) / s, e)

    def sigma_deriv(e):
        a = abs(e)
        if a < 2 * kap:
            # derivative of the principal-value part at a J-zero
            return -2.0 * l / ((2 * kap - e) * (2 * kap + e))
        s, th = outside(a)
        if l * th < 1e-5:
            # two-term series of the numerator below: its terms cancel to
            # O(l theta) relative, and the series leaves (l theta)^2
            num = 2 * kap * (-2.0 * l**2 * th**2 + (8.0 * l**3 - 2.0 * l) * th**3 / 3.0)
        else:
            ex = math.exp(-2 * l * th)
            # the first term vanishes with e^{-2 l theta}; 0 * inf at l = inf
            num = (2 * l * ex * s if ex else 0.0) + math.expm1(-2 * l * th) * a
        return num / s**3

    def delta(e):
        # strictly inside the band; e may be an array
        e = np.asarray(e, dtype=float)
        if params.infinite:
            return np.zeros_like(e)  # the bulk average of sin(2 l psi)
        psi = _band_angle(np.abs(e), kap)
        return np.sign(e) * np.sin(2 * l * psi) / np.sqrt((2 * kap - e) * (2 * kap + e))

    return AnalyticOverrides(sigma, sigma_deriv, delta)


# ---------------------------------------------------------------------------
# model construction

def build_waveguide_model(params: WaveguideParams) -> ValidatedModel:
    kap = params.kappa
    band = ContinuumBand(
        omega_low=-2 * kap,
        omega_up=2 * kap,
        spectral_density=_spectral_density(params),
        edge_exponents=(DIVERGENT, DIVERGENT) if params.infinite else (0.5, 0.5),
        interior_zeros=j_zeros(params),
    )
    model = FriedrichsModel(
        discrete=DiscreteSpectrum(chain_levels(params), chain_couplings(params)),
        continuum=band,
        overrides=_closed_forms(params),
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

def _edge_pair(params: WaveguideParams) -> tuple[float, float]:
    """(a, b) with K(-2 kappa) = xi^2 a / (lambda b): (U_{N-1}, U_N) at
    x = -kappa/lambda, which depend on N and kappa/lambda only."""
    n, x = params.n_atoms, -params.kappa / params.lam
    if x < -1.0:
        phi = math.acosh(-x)
        return -math.sinh(n * phi), math.sinh((n + 1) * phi)
    # exact at x = -1, where sin(N phi) and sin((N+1) phi) both vanish
    u_prev, u = 1.0, 2.0 * x
    for _ in range(n - 1):
        u_prev, u = u, 2.0 * x * u - u_prev
    if u == 0.0:
        raise PoleHit(f"E={-2.0 * params.kappa} is a root of U_N: K has a pole there")
    return u_prev, u


@dataclass(frozen=True)
class _XiCensus:
    """The closed-form census of one (N, lambda, kappa, site) over an array of
    xi: the xi-independent parts once, the rest as lists with one entry per xi."""

    params: WaveguideParams  # its xi is not read
    n_low: int
    n_up: int
    energy_criterion: dict
    sigma_inv_edge: float
    threshold: float | None
    xi_squared: list[float]
    k_edge: list[float]
    amplitude_ok: list[bool]
    m_below: list[int]
    m_above: list[int]
    m_bic: list[int]

    def census(self, i: int) -> BoundStateCensus:
        """Entry i as the scalar census, with its criteria trace."""
        params = self.params
        trace = {
            "specialized": True,
            "n_out": self.n_low + self.n_up,
            "energy_criterion": dict(self.energy_criterion),
            "amplitude_criterion": {
                "k_edge": self.k_edge[i],
                "sigma_inv_edge": self.sigma_inv_edge,
                "l_xi_squared": (
                    None if params.infinite else params.l_int * self.xi_squared[i]
                ),
                "threshold_on_l_xi_squared": self.threshold,
                "ok": self.amplitude_ok[i],
            },
        }
        return BoundStateCensus(
            n_low=self.n_low,
            n_up=self.n_up,
            m_below=self.m_below[i],
            m_above=self.m_above[i],
            m_bic=self.m_bic[i],
            criteria_trace=trace,
        )


def _census_over_xi(params: WaveguideParams, xis) -> _XiCensus:
    """Census from the closed-form criteria (spectrally symmetric model) for
    (N, lambda, kappa, site) of params and every xi in xis.

    Energy criterion: kappa/lambda < cos(pi*N_out/(2N)) for N_out >= 2
    (vacuous otherwise).  Amplitude criterion: K(-2k) < 1/Sigma(-2k) with
    1/Sigma(-2k) = -kappa/l, the signed limit -0.0 for the infinite
    waveguide.  With K(-2k) = xi^2 a/(lambda b) from `_edge_pair`,
    a finite site meets it for l*xi^2 above -kappa*lambda*b/a when a*b < 0.
    The threshold is None when a*b >= 0 (then K(-2k) >= 0 and no l*xi^2
    does) and at the infinite site.  (a, b), the level counts and the energy
    criterion are evaluated once; K(-2k) per xi, and the BIC count as one
    array operation over xi (`_bic_mask`).  The per-xi entries of K(-2k) are
    plain floats: xi^2 is Python's x**2 of each xi and K(-2k)
    keeps the scalar operation order, so every entry equals the census of
    that one xi bit for bit (numpy's square and arccosh differ in the last
    bit, and a one-element array would slow the scalar call).
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

    a, b = _edge_pair(params)
    xi_squared = [float(x) ** 2 for x in xis]
    k_edge = [x2 * a / (lam * b) for x2 in xi_squared]
    sigma_inv_edge = -kap / params.site  # 1/Sigma(-2k), -0.0 at l = inf
    threshold = -kap * lam * b / a if a * b < 0 and not params.infinite else None
    amplitude_ok = [k < sigma_inv_edge for k in k_edge]
    extra = [int(energy_ok and ok) for ok in amplitude_ok]
    return _XiCensus(
        params=params,
        n_low=n_low,
        n_up=n_up,
        energy_criterion={
            "kappa_over_lambda": kap / lam,
            "bound": math.cos(math.pi * n_out / (2 * n_tot)) if n_out else None,
            "k_zero_at_gap": e_boundary,
            "ok": energy_ok,
        },
        sigma_inv_edge=sigma_inv_edge,
        threshold=threshold,
        xi_squared=xi_squared,
        k_edge=k_edge,
        amplitude_ok=amplitude_ok,
        m_below=[n_low + e for e in extra],
        m_above=[n_up + e for e in extra],
        m_bic=_bic_mask(params, levels, xis).sum(axis=1).tolist(),
    )


def waveguide_bound_state_count(params: WaveguideParams) -> BoundStateCensus:
    """Census from the closed-form criteria: the one-xi call of
    `_census_over_xi`, which states them."""
    return _census_over_xi(params, [params.xi]).census(0)


def waveguide_bic_energies(params: WaveguideParams) -> list[float]:
    """The chain levels that are bound states in the continuum, as
    `bound_states.find_bics` finds them (`_bic_mask`)."""
    levels = chain_levels(params)
    return [float(e) for e in levels[_bic_mask(params, levels, [params.xi])[0]]]


def _bic_mask(params: WaveguideParams, levels: np.ndarray, xis) -> np.ndarray:
    """Whether each level is a BIC at each xi in xis, shape (len(xis), N):
    strictly inside the band, and uncoupled (|f_n|^2 = 0, f_n formed as
    `chain_couplings` forms it) or on an interior J-zero within the model's
    J-zero tolerance (`model.near_declared_zero`).  levels are
    `chain_levels(params)`; params.xi is not read."""
    kap, zeros = params.kappa, j_zeros(params)
    on_zero = False
    if zeros:
        scale = energy_scale(levels, -2 * kap, 2 * kap)
        on_zero = np.array([near_declared_zero(e, zeros, scale) for e in levels])
    uncoupled = _couplings_over_xi(params, xis) ** 2 == 0.0
    return ((-2 * kap < levels) & (levels < 2 * kap)) & (uncoupled | on_zero)
