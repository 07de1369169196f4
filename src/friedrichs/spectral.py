"""Scalar spectral kernels: Sigma, Sigma', Delta, Gamma, K, K', I.

K and I are exact rational sums over the discrete levels (valid at complex
arguments).  This is the only module that reads a model's closed-form
overrides: Sigma, Sigma' and Delta take them when the model carries them.
Otherwise a finite band takes graded Gauss-Legendre rules, one energy at a
time for Sigma and Sigma' (`quadrature.kernel_integral`) and a whole grid
for Delta (`quadrature.delta_on_grid`); adaptive quadrature serves only a
(semi-)infinite band.
"""
from __future__ import annotations

import math

import numpy as np

from . import quadrature as qd
from .errors import DivergentDerivative, EInsideBand, NonconvergentEdge, PoleHit
from .model import DIVERGENT, InitialState, ValidatedModel

SIGMA_EPSREL = 1e-11
SIGMA_DERIV_EPSREL = 1e-9
PV_EPSREL = 1e-10


def _pole_tolerance(model: ValidatedModel) -> float:
    return 1e-13 * model.scale


def _check_pole(model: ValidatedModel, z: complex):
    tol = _pole_tolerance(model)
    d = np.abs(z - model.levels)
    i = int(np.argmin(d))
    if d[i] <= tol:
        raise PoleHit(f"argument {z} within {tol:.1e} of level {model.levels[i]}")


def k_function(model: ValidatedModel, z: complex) -> complex:
    """K(z) = sum_n |f_n|^2 / (z - eps_n)."""
    _check_pole(model, z)
    return complex(np.sum(np.abs(model.couplings) ** 2 / (z - model.levels)))


def k_derivative(model: ValidatedModel, z: complex) -> complex:
    """K'(z) = -sum_n |f_n|^2 / (z - eps_n)^2."""
    _check_pole(model, z)
    return complex(-np.sum(np.abs(model.couplings) ** 2 / (z - model.levels) ** 2))


def k_real_grid(model: ValidatedModel, e_grid) -> np.ndarray:
    """Vectorized K on a real grid (no pole guard; caller avoids levels)."""
    e = np.asarray(e_grid, dtype=float)
    f2 = np.abs(model.couplings) ** 2
    return (f2[None, :] / (e[:, None] - model.levels[None, :])).sum(axis=1)


def i_function(model: ValidatedModel, initial: InitialState, z: complex) -> complex:
    """I(z) = sum_n f_n^* c_n / (z - eps_n)."""
    _check_pole(model, z)
    w = np.conj(model.couplings) * initial.amplitudes
    return complex(np.sum(w / (z - model.levels)))


def i_real_grid(model: ValidatedModel, initial: InitialState, e_grid) -> np.ndarray:
    e = np.asarray(e_grid, dtype=float)
    w = np.conj(model.couplings) * initial.amplitudes
    return (w[None, :] / (e[:, None] - model.levels[None, :])).sum(axis=1)


def k_zeros(model: ValidatedModel) -> np.ndarray:
    """The N-1 real zeros of K, one in each gap (eps_n, eps_{n+1})."""
    from scipy.optimize import brentq

    eps = model.levels
    zeros = []
    for a, b in zip(eps[:-1], eps[1:]):
        gap = b - a
        # K -> +inf at a+, -inf at b-: expand inward until signs certify
        d = 1e-9 * gap
        while True:
            fa = float(np.real(k_function(model, a + d)))
            fb = float(np.real(k_function(model, b - d)))
            if fa > 0 > fb:
                break
            d *= 0.25
            if d < 1e-15 * gap:
                raise PoleHit(f"could not bracket K-zero in ({a}, {b})")
        zeros.append(
            brentq(
                lambda e: float(np.real(k_function(model, e))),
                a + d,
                b - d,
                xtol=1e-15 * model.scale,
                rtol=8.9e-16,
            )
        )
    return np.asarray(zeros)


# ---------------------------------------------------------------------------
# self-energy

def _classify(model: ValidatedModel, e: float) -> str:
    if model.is_edge(e):
        return "edge_low" if abs(e - model.omega_low) <= abs(e - model.omega_up) else "edge_up"
    if model.inside_band(e):
        return "zero" if model.is_interior_zero(e, tol=1e-9 * model.scale) else "inside"
    return "outside"


def _edge_exponent(model: ValidatedModel, which: str):
    s_low, s_up = model.continuum.edge_exponents
    return s_low if which == "edge_low" else s_up


def _snap_to_edge(model: ValidatedModel, e: float, where: str) -> float:
    """The edge for an e that `_classify` puts on it (nodes kept one ulp off
    the edge cannot resolve a pole at e that close to it), else e."""
    return {"edge_low": model.omega_low, "edge_up": model.omega_up}.get(where, e)


def self_energy(model: ValidatedModel, e: float) -> float:
    """Sigma(E) = integral J(w)/(E-w) dw on real E outside the band or at a J-zero."""
    e = float(e)
    where = _classify(model, e)
    if where == "inside":
        raise EInsideBand(f"E={e} lies strictly inside the band and J(E) != 0")
    if where in ("edge_low", "edge_up") and _edge_exponent(model, where) is DIVERGENT:
        raise NonconvergentEdge(f"Sigma diverges at the band edge E={e}")
    ov = model.overrides
    if ov is not None and ov.sigma is not None:
        return float(ov.sigma(e))
    val, err = qd.kernel_integral(
        model.j,
        model.omega_low,
        model.omega_up,
        _snap_to_edge(model, e, where),
        power=1,
        interior_points=model.interior_zeros,
        epsrel=SIGMA_EPSREL,
    )
    return val


def self_energy_derivative(model: ValidatedModel, e: float) -> float:
    """Sigma'(E) = -integral J(w)/(E-w)^2 dw (< 0 wherever it converges)."""
    e = float(e)
    where = _classify(model, e)
    if where == "inside":
        raise EInsideBand(f"E={e} lies strictly inside the band and J(E) != 0")
    if where in ("edge_low", "edge_up"):
        s = _edge_exponent(model, where)
        if s is DIVERGENT or s <= 1.0:
            raise DivergentDerivative(f"Sigma'(E) diverges at the band edge E={e}")
    ov = model.overrides
    if ov is not None and ov.sigma_deriv is not None:
        return float(ov.sigma_deriv(e))
    val, err = qd.kernel_integral(
        model.j,
        model.omega_low,
        model.omega_up,
        _snap_to_edge(model, e, where),
        power=2,
        interior_points=model.interior_zeros,
        epsrel=SIGMA_DERIV_EPSREL,
    )
    return -val


def sigma_inverse_at_edge(model: ValidatedModel, which: str):
    """1/Sigma at a band edge; divergent edges give the signed limit 0-/0+.

    Returns (value, is_limit) where is_limit marks the divergent case.
    """
    edge = model.omega_low if which == "low" else model.omega_up
    exps = model.continuum.edge_exponents
    s = exps[0] if which == "low" else exps[1]
    if not math.isfinite(edge):
        raise NonconvergentEdge("no finite edge on this side")
    if s is DIVERGENT:
        return (-0.0 if which == "low" else +0.0), True
    sig = self_energy(model, edge)
    return 1.0 / sig, False


def _delta(model: ValidatedModel, e):
    """Delta(E), the principal-value part of Sigma, strictly inside the band.

    The one route to Delta: the model's closed form when it has one, else
    `quadrature.delta_on_grid` on a finite band and `principal_value` point
    by point on a (semi-)infinite one.  e is a float or an array; returns
    Delta of the same shape and the node count of the `delta_on_grid`
    rule (0 for the other two).
    """
    ov = model.overrides
    if ov is not None and ov.delta is not None:
        return np.asarray(ov.delta(e), dtype=float), 0
    x = np.atleast_1d(np.asarray(e, dtype=float))
    lo, up = model.omega_low, model.omega_up
    if model.finite_band:
        delta = qd.delta_on_grid(model.j, lo, up, x)
        nodes = qd.delta_rule(lo, up, x)[0].size
    else:
        pv = [qd.principal_value(model.j, lo, up, float(v), epsrel=PV_EPSREL)[0] for v in x]
        delta, nodes = np.array(pv), 0
    return delta.reshape(np.shape(e)), nodes


def delta_gamma(model: ValidatedModel, e: float) -> tuple[float, float]:
    """(Delta(E), Gamma(E)) for E strictly inside the band; Gamma = pi*J(E)."""
    e = float(e)
    if not model.inside_band(e) or model.is_edge(e):
        raise EInsideBand(f"E={e} is not strictly inside the band")
    gamma = math.pi * float(np.asarray(model.j(np.array([e])))[0])
    delta, _ = _delta(model, e)
    return float(delta), gamma
