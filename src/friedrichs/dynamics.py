"""Exact survival-probability dynamics: bound-state sum plus band integral.

The band integral of the scattering weight against exp(-iEt) is evaluated
with a linear-Filon rule on the edge-substituted variable: nodes cluster at
the edges (killing van Hove divergences), extra nodes resolve each
resonance, and the phase is handled analytically per panel so accuracy is
uniform in t.  All N levels go through one `quadrature.fourier_linear`
call, which shares the node phases and panel weights between them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import quadrature as qd
from . import spectral as sp
from .bound_states import all_bound_states
from .errors import ConfigError, QuadratureBudgetExceeded
from .model import InitialState, ValidatedModel


@dataclass(frozen=True, eq=False)
class SurvivalSeries:
    times: np.ndarray
    p: np.ndarray
    parts: Optional[dict] = None
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class LongTimeLimit:
    mean: float  # time-averaged survival probability
    beats: list  # (frequency E_m - E_m', amplitude, phase) triples


@dataclass(eq=False)
class DecayCoefficients:
    """Bound-state weights R[n, m] of a model and initial state."""

    model: ValidatedModel
    initial: InitialState
    bound_states: list
    energies: np.ndarray  # (M,)
    R: np.ndarray  # (N, M), R[n, m]


def _scatter_prefactor(model: ValidatedModel, initial: InitialState, e: np.ndarray):
    """Gamma*I / (pi*[(1 - Delta*K)^2 + (Gamma*K)^2]) on real energies.

    Also returns the node count of the Delta rule, 0 where the model's
    closed form gave Delta.
    """
    gamma = np.pi * np.asarray(model.j(e), dtype=float)
    delta, delta_nodes = sp._delta(model, e)
    k = sp.k_real_grid(model, e)
    i_vals = sp.i_real_grid(model, initial, e)
    denom = (1.0 - delta * k) ** 2 + (gamma * k) ** 2
    return gamma * i_vals / (np.pi * denom), delta_nodes


def decay_coefficients(
    model: ValidatedModel, initial: InitialState, bound_states: list
) -> DecayCoefficients:
    """R matrix per bound state plus the scattering weight closure."""
    n_lev = model.n_levels
    m = len(bound_states)
    energies = np.array([s.energy for s in bound_states], dtype=float)
    r = np.zeros((n_lev, m), dtype=complex)
    for jm, state in enumerate(bound_states):
        if state.level_index is not None:
            # BIC pinned to one level: only that row survives
            n = state.level_index
            r[n, jm] = state.norm_b2 * initial.amplitudes[n]
        else:
            i_val = sp.i_function(model, initial, state.energy)
            r[:, jm] = (
                state.norm_b2
                * model.couplings
                * i_val
                / (state.energy - model.levels)
            )
    return DecayCoefficients(
        model=model,
        initial=initial,
        bound_states=list(bound_states),
        energies=energies,
        R=r,
    )


# ---------------------------------------------------------------------------
# band nodes and the Filon evaluation

def _resonance_nodes(model: ValidatedModel) -> np.ndarray:
    """Extra energies resolving resonances and J-zero structure in the band."""
    lo, up = model.omega_low, model.omega_up
    extras = []
    ratios = np.geomspace(3e-3, 30.0, 36)
    for eps, f in zip(model.levels, model.couplings):
        if not lo < eps < up:
            continue
        gamma = math.pi * float(np.asarray(model.j(np.array([eps])))[0])
        width = max(gamma * abs(f) ** 2, 1e-9 * model.scale)
        for r in ratios:
            extras.append(eps + width * r)
            extras.append(eps - width * r)
    zero_width = 1e-3 * (up - lo)
    for z in model.interior_zeros:
        for r in np.geomspace(1e-3, 1.0, 12):
            extras.append(z + zero_width * r)
            extras.append(z - zero_width * r)
    return np.array([e for e in extras if lo < e < up], dtype=float)


def _band_k_nodes(model: ValidatedModel, n_base: int) -> np.ndarray:
    lo, up = model.omega_low, model.omega_up
    mid, half = 0.5 * (lo + up), 0.5 * (up - lo)
    k = np.linspace(0.0, np.pi, n_base)
    extra_e = _resonance_nodes(model)
    if extra_e.size:
        k_extra = np.arccos(np.clip((mid - extra_e) / half, -1.0, 1.0))
        k = np.unique(np.concatenate([k, k_extra]))
    # drop nodes closing ranks below float resolution
    keep = np.concatenate([[True], np.diff(k) > 1e-12])
    return k[keep]


def _quad_extrapolate(k0, ks, vals):
    """Lagrange quadratic through three (k, val) pairs, evaluated at k0."""
    k1, k2, k3 = ks
    l1 = (k0 - k2) * (k0 - k3) / ((k1 - k2) * (k1 - k3))
    l2 = (k0 - k1) * (k0 - k3) / ((k2 - k1) * (k2 - k3))
    l3 = (k0 - k1) * (k0 - k2) / ((k3 - k1) * (k3 - k2))
    return l1 * vals[..., 0] + l2 * vals[..., 1] + l3 * vals[..., 2]


@dataclass(frozen=True, eq=False)
class _BandKernel:
    k_nodes: np.ndarray  # substituted variable, [0, pi]
    e_nodes: np.ndarray  # energies (the oscillation phase)
    w: np.ndarray  # (N, K) amplitudes S_n(E(k)) * dE/dk, finite at the edges
    delta_nodes: int = 0  # node count of the Delta rule, 0 for a closed form


def _build_kernel(
    model: ValidatedModel, initial: InitialState, n_base: int
) -> _BandKernel:
    if not model.finite_band:
        raise ConfigError("scattering dynamics requires a finite band")
    lo, up = model.omega_low, model.omega_up
    mid, half = 0.5 * (lo + up), 0.5 * (up - lo)
    k = _band_k_nodes(model, n_base)
    e = mid - half * np.cos(k)
    # nudge any node that collides with a level (pole of K and I)
    for eps in model.levels:
        hit = np.abs(e - eps) < 1e-14 * model.scale
        e[hit] += 1e-13 * model.scale

    inner = slice(1, -1)
    pref, delta_nodes = _scatter_prefactor(model, initial, e[inner])
    jac = half * np.sin(k[inner])
    n_lev = model.n_levels
    w = np.empty((n_lev, k.size), dtype=complex)
    for n in range(n_lev):
        s_n = pref * model.couplings[n] / (e[inner] - model.levels[n])
        w[n, inner] = s_n * jac
    # edge nodes: W = S * dE/dk has a finite limit; extrapolate quadratically
    w[:, 0] = _quad_extrapolate(k[0], (k[1], k[2], k[3]), w[:, 1:4])
    w[:, -1] = _quad_extrapolate(k[-1], (k[-4], k[-3], k[-2]), w[:, -4:-1])
    return _BandKernel(k_nodes=k, e_nodes=e, w=w, delta_nodes=delta_nodes)


def _scatter_amplitudes(kern: _BandKernel, times) -> np.ndarray:
    """s_n(t) = int S_n(E) e^{-iEt} dE, shape (N, T)."""
    return qd.fourier_linear(kern.k_nodes, kern.w, times, phase=kern.e_nodes)


def _bound_amplitudes(coeffs: DecayCoefficients, times) -> np.ndarray:
    """b_n(t) = sum_m R[n, m] e^{-i E_m t}, shape (N, T)."""
    t = np.asarray(times, dtype=float)
    phases = np.exp(-1j * np.outer(coeffs.energies, t))  # (M, T)
    return coeffs.R @ phases


def survival_probability(
    model: ValidatedModel,
    initial: InitialState,
    times,
    *,
    bound_states: Optional[list] = None,
    coefficients: Optional[DecayCoefficients] = None,
    n_base_nodes: int = 32769,
    error_budget: Optional[float] = None,
    with_parts: bool = True,
) -> SurvivalSeries:
    """p(t) on the requested grid (times >= 0, sorted).

    error_budget, when given, checks the band integral by node thinning and
    raises QuadratureBudgetExceeded (with the achieved estimate) if the
    scattering part is not converged to that absolute level.

    meta holds the Filon node count (`filon_nodes`), the node count of the
    Delta rule (`delta_nodes`, 0 when the model's closed form gave Delta)
    and, when error_budget is given, the thinning estimate
    (`filon_thinning_error`).
    """
    t = np.asarray(times, dtype=float)
    if t.size and (np.any(t < 0) or np.any(np.diff(t) < 0)):
        raise ConfigError("times must be sorted and non-negative")
    if coefficients is None:
        if bound_states is None:
            bound_states = all_bound_states(model)
        coefficients = decay_coefficients(model, initial, bound_states)

    kern = _build_kernel(coefficients.model, coefficients.initial, n_base_nodes)
    s_amp = _scatter_amplitudes(kern, t)
    meta = {"filon_nodes": int(kern.k_nodes.size), "delta_nodes": int(kern.delta_nodes)}
    if error_budget is not None:
        sub = np.unique(np.r_[np.arange(0, kern.k_nodes.size, 2), kern.k_nodes.size - 1])
        coarse = _BandKernel(kern.k_nodes[sub], kern.e_nodes[sub], kern.w[:, sub])
        est = float(np.max(np.abs(_scatter_amplitudes(coarse, t) - s_amp)))
        meta["filon_thinning_error"] = est
        if est > error_budget:
            raise QuadratureBudgetExceeded(
                f"band-integral error estimate {est:.3e} exceeds budget {error_budget:.3e}"
            )
    b_amp = _bound_amplitudes(coefficients, t)

    total = b_amp + s_amp
    p = np.sum(np.abs(total) ** 2, axis=0).real
    parts = None
    if with_parts:
        p_bound = np.sum(np.abs(b_amp) ** 2, axis=0).real
        p_scatter = np.sum(np.abs(s_amp) ** 2, axis=0).real
        p_cross = 2.0 * np.sum(np.real(b_amp * np.conj(s_amp)), axis=0)
        parts = {"bound": p_bound, "scatter": p_scatter, "cross": p_cross}
    return SurvivalSeries(times=t, p=p, parts=parts, meta=meta)


def survival_amplitudes(
    model: ValidatedModel,
    initial: InitialState,
    times,
    *,
    coefficients: Optional[DecayCoefficients] = None,
    n_base_nodes: int = 32769,
) -> np.ndarray:
    """Per-level amplitudes b_n(t) + s_n(t) on an unrestricted time grid."""
    if coefficients is None:
        coefficients = decay_coefficients(model, initial, all_bound_states(model))
    kern = _build_kernel(coefficients.model, coefficients.initial, n_base_nodes)
    return _bound_amplitudes(coefficients, times) + _scatter_amplitudes(kern, times)


def long_time_limit(
    model: ValidatedModel, initial: InitialState, bound_states: list
) -> LongTimeLimit:
    """Mean survival plus the beat spectrum left once scattering has decayed."""
    coeffs = decay_coefficients(model, initial, bound_states)
    r = coeffs.R
    c = float(np.sum(np.abs(r) ** 2))
    beats = []
    m = r.shape[1]
    for a in range(m):
        for b in range(a):
            overlap = complex(np.sum(r[:, a] * np.conj(r[:, b])))
            beats.append(
                (
                    float(coeffs.energies[a] - coeffs.energies[b]),
                    abs(overlap),
                    float(np.angle(overlap)),
                )
            )
    return LongTimeLimit(mean=c, beats=beats)
