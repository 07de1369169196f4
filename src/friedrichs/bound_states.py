"""Counting and solving bound states outside and inside the continuum.

Outside the band the eigenvalue condition reduces to K(E) = 1/Sigma(E);
K falls monotonically on each branch between its poles while 1/Sigma rises,
so every root sits in a certifiable bracket built from the poles eps_n, the
K-zeros, the band edges and expanding far sentinels.  Inside the band,
candidates exist only at the declared zeros of J.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.optimize import brentq

from . import quadrature as qd
from . import spectral as sp
from .errors import NormalizationFailure, RootNotFound
from .model import DIVERGENT, InitialState, ValidatedModel


class BoundStateKind(enum.Enum):
    BELOW_BAND = "below-band"
    ABOVE_BAND = "above-band"
    IN_CONTINUUM = "in-continuum"


@dataclass(frozen=True, eq=False)
class BoundState:
    energy: float
    kind: BoundStateKind
    amplitudes: np.ndarray  # components of the state on the discrete levels
    norm_b2: float  # |B|^2 entering the amplitudes
    continuum_profile: Optional[Callable] = None
    level_index: Optional[int] = None  # set for a BIC pinned to a single level


@dataclass(frozen=True, eq=False)
class BoundStateCensus:
    n_low: int
    n_up: int
    m_below: int
    m_above: int
    m_bic: int
    criteria_trace: dict = field(default_factory=dict)

    @property
    def m_outside(self) -> int:
        return self.m_below + self.m_above


def _edge_comparison(model: ValidatedModel, side: str) -> dict:
    """Evaluate one Table-style criterion pair at a band edge."""
    edge = model.omega_low if side == "low" else model.omega_up
    trace: dict = {"side": side, "edge": edge}
    levels = model.levels
    n_side = int(np.sum(levels < edge)) if side == "low" else int(np.sum(levels > edge))
    trace["n_side"] = n_side

    if not math.isfinite(edge):
        trace.update(energy_ok=False, amplitude_ok=False, note="infinite edge")
        return trace

    n_tot = model.n_levels
    # energy criterion: the edge must lie past the K-zero in its gap
    if 1 <= n_side <= n_tot - 1:
        j = n_side - 1 if side == "low" else n_tot - 1 - n_side
        zero = sp._k_zero_in_gap(model, levels[j], levels[j + 1])
        energy_ok = (edge > zero) if side == "low" else (edge < zero)
        trace["k_zero_boundary"] = float(zero)
    else:
        energy_ok = True  # vacuous: no zero separates the edge from the last pole
        trace["k_zero_boundary"] = None
    trace["energy_ok"] = bool(energy_ok)

    k_edge = float(np.real(sp.k_function(model, edge)))
    sig_inv, is_limit = sp.sigma_inverse_at_edge(model, side)
    trace["k_edge"] = k_edge
    trace["sigma_inv_edge"] = "0-" if (is_limit and side == "low") else (
        "0+" if is_limit else sig_inv
    )
    margin = (sig_inv - k_edge) if side == "low" else (k_edge - sig_inv)
    tie = abs(margin) <= 1e-12 * max(abs(k_edge), abs(sig_inv), 1e-300)
    trace["tie"] = bool(tie)
    amplitude_ok = (margin > 0) and not tie
    trace["amplitude_ok"] = bool(amplitude_ok)
    trace["extra_root"] = bool(energy_ok and amplitude_ok)
    return trace


def count_bound_states(model: ValidatedModel) -> BoundStateCensus:
    """Bound-state census outside the band plus the count of declared BICs."""
    low = _edge_comparison(model, "low")
    up = _edge_comparison(model, "up")
    m_below = low["n_side"] + (1 if low.get("extra_root") else 0)
    m_above = up["n_side"] + (1 if up.get("extra_root") else 0)
    return BoundStateCensus(
        n_low=low["n_side"],
        n_up=up["n_side"],
        m_below=m_below,
        m_above=m_above,
        m_bic=len(find_bics(model)),
        criteria_trace={"low": low, "up": up},
    )


# ---------------------------------------------------------------------------
# root solving

def _mismatch(model: ValidatedModel, e: float) -> float:
    return float(np.real(sp.k_function(model, e))) - 1.0 / sp.self_energy(model, e)


def _polish(model: ValidatedModel, e: float, a: float, b: float):
    """Up to two Newton steps on K - 1/Sigma inside (a, b), one Sigma each.

    Returns the root and Sigma at it, or (root, None) when the last step
    moved off the energy where Sigma was evaluated.
    """
    for _ in range(2):
        k = float(np.real(sp.k_function(model, e)))
        sig = sp.self_energy(model, e)
        f = k - 1.0 / sig
        df = float(np.real(sp.k_derivative(model, e))) + sp.self_energy_derivative(
            model, e
        ) / sig**2
        if df == 0.0:
            break
        step = f / df
        e_new = e - step
        if not (a < e_new < b):
            break
        if e_new != e:
            sig = None
        e = e_new
        if abs(step) < 1e-16 * model.scale:
            break
    return e, sig


def _near_pole_offset(model: ValidatedModel, pole: float, direction: int) -> float:
    """Point near a K-pole on the given side where the sign is pole-dominated."""
    d = 1e-9 * model.scale
    floor = 2e-13 * model.scale
    while d >= floor:
        e = pole + direction * d
        f = _mismatch(model, e)
        if direction > 0 and f > 0:
            return e
        if direction < 0 and f < 0:
            return e
        d *= 0.25
    raise RootNotFound(f"could not approach pole at {pole}")


def _edge_endpoint(model: ValidatedModel, side: str) -> float:
    """Bracket endpoint at (or walking in from) a band edge."""
    edge = model.omega_low if side == "low" else model.omega_up
    s = model.continuum.edge_exponents[0 if side == "low" else 1]
    want_negative = side == "low"  # f(edge) < 0 below band, > 0 above band
    if s is not DIVERGENT:
        f = _mismatch(model, edge)
        if (f < 0) == want_negative and f != 0:
            return edge
    d = 1e-3 * model.scale
    for _ in range(60):
        e = edge - d if side == "low" else edge + d
        f = _mismatch(model, e)
        if (f < 0) == want_negative and f != 0:
            return e
        d *= 0.5
    raise RootNotFound(f"criterion-promised root not visible near the {side} edge")


def _expand_sentinel(model: ValidatedModel, start: float, direction: int) -> float:
    """Far point where K - 1/Sigma has the asymptotic sign (+ left, - right)."""
    e = start
    step = 10.0 * model.scale
    for _ in range(60):
        e = e + direction * step
        f = _mismatch(model, e)
        if direction < 0 and f > 0:
            return e
        if direction > 0 and f < 0:
            return e
        step *= 2.0
    raise RootNotFound("sentinel expansion failed")


def _solve_bracket(model: ValidatedModel, a: float, b: float):
    """The root in (a, b) and Sigma there (None if not yet evaluated)."""
    root = brentq(
        lambda e: _mismatch(model, e),
        a,
        b,
        xtol=1e-15 * model.scale,
        rtol=8.9e-16,
        maxiter=200,
    )
    return _polish(model, root, a, b)


def _brackets_one_side(model: ValidatedModel, census_trace: dict, side: str):
    edge = model.omega_low if side == "low" else model.omega_up
    trace = census_trace[side]
    if not math.isfinite(edge):
        return []
    levels = model.levels
    poles = levels[levels < edge] if side == "low" else levels[levels > edge]
    brackets = []
    if side == "low":
        bounds = [float(p) for p in poles]
        if bounds:
            left = _expand_sentinel(model, bounds[0], -1)
            for i, p in enumerate(bounds):
                a = left if i == 0 else _near_pole_offset(model, bounds[i - 1], +1)
                b = _near_pole_offset(model, p, -1)
                brackets.append((a, b))
        if trace.get("extra_root"):
            a = (
                _near_pole_offset(model, bounds[-1], +1)
                if bounds
                else _expand_sentinel(model, edge, -1)
            )
            brackets.append((a, _edge_endpoint(model, "low")))
    else:
        bounds = [float(p) for p in poles]
        if trace.get("extra_root"):
            b = (
                _near_pole_offset(model, bounds[0], -1)
                if bounds
                else _expand_sentinel(model, edge, +1)
            )
            brackets.append((_edge_endpoint(model, "up"), b))
        if bounds:
            right = _expand_sentinel(model, bounds[-1], +1)
            for i, p in enumerate(bounds):
                a = _near_pole_offset(model, p, +1)
                b = (
                    _near_pole_offset(model, bounds[i + 1], -1)
                    if i + 1 < len(bounds)
                    else right
                )
                brackets.append((a, b))
    return brackets


def _continuum_profile(model: ValidatedModel, weight: complex, e_m: float) -> Callable:
    """Amplitude profile on the orthonormalized continuum basis.

    weight is B*K(E_m) for generic states and B*conj(f_m) for a pinned BIC;
    the omega-dependence is gbar(w)/(E_m - w) with gbar = conj(g)*sqrt(rho)
    when the factored pair is available, else sqrt(J).
    """
    band = model.continuum
    if band.coupling_profile is not None and band.density_of_states is not None:
        gbar = lambda om: np.conj(band.coupling_profile(om)) * np.sqrt(
            np.maximum(band.density_of_states(om), 0.0)
        )
    else:
        gbar = lambda om: np.sqrt(np.maximum(model.j(om), 0.0))

    def profile(omega):
        om = np.asarray(omega, dtype=float)
        return weight * gbar(om) / (e_m - om)

    return profile


def _generic_state(
    model: ValidatedModel, e_m: float, kind: BoundStateKind, sig: Optional[float] = None
) -> BoundState:
    """The state at a root e_m; sig is Sigma(e_m) when the caller has it."""
    k = float(np.real(sp.k_function(model, e_m)))
    kp = float(np.real(sp.k_derivative(model, e_m)))
    if sig is None:
        sig = sp.self_energy(model, e_m)
    sigp = sp.self_energy_derivative(model, e_m)
    if abs(sig) <= 1e-14 * max(abs(k), 1.0):
        raise NormalizationFailure(f"Sigma(E_m)={sig} too close to zero at E_m={e_m}")
    denom = kp * sig + k * sigp
    b2 = -sig / denom
    if not (b2 > 0.0) or not math.isfinite(b2):
        raise NormalizationFailure(f"|B|^2 = {b2} at E_m = {e_m}")
    b = math.sqrt(b2)
    amps = b * model.couplings / (e_m - model.levels)
    return BoundState(
        energy=float(e_m),
        kind=kind,
        amplitudes=amps,
        norm_b2=b2,
        continuum_profile=_continuum_profile(model, b * k, e_m),
    )


def solve_bound_states(model: ValidatedModel, census: BoundStateCensus | None = None):
    """All bound states outside the band, ordered by energy."""
    census = census or count_bound_states(model)
    states: list[BoundState] = []
    for side, kind, want in (
        ("low", BoundStateKind.BELOW_BAND, census.m_below),
        ("up", BoundStateKind.ABOVE_BAND, census.m_above),
    ):
        brackets = _brackets_one_side(model, census.criteria_trace, side)
        if len(brackets) != want:
            raise RootNotFound(
                f"{side} side: census promised {want} roots, bracket layout has "
                f"{len(brackets)}: {brackets}"
            )
        for a, b in brackets:
            fa, fb = _mismatch(model, a), _mismatch(model, b)
            if not (fa > 0 > fb):
                raise RootNotFound(
                    f"bracket ({a}, {b}) not sign-changing: f(a)={fa}, f(b)={fb}"
                )
            root, sig = _solve_bracket(model, a, b)
            states.append(_generic_state(model, root, kind, sig))
    states.sort(key=lambda s: s.energy)
    return states


def find_bics(model: ValidatedModel):
    """Bound states in the continuum at the declared zeros of J."""
    out: list[BoundState] = []
    tol_level = 1e-9 * model.scale
    for e0 in model.interior_zeros:
        dist = np.abs(model.levels - e0)
        j_near = int(np.argmin(dist))
        at_level = dist[j_near] <= tol_level
        sig = sp.self_energy(model, e0)
        if at_level:
            f_j = model.couplings[j_near]
            if abs(sig) > 1e-9 * model.scale and abs(f_j) > 0:
                continue  # K diverges at a coupled level: no eigenvalue here
            sigp = sp.self_energy_derivative(model, e0)
            b2 = 1.0 / (1.0 - abs(f_j) ** 2 * sigp)
            if not (b2 > 0.0):
                raise NormalizationFailure(f"|B|^2 = {b2} for BIC at {e0}")
            b = math.sqrt(b2)
            amps = np.zeros(model.n_levels, dtype=complex)
            amps[j_near] = b
            out.append(
                BoundState(
                    energy=float(e0),
                    kind=BoundStateKind.IN_CONTINUUM,
                    amplitudes=amps,
                    norm_b2=b2,
                    continuum_profile=_continuum_profile(
                        model, b * np.conj(f_j), e0
                    ),
                    level_index=j_near,
                )
            )
            continue
        # generic BIC: K(e0) = 1/Sigma(e0) must hold at the J-zero
        k0 = float(np.real(sp.k_function(model, e0)))
        if abs(sig) < 1e-12 or abs(k0 - 1.0 / sig) > 1e-9 * max(abs(k0), 1.0):
            continue
        out.append(_generic_state(model, e0, BoundStateKind.IN_CONTINUUM, sig))
    return out


def all_bound_states(model: ValidatedModel):
    """Extra-continuum states plus BICs, ordered by energy."""
    states = solve_bound_states(model) + find_bics(model)
    states.sort(key=lambda s: s.energy)
    return states


# ---------------------------------------------------------------------------
# independent checks used by the test suite

def residual(model: ValidatedModel, state: BoundState) -> float:
    """Relative plug-back residual |K - 1/Sigma| / |K| at the state energy."""
    k = float(np.real(sp.k_function(model, state.energy)))
    sig = sp.self_energy(model, state.energy)
    return abs(k - 1.0 / sig) / max(abs(k), 1e-300)


def total_norm(model: ValidatedModel, state: BoundState) -> float:
    """Discrete norm plus independent quadrature of the continuum profile."""
    disc = float(np.sum(np.abs(state.amplitudes) ** 2))
    prof = state.continuum_profile
    if prof is None:
        return disc

    def dens(om):
        return float(np.abs(prof(np.atleast_1d(np.asarray(om, dtype=float))))[0] ** 2)

    pts = set(model.interior_zeros)
    if model.inside_band(state.energy):
        pts.add(state.energy)  # removable point of the profile
    val, _ = qd.band_integral(
        dens, model.omega_low, model.omega_up, interior_points=tuple(pts), epsrel=1e-9
    )
    return disc + val
