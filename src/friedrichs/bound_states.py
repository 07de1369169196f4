"""Counting and solving bound states outside and inside the continuum.

Outside the band the eigenvalue condition reduces to K(E) = 1/Sigma(E);
K falls monotonically on each branch between its poles while 1/Sigma rises,
so each branch holds at most one root.  One walk, the same for both sides,
brackets one root per interval from a band edge through the poles eps_n,
nearest first, to an expanding far sentinel; the interval at the edge holds
one only when the census found the extra root, and where Sigma is finite
there the census has already certified the sign of K - 1/Sigma at the edge.
Inside the band, candidates exist only at the declared zeros of J.
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
from .model import DIVERGENT, ValidatedModel


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


def _edge_comparison(model: ValidatedModel, sgn: int) -> dict:
    """Evaluate one Table-style criterion pair at a band edge; sgn is -1 (low)
    or +1 (up), so that sgn*(E - edge) > 0 lies outside the band."""
    side, edge = ("low", model.omega_low) if sgn < 0 else ("up", model.omega_up)
    trace: dict = {"side": side, "edge": edge}
    levels = model.levels
    n_side = int(np.sum(sgn * (levels - edge) > 0))
    trace["n_side"] = n_side

    if not math.isfinite(edge):
        trace.update(energy_ok=False, amplitude_ok=False, note="infinite edge")
        return trace

    n_tot = model.n_levels
    # energy criterion: the edge must lie past the K-zero in its gap
    if 1 <= n_side <= n_tot - 1:
        j = n_side - 1 if sgn < 0 else n_tot - 1 - n_side
        zero = sp._k_zero_in_gap(model, levels[j], levels[j + 1])
        energy_ok = sgn * (zero - edge) > 0
        trace["k_zero_boundary"] = float(zero)
    else:
        energy_ok = True  # vacuous: no zero separates the edge from the last pole
        trace["k_zero_boundary"] = None
    trace["energy_ok"] = bool(energy_ok)

    k_edge = float(np.real(sp.k_function(model, edge)))
    sig_inv, is_limit = sp.sigma_inverse_at_edge(model, side)
    trace["k_edge"] = k_edge
    trace["sigma_inv_edge"] = ("0-" if sgn < 0 else "0+") if is_limit else sig_inv
    margin = sgn * (k_edge - sig_inv)
    tie = abs(margin) <= 1e-12 * max(abs(k_edge), abs(sig_inv), 1e-300)
    trace["tie"] = bool(tie)
    amplitude_ok = (margin > 0) and not tie
    trace["amplitude_ok"] = bool(amplitude_ok)
    trace["extra_root"] = bool(energy_ok and amplitude_ok)
    return trace


def _census(model: ValidatedModel, bics: list) -> BoundStateCensus:
    """The census outside the band, with the BICs the caller already found."""
    low, up = _edge_comparison(model, -1), _edge_comparison(model, +1)
    return BoundStateCensus(
        n_low=low["n_side"],
        n_up=up["n_side"],
        m_below=low["n_side"] + (1 if low.get("extra_root") else 0),
        m_above=up["n_side"] + (1 if up.get("extra_root") else 0),
        m_bic=len(bics),
        criteria_trace={"low": low, "up": up},
    )


def count_bound_states(model: ValidatedModel) -> BoundStateCensus:
    """Bound-state census outside the band plus the count of declared BICs."""
    return _census(model, find_bics(model))


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


def _near_pole_offset(model: ValidatedModel, pole: float, direction: int):
    """(e, f) near a K-pole on the given side, where f = K - 1/Sigma has the
    pole-dominated sign: direction*f > 0."""
    d = 1e-9 * model.scale
    floor = 2e-13 * model.scale
    while d >= floor:
        e = pole + direction * d
        f = _mismatch(model, e)
        if direction * f > 0:
            return e, f
        d *= 0.25
    raise RootNotFound(f"could not approach pole at {pole}")


def _edge_endpoint(model: ValidatedModel, trace: dict, sgn: int):
    """(e, f) at a band edge whose extra root the census found: the edge with
    f = k_edge - sigma_inv_edge from the trace (the census certified
    sgn*f > 0), or at a divergent edge the first point outward with sgn*f > 0.
    """
    edge = trace["edge"]
    if model.continuum.edge_exponents[0 if sgn < 0 else 1] is not DIVERGENT:
        return edge, trace["k_edge"] - trace["sigma_inv_edge"]
    d = 1e-3 * model.scale
    for _ in range(60):
        e = edge + sgn * d
        f = _mismatch(model, e)
        if sgn * f > 0:
            return e, f
        d *= 0.5
    raise RootNotFound(f"criterion-promised root not visible near the {trace['side']} edge")


def _expand_sentinel(model: ValidatedModel, start: float, direction: int):
    """(e, f) far out, where K - 1/Sigma has the asymptotic sign: direction*f < 0."""
    e = start
    step = 10.0 * model.scale
    for _ in range(60):
        e = e + direction * step
        f = _mismatch(model, e)
        if direction * f < 0:
            return e, f
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


def _brackets_one_side(model: ValidatedModel, trace: dict, sgn: int):
    """Ascending brackets ((a, f(a)), (b, f(b))) of the roots on one side,
    from the outward walk [edge, poles nearest-first, far sentinel]."""
    edge = trace["edge"]
    if not math.isfinite(edge):
        return []
    levels = model.levels
    poles = [float(p) for p in levels[sgn * (levels - edge) > 0][::sgn]]
    inner = _edge_endpoint(model, trace, sgn) if trace.get("extra_root") else None
    brackets = []
    for pole in poles:
        if inner is not None:
            brackets.append((inner, _near_pole_offset(model, pole, -sgn))[::sgn])
        inner = _near_pole_offset(model, pole, sgn)
    if inner is not None:
        outer = _expand_sentinel(model, poles[-1] if poles else edge, sgn)
        brackets.append((inner, outer)[::sgn])
    return brackets[::sgn]


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
    """All bound states outside the band, ordered by energy, each solved in a
    bracket whose ends carry the values of K - 1/Sigma that certified them."""
    census = census or count_bound_states(model)
    states: list[BoundState] = []
    for sgn, kind, want in (
        (-1, BoundStateKind.BELOW_BAND, census.m_below),
        (+1, BoundStateKind.ABOVE_BAND, census.m_above),
    ):
        trace = census.criteria_trace["low" if sgn < 0 else "up"]
        brackets = _brackets_one_side(model, trace, sgn)
        if len(brackets) != want:
            raise RootNotFound(
                f"{trace['side']} side: census promised {want} roots, bracket layout has "
                f"{len(brackets)}: {[(a, b) for (a, _), (b, _) in brackets]}"
            )
        for (a, fa), (b, fb) in brackets:
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
    bics = find_bics(model)
    states = solve_bound_states(model, _census(model, bics)) + bics
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
