"""Counting and solving bound states outside and inside the continuum.

Outside the band the eigenvalue condition reduces to K(E) = 1/Sigma(E); K
falls monotonically on each branch between its poles while 1/Sigma rises, so
each branch holds at most one root.  The census reads both criteria of an
edge off K there: the energy criterion (the edge lies past its gap's K-zero)
is the sign of K, the amplitude criterion that of K - 1/Sigma.  One walk,
the same for both sides, brackets one root per interval from a band edge
through the coupled levels eps_n (the poles of K), nearest first, to an
expanding far sentinel; the interval at the edge holds one only when the
census found the extra root, and the census has already certified the sign
of K - 1/Sigma at the edge.  Census and solve read 1/Sigma from
`spectral.inverse_self_energy`: at a divergent edge the float limit -0.0 or
+0.0, as the trace's `sigma_inv_edge` holds it.  Brent's method then runs on
the pole-free g = (K - 1/Sigma) * prod_p |E - p| over the bracket's ends p
on levels (`spectral._pole_free_k`): g is finite up to the poles, and its
value at every end is known without evaluating Sigma there.
An uncoupled level (f_n = 0) is no pole of K: outside the band, and
strictly inside it, it is a bound state of its own, pinned to that level.
Otherwise a state inside the band lies only at a declared zero of J.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import spectral as sp
from .errors import ConfigError, NormalizationFailure, RootNotFound
from .model import ValidatedModel, near_declared_zero


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
    or +1 (up), so that sgn*(E - edge) > 0 lies outside the band.

    The amplitude criterion sgn*(K - 1/Sigma) > 0 is a tie, and fails, when
    the margin is within 1e-12 of sum_n |f_n|^2/|edge - eps_n|, the scale of
    the rounding of K at the edge: where K vanishes at an edge with a
    divergent Sigma, its sign is rounding alone.
    """
    side, edge = ("low", model.omega_low) if sgn < 0 else ("up", model.omega_up)
    trace: dict = {"side": side, "edge": edge}
    levels = model.levels
    n_side = int(np.sum(sgn * (levels - edge) > 0))
    trace["n_side"] = n_side

    k_edge = float(np.real(sp.k_function(model, edge)))
    # energy criterion: the edge lies past the K-zero of its gap, where K
    # falls; vacuous when no level lies on one side
    energy_ok = sgn * k_edge > 0 if 1 <= n_side <= model.n_levels - 1 else True
    trace["energy_ok"] = bool(energy_ok)

    sig_inv = sp.inverse_self_energy(model, edge)
    trace["k_edge"] = k_edge
    trace["sigma_inv_edge"] = sig_inv
    margin = sgn * (k_edge - sig_inv)
    tie = abs(margin) <= 1e-12 * float(np.sum(model._f2 / np.abs(edge - levels)))
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
    return float(np.real(sp.k_function(model, e))) - sp.inverse_self_energy(model, e)


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


class _Bracket(NamedTuple):
    """[a, b] around one root, with g(a) > 0 > g(b) (`_pole_free`); poles
    holds (n, s) for each end on the coupled level n, s = +1 at a, -1 at b."""

    a: float
    ga: float
    b: float
    gb: float
    poles: tuple


def _bracket(model: ValidatedModel, lower: tuple, upper: tuple) -> _Bracket:
    """The bracket between two walk points (e, n, f): n is the coupled level
    at e, or None at an edge or sentinel, where f = K - 1/Sigma.  g at a
    pole end is its exact limit, at another end f times the distance to a
    pole end."""
    (a, na, fa), (b, nb, fb) = lower, upper
    ga = model._f2[na] if na is not None else fa
    gb = -model._f2[nb] if nb is not None else fb
    if nb is not None:
        ga *= b - a
    if na is not None:
        gb *= b - a
    poles = tuple((n, s) for n, s in ((na, 1.0), (nb, -1.0)) if n is not None)
    return _Bracket(a, float(ga), b, float(gb), poles)


def _brackets_one_side(model: ValidatedModel, trace: dict, sgn: int):
    """Ascending brackets of the roots on one side, from the outward walk
    [edge, coupled levels nearest-first, far sentinel], and the uncoupled
    levels on that side.

    The edge starts the walk only when the census found its extra root; it
    carries the census's K - 1/Sigma there, whose sign the census certified.
    """
    edge = trace["edge"]
    levels, f2 = model.levels, model._f2
    outside = sgn * (levels - edge) > 0
    walk = [(float(levels[n]), int(n), None) for n in np.flatnonzero(outside & (f2 > 0))[::sgn]]
    if trace.get("extra_root"):
        walk.insert(0, (edge, None, trace["k_edge"] - trace["sigma_inv_edge"]))
    if walk:
        e, f = _expand_sentinel(model, walk[-1][0], sgn)
        walk.append((e, None, f))
    brackets = [_bracket(model, *(pair[::sgn])) for pair in zip(walk, walk[1:])]
    return brackets[::sgn], [int(n) for n in np.flatnonzero(outside & (f2 == 0))]


def _pole_free(model: ValidatedModel, br: _Bracket, sig_invs: dict) -> Callable:
    """g(E) = (K(E) - 1/Sigma(E)) * prod_p |E - p| on the bracket br, the
    `spectral._pole_free_k` of its pole ends with c = 1/Sigma.  At an end g
    returns the bracket's own value, without Sigma.

    1/Sigma reads as in the census (`spectral.inverse_self_energy`).  Each
    1/Sigma evaluated is kept in sig_invs by energy.
    """
    pole_free_k = sp._pole_free_k(model, br.poles)

    def g(e: float) -> float:
        if e == br.a:
            return br.ga
        if e == br.b:
            return br.gb
        sig_inv = sig_invs[e] = sp.inverse_self_energy(model, e)
        return pole_free_k(e, sig_inv)

    return g


def _solve_bracket(model: ValidatedModel, br: _Bracket):
    """The root in br and Sigma there (None if not yet evaluated): Brent on
    `_pole_free`, whose 1/Sigma at the root gives Sigma unless it is a
    divergent edge's limit 0."""
    sig_invs: dict = {}
    g = _pole_free(model, br, sig_invs)
    root = sp._brent(g, br.a, br.b, xtol=1e-15 * model.scale, rtol=8.9e-16, maxiter=200)
    sig_inv = sig_invs.get(root)
    return _polish(model, root, br.a, br.b, 1.0 / sig_inv if sig_inv else None)


def _polish(model: ValidatedModel, e: float, a: float, b: float, sig: Optional[float]):
    """Up to two Newton steps on K - 1/Sigma inside (a, b), one Sigma each;
    sig is Sigma(e) when the caller has it.

    Returns the root and Sigma at it, or (root, None) when the last step
    moved off the energy where Sigma was evaluated.
    """
    for _ in range(2):
        k = float(np.real(sp.k_function(model, e)))
        if sig is None:
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


def _continuum_profile(model: ValidatedModel, weight: complex, e_m: float) -> Callable:
    """Amplitude profile on the orthonormalized continuum basis.

    weight is B*K(E_m) for generic states and B*conj(f_n) for a state on level n;
    the omega-dependence is sqrt(J(w))/(E_m - w).
    """
    def profile(omega):
        om = np.asarray(omega, dtype=float)
        return weight * np.sqrt(np.maximum(model.j(om), 0.0)) / (e_m - om)

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


def _pinned_state(
    model: ValidatedModel, n: int, kind: BoundStateKind, e_m: float, sigp: float = 0.0
) -> BoundState:
    """The state at e_m on level n alone: B on that level and B conj(f_n) on
    the continuum, |B|^2 = 1/(1 - |f_n|^2 Sigma'(e_m)).  An uncoupled level
    (f_n = 0), outside the band or inside it, is pinned to its own energy
    with |B|^2 = 1 exactly and needs no Sigma'; a coupled level on a J-zero
    where Sigma vanishes is the BIC there."""
    e_m = float(e_m)
    f_n = model.couplings[n]
    b2 = 1.0 / (1.0 - abs(f_n) ** 2 * sigp)
    if not (b2 > 0.0):
        raise NormalizationFailure(f"|B|^2 = {b2} for the state on level {n} at {e_m}")
    b = math.sqrt(b2)
    amps = np.zeros(model.n_levels, dtype=complex)
    amps[n] = b
    return BoundState(
        energy=e_m,
        kind=kind,
        amplitudes=amps,
        norm_b2=b2,
        continuum_profile=_continuum_profile(model, b * np.conj(f_n), e_m),
        level_index=n,
    )


def solve_bound_states(model: ValidatedModel, census: BoundStateCensus | None = None):
    """All bound states outside the band, ordered by energy: each coupled
    root solved in a bracket whose ends carry the values of g that certified
    them, and each uncoupled level outside the band pinned to itself."""
    census = census or count_bound_states(model)
    if not {"low", "up"} <= census.criteria_trace.keys():
        raise ConfigError(
            "the census has no per-edge criteria trace (a closed-form census?): "
            "pass count_bound_states(model)"
        )
    states: list[BoundState] = []
    for sgn, kind, want in (
        (-1, BoundStateKind.BELOW_BAND, census.m_below),
        (+1, BoundStateKind.ABOVE_BAND, census.m_above),
    ):
        trace = census.criteria_trace["low" if sgn < 0 else "up"]
        brackets, uncoupled = _brackets_one_side(model, trace, sgn)
        if len(brackets) + len(uncoupled) != want:
            raise RootNotFound(
                f"{trace['side']} side: census promised {want} roots, bracket layout has "
                f"{len(brackets)}: {[(br.a, br.b) for br in brackets]}, and "
                f"{len(uncoupled)} uncoupled levels"
            )
        for br in brackets:
            if not (br.ga > 0 > br.gb):
                raise RootNotFound(
                    f"bracket ({br.a}, {br.b}) not sign-changing: g(a)={br.ga}, g(b)={br.gb}"
                )
            root, sig = _solve_bracket(model, br)
            states.append(_generic_state(model, root, kind, sig))
        states += [_pinned_state(model, n, kind, model.levels[n]) for n in uncoupled]
    states.sort(key=lambda s: s.energy)
    return states


def find_bics(model: ValidatedModel):
    """Bound states in the continuum: at the declared zeros of J, and on each
    uncoupled level strictly inside the band (pinned to it; on a zero the
    zero's own branch pins it)."""
    out: list[BoundState] = []
    for e0 in model.interior_zeros:
        j_near = int(np.argmin(np.abs(model.levels - e0)))
        at_level = near_declared_zero(float(model.levels[j_near]), (e0,), model.scale)
        sig = sp.self_energy(model, e0)
        if at_level:
            if abs(sig) > 1e-9 * model.scale and abs(model.couplings[j_near]) > 0:
                continue  # K diverges at a coupled level: no eigenvalue here
            sigp = sp.self_energy_derivative(model, e0)
            out.append(_pinned_state(model, j_near, BoundStateKind.IN_CONTINUUM, e0, sigp))
            continue
        # generic BIC: K(e0) = 1/Sigma(e0) must hold at the J-zero
        k0 = float(np.real(sp.k_function(model, e0)))
        if abs(sig) < 1e-12 or abs(k0 - 1.0 / sig) > 1e-9 * max(abs(k0), 1.0):
            continue
        out.append(_generic_state(model, e0, BoundStateKind.IN_CONTINUUM, sig))
    for n in np.flatnonzero(model._f2 == 0):
        e_n = float(model.levels[n])
        if model.inside_band(e_n) and not model.is_interior_zero(e_n):
            out.append(_pinned_state(model, int(n), BoundStateKind.IN_CONTINUUM, e_n))
    return out


def all_bound_states(model: ValidatedModel):
    """Extra-continuum states plus BICs, ordered by energy."""
    bics = find_bics(model)
    states = solve_bound_states(model, _census(model, bics)) + bics
    states.sort(key=lambda s: s.energy)
    return states
