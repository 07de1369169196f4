"""Exact survival-probability dynamics: bound-state sum plus band integral.

Each bound state enters through the projection of the initial state on it.
The scattering weight S_n(E) is formed with every level's pole of K and I
multiplied out (`_factored`), so it is finite at each level and no node is
moved off one.  Its band integral against exp(-iEt) is a plain weighted
sum on a composite Gauss-Legendre rule in the edge-substituted variable k
(E = mid - half*cos k), its panels built from the pieces of `quadrature`'s
band rule: graded toward both edges, at most one wavelength of
exp(-iE t_max) wide, and graded toward each resonance peak of S down to a
quarter of its half-width.  Panels whose part of s_n(0) still moves when
they are halved are halved, and the same panels each halved once give the
error estimate that `survival_probability` reports.
Delta is formed once at each node energy of a transform (`_DeltaTable`):
the peak search, the kernel, its halved twin and each round of halving
read the energies already evaluated and send only new ones to
`spectral._delta`.
All N levels share one `quadrature.fourier_linear` call, which on the
uniform time grids of the CLI forms about 2*sqrt(T) phases per node, not T.
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
from .model import InitialState, ValidatedModel, _check_initial


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
    energies: np.ndarray  # (M,)
    R: np.ndarray  # (N, M), R[n, m]


def decay_coefficients(
    model: ValidatedModel, initial: InitialState, bound_states: list
) -> DecayCoefficients:
    """R[:, m] = a_m (a_m^H c), the projection of c on the bound state m with
    level amplitudes a_m: |B|^2 f_n I(E_m)/(E_m - eps_n), and |B|^2 c_n on
    the one row of a state pinned to level n."""
    _check_initial(initial, model.n_levels)
    amps = np.array([s.amplitudes for s in bound_states], dtype=complex)
    amps = amps.reshape(len(bound_states), model.n_levels).T  # (N, M)
    return DecayCoefficients(
        model=model,
        initial=initial,
        energies=np.array([s.energy for s in bound_states], dtype=float),
        R=amps * (amps.conj().T @ initial.amplitudes),
    )


# ---------------------------------------------------------------------------
# the scattering transform on graded Gauss-Legendre panels


@dataclass(frozen=True, eq=False)
class _BandKernel:
    e_nodes: np.ndarray  # (K,) node energies, ascending
    w: np.ndarray  # (N, K) S_n(E) times the rule's weight of integral dE
    rounding: np.ndarray  # (N,) bound on the rounding of the sums over w


class _DeltaTable:
    """Delta on every energy one transform has asked for, each formed once.
    Energies ascend, with an inf sentinel last, so `searchsorted` finds
    every finite energy's slot."""

    def __init__(self, model: ValidatedModel):
        self.model = model
        self.e, self.delta = np.array([math.inf]), np.array([math.nan])

    def __call__(self, x: np.ndarray) -> np.ndarray:
        slot = np.searchsorted(self.e, x)
        new = self.e[slot] != x
        if np.any(new):
            e, d = np.append(x[new], self.e), np.append(sp._delta(self.model, x[new]), self.delta)
            order = np.argsort(e, kind="stable")
            self.e, self.delta = e[order], d[order]
            slot = np.searchsorted(self.e, x)
        return self.delta[slot]


def _factored(model: ValidatedModel, x: np.ndarray, delta: np.ndarray):
    """The rational sums on real x in the band with each level's pole
    multiplied out, given Delta on x: (q, h, Sigma), with
    q[:, n] = prod_{m != n} (x - eps_m), Q = prod_n (x - eps_n),
    P = Q*K = q @ |f|^2, h = Q - Sigma*P = Q*(1 - Sigma*K) and
    Sigma = Delta + i*Gamma.  All are finite at the levels.  Unlike
    `spectral._pole_free_k`, which takes one or two levels out of a real K
    at one energy, it multiplies out every level, on arrays with a complex
    Sigma.
    """
    d = np.subtract.outer(x, model.levels)
    ones = np.ones((x.size, 1))
    before = np.cumprod(np.hstack([ones, d[:, :-1]]), axis=1)
    after = np.cumprod(np.hstack([ones, d[:, :0:-1]]), axis=1)[:, ::-1]
    q = before * after
    sigma = delta + 1j * np.pi * np.asarray(model.j(x), dtype=float)
    return q, before[:, -1] * d[:, -1] - sigma * (q @ model._f2), sigma


def _build_kernel(initial: InitialState, breaks, table: _DeltaTable) -> _BandKernel:
    """S_n = Gamma*I*f_n / (pi*(E - eps_n)*|1 - Sigma*K|^2) times W on the
    nodes of the k-panels between breaks, read from `_factored` as
    S_n = Gamma*(q @ conj(f)c)*f_n*q_n / (pi*|h|^2): finite at every level.
    1/|h|^2 is taken as (1/h)(1/conj(h)), one factor on each side, so no
    square of a product is formed.

    A node that rounds onto an edge keeps weight 0: S dE/dk vanishes there.
    Next to a resonance Re h = Q - Delta*P cancels; its error of a few ulps
    of |Q| + |Delta*P| moves S by that relative to |h|.
    """
    model = table.model
    e, wgt = qd.panel_rule(model.omega_low, model.omega_up, breaks)
    inside = (e > model.omega_low) & (e < model.omega_up)
    q, h, sigma = _factored(model, e[inside], table(e[inside]))
    fc = np.conj(model.couplings) * initial.amplitudes
    left = sigma.imag * wgt[inside] * (q @ fc) / (np.pi * h)
    w = np.zeros((model.n_levels, e.size), dtype=complex)
    w[:, inside] = model.couplings[:, None] * q.T * (left / np.conj(h))
    dp = sigma.real * (q @ model._f2)  # Delta*P, so that Q = Re h + Delta*P
    rel = np.finfo(float).eps * (8.0 + 16.0 * (np.abs(h.real + dp) + np.abs(dp)) / np.abs(h))
    return _BandKernel(e, w, np.abs(w[:, inside]) @ rel)


def _peaks(table: _DeltaTable, e: np.ndarray):
    """(energy, half-width) of each resonance peak of S seen on ascending e.

    S is smooth over |h|^2 (`_factored`): a peak is a zero E_r - i*gamma
    of h near the axis.  From each local minimum of |h| on e, Newton steps
    E <- Re(E - h/h') (h' by central differences) reach E_r, and gamma =
    |Im(h/h')|: |Gamma*K / (1 - Delta*K)'| at a zero of 1 - Delta*K.  h
    also sees a peak on a level where Delta vanishes, and an overdamped
    pair of resonances, where 1 - Delta*K has no zero.
    """
    model = table.model
    lo, up = model.omega_low, model.omega_up
    size = np.abs(_factored(model, e, table(e))[1])
    minima = np.flatnonzero((size[1:-1] < size[:-2]) & (size[1:-1] <= size[2:])) + 1
    out = []
    for x in e[minima]:
        for _ in range(40):
            step = 1e-6 * min(x - lo, up - x)
            near = np.array([x - step, x, x + step])
            h = _factored(model, near, table(near))[1]
            shift = h[1] * (2.0 * step) / (h[2] - h[0])
            x, last = x - shift.real, x
            if not lo < x < up:
                break
            if abs(x - last) <= 1e-3 * abs(shift.imag) + 1e-11 * model.scale:  # or h's rounding
                out.append((x, abs(shift.imag)))
                break
    return out


def _transform_breaks(coefficients: DecayCoefficients, t_max: float, table: _DeltaTable):
    """k-panels of the scattering transform up to the time t_max.

    Graded toward each edge down to the `_edge_target` of the bound state
    nearest outside it; at most one wavelength of exp(-iE t_max) wide, which
    dE/dk <= half makes 2*pi / (t_max * half) in k; then graded by GRADING
    toward each resonance peak down to a quarter of its half-width.
    """
    model = coefficients.model
    lo, up = model.omega_low, model.omega_up
    mid, half = 0.5 * (lo + up), 0.5 * (up - lo)
    e_b = coefficients.energies
    breaks = qd._breaks(*(
        qd._edge_target(lo, up, edge, float(np.min(dist, initial=math.inf)))
        for edge, dist in ((lo, (lo - e_b)[e_b <= lo]), (up, (e_b - up)[e_b >= up]))
    ))
    waves = np.ceil(np.diff(breaks) * t_max * half / (2.0 * np.pi))
    breaks = qd.split_panels(breaks, np.maximum(waves, 1).astype(int))
    for e0, width in _peaks(table, qd.panel_rule(lo, up, breaks)[0]):
        k0 = math.acos((mid - e0) / half)
        slope = math.sqrt((e0 - lo) * (up - e0))  # dE/dk at the peak
        # nodes of the innermost panels stay some ulps of E apart
        d = max(0.25 * width, 128.0 * np.spacing(abs(e0))) / slope
        breaks = qd.graded_breaks(breaks, k0, d)
    return breaks


def _bound_amplitudes(coeffs: DecayCoefficients, times) -> np.ndarray:
    """b_n(t) = sum_m R[n, m] e^{-i E_m t}, shape (N, T)."""
    t = np.asarray(times, dtype=float)
    phases = np.exp(-1j * np.outer(coeffs.energies, t))  # (M, T)
    return coeffs.R @ phases


PANEL_TOL = 1e-13  # most that halving may move a panel's part of some s_n(0)
MAX_ROUNDS = 8  # rounds of halving the panels that move more


def _transform(coefficients: DecayCoefficients, times, n_base_nodes: Optional[int]):
    """(kernel, kernel on the same panels halved) of the transform on times.

    The panels of `_transform_breaks`, split evenly up to n_base_nodes; then
    each panel whose part of s_n(0) moves by more than PANEL_TOL when halved
    is halved, which catches what they do not aim at (a resonance off the
    axis next to an edge).  One `_DeltaTable` serves every step.
    """
    model, initial = coefficients.model, coefficients.initial
    table = _DeltaTable(model)
    t = np.asarray(times, dtype=float)
    breaks = _transform_breaks(coefficients, float(np.max(np.abs(t), initial=0.0)), table)
    nodes = (breaks.size - 1) * qd.PANEL_NODES
    if n_base_nodes is not None and n_base_nodes > nodes:
        breaks = qd.split_panels(breaks, math.ceil(n_base_nodes / nodes))
    for _ in range(MAX_ROUNDS):
        kern = _build_kernel(initial, breaks, table)
        fine = _build_kernel(initial, qd.split_panels(breaks, 2), table)
        shape = (model.n_levels, breaks.size - 1, -1)
        moved = np.abs(kern.w.reshape(shape).sum(2) - fine.w.reshape(shape).sum(2)).max(0)
        if not np.any(moved > PANEL_TOL):
            break
        breaks = qd.split_panels(breaks, np.where(moved > PANEL_TOL, 2, 1))
    return kern, fine


def _halving_error(coefficients: DecayCoefficients, kern, fine, t) -> float:
    """Twice a bound on |p - p'| at t = 0 (edge and peak error) and max(t)
    (oscillation error), p' from the halved kernel: a rule converging at
    least linearly is off by at most that.  |p - p'| <= |a - a'| (|a| + |a'|)
    for amplitude vectors a, |a - a'| taking in the rounding of a.  The
    estimate is also at least |a(0) - c| (|a(0)| + |c|), which bounds
    |p(0) - 1| itself: a(0) = c holds exactly.
    """
    ends = np.array([0.0, float(np.max(t, initial=0.0))])
    bound = _bound_amplitudes(coefficients, ends)
    a, a2 = (
        bound + k.w @ np.exp(np.multiply.outer(k.e_nodes, -1j * ends)) for k in (kern, fine)
    )
    norm = np.linalg.norm
    rounding = norm(kern.rounding + 8.0 * np.finfo(float).eps * np.abs(coefficients.R).sum(axis=1))
    diff = norm(a - a2, axis=0) + rounding
    halving = 2.0 * float(np.max(diff * (norm(a, axis=0) + norm(a2, axis=0))))
    c = coefficients.initial.amplitudes
    return max(halving, float((norm(a[:, 0] - c) + rounding) * (norm(a[:, 0]) + norm(c))))


def _finite_times(times) -> np.ndarray:
    """times as a float array; ConfigError naming a NaN or infinite time."""
    t = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ConfigError(f"times must be finite, got {np.unique(t[~np.isfinite(t)])}")
    return t


def _coefficients_of(
    model: ValidatedModel, initial: InitialState, coefficients: Optional[DecayCoefficients]
) -> DecayCoefficients:
    """coefficients, formed from model and initial when None; ConfigError
    when they were formed for another model or other initial amplitudes."""
    if coefficients is None:
        return decay_coefficients(model, initial, all_bound_states(model))
    if coefficients.model is not model:
        raise ConfigError("the coefficients were formed for another model than the one passed")
    if not np.array_equal(coefficients.initial.amplitudes, initial.amplitudes):
        raise ConfigError(
            f"the coefficients were formed for the initial amplitudes "
            f"{coefficients.initial.amplitudes}, not {initial.amplitudes}"
        )
    return coefficients


def survival_probability(
    model: ValidatedModel,
    initial: InitialState,
    times,
    *,
    coefficients: Optional[DecayCoefficients] = None,
    n_base_nodes: Optional[int] = None,
    error_budget: Optional[float] = None,
) -> SurvivalSeries:
    """p(t) on the requested grid (times >= 0, sorted).

    coefficients, when given, must be those of model and initial
    (`decay_coefficients`); ConfigError otherwise.  n_base_nodes, when
    given, is a floor on the transform's node count.  meta holds that count
    (`transform_nodes`), the error estimate of `_halving_error`
    (`transform_error`), raising QuadratureBudgetExceeded above
    error_budget, and the node count of the band's Delta rule
    (`delta_nodes`: 0 for a closed-form Delta).
    """
    t = _finite_times(times)
    if t.size and (np.any(t < 0) or np.any(np.diff(t) < 0)):
        raise ConfigError("times must be sorted and non-negative")
    if error_budget is not None and not error_budget >= 0.0:  # NaN fails it too
        raise ConfigError(f"error_budget={error_budget!r} must be a non-negative number")
    coefficients = _coefficients_of(model, initial, coefficients)

    kern, fine = _transform(coefficients, t, n_base_nodes)
    s_amp = qd.fourier_linear(kern.e_nodes, kern.w, t)  # int S_n(E) e^{-iEt} dE
    est = _halving_error(coefficients, kern, fine, t)
    nodes = sp._delta_nodes(model)
    meta = dict(transform_nodes=kern.e_nodes.size, delta_nodes=nodes, transform_error=est)
    if error_budget is not None and est > error_budget:
        raise QuadratureBudgetExceeded(
            f"band-integral error estimate {est:.3e} exceeds budget {error_budget:.3e}"
        )
    b_amp = _bound_amplitudes(coefficients, t)

    p = np.sum(np.abs(b_amp + s_amp) ** 2, axis=0).real
    parts = {
        "bound": np.sum(np.abs(b_amp) ** 2, axis=0).real,
        "scatter": np.sum(np.abs(s_amp) ** 2, axis=0).real,
        "cross": 2.0 * np.sum(np.real(b_amp * np.conj(s_amp)), axis=0),
    }
    return SurvivalSeries(times=t, p=p, parts=parts, meta=meta)


def survival_amplitudes(
    model: ValidatedModel,
    initial: InitialState,
    times,
    *,
    coefficients: Optional[DecayCoefficients] = None,
) -> np.ndarray:
    """Per-level amplitudes b_n(t) + s_n(t) on a grid of finite times, in any
    order and of either sign; coefficients as in `survival_probability`."""
    times = _finite_times(times)
    coefficients = _coefficients_of(model, initial, coefficients)
    kern = _transform(coefficients, times, None)[0]
    return _bound_amplitudes(coefficients, times) + qd.fourier_linear(kern.e_nodes, kern.w, times)


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
