"""Scalar spectral kernels: Sigma, Sigma', Delta, Gamma, K, K', I.

K and I are exact rational sums over the discrete levels (valid at complex
arguments).  Next to a level they are read with its pole multiplied out,
never stepped around: `_pole_free_k` is (K - c) prod_p |E - p| over one or
two levels p, with their terms of K taken exactly.  With c = 0 its root
over a whole gap is that gap's K-zero (by `_brent`, the package's Brent
solve); with c = 1/Sigma the bound-state solve's mismatch.

Sigma and Sigma' are one kernel, `_sigma`, which with `_delta` and its node
count `_delta_nodes` is all that reads a model's closed-form overrides.
`_classify` alone decides where an energy lies, and the kernel evaluates
the closed form or the graded rule at the point it returns, so a closed
form is only ever called outside the band, on a convergent edge or exactly
at a declared J-zero.  Without a closed form the band takes its one graded
Gauss-Legendre rule, one energy at a time for Sigma and Sigma'
(`quadrature.kernel_integral`) and a whole grid for Delta
(`quadrature.delta_on_grid`): both read the same nodes from the model's
cache (`ValidatedModel._rules`), which only `quadrature` reads and fills,
so J is read on them once per model.  Adaptive quadrature is only the
reference the tests hold this rule to.  1/Sigma, with its limit -0.0 or
+0.0 at a divergent edge, is `inverse_self_energy`, a call of
`self_energy`.
"""
from __future__ import annotations

import math

import numpy as np

from . import quadrature as qd
from .errors import (
    ConfigError,
    DivergentDerivative,
    EInsideBand,
    NonconvergentEdge,
    PoleHit,
    RootNotFound,
)
from .model import DIVERGENT, InitialState, ValidatedModel, _check_initial


def _pole_distances(model: ValidatedModel, z: complex) -> np.ndarray:
    """z - eps_n; raises PoleHit naming the level when one is within 1e-13*scale."""
    d = z - model.levels
    tol = 1e-13 * model.scale
    if np.abs(d).min() <= tol:
        i = int(np.argmin(np.abs(d)))
        raise PoleHit(f"argument {z} within {tol:.1e} of level {model.levels[i]}")
    return d


def k_function(model: ValidatedModel, z: complex) -> complex:
    """K(z) = sum_n |f_n|^2 / (z - eps_n)."""
    return complex(np.sum(model._f2 / _pole_distances(model, z)))


def k_derivative(model: ValidatedModel, z: complex) -> complex:
    """K'(z) = -sum_n |f_n|^2 / (z - eps_n)^2."""
    return complex(-np.sum(model._f2 / _pole_distances(model, z) ** 2))


def _k_real(model: ValidatedModel, e: float) -> tuple[float, float, np.ndarray]:
    """(K(e), K'(e), e - eps_n) at real e from one `_pole_distances` array,
    bit for bit the values of `k_function` and `k_derivative`."""
    d = _pole_distances(model, e)
    return float(np.sum(model._f2 / d)), float(-np.sum(model._f2 / d**2)), d


def i_function(model: ValidatedModel, initial: InitialState, z: complex) -> complex:
    """I(z) = sum_n f_n^* c_n / (z - eps_n)."""
    _check_initial(initial, model.n_levels)
    w = np.conj(model.couplings) * initial.amplitudes
    return complex(np.sum(w / _pole_distances(model, z)))


def _brent(f, a: float, b: float, xtol: float, rtol: float, maxiter: int) -> float:
    """The root of f in [a, b] by Brent's method (Brent 1973, ch. 4).

    A port of the C routine behind scipy.optimize.brentq (scipy 1.17,
    optimize/Zeros/brentq.c by Charles Harris, under SciPy's BSD-3-Clause
    license) that takes the same steps in the same operation order, so
    every root is bit for bit scipy's.
    Signs are read from the sign bit, never from a product that may
    underflow.  Where C's interpolation step divides by zero, giving an
    infinite or NaN step that fails the step test, this bisects as C does.
    Converged when |f| = 0 or half the bracket is below (xtol + rtol|x|)/2.
    Raises RootNotFound naming the bracket for ends of the same sign, a NaN
    value of f, or no convergence within maxiter steps.
    """

    def value(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise RootNotFound(f"f is NaN at {x}, bracket [{a}, {b}]")
        return fx

    xpre, xcur = a, b
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise RootNotFound(f"f({a}) = {fpre} and f({b}) = {fcur} have the same sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # xcur is the best point so far
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # fails the step test: bisect
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RootNotFound(f"no convergence in {maxiter} steps, bracket [{a}, {b}]")


def _pole_free_k(model: ValidatedModel, poles):
    """g(E, c) = (K(E) - c) * prod_p |E - p| over the levels p = eps_n of
    poles, pairs (n, s), with each pole's term of K taken exactly as
    s*|f_n|^2 times the product over the other poles (s is the sign of
    E - eps_n where g is read): g is smooth up to the poles."""
    levels, f2 = model.levels, model._f2
    rest = f2 > 0
    rest[[n for n, _ in poles]] = False
    rest_levels, rest_f2 = levels[rest], f2[rest]
    ends = [(float(levels[n]), s * float(f2[n])) for n, s in poles]

    def g(e: float, c: float = 0.0) -> float:
        d = [abs(e - p) for p, _ in ends]
        out = (float((rest_f2 / (e - rest_levels)).sum()) - c) * math.prod(d)
        for i, (_, term) in enumerate(ends):
            out += term * math.prod(d[:i] + d[i + 1 :])
        return out

    return g


def k_zeros(model: ValidatedModel) -> np.ndarray:
    """The N-1 real zeros of K, one in each gap (a, b) = (eps_j, eps_{j+1}).

    Brent runs on the whole gap on `_pole_free_k` of both levels, c = 0:
    exact at the ends, g(a) > 0 > g(b), however close to a level the zero
    lies.  Raises ConfigError naming a level of the pair with |f|^2 = 0: it
    has no K-pole, so K need not change sign in the gap.
    """
    zeros = []
    for j in range(model.n_levels - 1):
        for i in (j, j + 1):
            if model._f2[i] == 0.0:
                raise ConfigError(
                    f"level {i} at E={model.levels[i]} is uncoupled (|f|^2 = 0): it has "
                    "no K-pole, so K has no zero in the gap next to it"
                )
        g = _pole_free_k(model, ((j, 1.0), (j + 1, -1.0)))
        a, b = float(model.levels[j]), float(model.levels[j + 1])
        zeros.append(_brent(g, a, b, xtol=1e-15 * model.scale, rtol=8.9e-16, maxiter=100))
    return np.asarray(zeros)


# ---------------------------------------------------------------------------
# self-energy

def _classify(model: ValidatedModel, e: float) -> tuple[str, float]:
    """Where E lies, and the point at which Sigma and Sigma' are evaluated.

    The one place that decides this: "edge_low"/"edge_up" for E within
    1e-12*scale of an edge (`ValidatedModel.is_edge`), evaluated at the
    edge; "zero" for E inside the band within the J-zero tolerance of a
    declared zero (`ValidatedModel.is_interior_zero`), evaluated at that
    zero; else "inside" or "outside", evaluated at E.  A closed form and the
    rule both see the classified point, so the two routes agree there (the
    rule's nodes, kept one ulp off the edge, could not resolve a pole at an
    E that close to it).
    """
    if model.is_edge(e):
        if abs(e - model.omega_low) <= abs(e - model.omega_up):
            return "edge_low", model.omega_low
        return "edge_up", model.omega_up
    if not model.inside_band(e):
        return "outside", e
    if model.is_interior_zero(e):
        return "zero", min(model.interior_zeros, key=lambda z: abs(e - z))
    return "inside", e


def _sigma(model: ValidatedModel, e: float, power: int) -> float:
    """Sigma(E) (power 1) or Sigma'(E) (power 2) at the point `_classify`
    returns, by the model's closed form when it has one, else the graded rule.

    Raises EInsideBand strictly inside the band off a J-zero; at an edge,
    NonconvergentEdge (Sigma, divergent edge) or DivergentDerivative
    (Sigma', edge exponent DIVERGENT or at most 1).
    """
    where, x = _classify(model, e)
    if where == "inside":
        raise EInsideBand(f"E={e} lies strictly inside the band and J(E) != 0")
    if where in ("edge_low", "edge_up"):
        s_low, s_up = model.continuum.edge_exponents
        s = s_low if where == "edge_low" else s_up
        if power == 1 and s is DIVERGENT:
            raise NonconvergentEdge(f"Sigma diverges at the band edge E={e}")
        if power == 2 and (s is DIVERGENT or s <= 1.0):
            raise DivergentDerivative(f"Sigma'(E) diverges at the band edge E={e}")
    ov = model.overrides
    closed = None if ov is None else (ov.sigma, ov.sigma_deriv)[power - 1]
    if closed is not None:
        return float(closed(x))
    lo, up = model.omega_low, model.omega_up
    val, _ = qd.kernel_integral(model.j, lo, up, x, power=power, rules=model._rules)
    return val if power == 1 else -val


def self_energy(model: ValidatedModel, e: float) -> float:
    """Sigma(E) = integral J(w)/(E-w) dw on real E outside the band or at a J-zero."""
    return _sigma(model, float(e), 1)


def self_energy_derivative(model: ValidatedModel, e: float) -> float:
    """Sigma'(E) = -integral J(w)/(E-w)^2 dw (< 0 wherever it converges)."""
    return _sigma(model, float(e), 2)


def inverse_self_energy(model: ValidatedModel, e: float) -> float:
    """1/Sigma(E), and its limit -0.0 (low) or +0.0 (up) within the edge
    tolerance of a divergent edge, where Sigma itself diverges.

    Sigma is reached only through `self_energy`, so that every evaluation is
    one call of it.
    """
    try:
        return 1.0 / self_energy(model, e)
    except NonconvergentEdge:
        return -0.0 if abs(e - model.omega_low) <= abs(e - model.omega_up) else 0.0


def _delta(model: ValidatedModel, e):
    """Delta(E), the principal-value part of Sigma, strictly inside the band.

    The one route to Delta: the model's closed form when it has one, else
    `quadrature.delta_on_grid` on the model's cache.  e is a float or an
    array; returns Delta of the same shape.
    """
    ov = model.overrides
    if ov is not None and ov.delta is not None:
        return np.asarray(ov.delta(e), dtype=float)
    x = np.atleast_1d(np.asarray(e, dtype=float))
    delta = qd.delta_on_grid(model.j, model.omega_low, model.omega_up, x, rules=model._rules)
    return delta.reshape(np.shape(e))


def _delta_nodes(model: ValidatedModel) -> int:
    """The node count of the band's rule, which `_delta` reads: 0 for a
    closed-form Delta, or before the model has built the rule."""
    ov = model.overrides
    return 0 if ov is not None and ov.delta is not None else qd._delta_nodes(model._rules)


def delta_gamma(model: ValidatedModel, e: float) -> tuple[float, float]:
    """(Delta(E), Gamma(E)) for E strictly inside the band; Gamma = pi*J(E)."""
    e = float(e)
    if not model.inside_band(e) or model.is_edge(e):
        raise EInsideBand(f"E={e} is not strictly inside the band")
    gamma = math.pi * float(np.asarray(model.j(np.array([e])))[0])
    return float(_delta(model, e)), gamma
