"""Integration helpers for band integrals with edge and pole structure.

Finite bands are integrated after the substitution omega = mid - half*cos(k),
k in [0, pi]: the Jacobian half*sin(k) removes inverse-square-root edge
divergences (van Hove) and flattens power-law edge zeros, so one scheme
covers every declared edge exponent.

Finite bands take fixed composite Gauss-Legendre rules in k whose panels
are graded geometrically toward both edges: `delta_on_grid`, the Delta of
every finite band, grades down to the grid point nearest each edge, and
`kernel_integral` (Sigma, Sigma') down to the pole that an energy outside
the band puts at imaginary k.  Adaptive `quad` serves only (semi-)infinite
bands and the tests: `kernel_integral` and `principal_value` run it there,
`band_integral` is the k-substituted adaptive reference on a finite band.
The linear-Filon transform `fourier_linear` handles oscillatory integrals.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

_QUAD_LIMIT = 400


@lru_cache(maxsize=32)
def _gauss_legendre(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _k_of_omega(omega, lo, up):
    mid, half = 0.5 * (lo + up), 0.5 * (up - lo)
    return float(np.arccos(np.clip((mid - omega) / half, -1.0, 1.0)))


def band_integral(f, lo, up, interior_points=(), epsrel=1e-10):
    """integral of f(w) dw over a finite band, substituted (edge-safe) form.

    Adaptive `quad` in k over [0, pi], split at the k of each interior point:
    the reference of the fixed rules, and the route of `principal_value`.
    """
    mid, half = 0.5 * (lo + up), 0.5 * (up - lo)

    def g(k):
        w = mid - half * math.cos(k)
        return f(w) * half * math.sin(k)

    pts = sorted({_k_of_omega(p, lo, up) for p in interior_points if lo < p < up})
    pts = [p for p in pts if 0.0 < p < np.pi]
    return quad(
        g, 0.0, np.pi, points=pts or None, limit=_QUAD_LIMIT, epsabs=1e-14, epsrel=epsrel
    )


def kernel_integral(j, lo, up, e, power=1, interior_points=(), epsrel=1e-11):
    """integral of J(w)/(e-w)^power dw over the band, with error estimate.

    e must lie outside (lo, up) or at a point where the integrand is
    regular (a J-zero of sufficient order).  A finite band takes the fixed
    graded rule of `_kernel_sum`; epsrel steers only the adaptive `quad` of
    a (semi-)infinite band.
    """
    if math.isfinite(lo) and math.isfinite(up):
        return _kernel_sum(j, lo, up, e, power, interior_points)

    def f(w):
        return j(w) / (e - w) ** power

    return quad(f, lo, up, limit=_QUAD_LIMIT, epsabs=1e-14, epsrel=epsrel)


def principal_value(j, lo, up, e, j_at_e=None, epsrel=1e-10):
    """P.V. integral of J(w)/(e-w) dw for e strictly inside the band.

    The route of Delta on (semi-)infinite bands, where `delta_on_grid`
    cannot run, and the adaptive reference for it on finite ones.

    Finite band: singularity subtraction
        int [J(w)-J(e)]/(e-w) dw + J(e)*ln|(e-lo)/(up-e)|
    with the compensated integrand regular at w=e.  (Semi-)infinite bands
    use a symmetric window around e so the log term cancels, plus paired
    tails.
    """
    je = float(j_at_e) if j_at_e is not None else float(np.asarray(j(np.array([e])))[0])

    if math.isfinite(lo) and math.isfinite(up):

        def f(w):
            if w == e:
                return 0.0  # limit is -J'(e); a point does not matter
            return (j(w) - je) / (e - w)

        val, err = band_integral(f, lo, up, (e,), epsrel)
        return val + je * math.log((e - lo) / (up - e)), err

    # symmetric window of width W on both sides of e
    w_lo = e - lo if math.isfinite(lo) else math.inf
    w_up = up - e if math.isfinite(up) else math.inf
    win = min(w_lo, w_up)
    if not math.isfinite(win):
        win = 1.0 + abs(e)

    def central(u):
        if u == 0.0:
            return 0.0
        return ((j(e + u) - je) - (j(e - u) - je)) / (-u)

    val, err = quad(central, 0.0, win, limit=_QUAD_LIMIT, epsabs=1e-14, epsrel=epsrel)

    if math.isinf(lo) and math.isinf(up):
        def tails(u):
            return (j(e + u) - j(e - u)) / (-u)

        v2, e2 = quad(tails, win, math.inf, limit=_QUAD_LIMIT, epsabs=1e-12)
        return val + v2, err + e2

    v2 = e2 = 0.0
    if lo < e - win:
        a, b = quad(lambda w: j(w) / (e - w), lo, e - win, limit=_QUAD_LIMIT)
        v2 += a
        e2 += b
    if e + win < up:
        a, b = quad(lambda w: j(w) / (e - w), e + win, up, limit=_QUAD_LIMIT)
        v2 += a
        e2 += b
    return val + v2, err + e2


# ---------------------------------------------------------------------------
# Delta(E) on energy grids: composite Gauss-Legendre graded toward the edges

#: Gauss-Legendre nodes per panel of the Delta rule
PANEL_NODES = 12
#: width ratio of neighbouring panels toward a band edge
GRADING = 4.0
#: graded panels continue this many levels past the target nearest an edge
PAST_TARGET = 2
#: widest panel in the middle of the band, in k
MID_PANEL = np.pi / 4
#: the grading never goes below this k (targets closer to an edge than
#: about 1e-16 of the band are below the resolution of omega anyway)
K_FLOOR = 1e-8


def _edge_breaks(d):
    """Panel breakpoints d * GRADING**m from m = -PAST_TARGET on, up to the
    first at or past MID_PANEL/3.

    A pole at the mirror image -d of a target then sits at least 2/3 of a
    panel width before any panel that does not touch the edge, graded or
    middle, so every panel converges at least like 3**(-2 * PANEL_NODES).
    """
    x = max(d, K_FLOOR) / GRADING**PAST_TARGET
    out = [x]
    while x < MID_PANEL / 3:
        x *= GRADING
        out.append(x)
    return out


def _breaks(d_lo, d_up):
    """Panel breakpoints in k: `_edge_breaks` toward both edges, and panels
    at most MID_PANEL wide between them."""
    lo_b, up_b = _edge_breaks(d_lo), _edge_breaks(d_up)
    a, c = lo_b[-1], np.pi - up_b[-1]
    mid = np.linspace(a, c, max(1, math.ceil((c - a) / MID_PANEL)) + 1)
    return np.concatenate([[0.0], lo_b[:-1], mid, np.pi - np.array(up_b[-2::-1]), [np.pi]])


def _panels(lo, up, breaks):
    """Per panel between breaks: weights in k, energies, dw/dk at the rounded
    energy (next to a van Hove edge J varies on that scale), the k each node
    moves by in rounding and the rounding itself.  Nodes sit at a k-distance u
    from the nearer end of [0, pi], energies at lo + span*sin^2(u/2) or
    up - span*sin^2(u/2)."""
    x, w = _gauss_legendre(PANEL_NODES)
    upper = breaks[1:] + breaks[:-1] > np.pi
    a, b = (np.where(upper, np.pi - v, v)[:, None] for v in (breaks[:-1], breaks[1:]))
    u = 0.5 * (a + b) + 0.5 * (b - a) * x
    span, edge = up - lo, np.where(upper, up, lo)[:, None]
    t = np.where(upper, -span, span)[:, None] * np.sin(0.5 * u) ** 2
    om = edge + t
    rnd = (om - edge) - t
    slip = rnd / (0.5 * span * np.sin(u))  # rounding / exact dw/dk
    return 0.5 * np.diff(breaks)[:, None] * w, om, np.sqrt((om - lo) * (up - om)), slip, rnd


def delta_rule(lo, up, e_grid):
    """Nodes and weights of the Delta rule for the targets e_grid.

    A composite Gauss-Legendre rule in k (omega = mid - half*cos(k)) with
    PANEL_NODES per panel.  Panels shrink by GRADING toward both edges,
    down to GRADING**-PAST_TARGET times the k-distance of the target
    nearest that edge, and are at most MID_PANEL wide in the middle.
    Returns the node energies and the weights of integral dw.
    """
    e_grid = np.asarray(e_grid, dtype=float)
    span = up - lo
    d_lo = 2.0 * math.asin(math.sqrt(min(max((float(e_grid.min()) - lo) / span, 0.0), 1.0)))
    d_up = 2.0 * math.asin(math.sqrt(min(max((up - float(e_grid.max())) / span, 0.0), 1.0)))
    wk, om, jac = _panels(lo, up, _breaks(d_lo, d_up))[:3]
    return om.ravel(), (wk * jac).ravel()


def delta_on_grid(j, lo, up, e_grid):
    """P.V. part Delta(E) on a grid strictly inside a finite band.

    Subtracted form sum_m W_m (J(w_m) - J(E)) / (E - w_m) + J(E) ln((E-lo)/(up-E))
    on the nodes of `delta_rule`: the compensated integrand is as smooth as
    J, so the rule converges however close grid points sit to the nodes.

    The grading is what targets near an edge need.  Where J(omega(k)) is
    odd in k (half-integer edge exponents, van Hove edges) the compensated
    integrand has a pole at the mirror image -k_E of a target, k_E outside
    the band; any other edge exponent s puts a k**(2s+1) branch point on the
    edge itself, which the panels past the target resolve.  The node count
    grows with the log of the smallest k-distance: 252 nodes for the
    32769-point Filon grid of `dynamics`.
    """
    e_grid = np.asarray(e_grid, dtype=float)
    if e_grid.size == 0:
        return np.empty_like(e_grid)
    om, wgt = delta_rule(lo, up, e_grid)
    jv = np.asarray(j(om), dtype=float)
    je = np.asarray(j(e_grid), dtype=float)
    out = np.empty_like(e_grid)
    rows = max(1, 2**14 // om.size)  # (rows, nodes) temporaries stay in cache
    for i in range(0, e_grid.size, rows):
        blk = e_grid[i : i + rows]
        out[i : i + rows] = ((jv - je[i : i + rows, None]) / (blk[:, None] - om)) @ wgt
    return out + je * np.log((e_grid - lo) / (up - e_grid))


# ---------------------------------------------------------------------------
# Sigma(E) and Sigma'(E) on a finite band: the graded rule of one energy

#: each edge is graded as if a pole sat at most this far from it in k: 2s not
#: an integer puts a k**(2s+1) branch point there, and the rule cannot see s
_EDGE_DEPTH = 0.25


@lru_cache(maxsize=1)
def _differentiation():
    """D @ f: derivative of the interpolant of f at the Gauss nodes of [-1, 1]."""
    v = np.polynomial.legendre.legvander(_gauss_legendre(PANEL_NODES)[0], PANEL_NODES - 1)
    return v[:, :-1] @ np.polynomial.legendre.legder(np.eye(PANEL_NODES)) @ np.linalg.inv(v)


def _kernel_sum(j, lo, up, e, power, interior_points):
    """(value, err) of integral J(w)/(e-w)^power dw on a finite band.

    The panels of `delta_rule`, graded toward each edge down to 1/256 of the
    k-distance 2*asinh(sqrt(dist/span)) of the pole that e outside the band
    puts at imaginary k (at most _EDGE_DEPTH, never so deep that a node comes
    within one ulp of the edge), and broken at the J-zeros and at e inside
    the band.  The factor (e - w)**power is taken at the exact node, f =
    J*dw/dk at the node's rounded energy, which next to an edge moves the
    node by up to a quarter of its k; f'(k) dk, f' from the panel's
    interpolant, takes that back.  With e on an edge the integrand goes as
    k**a, a > -1 unknown, so the innermost panel is replaced by the geometric
    series its two neighbours start.  err sums both corrections and rounding.
    """
    span, targets = up - lo, []
    for edge, dist in ((lo, lo - e), (up, e - up)):
        pole = 2.0 * math.asinh(math.sqrt(dist / span)) if dist >= 0.0 else math.inf
        # the innermost break whose first node stays one ulp off the edge
        floor = 4.0 * math.asin(math.sqrt(np.spacing(abs(edge)) / span))
        floor /= 1.0 - _gauss_legendre(PANEL_NODES)[0][-1]
        targets.append(max(min(pole, _EDGE_DEPTH) / GRADING**2, floor * GRADING**PAST_TARGET))
    breaks = _breaks(*targets)
    inner = [_k_of_omega(p, lo, up) for p in (*interior_points, e) if lo < p < up]
    breaks = np.union1d(breaks, inner) if inner else breaks
    wk, om, jac, slip, rnd = _panels(lo, up, breaks)
    f = np.asarray(j(om.ravel()), dtype=float).reshape(om.shape) * jac
    shift = (f @ _differentiation().T) * slip / (0.5 * np.diff(breaks)[:, None])
    den = ((e - om) + rnd) ** power  # om - rnd is the exact node
    panels = (wk * (f - shift) / den).sum(axis=1)
    tail = 0.0
    for edge, (i0, i1, i2) in ((lo, (0, 1, 2)), (up, (-1, -2, -3))):
        if e == edge and 0.0 < panels[i1] / panels[i2] < 1.0:
            tail = panels[i1] ** 2 / (panels[i2] - panels[i1]) - panels[i0]
    err = abs((wk * shift / den).sum()) + abs(tail) + 1e-15 * float(np.abs(wk * f / den).sum())
    return float(panels.sum() + tail), err


# ---------------------------------------------------------------------------
# linear-Filon transform for oscillatory integrals

#: panels with |theta| = |t * dphase| below this use the Taylor series of the
#: panel weights; above it the closed form loses at most a factor 1/theta^2
#: of the phase accuracy, which stays below 1e-12 even on recurred phases
THETA_SERIES = 0.25

#: on an evenly spaced time grid the node phases are advanced by a fixed
#: factor per step and recomputed exactly every this many steps, so the
#: rounding of the recurrence (about one ulp per step) never builds up
PHASE_RESEED = 256


def _series_table(n_terms: int = 6) -> np.ndarray:
    """Taylor coefficients in y = theta^2 of the two panel weights.

    c0 = int_0^1 (1-u) e^{-i theta u} du and c1 = int_0^1 u e^{-i theta u} du.
    Rows: Re c0, Re c1, -Im c0 / theta, -Im c1 / theta.
    """
    table = np.empty((4, n_terms))
    for m in range(n_terms):
        sign = (-1.0) ** m
        table[0, m] = sign / math.factorial(2 * m + 2)
        table[1, m] = sign * (2 * m + 1) / math.factorial(2 * m + 2)
        table[2, m] = sign / math.factorial(2 * m + 3)
        table[3, m] = sign * (2 * m + 2) / math.factorial(2 * m + 3)
    return table


_SERIES = _series_table()
# largest y for which n terms leave a remainder below 1e-17 (alternating series)
_SERIES_YMAX = np.array(
    [(1e-17 * math.factorial(2 * n + 1)) ** (1.0 / n) for n in range(1, _SERIES.shape[1] + 1)]
)


def _uniform_step(t: np.ndarray):
    """The step of an evenly spaced grid (equal to rounding), else None."""
    if t.size < 3:
        return None
    step = (t[-1] - t[0]) / (t.size - 1)
    tol = 8.0 * np.finfo(float).eps * max(abs(t[0]), abs(t[-1]))
    if np.max(np.abs(t - (t[0] + step * np.arange(t.size)))) > tol:
        return None
    return step


def _node_phases(p: np.ndarray, t: np.ndarray):
    """Yield exp(-i p t_j) for each time in turn (the same buffer each time).

    An evenly spaced grid advances the phases by exp(-i p dt) per step and
    recomputes them exactly every PHASE_RESEED steps; any other grid
    computes every time directly.
    """
    step = _uniform_step(t)
    factor = None if step is None else np.exp(p * (-1j * step))
    e = np.empty(p.size, dtype=complex)
    for j, tj in enumerate(t):
        if factor is None or j % PHASE_RESEED == 0:
            np.multiply(p, -1j * tj, out=e)
            np.exp(e, out=e)
        else:
            e *= factor
        yield e


def _panel_weights(t, dp, dp2, e, out):
    """(c0, c1) of every panel at time t into out, shape (2, K-1) complex.

    theta = t * dp; |theta| < THETA_SERIES takes the Taylor series with as
    many terms as the largest such theta needs, larger |theta| the closed
    forms with exp(-i theta) = e[k+1] * conj(e[k]).
    """
    y = dp2 * (t * t)
    y_max = float(y.max()) if y.size else 0.0
    n = int(np.searchsorted(_SERIES_YMAX, min(y_max, THETA_SERIES**2))) + 1
    coef = _SERIES[:, :n].copy()
    coef[2:] *= t
    acc = np.repeat(coef[:, -1:], y.size, axis=1)
    for m in range(n - 2, -1, -1):
        acc *= y
        acc += coef[:, m : m + 1]
    out.real = acc[:2]
    np.multiply(acc[2:], -dp, out=acc[2:])
    out.imag = acc[2:]
    if y_max >= THETA_SERIES**2:
        big = y >= THETA_SERIES**2
        th = t * dp[big]
        ph = e[1:][big] * np.conj(e[:-1][big])
        out[0, big] = (1.0 - 1j * th - ph) / th**2
        out[1, big] = (ph * (1.0 + 1j * th) - 1.0) / th**2


def fourier_linear(x, f, times, phase=None):
    """integral of f(x)*exp(-i*phase(x)*t) dx, f and phase piecewise linear.

    `phase` defaults to x itself.  On a panel [x_k, x_k+1] the linear
    interpolant of f is integrated against the linear interpolant of the
    phase exactly, so the result is uniformly accurate in t: with
    theta = t * (phase_k+1 - phase_k) the panel adds
    h_k e^{-i phase_k t} (f_k c0(theta) + f_k+1 c1(theta)).

    `f` has shape (K,) or (N, K); N rows share every phase and panel weight,
    so they cost about as much as one.  The node phases exp(-i phase t) on
    an evenly spaced time grid come from a fixed per-step factor and are
    recomputed exactly every PHASE_RESEED steps; other grids compute them
    at every time.  Returns shape (len(times),) or (N, len(times)).
    """
    x = np.asarray(x, dtype=float)
    f = np.asarray(f, dtype=complex)
    rows = np.atleast_2d(f)
    p = x if phase is None else np.asarray(phase, dtype=float)
    t = np.asarray(times, dtype=float)
    h = np.diff(x)
    dp = np.diff(p)
    dp2 = dp * dp
    c = np.empty((2, h.size), dtype=complex)
    he = np.empty(h.size, dtype=complex)
    g = np.empty(x.size, dtype=complex)  # node weights: panel k-1 and panel k
    out = np.empty((rows.shape[0], t.size), dtype=complex)
    for j, e in enumerate(_node_phases(p, t)):
        _panel_weights(t[j], dp, dp2, e, c)
        np.multiply(h, e[:-1], out=he)
        np.multiply(c[0], he, out=g[:-1])
        g[-1] = 0.0
        c[1] *= he
        g[1:] += c[1]
        out[:, j] = rows @ g
    return out if f.ndim == 2 else out[0]
