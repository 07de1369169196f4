"""Integration helpers for band integrals with edge and pole structure.

Bands (all finite) are integrated after the substitution
omega = mid - half*cos(k), k in [0, pi]: the Jacobian half*sin(k) removes
inverse-square-root edge divergences (van Hove) and flattens power-law edge
zeros, so one scheme covers every declared edge exponent.

Composite Gauss-Legendre rules in k whose panels are graded geometrically
toward both edges do the work, each built with J on its nodes by
`_graded_rule`: `delta_on_grid` grades down to the depth class of its grid,
the k-distance of the grid point nearest each edge rounded down to a power
of GRADING, and `kernel_integral` (Sigma, Sigma') down to the pole that an
energy outside the band puts at imaginary k, where every energy far from
both edges shares one rule.  A model keeps the rules that recur, that one
and each depth class's, in one cache (`ValidatedModel._rules`), which only
this module fills.  The scattering transform of `dynamics` builds its panels
from the same pieces (`graded_breaks`, `split_panels`, `panel_rule`) and
sums them against exp(-i omega t) in `fourier_linear`, which a uniform grid
of T times lets form 2*sqrt(T) phases per node, not T.  Adaptive `quad` is
only the reference the tests compare these rules against: `band_integral`,
and `principal_value` on top of it.  `band_integral` imports it when
called, so nothing else here loads scipy.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

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
    from scipy.integrate import quad

    mid, half = 0.5 * (lo + up), 0.5 * (up - lo)

    def g(k):
        w = mid - half * math.cos(k)
        return f(w) * half * math.sin(k)

    pts = sorted({_k_of_omega(p, lo, up) for p in interior_points if lo < p < up})
    pts = [p for p in pts if 0.0 < p < np.pi]
    return quad(
        g, 0.0, np.pi, points=pts or None, limit=_QUAD_LIMIT, epsabs=1e-14, epsrel=epsrel
    )


def principal_value(j, lo, up, e, epsrel=1e-10):
    """P.V. integral of J(w)/(e-w) dw for e strictly inside the band: the
    adaptive reference of `delta_on_grid`.

    Singularity subtraction
        int [J(w)-J(e)]/(e-w) dw + J(e)*ln|(e-lo)/(up-e)|
    with the compensated integrand regular at w=e.
    """
    je = float(np.asarray(j(np.array([e])))[0])

    def f(w):
        if w == e:
            return 0.0  # limit is -J'(e); a point does not matter
        return (j(w) - je) / (e - w)

    val, err = band_integral(f, lo, up, (e,), epsrel)
    return val + je * math.log((e - lo) / (up - e)), err


# ---------------------------------------------------------------------------
# graded rules, and Delta(E) on energy grids

#: Gauss-Legendre nodes per panel
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


def _depth_class(lo, up, e_grid):
    """(d_lo, d_up): the depth class of the targets e_grid, the key of their
    Delta rule.

    The k-distance of the target nearest each edge, rounded down to a power
    of GRADING and never below `_shallowest`.  Grading to the class instead
    of the target itself grades at most one level deeper, and lets every
    grid of one class share a rule.
    """
    e_grid = np.asarray(e_grid, dtype=float)
    span = up - lo
    out = []
    for edge, gap in ((lo, float(e_grid.min()) - lo), (up, up - float(e_grid.max()))):
        floor = _shallowest(lo, up, edge)
        d = max(2.0 * math.asin(math.sqrt(min(max(gap / span, 0.0), 1.0))), floor)
        out.append(max(GRADING ** math.floor(math.log(d, GRADING)), floor))
    return tuple(out)


def _shallowest(lo, up, edge):
    """The smallest target of `_breaks` whose nodes all stay at least one ulp
    off the edge: deeper nodes would round onto it, where J reads 0 or inf."""
    floor = 4.0 * math.asin(math.sqrt(np.spacing(abs(edge)) / (up - lo)))
    return floor / (1.0 - _gauss_legendre(PANEL_NODES)[0][-1]) * GRADING**PAST_TARGET


def panel_rule(lo, up, breaks):
    """Node energies and weights of integral dw for the k-panels between breaks,
    PANEL_NODES Gauss-Legendre nodes each; the energies ascend."""
    wk, om, jac = _panels(lo, up, breaks)[:3]
    return om.ravel(), (wk * jac).ravel()


def _graded_rule(j, lo, up, breaks):
    """Every Sigma and Delta rule: per panel between breaks and node, the
    weights wk of integral dk, the node energies, their rounding and slip,
    dw/dk (`_panels`), J, and D @ (J dw/dk), the derivative of the panel's
    interpolant of J dw/dk in its own variable on [-1, 1]."""
    wk, om, jac, slip, rnd = _panels(lo, up, breaks)
    jv = np.asarray(j(om.ravel()), dtype=float).reshape(om.shape)
    return wk, om, rnd, slip, jac, jv, (jv * jac) @ _differentiation().T


def _recurring(rules, key, build):
    """rules[key], built and stored the first time; build() itself when rules
    or key is None (no cache, or a rule that does not recur)."""
    if rules is None or key is None:
        return build()
    if key not in rules:
        rules[key] = build()
    return rules[key]


def _delta_terms(j, lo, up, depths):
    """(nodes, weights of integral dw, J, -J') of the Delta rule of a depth
    class, flat, the nodes ascending.

    -J' = -(F_k - J w_kk) / w_k^2 comes from the interpolant of F = J w_k on
    each panel, which stays smooth at a van Hove edge.
    """
    wk, om, _, _, jac, jv, df = _graded_rule(j, lo, up, _breaks(*depths))
    wgt = wk * jac
    w = _gauss_legendre(PANEL_NODES)[1]
    on_node = (jv * (0.5 * (lo + up) - om) - df * w * jac / wgt) / jac**2
    return om.ravel(), wgt.ravel(), jv.ravel(), on_node.ravel()


def delta_on_grid(j, lo, up, e_grid, rules=None):
    """P.V. part Delta(E) on a grid strictly inside a finite band.

    Subtracted form sum_m W_m (J(w_m) - J(E)) / (E - w_m) + J(E) ln((E-lo)/(up-E))
    on the graded rule of the `_depth_class` of e_grid, whose panels shrink
    toward each edge down to GRADING**-PAST_TARGET times the class there.
    The compensated integrand is as smooth as J, so the rule converges
    however close grid points sit to the nodes.

    The grading is what targets near an edge need, down to the target
    whose nodes would round onto the edge (`_shallowest`).  Where J(omega(k)) is
    odd in k (half-integer edge exponents, van Hove edges) the compensated
    integrand has a pole at the mirror image -k_E of a target, k_E outside
    the band; any other edge exponent s puts a k**(2s+1) branch point on the
    edge itself, which the panels past the target resolve.  The node count
    grows with the log of the smallest k-distance; a grid within one ulp of
    both edges, as the nodes of the scattering transform are, takes about
    280.  A target on a node of the rule takes the limit -J'(E) of the
    subtracted integrand there.

    rules, a model's cache (`ValidatedModel._rules`), keeps each depth
    class's rule with J and -J' on its nodes, so that a later grid of that
    class reads J only at its targets.  The result is the same, bit for bit,
    with rules or without.
    """
    e_grid = np.asarray(e_grid, dtype=float)
    if e_grid.size == 0:
        return np.empty_like(e_grid)
    depths = _depth_class(lo, up, e_grid)
    om, wgt, jv, on_node = _recurring(
        rules, ("delta", *depths), lambda: _delta_terms(j, lo, up, depths)
    )
    je = np.asarray(j(e_grid), dtype=float)
    out = np.empty_like(e_grid)
    rows = max(1, 2**14 // om.size)  # (rows, nodes) temporaries stay in cache
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(0, e_grid.size, rows):
            gap = e_grid[i : i + rows, None] - om
            out[i : i + rows] = ((jv - je[i : i + rows, None]) / gap) @ wgt
        # a target on a node: that term is 0/0, and its limit is -J'(E)
        node = np.minimum(np.searchsorted(om, e_grid), om.size - 1)
        hit = np.flatnonzero(om[node] == e_grid)
        if hit.size:
            terms = (jv - je[hit, None]) / (e_grid[hit, None] - om)
            terms[np.arange(hit.size), node[hit]] = on_node[node[hit]]
            out[hit] = terms @ wgt
    return out + je * np.log((e_grid - lo) / (up - e_grid))


def _delta_nodes(rules) -> int:
    """The node count of the largest Delta rule in a model's cache rules."""
    return max((rule[0].size for key, rule in rules.items() if key[0] == "delta"), default=0)


# ---------------------------------------------------------------------------
# Sigma(E) and Sigma'(E) on a finite band: the graded rule of one energy

#: each edge is graded as if a pole sat at most this far from it in k: 2s not
#: an integer puts a k**(2s+1) branch point there, and the rule cannot see s
_EDGE_DEPTH = 0.25


def _edge_pole(lo, up, dist):
    """The k-distance 2*asinh(sqrt(dist/span)) of the pole that an energy
    dist outside an edge puts at imaginary k; inf for dist < 0 (no pole)."""
    return 2.0 * math.asinh(math.sqrt(dist / (up - lo))) if dist >= 0.0 else math.inf


def _edge_target(lo, up, edge, dist):
    """The target `_breaks` grades an edge toward: the `_edge_pole` of an
    energy dist outside the edge, at most _EDGE_DEPTH, over GRADING**2;
    never so deep that a node comes within one ulp of the edge.
    """
    return max(min(_edge_pole(lo, up, dist), _EDGE_DEPTH) / GRADING**2, _shallowest(lo, up, edge))


@lru_cache(maxsize=1)
def _differentiation():
    """D @ f: derivative of the interpolant of f at the Gauss nodes of [-1, 1]."""
    v = np.polynomial.legendre.legvander(_gauss_legendre(PANEL_NODES)[0], PANEL_NODES - 1)
    return v[:, :-1] @ np.polynomial.legendre.legder(np.eye(PANEL_NODES)) @ np.linalg.inv(v)


def _sigma_terms(j, lo, up, e, interior_points):
    """All of the `kernel_integral` rule of e but the factor (e - w)**power:
    the node energies, their rounding, and the weight of integral dk times
    f - f'(k)*slip, times f'(k)*slip and times f, f = J dw/dk."""
    breaks = _breaks(_edge_target(lo, up, lo, lo - e), _edge_target(lo, up, up, e - up))
    inner = [_k_of_omega(p, lo, up) for p in (*interior_points, e) if lo < p < up]
    breaks = np.union1d(breaks, inner) if inner else breaks
    wk, om, rnd, slip, jac, jv, df = _graded_rule(j, lo, up, breaks)
    f = jv * jac
    shift = df * slip / (0.5 * np.diff(breaks)[:, None])
    return om, rnd, wk * (f - shift), wk * shift, wk * f


def _far_field(lo, up, e, interior_points):
    """Whether e has the rule of e = inf: it lies at least
    span*sinh(_EDGE_DEPTH/2)**2 (1.6% of the band) outside both edges, so
    both edge targets sit at their cap, and inside the band only on a
    J-zero, which already cuts the panels."""
    if lo < e < up and e not in interior_points:
        return False
    return _edge_pole(lo, up, lo - e) >= _EDGE_DEPTH and _edge_pole(lo, up, e - up) >= _EDGE_DEPTH


def kernel_integral(j, lo, up, e, power=1, interior_points=(), rules=None):
    """(value, err) of integral J(w)/(e-w)^power dw over the band.

    e must lie outside (lo, up) or at a point where the integrand is
    regular (a J-zero of sufficient order).  The rule is fixed: the panels
    of `delta_on_grid`, graded toward each edge down to 1/256 of the k-distance
    `_edge_pole` of the pole that e outside the band puts at imaginary k
    (at most _EDGE_DEPTH, never so deep that a node comes within one ulp of
    the edge), and broken at the J-zeros and at e inside the band.  The
    factor (e - w)**power is taken at the exact node, f = J*dw/dk at the
    node's rounded energy, which next to an edge moves the node by up to a
    quarter of its k; f'(k) dk, f' from the panel's interpolant, takes that
    back.  With e on an edge the integrand goes as k**a, a > -1 unknown, so
    the innermost panel is replaced by the geometric series its two
    neighbours start.  err sums both corrections and rounding.

    rules, a model's cache (`ValidatedModel._rules`), keeps the rule that
    every e in the far field shares, that of e = inf: such an e then costs
    only the sum against (e - w)**-power.  The rule of any other e is its
    own and is not kept.
    """
    key = ("sigma", math.inf) if _far_field(lo, up, e, interior_points) else None
    om, rnd, body, shift, whole = _recurring(
        rules, key, lambda: _sigma_terms(j, lo, up, e, interior_points)
    )
    den = ((e - om) + rnd) ** power  # om - rnd is the exact node
    panels = (body / den).sum(axis=1)
    tail = 0.0
    for edge, (i0, i1, i2) in ((lo, (0, 1, 2)), (up, (-1, -2, -3))):
        if e == edge and 0.0 < panels[i1] / panels[i2] < 1.0:
            tail = panels[i1] ** 2 / (panels[i2] - panels[i1]) - panels[i0]
    err = abs((shift / den).sum()) + abs(tail) + 1e-15 * float(np.abs(whole / den).sum())
    return float(panels.sum() + tail), err


# ---------------------------------------------------------------------------
# the scattering transform: a plain sum on the graded panels


def split_panels(breaks, m):
    """breaks with panel i cut into m[i] (or m) equal panels."""
    m = np.broadcast_to(np.asarray(m, dtype=int), (breaks.size - 1,))
    i = np.repeat(np.arange(m.size), m)
    part = np.arange(i.size) - np.repeat(np.cumsum(m) - m, m)
    return np.append(breaks[i] + np.diff(breaks)[i] * (part / m[i]), breaks[-1])


def graded_breaks(breaks, k0, d):
    """breaks plus k0 -+ d * GRADING**m, m = 0, 1, ..., up to the first at or
    past a third of the widest panel: as in `_edge_breaks`, a pole at
    k0 + 4d*i then sits a third of a width off any panel not holding k0."""
    reach = np.max(np.diff(breaks)) / 3.0
    if not d < reach:
        return breaks
    steps = d * GRADING ** np.arange(math.ceil(math.log(reach / d, GRADING)) + 1)
    new = np.concatenate([k0 - steps, k0 + steps])
    return np.union1d(breaks, new[(new > 0.0) & (new < np.pi)])


def fourier_linear(x, f, times):
    """sum_k f[..., k] exp(-i x_k t) at each time t: a band integral against
    exp(-i omega t) on the nodes x of a rule whose weights f carries.

    f has shape (K,) or (N, K), the result (T,) or (N, T).  When every
    |t_i - (t_0 + i*h)|, h = (t_{T-1} - t_0)/(T - 1), is at most 4 ulps of
    max|t| (any `np.linspace`), blocks of b = isqrt(T) times share the
    phases exp(-i x t_a) of their anchor t_a in t[::b] and exp(-i x jh) of
    each offset j, which f takes on: 2*sqrt(T) phases per node, not T, each
    off by at most |x| times 8 ulps of max|t| (2.5 on `np.linspace` grids).
    Any other grid has b = 1, a phase per node and time.  Anchor phases are
    formed in blocks whose (K, block) temporary stays ~1 MB.
    """
    x = np.asarray(x, dtype=float)
    f = np.asarray(f, dtype=complex)
    rows = np.atleast_2d(f)
    t = np.asarray(times, dtype=float)
    n = t.size
    h = (t[-1] - t[0]) / (n - 1) if n > 1 else 0.0
    slip = np.abs(t - (t[:1] + h * np.arange(n)))
    uniform = np.all(slip <= 4.0 * np.spacing(np.max(np.abs(t), initial=0.0)))
    b = max(1, math.isqrt(n)) if uniform else 1
    offsets = np.exp(np.multiply.outer(-1j * h * np.arange(1, b), x))  # (b - 1, K)
    g = np.concatenate([rows, (rows * offsets[:, None]).reshape(-1, x.size)])  # (b*N, K)
    anchors = t[::b]
    out = np.empty((rows.shape[0], anchors.size, b), dtype=complex)
    step = max(1, 2**16 // max(x.size, 1))
    for i in range(0, anchors.size, step):
        block = g @ np.exp(np.multiply.outer(x, -1j * anchors[i : i + step]))
        out[:, i : i + step] = block.reshape(b, rows.shape[0], -1).transpose(1, 2, 0)
    out = out.reshape(rows.shape[0], -1)[:, :n]
    return out if f.ndim == 2 else out[0]
