import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import friedrichs as fr
from friedrichs import quadrature as qd

from _support import SIGMA_DERIV_EPSREL, SIGMA_EPSREL, delta_rule, random_model


def _band_nodes(rng, n_nodes, half):
    """Uneven energies mid - half*cos(k) for uneven k on [0, pi]."""
    gaps = rng.uniform(0.2, 1.0, n_nodes - 1)
    k = np.concatenate([[0.0], np.cumsum(gaps)]) * (np.pi / gaps.sum())
    return 0.3 - half * np.cos(k)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 4),
    st.integers(20, 400),
    st.booleans(),
)
@settings(max_examples=30, deadline=None)
@example(seed=1026957, n_rows=4, n_nodes=316, uniform=False)
def test_rows_match_single_level_calls(seed, n_rows, n_nodes, uniform):
    # rows share the phases of each block of times; a single row is the
    # plain sum sum_k f_k exp(-i x_k t), whatever the blocks.  The batched
    # and the single-row products add the same terms, each at most |f_k|,
    # in orders of their own: they differ by a few eps * sum_k |f_k| (1.17
    # on the example, under 1.4 on 1500 draws)
    eps = np.finfo(float).eps
    rng = np.random.default_rng(seed)
    x = _band_nodes(rng, n_nodes, rng.uniform(0.1, 5.0))
    f = rng.normal(size=(n_rows, n_nodes)) + 1j * rng.normal(size=(n_rows, n_nodes))
    t_max = rng.uniform(1.0, 300.0)
    times = np.linspace(0.0, t_max, 300) if uniform else np.sort(rng.uniform(0, t_max, 300))
    both = qd.fourier_linear(x, f, times)
    assert both.shape == (n_rows, times.size)
    for row, values in zip(f, both):
        single = qd.fourier_linear(x, row, times)
        assert single.shape == times.shape
        assert np.max(np.abs(values - single)) <= 4.0 * eps * np.abs(row).sum()
        direct = [np.sum(row * np.exp(-1j * x * t)) for t in times]
        assert np.max(np.abs(single - direct)) <= 1e-12 * np.abs(row).sum()


def _plain_fourier(x, f, times):
    """sum_k f[..., k] exp(-i x_k t) with a phase per node and time, in
    blocks of times: `fourier_linear` on a grid that is not uniform."""
    rows, t = np.atleast_2d(f), np.asarray(times, dtype=float)
    out = np.empty((rows.shape[0], t.size), dtype=complex)
    step = max(1, 2**16 // max(x.size, 1))
    for i in range(0, t.size, step):
        out[:, i : i + step] = rows @ np.exp(np.multiply.outer(x, -1j * t[i : i + step]))
    return out if f.ndim == 2 else out[0]


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
    st.integers(1, 2500),
    st.integers(1, 1000),
    st.booleans(),
    st.booleans(),
)
@example(seed=0, n_rows=2, n_nodes=300, n_times=1, late=False, descending=False)
@example(seed=1, n_rows=1, n_nodes=300, n_times=2, late=True, descending=False)
@example(seed=2, n_rows=2, n_nodes=300, n_times=3, late=False, descending=True)
@example(seed=3, n_rows=3, n_nodes=300, n_times=4, late=True, descending=False)
@example(seed=4, n_rows=2, n_nodes=700, n_times=400, late=False, descending=False)
@example(seed=5, n_rows=2, n_nodes=2500, n_times=1000, late=True, descending=True)
@settings(max_examples=30, deadline=None)
def test_uniform_grid_matches_plain_sum(seed, n_rows, n_nodes, n_times, late, descending):
    # on a linspace grid the phases are an anchor's times an offset's, in
    # blocks of isqrt(T) times (one short at the end unless T is a square);
    # 2500 nodes and 1000 times take two blocks of anchor phases
    rng = np.random.default_rng(seed)
    x = _band_nodes(rng, n_nodes, rng.uniform(0.1, 5.0)) if n_nodes > 1 else np.array([1.3])
    f = rng.normal(size=(n_rows, n_nodes)) + 1j * rng.normal(size=(n_rows, n_nodes))
    t0 = rng.uniform(1.0, 100.0) if late else 0.0
    times = np.linspace(t0, t0 + rng.uniform(1.0, 300.0), n_times)
    times = times[::-1] if descending else times
    got = qd.fourier_linear(x, f, times)
    assert got.shape == (n_rows, n_times)
    direct = f @ np.exp(-1j * np.multiply.outer(x, times))
    assert np.max(np.abs(got - direct)) <= 1e-12 * np.abs(f).sum(axis=1).max()


@pytest.mark.parametrize("kind", ["sorted", "jittered", "one_off", "descending_jittered"])
def test_other_grids_keep_the_plain_sum(kind):
    # a grid more than 4 ulps off uniform takes a phase per node and time,
    # exactly as the plain sum does
    rng = np.random.default_rng(7)
    x = _band_nodes(rng, 900, 2.0)
    f = rng.normal(size=(2, x.size)) + 1j * rng.normal(size=(2, x.size))
    times = np.linspace(0.0, 200.0, 400)
    if kind == "sorted":
        times = np.sort(rng.uniform(0.0, 200.0, 400))
    elif kind == "jittered":
        times = times * (1.0 + 1e-9 * rng.uniform(-1.0, 1.0, times.size))
    elif kind == "one_off":
        times[123] = np.nextafter(times[123] + 8.0 * np.spacing(200.0), np.inf)
    else:
        times = (times * (1.0 + 1e-9 * rng.uniform(-1.0, 1.0, times.size)))[::-1]
    assert np.array_equal(qd.fourier_linear(x, f, times), _plain_fourier(x, f, times))
    assert np.array_equal(qd.fourier_linear(x, f[1], times), _plain_fourier(x, f[1], times))


def test_phases_per_node_on_uniform_grid(monkeypatch):
    # 400 times in 20 blocks of 20: 20 anchor phases and 19 offset phases
    # per node, where a phase per node and time makes 400
    rng = np.random.default_rng(8)
    x = _band_nodes(rng, 1000, 2.0)
    f = rng.normal(size=(3, x.size)) + 1j * rng.normal(size=(3, x.size))
    times = np.linspace(0.0, 200.0, 400)
    formed = []
    exp = np.exp

    def counted(z, *args, **kwargs):
        formed.append(np.size(z))
        return exp(z, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counted)
    got = qd.fourier_linear(x, f, times)
    monkeypatch.undo()
    assert sum(formed) <= x.size * (20 + 20)
    assert np.max(np.abs(got - _plain_fourier(x, f, times))) <= 1e-12 * np.abs(f).sum(axis=1).max()


# ---------------------------------------------------------------------------
# the graded Delta rule


def _near_edges(rng, lo, up, n):
    """n energies within 1e-6 of the band width of each edge (>= 1e-7)."""
    d = (up - lo) * 10.0 ** rng.uniform(-7.0, -6.0, (2, n))
    return np.concatenate([lo + d[0], up - d[1]])


def _delta_error(seed, with_zero):
    """max |delta_on_grid - principal_value| / max |Delta| on a random model.

    random_model draws edge exponents from {0.5, 1, 2}; the grid holds
    random targets and targets next to both edges, which set the grading.
    """
    rng = np.random.default_rng(seed)
    model = random_model(rng, with_zero=with_zero)
    lo, up = model.omega_low, model.omega_up
    e = np.sort(np.concatenate([rng.uniform(lo, up, 8), _near_edges(rng, lo, up, 2)]))
    got = qd.delta_on_grid(model.j, lo, up, e)
    ref = np.array([qd.principal_value(model.j, lo, up, x, epsrel=1e-13)[0] for x in e])
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=15, deadline=None)
def test_delta_matches_principal_value(seed, with_zero):
    assert _delta_error(seed, with_zero) <= 1e-10


@pytest.mark.parametrize("seed", [5, 59, 133])
def test_delta_middle_panels_see_mirror_pole(seed):
    # each of these has a target within 1e-6 of a half-integer edge; when
    # the first middle panel started closer to the edge than a third of its
    # width, the mirror pole of that target cost up to 1.7e-10 here
    assert _delta_error(seed, bool(seed % 2)) <= 1e-11


@pytest.mark.parametrize("site", [1, 2, 5])
def test_delta_matches_waveguide_closed_form(site):
    params = fr.WaveguideParams(3, 1.0, 0.75, 0.25, site)
    model = fr.build_waveguide_model(params)
    lo, up = model.omega_low, model.omega_up
    e = np.linspace(lo, up, 2001)
    e = e[(e - lo >= 1e-3 * (up - lo)) & (up - e >= 1e-3 * (up - lo))]
    ref = model.overrides.delta(e)
    got = qd.delta_on_grid(model.j, lo, up, e)
    assert np.max(np.abs(got - ref)) <= 5e-12 * np.max(np.abs(ref))


def test_delta_quarter_power_edge():
    # s = 1/4 puts a k**1.5 branch point on the lower edge; mpmath on the
    # subtracted integrand is the reference, targets include the first
    # interior point of a uniform 32769-point k-grid (about 2e-9 of the
    # band from the edge)
    lo, up = -1.3, 2.1

    def j(om):
        om = np.asarray(om, dtype=float)
        inside = (om > lo) & (om < up)
        out = np.zeros_like(om)
        w = om[inside]
        out[inside] = (w - lo) ** 0.25 * (up - w) * (1.0 + 0.3 * np.cos(w))
        return out

    mpmath.mp.dps = 30

    def j_mp(w):
        return (w - lo) ** mpmath.mpf(0.25) * (up - w) * (1 + mpmath.mpf(0.3) * mpmath.cos(w))

    e = 0.4 - 1.7 * np.cos(np.linspace(0.0, np.pi, 32769)[1:-1])
    probe = [0, 5, 500, 16000, e.size - 6, e.size - 1]
    got = qd.delta_on_grid(j, lo, up, e)
    ref = []
    for i in probe:
        x = mpmath.mpf(e[i])
        jx = j_mp(x)
        val = mpmath.quad(lambda w: 0 if w == x else (j_mp(w) - jx) / (x - w), [lo, x, up])
        ref.append(float(val + jx * mpmath.log((x - lo) / (up - x))))
    ref = np.array(ref)
    assert np.max(np.abs(got[probe] - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_delta_next_to_van_hove_edge():
    # J = (w-lo)^2 / sqrt(up-w): Delta stays finite at the divergent edge
    # while J(E) ln((E-lo)/(up-E)) grows, so the rule must integrate the
    # compensated part to the same relative accuracy; mpmath in k is the
    # reference (the uniform 2000-node rule was off by 4.6e-7 at 1e-3)
    lo, up = -1.0, 1.5

    def j(om):
        om = np.asarray(om, dtype=float)
        inside = (om > lo) & (om < up)
        out = np.zeros_like(om)
        out[inside] = (om[inside] - lo) ** 2 / np.sqrt(up - om[inside])
        return out

    mpmath.mp.dps = 40
    mid, half = mpmath.mpf(0.25), mpmath.mpf(1.25)

    def reference(x):
        # the subtracted integrand in k, with w - lo and up - w exact
        x = mpmath.mpf(x)
        k_x = mpmath.acos((mid - x) / half)
        j_x = (x - lo) ** 2 / mpmath.sqrt(up - x)

        def f(k):
            a, b = 2 * half * mpmath.sin(k / 2) ** 2, 2 * half * mpmath.cos(k / 2) ** 2
            if a == 0 or b == 0 or lo + a == x:
                return mpmath.mpf(0)
            return (a**2 / mpmath.sqrt(b) - j_x) / (x - lo - a) * half * mpmath.sin(k)

        pts = [0, k_x / 2, k_x, (mpmath.pi + k_x) / 2, mpmath.pi - (mpmath.pi - k_x) / 4, mpmath.pi]
        return float(mpmath.quad(f, pts) + j_x * mpmath.log((x - lo) / (up - x)))

    e = 0.25 - 1.25 * np.cos(np.linspace(0.0, np.pi, 2049)[1:-1])
    probe = [0, 1000, e.size - 40]  # the last is 9.4e-4 of the band from up
    got = qd.delta_on_grid(j, lo, up, e)[probe]
    ref = np.array([reference(e[i]) for i in probe])
    assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("kappa, bound", [(0.75, 1e-10), (4.0, 1e-10)])
def test_delta_vanishes_on_infinite_waveguide(kappa, bound):
    # Delta is identically 0; J's own rounding next to the van Hove edges
    # limits every rule (the uniform 2000-node rule reached 9.8e-10 and
    # 1.0e-10 here)
    model = fr.build_waveguide_model(fr.WaveguideParams(3, 1.0, kappa, 0.25, math.inf))
    lo, up = model.omega_low, model.omega_up
    e = np.linspace(lo, up, 2001)
    e = e[(e - lo >= 1e-2 * (up - lo)) & (up - e >= 1e-2 * (up - lo))]
    assert np.max(np.abs(qd.delta_on_grid(model.j, lo, up, e))) <= bound


def test_delta_rule_grading():
    # one rule per band, graded toward each edge until its innermost node
    # sits one ulp off the edge: per edge 10 panels, from [0, 2.0e-6] up to
    # 0.54 in k, then 3 middle panels; 23 panels of 12 nodes.  The weights
    # integrate dw exactly
    lo, up = -2.0, 3.0
    om, wgt = delta_rule(lo, up)
    assert om.size == 276 and om.size % qd.PANEL_NODES == 0
    assert 0.0 < om[0] - lo <= np.spacing(abs(lo)) and 0.0 < up - om[-1] <= np.spacing(up)
    assert np.all(np.diff(om) > 0.0)
    assert abs(wgt.sum() - (up - lo)) <= 1e-14 * (up - lo)


@given(
    st.integers(0, 2**32 - 1),
    st.lists(
        st.tuples(st.floats(-15.0, -0.5), st.floats(-15.0, -0.5), st.integers(1, 30)),
        min_size=1,
        max_size=4,
    ),
)
@settings(max_examples=20, deadline=None)
def test_delta_rule_cache_keeps_bits(seed, grids):
    # grids at drawn depths from both edges, with two nodes of the rule
    # among the targets, give the same bits from a fresh rule and from the
    # model's cache, whether the call builds the cached rule or reads it;
    # the cache holds the band's one rule, J read on its nodes, and the
    # same bits as a rule built afresh
    rng = np.random.default_rng(seed)
    model = random_model(rng, with_zero=bool(seed % 2))
    lo, up = model.omega_low, model.omega_up
    span = up - lo
    rules = model._rules
    nodes, weights = delta_rule(lo, up)
    for _ in range(2):
        for low_exp, up_exp, n in grids:
            e = np.r_[lo + span * 10.0**low_exp, up - span * 10.0**up_exp, rng.uniform(lo, up, n)]
            inner = nodes[(nodes > e.min()) & (nodes < e.max())]
            e = np.sort(np.r_[e, rng.choice(inner, 2)])
            fresh = qd.delta_on_grid(model.j, lo, up, e)
            assert np.array_equal(qd.delta_on_grid(model.j, lo, up, e, rules=rules), fresh)
            assert list(rules) == ["band"]
            cached = rules["band"][0]
            assert np.array_equal(cached[0], nodes) and np.array_equal(cached[1], weights)
            assert np.array_equal(cached[2], model.j(nodes))
            for got, built in zip(cached, qd._graded_rule(model.j, lo, up)[0]):
                assert np.array_equal(got, built)


def _van_hove(lo, up):
    """J with inverse-square-root edges at both ends of [lo, up]."""

    def j(om):
        om = np.asarray(om, dtype=float)
        out = np.zeros_like(om)
        inside = (om > lo) & (om < up)
        w = om[inside]
        out[inside] = 0.05 * (1.0 + 0.3 * np.cos(w)) / np.sqrt((w - lo) * (up - w))
        return out

    return j


def test_delta_unmoved_by_targets_at_the_edges():
    # targets within ulps of a van Hove edge once graded the rule so deep
    # that its nodes rounded onto the edge, where J reads 0: Delta moved by
    # 2e-9 in the middle of the band
    lo, up = -1.1193766592449899, 2.9728681367091223
    j = _van_hove(lo, up)
    e = np.linspace(-0.9, 2.5, 7)
    at_edges = np.r_[np.nextafter(lo, up), lo + 1e-12, e, up - 1e-12, np.nextafter(up, lo)]
    alone = qd.delta_on_grid(j, lo, up, e)
    assert np.all(np.isfinite(qd.delta_on_grid(j, lo, up, at_edges)))
    assert np.max(np.abs(qd.delta_on_grid(j, lo, up, at_edges)[2:-2] - alone)) <= 1e-13
    om, _ = delta_rule(lo, up)
    assert np.all((om > lo) & (om < up))


def test_delta_targets_on_rule_nodes():
    # a target on a node of the rule is 0/0 in the subtracted sum; its
    # term is the limit -J'(E), read off the panel's interpolant
    lo, up = -1.3, 2.1
    j = _van_hove(lo, up)
    om, _ = delta_rule(lo, up)
    on = om[(om > -1.2) & (om < 2.0)][[5, 20, 40]]
    got = qd.delta_on_grid(j, lo, up, np.r_[-1.29, on, 2.09])[1:-1]
    ref = np.array([qd.principal_value(j, lo, up, e, epsrel=1e-13)[0] for e in on])
    # the interpolant's derivative is good to about 1e-9 of J' on a middle
    # panel, and that node's weight is 0.15
    assert np.max(np.abs(got - ref)) <= 1e-12


# ---------------------------------------------------------------------------
# Sigma and Sigma' on the band's rule (kernel_integral)

_LO, _UP = -1.3, 2.1
#: every edge exponent at both edges; None marks a divergent (van Hove) edge
_EDGE_PAIRS = [(0.25, 0.5), (0.5, 1.0), (1.0, 1.5), (1.5, 2.0), (2.0, None), (None, 0.25)]


def _power_density(s_lo, s_up, zeros=(), amp=1.0, wobble=0.3):
    """J(a, b, w, cos) = amp a^s_lo b^s_up (1 + wobble cos w) prod (w-z)^2 from
    a = w - lo and b = up - w, for numpy or mpmath arguments."""

    def density(a, b, w, cos):
        out = amp * a ** (-0.5 if s_lo is None else s_lo) * b ** (-0.5 if s_up is None else s_up)
        out = out * (1 + wobble * cos(w))
        for z in zeros:
            out = out * (w - z) ** 2
        return out

    return density


def _model(density, exps, zeros=(), lo=_LO, up=_UP, level=5.0, coupling=0.3):
    def j(om):
        om = np.asarray(om, dtype=float)
        out = np.zeros_like(om)
        inside = (om > lo) & (om < up)
        w = om[inside]
        out[inside] = density(w - lo, up - w, w, np.cos)
        return out

    exps = tuple(fr.DIVERGENT if s is None else s for s in exps)
    band = fr.ContinuumBand(lo, up, j, edge_exponents=exps, interior_zeros=zeros)
    return fr.validate_model(fr.FriedrichsModel(fr.DiscreteSpectrum([level], [coupling]), band))


def _kernel_reference(density, e, power, zeros=(), lo=_LO, up=_UP):
    """30-digit integral J(w)/(e-w)^power dw in k; w - lo, up - w and e - w
    are formed without cancellation, panels graded toward the pole of e."""
    mpmath.mp.dps = 30
    lo, up, e = mpmath.mpf(lo), mpmath.mpf(up), mpmath.mpf(e)
    span, near_up = up - lo, 2 * e > lo + up

    def f(k):
        a, b = span * mpmath.sin(k / 2) ** 2, span * mpmath.cos(k / 2) ** 2
        jac = density(a, b, lo + a, mpmath.cos) * mpmath.sqrt(a * b)
        return jac / ((e - up) + b if near_up else (e - lo) - a) ** power

    pts = {mpmath.mpf(0), mpmath.pi / 2, mpmath.pi}
    for dist, at in ((lo - e, 0), (e - up, mpmath.pi)):
        x = 2 * mpmath.asinh(mpmath.sqrt(dist / span)) / 16 if dist > 0 else mpmath.pi
        while x < mpmath.pi / 2:
            pts.add(abs(at - x))
            x *= 4
    for p in (*zeros, e):
        if lo < p < up:
            pts.add(2 * mpmath.asin(mpmath.sqrt((p - lo) / span)))
    return float(mpmath.quad(f, sorted(pts)))


def _kernel_error(model, density, e, power, zeros=(), at=None):
    """Relative error of Sigma (power 1) or -Sigma' (power 2) at e against
    the reference at `at` (default e)."""
    got = fr.self_energy(model, e) if power == 1 else -fr.self_energy_derivative(model, e)
    at = e if at is None else at
    ref = _kernel_reference(density, at, power, zeros, model.omega_low, model.omega_up)
    return abs(got - ref) / abs(ref)


#: (power, distance) at which the rule misses its bound next to an edge of
#: exponent 1/4: J is sampled no closer than one ulp to the edge, and there
#: the first ulp of the band carries more than the bound of the integral
#: (Sigma' 1.3e-8 and 3.2e-8 at 1e-10 of the band, 2.4e-7 and 5.7e-7 at
#: 1e-11; Sigma 1.3e-10 and 1.8e-10 at 1e-11), which the rule extrapolates
_QUARTER_POWER_UNRESOLVED = [(1, 1e-11), (2, 1e-11), (2, 1e-10)]


def _kernel_cases(s_lo, s_up, power):
    """(e, reference energy, exponent of the nearer edge, distance in band
    widths): e at 1e-11, 1e-10, 1e-8 and 1e-3 of the band outside each edge
    and two band widths away; where the integral converges on the edge also
    e on it and 1e-13 of the band to either side, which `self_energy` takes
    as the edge (within 1e-12 of the model's scale)."""
    span = _UP - _LO
    cases = []
    for edge, s, sign in ((_LO, s_lo, -1.0), (_UP, s_up, 1.0)):
        if s is not None and s > power - 1.0:
            cases += [(edge + d * span, edge, s, 0.0) for d in (0.0, -1e-13, 1e-13)]
        for d in (1e-11, 1e-10, 1e-8, 1e-3, 2.0):
            if not (s == 0.25 and (power, d) in _QUARTER_POWER_UNRESOLVED):
                cases.append((edge + sign * d * span, None, s, d))
    return cases


@pytest.mark.parametrize("s_lo, s_up", _EDGE_PAIRS)
def test_sigma_matches_mpmath(s_lo, s_up):
    density = _power_density(s_lo, s_up)
    model = _model(density, (s_lo, s_up))
    for e, at, _, _ in _kernel_cases(s_lo, s_up, 1):
        assert _kernel_error(model, density, e, 1, at=at) <= SIGMA_EPSREL, e


@pytest.mark.parametrize("s_lo, s_up", _EDGE_PAIRS)
def test_sigma_derivative_matches_mpmath(s_lo, s_up):
    density = _power_density(s_lo, s_up)
    model = _model(density, (s_lo, s_up))
    for e, at, _, _ in _kernel_cases(s_lo, s_up, 2):
        assert _kernel_error(model, density, e, 2, at=at) <= SIGMA_DERIV_EPSREL, e


@pytest.mark.xfail(strict=True, reason="J cannot be sampled within one ulp of the edge")
@pytest.mark.parametrize("power, dist", _QUARTER_POWER_UNRESOLVED)
@pytest.mark.parametrize("exps", [(0.25, 0.5), (None, 0.25)])
def test_quarter_power_edge_below_resolution(exps, power, dist):
    density = _power_density(*exps)
    model = _model(density, exps)
    span = _UP - _LO
    e = _LO - dist * span if exps[0] == 0.25 else _UP + dist * span
    bound = SIGMA_EPSREL if power == 1 else SIGMA_DERIV_EPSREL
    assert _kernel_error(model, density, e, power) <= bound


@pytest.mark.parametrize("power", [1, 2])
def test_sigma_at_declared_zero(power):
    # J = ... (w - z)^2: Sigma and Sigma' are regular at a declared zero,
    # which the panels do not break at
    zeros = (-0.4, 0.9)
    density = _power_density(0.5, None, zeros)
    model = _model(density, (0.5, None), zeros)
    bound = SIGMA_EPSREL if power == 1 else SIGMA_DERIV_EPSREL
    for z in zeros:
        assert _kernel_error(model, density, z, power, zeros) <= bound, z


def test_solver_root_next_to_divergent_edge():
    # a root 2e-6 of the band below a divergent edge; adaptive quad missed
    # SIGMA_EPSREL there and warned (IntegrationWarning) in the root solve
    lo, up, z = -2.8807903727811937, 2.962954860908671, 0.9386521580331617
    density = _power_density(None, 0.5, (z,), amp=0.0010668399352075043, wobble=0.0)
    coupling = 0.39214142701412713 + 0.22559266453763543j
    model = _model(density, (None, 0.5), (z,), lo, up, 4.265344772371797, coupling)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        states = fr.solve_bound_states(model, fr.count_bound_states(model))
    assert min(abs(s.energy - lo) for s in states) <= 2e-6 * (up - lo)
    for state in states:
        assert _kernel_error(model, density, state.energy, 1, (z,)) <= SIGMA_EPSREL, state.energy


# ---------------------------------------------------------------------------
# the band's rule a model forms once, for Sigma and Sigma' at every energy

_FAR_ZEROS = (-0.4, 0.9)


def _far_field_model(counter=None):
    density = _power_density(0.5, None, _FAR_ZEROS)
    model = _model(density, (0.5, None), _FAR_ZEROS)
    if counter is None:
        return model
    plain = model.continuum.spectral_density

    def counted(om):
        counter.append(np.size(om))
        return plain(om)

    band = fr.ContinuumBand(_LO, _UP, counted, model.continuum.edge_exponents, _FAR_ZEROS)
    return fr.validate_model(fr.FriedrichsModel(model.discrete, band))


def test_far_field_calls_read_j_once():
    reads = []
    model = _far_field_model(reads)
    reads.clear()  # validation samples J
    span = _UP - _LO
    far = [_LO - 0.02 * span, _LO - 3.0 * span, _UP + 0.5 * span, *_FAR_ZEROS]
    for e in far * 3:
        fr.self_energy(model, e)
        fr.self_energy_derivative(model, e)
    assert len(reads) == 1
    # next to an edge the same rule serves: no J read at all
    for d in (1e-3, 1e-8):
        for e in (_LO - d * span, _UP + d * span):
            fr.self_energy(model, e)
            fr.self_energy_derivative(model, e)
    assert len(reads) == 1


@given(
    st.sampled_from(["low", "up", "zero"]),
    st.floats(-11.0, 2.0),
    st.integers(0, 1),
    st.sampled_from([1, 2]),
)
@settings(max_examples=60, deadline=None)
def test_far_field_rule_matches_a_fresh_model(where, exponent, zero, power):
    # e outside the band at span * 10**exponent from an edge, or on a J-zero
    span = _UP - _LO
    e = {"low": _LO - span * 10**exponent, "up": _UP + span * 10**exponent}.get(
        where, _FAR_ZEROS[zero]
    )

    def kernel(model, x):
        return fr.self_energy(model, x) if power == 1 else fr.self_energy_derivative(model, x)

    used = _far_field_model()
    for x in (_LO - 2.0 * span, _UP + 0.1 * span, *_FAR_ZEROS):
        kernel(used, x)
    fresh = _far_field_model()
    got = kernel(used, e)
    assert got == kernel(fresh, e)
    built, _ = qd.kernel_integral(used.j, _LO, _UP, e, power)
    assert got == (built if power == 1 else -built)
