import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import friedrichs as fr
from friedrichs import bound_states as bs
from friedrichs.bound_states import BoundStateKind
from friedrichs.cli import model_from_doc

from _support import census_bruteforce, census_margin, random_model


def test_single_far_level_weak_coupling():
    # decoupled limit: the root stays within 1% of the bare level
    lo, up = 0.0, 1.0
    eps = lo - 10.0 * (up - lo)

    def j(om):
        om = np.asarray(om, dtype=float)
        out = np.zeros_like(om)
        inside = (om > lo) & (om < up)
        out[inside] = 0.02 * (om[inside] - lo) * (up - om[inside])
        return out

    m = fr.validate_model(
        fr.FriedrichsModel(
            discrete=fr.DiscreteSpectrum(np.array([eps]), np.array([0.05])),
            continuum=fr.ContinuumBand(lo, up, j, edge_exponents=(1.0, 1.0)),
        )
    )
    states = fr.solve_bound_states(m)
    assert len(states) == 1
    assert states[0].kind is BoundStateKind.BELOW_BAND
    assert abs(states[0].energy - eps) < 0.01 * abs(eps)


def test_waveguide_infinite_two_symmetric_roots():
    params = fr.WaveguideParams(3, 1.0, 0.75, 0.25, fr.INFINITE)
    m = fr.build_waveguide_model(params)
    states = fr.solve_bound_states(m)
    assert len(states) == 2
    assert states[0].energy == pytest.approx(-states[1].energy, rel=1e-12)
    assert states[0].energy < -1.5 < 1.5 < states[1].energy


def test_plugback_residual():
    rng = np.random.default_rng(101)
    checked = 0
    for _ in range(12):
        m = random_model(rng, n_max=4)
        for state in fr.solve_bound_states(m):
            assert fr.residual(m, state) < 1e-10
            checked += 1
    assert checked >= 5


def test_census_equals_solved_count():
    rng = np.random.default_rng(57)
    for _ in range(15):
        m = random_model(rng, n_max=4)
        census = fr.count_bound_states(m)
        states = fr.solve_bound_states(m, census)
        assert len(states) == census.m_below + census.m_above


def test_census_against_bruteforce_scan():
    rng = np.random.default_rng(7)
    done = 0
    while done < 12:
        m = random_model(rng, n_max=4)
        if census_margin(m) < 1e-2:
            continue
        census = fr.count_bound_states(m)
        below, above = census_bruteforce(m, n_grid=40_000)
        assert (census.m_below, census.m_above) == (below, above)
        done += 1


def test_interlacing_below_band():
    rng = np.random.default_rng(31)
    for _ in range(10):
        m = random_model(rng, n_max=4)
        census = fr.count_bound_states(m)
        states = fr.solve_bound_states(m, census)
        below = [s.energy for s in states if s.kind is BoundStateKind.BELOW_BAND]
        poles = [e for e in m.levels if e < m.omega_low]
        # at most one root per monotone branch segment
        bounds = [-np.inf] + poles + [m.omega_low]
        for a, b in zip(bounds[:-1], bounds[1:]):
            assert sum(1 for e in below if a < e < b) <= 1


def test_zero_coupling_limit_monotone():
    params = fr.WaveguideParams(3, 1.0, 0.75, 1.0, fr.INFINITE)
    gaps = []
    for s in (1.0, 0.5, 0.25, 0.125):
        scaled = fr.WaveguideParams(3, 1.0, 0.75, 1.0 * s, fr.INFINITE)
        m = fr.build_waveguide_model(scaled)
        states = fr.solve_bound_states(m)
        e_above = max(st.energy for st in states)
        gaps.append(e_above - 1.5)  # distance to the band edge it collapses onto
    assert all(g > 0 for g in gaps)
    assert all(b < a for a, b in zip(gaps[:-1], gaps[1:]))


def test_total_norm_unity():
    rng = np.random.default_rng(201)
    checked = 0
    for _ in range(8):
        m = random_model(rng, n_max=3)
        for state in fr.solve_bound_states(m):
            assert fr.total_norm(m, state) == pytest.approx(1.0, abs=1e-6)
            checked += 1
    params = fr.WaveguideParams(3, 1.0, 0.75, 0.25, 2)
    m2 = fr.build_waveguide_model(params)
    for state in fr.find_bics(m2):
        assert fr.total_norm(m2, state) == pytest.approx(1.0, abs=1e-6)
        checked += 1
    assert checked >= 3


def test_bic_special_case_zero_energy():
    params = fr.WaveguideParams(3, 1.0, 0.75, 0.25, 2)
    m = fr.build_waveguide_model(params)
    bics = fr.find_bics(m)
    assert len(bics) == 1
    bic = bics[0]
    assert bic.kind is BoundStateKind.IN_CONTINUUM
    assert bic.energy == pytest.approx(0.0, abs=1e-12)
    assert bic.level_index == 1
    f2 = abs(m.couplings[1]) ** 2
    sigp = fr.self_energy_derivative(m, 0.0)
    assert bic.norm_b2 == pytest.approx(1.0 / (1.0 - f2 * sigp), rel=1e-12)
    # amplitudes live on the pinned level only
    assert abs(bic.amplitudes[0]) == 0 and abs(bic.amplitudes[2]) == 0


def test_all_levels_become_bics_at_matched_hopping():
    params = fr.WaveguideParams(3, 1.0, 1.0, 0.4, 4)
    m = fr.build_waveguide_model(params)
    bics = fr.find_bics(m)
    assert len(bics) == 3
    assert np.allclose(sorted(s.energy for s in bics), m.levels, atol=1e-12)


def test_no_bics_without_interior_zeros():
    params = fr.WaveguideParams(3, 1.0, 0.75, 0.25, 1)
    m = fr.build_waveguide_model(params)
    assert fr.find_bics(m) == []


def test_generic_bic_at_declared_zero():
    # tune a single level against a quadratic J-zero so K(e0) = 1/Sigma(e0)
    lo, up, z0 = -1.0, 1.0, 0.2

    def j(om):
        om = np.asarray(om, dtype=float)
        out = np.zeros_like(om)
        inside = (om > lo) & (om < up)
        out[inside] = 0.15 * (om[inside] - lo) * (up - om[inside]) * (om[inside] - z0) ** 2
        return out

    def build(eps):
        return fr.validate_model(
            fr.FriedrichsModel(
                discrete=fr.DiscreteSpectrum(np.array([eps]), np.array([0.4])),
                continuum=fr.ContinuumBand(
                    lo, up, j, edge_exponents=(1.0, 1.0), interior_zeros=(z0,)
                ),
            )
        )

    sig0 = fr.self_energy(build(-0.5), z0)  # independent of eps
    eps_star = z0 - 0.16 * sig0  # K(z0) = |f|^2/(z0-eps) = 1/Sigma(z0)
    m = build(eps_star)
    bics = fr.find_bics(m)
    assert len(bics) == 1
    assert bics[0].energy == pytest.approx(z0)
    assert bics[0].level_index is None
    assert fr.total_norm(m, bics[0]) == pytest.approx(1.0, abs=1e-6)
    # detuned level: no BIC
    assert fr.find_bics(build(eps_star + 0.05)) == []


def test_census_counts_shifted_band():
    # three levels below a high band: all three appear as bound states
    lo, up = 5.0, 7.0

    def j(om):
        om = np.asarray(om, dtype=float)
        out = np.zeros_like(om)
        inside = (om > lo) & (om < up)
        out[inside] = 0.05 * (om[inside] - lo) * (up - om[inside])
        return out

    m = fr.validate_model(
        fr.FriedrichsModel(
            discrete=fr.DiscreteSpectrum(
                np.array([-1.0, 0.0, 1.0]), np.array([0.3, 0.2, 0.25])
            ),
            continuum=fr.ContinuumBand(lo, up, j, edge_exponents=(1.0, 1.0)),
        )
    )
    census = fr.count_bound_states(m)
    assert census.n_low == 3 and census.n_up == 0
    states = fr.solve_bound_states(m, census)
    assert len(states) == census.m_below + census.m_above >= 3


def assert_census_zero_is_k_zero(m):
    """Each edge's K-zero boundary is the zero k_zeros gives for that gap."""
    zeros = fr.k_zeros(m)
    trace = fr.count_bound_states(m).criteria_trace
    for side in ("low", "up"):
        tr = trace[side]
        n_side = tr["n_side"]
        if not 1 <= n_side <= m.n_levels - 1:
            assert tr["k_zero_boundary"] is None and tr["energy_ok"]
            continue
        j = n_side - 1 if side == "low" else m.n_levels - 1 - n_side
        assert tr["k_zero_boundary"] == zeros[j]
        assert m.levels[j] < zeros[j] < m.levels[j + 1]
        assert tr["energy_ok"] == (tr["edge"] > zeros[j] if side == "low" else tr["edge"] < zeros[j])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_census_zero_is_k_zero_random(seed):
    assert_census_zero_is_k_zero(random_model(np.random.default_rng(seed), n_max=4))


@pytest.mark.parametrize("n_atoms", [2, 5, 10])
@pytest.mark.parametrize("kappa", [0.3, 0.8])
def test_census_zero_is_k_zero_waveguide(n_atoms, kappa):
    for site in (3, fr.INFINITE):
        params = fr.WaveguideParams(n_atoms, 1.0, kappa, 0.5, site)
        assert_census_zero_is_k_zero(fr.build_waveguide_model(params))


# ---------------------------------------------------------------------------
# the one outward walk: carried bracket values and mirror symmetry

EDGE_CLASSES = (0.5, 1.0, 2.0, "divergent")


def power_edges_doc(rng) -> dict:
    """A random CLI power_edges document, divergent (van Hove) edges included."""
    n = int(rng.integers(1, 5))
    while True:
        levels = np.sort(rng.uniform(-3.4, 3.4, n))
        if n == 1 or np.min(np.diff(levels)) > 0.3:
            break
    lo, up = float(rng.uniform(-3.0, -1.0)), float(rng.uniform(1.0, 3.0))
    s_low, s_up = (EDGE_CLASSES[int(i)] for i in rng.integers(4, size=2))
    a, b = (-0.5 if s == "divergent" else s for s in (s_low, s_up))
    # amplitude for a band mass in (0.05, 0.25), the J-zero factor aside
    log_mass = (a + b + 1) * math.log(up - lo) + math.lgamma(a + 1) + math.lgamma(b + 1)
    log_mass -= math.lgamma(a + b + 2)
    zeros = [float(rng.uniform(lo + 0.3 * (up - lo), up - 0.3 * (up - lo)))] * int(
        rng.integers(2)
    )
    couplings = rng.uniform(0.15, 0.5, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    return {
        "kind": "generic",
        "levels": [float(e) for e in levels],
        "couplings": [[float(c.real), float(c.imag)] for c in couplings],
        "band": [lo, up],
        "spectral_density": {
            "form": "power_edges",
            "amplitude": float(rng.uniform(0.05, 0.25)) * math.exp(-log_mass),
            "s_low": s_low,
            "s_up": s_up,
            "zeros": zeros,
        },
    }


def mirrored_doc(doc: dict) -> dict:
    """The document of the reflected model E -> -E: J(w) -> J(-w)."""
    lo, up = doc["band"]
    spec = doc["spectral_density"]
    return dict(
        doc,
        levels=[-e for e in reversed(doc["levels"])],
        couplings=list(reversed(doc["couplings"])),
        band=[-up, -lo],
        spectral_density=dict(
            spec, s_low=spec["s_up"], s_up=spec["s_low"], zeros=[-z for z in spec["zeros"]]
        ),
    )


def assert_brackets_carry_exact_values(m):
    census = fr.count_bound_states(m)
    for side, sgn, want in (("low", -1, census.m_below), ("up", +1, census.m_above)):
        brackets = bs._brackets_one_side(m, census.criteria_trace[side], sgn)
        assert len(brackets) == want
        for (a, fa), (b, fb) in brackets:
            assert a < b
            assert fa == bs._mismatch(m, a)
            assert fb == bs._mismatch(m, b)
            assert fa > 0 > fb


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_bracket_values_exact_random(seed):
    model, _, _ = model_from_doc(power_edges_doc(np.random.default_rng(seed)))
    assert_brackets_carry_exact_values(model)


@pytest.mark.parametrize("kappa", [0.99, 1.0, 1.01])
@pytest.mark.parametrize("n_atoms", [1, 2, 5, 10])
def test_bracket_values_exact_waveguide(n_atoms, kappa):
    for xi in (0.01, 0.5, 1.5, 3.0):
        for site in (1, 2, 5, fr.INFINITE):
            params = fr.WaveguideParams(n_atoms, 1.0, kappa, xi, site)
            assert_brackets_carry_exact_values(fr.build_waveguide_model(params))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_mirror_symmetry(seed):
    doc = power_edges_doc(np.random.default_rng(seed))
    m, _, _ = model_from_doc(doc)
    r, _, _ = model_from_doc(mirrored_doc(doc))
    if min(census_margin(m), census_margin(r)) < 1e-9:
        return
    cm, cr = fr.count_bound_states(m), fr.count_bound_states(r)
    assert (cr.m_below, cr.m_above) == (cm.m_above, cm.m_below)
    em = [s.energy for s in fr.solve_bound_states(m, cm)]
    er = [-s.energy for s in reversed(fr.solve_bound_states(r, cr))]
    assert len(em) == len(er)
    assert np.allclose(em, er, rtol=0.0, atol=1e-12 * m.scale)
