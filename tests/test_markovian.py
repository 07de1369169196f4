import math

import numpy as np
import pytest
import scipy.linalg

import friedrichs as fr
from friedrichs import markovian as mk
from friedrichs.errors import ConfigError, ExceptionalPoint, NegativeGamma

from _support import norm_products, p_from_components, random_initial

LAM, KAP = 1.0, 4.0
GAMMA = 1.0 / (2 * KAP)  # pi * J(0) of the infinite waveguide


def two_atom(xi):
    params = fr.WaveguideParams(2, LAM, KAP, xi, fr.INFINITE)
    model = fr.build_waveguide_model(params)
    return params, model, fr.build_markovian(model, GAMMA)


def flat_model(levels, couplings, gamma):
    return fr.validate_model(
        fr.FriedrichsModel(
            discrete=fr.DiscreteSpectrum(np.asarray(levels, float), np.asarray(couplings)),
            continuum=fr.ContinuumBand(
                -100.0,
                100.0,
                lambda om: np.full_like(np.asarray(om, dtype=float), gamma / math.pi),
            ),
        )
    )


def random_markovian(rng, n_max=5):
    n = int(rng.integers(2, n_max + 1))
    while True:
        levels = np.sort(rng.uniform(-2, 2, n))
        if np.min(np.diff(levels)) > 0.2:
            break
    couplings = rng.uniform(0.2, 0.7, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    gamma = float(rng.uniform(0.05, 0.6))
    model = flat_model(levels, couplings, gamma)
    return fr.build_markovian(model, gamma)


def test_two_atom_matrix_entries():
    _, _, h = two_atom(2.0)
    a = 2.0**2 / (4 * KAP)
    expected = np.array([[-LAM - 1j * a, -1j * a], [-1j * a, LAM - 1j * a]])
    assert np.allclose(h.matrix, expected, atol=1e-14)


def test_zero_gamma_diagonal():
    params = fr.WaveguideParams(2, LAM, KAP, 2.0, fr.INFINITE)
    model = fr.build_waveguide_model(params)
    h = fr.build_markovian(model, 0.0)
    assert np.allclose(h.matrix, np.diag(model.levels), atol=0)


def test_negative_gamma_rejected():
    params = fr.WaveguideParams(2, LAM, KAP, 2.0, fr.INFINITE)
    model = fr.build_waveguide_model(params)
    with pytest.raises(NegativeGamma):
        fr.build_markovian(model, -0.1)


@pytest.mark.parametrize("gamma", [math.nan, math.inf])
def test_non_finite_gamma_rejected(gamma):
    # NaN passed gamma < 0 and ended in a singular matrix
    _, model, _ = two_atom(2.0)
    with pytest.raises(ConfigError, match=f"gamma={gamma}"):
        fr.build_markovian(model, gamma)


@pytest.mark.parametrize("times, method, named", [
    ([0.0, math.nan], "closed", "nan"),
    ([0.0, math.inf], "expm", "inf"),
    ([0.0, 1.0], "foo", "'foo'"),
    ([0.0, -5.0], "closed", "non-negative"),
    ([1.0, -1e-3, 0.5], "expm", "non-negative"),
])
def test_markovian_survival_rejects_bad_input(times, method, named):
    params, _, h = two_atom(2.0)
    with pytest.raises(ConfigError, match=named):
        fr.markovian_survival(h, fr.default_initial_state(params), times, method=method)


def test_anti_hermitian_part_negative_semidefinite():
    rng = np.random.default_rng(5)
    h = random_markovian(rng)
    anti = (h.matrix - h.matrix.conj().T) / (2j)
    evals = np.linalg.eigvalsh(anti)
    assert np.all(evals <= 1e-14)


def test_eigenvalue_formula_symmetric_phase():
    _, model, h = two_atom(2.0)
    sys = fr.resonance_decomposition(h)
    a = 2.0**2 / (4 * KAP)
    expected = math.sqrt(LAM**2 - a**2)
    assert sys.eigenvalues[0] == pytest.approx(-expected - 1j * a, abs=1e-13)
    assert sys.eigenvalues[1] == pytest.approx(expected - 1j * a, abs=1e-13)
    # c-product normalization against K'
    for z, vw in zip(sys.eigenvalues, norm_products(h, sys)):
        assert vw == pytest.approx(-1.0 / fr.k_derivative(model, z), rel=1e-8)


def test_biorthogonality():
    rng = np.random.default_rng(11)
    h = random_markovian(rng)
    sys = fr.resonance_decomposition(h)
    assert sys.kind is fr.ResonanceKind.DIAGONALIZABLE
    gram = sys.left @ sys.right
    assert np.allclose(gram, np.eye(h.n), atol=1e-10)
    for z, vw in zip(sys.eigenvalues, norm_products(h, sys)):
        model = flat_model(h.levels, h.couplings, h.gamma)
        assert vw == pytest.approx(-1.0 / fr.k_derivative(model, z), rel=1e-8)


def test_trace_sum_rule_and_dissipativity():
    rng = np.random.default_rng(13)
    for _ in range(10):
        h = random_markovian(rng)
        sys = fr.resonance_decomposition(h)
        expected = np.sum(h.levels) - 1j * h.gamma * np.sum(np.abs(h.couplings) ** 2)
        assert np.sum(sys.eigenvalues) == pytest.approx(expected, rel=1e-10)
        assert np.all(sys.eigenvalues.imag <= 1e-12)


def test_exceptional_point_detection_and_state():
    _, _, h = two_atom(4.0)
    sys = fr.resonance_decomposition(h)
    assert sys.kind is fr.ResonanceKind.DEFECTIVE
    assert len(sys.blocks) == 1
    blk = sys.blocks[0]
    assert blk.eigenvalue == pytest.approx(-1j * LAM, abs=1e-13)
    v1 = blk.vectors[:, 0]
    target = np.array([-1j, 1.0]) / math.sqrt(2)
    assert abs(np.vdot(v1, target)) == pytest.approx(1.0, abs=1e-12)
    # chain property: (H - z_d) v2 = v1
    a = h.matrix - blk.eigenvalue * np.eye(2)
    assert np.allclose(a @ blk.vectors[:, 1], v1, atol=1e-8)
    assert np.allclose(a @ v1, 0.0, atol=1e-14)


def test_ep_decay_power_law_exponential():
    params, _, h = two_atom(4.0)
    c0 = fr.default_initial_state(params)
    t = np.linspace(0.0, 12.0, 241)
    closed = fr.markovian_survival(h, c0, t)
    formula = (2 * LAM**2 * t**2 + 2 * LAM * t + 1) * np.exp(-2 * LAM * t)
    assert np.max(np.abs(closed.p - formula)) < 1e-12
    direct = fr.markovian_survival(h, c0, t, method="expm")
    assert np.max(np.abs(closed.p - direct.p)) < 1e-10


def test_decay_components_refuse_exceptional_point():
    params, _, h = two_atom(4.0)
    with pytest.raises(ExceptionalPoint, match="coalesced eigenvalue"):
        fr.decay_components(h, fr.default_initial_state(params))


def test_decay_components_decoupled_level():
    # the level at 0.5 is decoupled: it keeps its weight, the other decays alone
    h = fr.build_markovian(flat_model([-0.5, 0.5], [0.4, 0.0], 0.3), 0.3)
    c0 = fr.InitialState.normalized(np.array([1.0, 1.0]))
    z, d, g = fr.decay_components(h, c0)
    assert np.allclose(d, [0.5, 0.5], rtol=0, atol=1e-15)
    t = np.linspace(0.0, 10.0, 41)
    direct = fr.markovian_survival(h, c0, t, method="expm").p
    assert np.max(np.abs(p_from_components(z, d, g, t) - direct)) < 1e-13


def test_eigenbasis_amplitudes_are_the_residues():
    # A[i, n] = right[n, i] (left @ c0)[i] equals the paper's residue
    # -I(z_i) f_n / (K'(z_i)(z_i - eps_n)), I(z) = sum_n f_n^* c_n/(z - eps_n)
    rng = np.random.default_rng(37)
    for _ in range(20):
        h = random_markovian(rng, n_max=8)
        c0 = random_initial(rng, h.n).amplitudes
        sys = fr.resonance_decomposition(h)
        amp = sys.right.T * (sys.left @ c0)[:, None]
        d = sys.eigenvalues[:, None] - h.levels[None, :]
        i_val = np.sum(np.conj(h.couplings) * c0 / d, axis=1)
        k_prime = -np.sum(np.abs(h.couplings) ** 2 / d**2, axis=1)
        residue = -i_val[:, None] * h.couplings / (k_prime[:, None] * d)
        assert np.max(np.abs(residue - amp)) <= 1e-10 * np.max(np.abs(amp))


def test_closed_matches_expm_long_waveguide():
    # long chain with Gamma = 1/(2 kappa) = 5: the widest closed-vs-expm gap on
    # the waveguide grid of the param-sweep benchmark
    params = fr.WaveguideParams(40, LAM, 0.1, 0.01, 1)
    h = fr.build_markovian(fr.build_waveguide_model(params), 1.0 / (2 * 0.1))
    rng = np.random.default_rng(41)
    t = np.linspace(0.0, 10.0, 21)
    for _ in range(4):
        c0 = random_initial(rng, h.n)
        closed = fr.markovian_survival(h, c0, t)
        direct = fr.markovian_survival(h, c0, t, method="expm")
        assert closed.meta["method"] == "closed-diagonalizable"
        assert np.max(np.abs(closed.p - direct.p)) <= 1e-13


def test_hermitian_limit_survival_constant():
    params = fr.WaveguideParams(2, LAM, KAP, 2.0, fr.INFINITE)
    model = fr.build_waveguide_model(params)
    h = fr.build_markovian(model, 0.0)
    c0 = fr.default_initial_state(params)
    t = np.linspace(0.0, 25.0, 101)
    s = fr.markovian_survival(h, c0, t)
    assert np.max(np.abs(s.p - 1.0)) < 1e-12


def test_broken_phase_double_exponential():
    params, _, h = two_atom(6.0)
    sys = fr.resonance_decomposition(h)
    assert np.max(np.abs(sys.eigenvalues.real)) < 1e-12
    c0 = fr.default_initial_state(params)
    t = np.linspace(0.0, 8.0, 161)
    z, d, g = fr.decay_components(h, c0)
    # zero beat frequency: the cross term does not oscillate
    assert abs(z[0].real - z[1].real) < 1e-12
    closed = fr.markovian_survival(h, c0, t)
    direct = fr.markovian_survival(h, c0, t, method="expm")
    assert np.max(np.abs(closed.p - direct.p)) < 1e-11


def test_closed_form_matches_expm_random():
    rng = np.random.default_rng(23)
    t = np.linspace(0.0, 12.0, 50)
    for _ in range(8):
        h = random_markovian(rng)
        c0 = random_initial(rng, h.n)
        closed = fr.markovian_survival(h, c0, t)
        direct = fr.markovian_survival(h, c0, t, method="expm")
        assert np.max(np.abs(closed.p - direct.p)) < 1e-9
        # the weight/beat regrouping is the same law
        z, d, g = fr.decay_components(h, c0)
        regrouped = p_from_components(z, d, g, t)
        assert np.max(np.abs(regrouped - direct.p)) < 1e-9


EXPM_GRIDS = {
    "uniform": np.linspace(0.0, 10.0, 21),
    "jittered": np.linspace(0.0, 10.0, 21)
    + np.r_[0.0, np.random.default_rng(7).uniform(-0.2, 0.2, 20)],
    "unsorted-repeated": np.array([3.0, 0.5, 7.25, 0.5, 0.0, 10.0, 3.0, 1e-3]),
    "zero": np.array([0.0]),
}


def expm_cases():
    rng = np.random.default_rng(29)
    for _ in range(3):
        h = random_markovian(rng)
        yield h, random_initial(rng, h.n)
    params, _, h = two_atom(4.0)  # exceptional point: H is defective
    yield h, fr.default_initial_state(params)


@pytest.mark.parametrize("grid", sorted(EXPM_GRIDS))
def test_expm_reference_matches_per_time_expm(grid):
    t = EXPM_GRIDS[grid]
    for h, c0 in expm_cases():
        p = fr.markovian_survival(h, c0, t, method="expm").p
        ref = [
            np.sum(np.abs(scipy.linalg.expm(-1j * h.matrix * ti) @ c0.amplitudes) ** 2)
            for ti in t
        ]
        assert p.shape == t.shape
        assert np.max(np.abs(p - ref)) <= 1e-12


def test_expm_reference_independent_of_decomposition(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the expm reference decomposed H")

    monkeypatch.setattr(mk, "resonance_decomposition", refuse)
    for h, c0 in expm_cases():
        p = fr.markovian_survival(h, c0, EXPM_GRIDS["uniform"], method="expm").p
        assert np.all(np.isfinite(p)) and p[0] == pytest.approx(1.0, abs=1e-14)


def test_closed_survival_decomposes_once(monkeypatch):
    rng = np.random.default_rng(31)
    t = np.linspace(0.0, 10.0, 21)
    for _ in range(3):
        h = random_markovian(rng)
        c0 = random_initial(rng, h.n)
        system = fr.resonance_decomposition(h)
        calls = []
        real = mk.resonance_decomposition
        monkeypatch.setattr(
            mk, "resonance_decomposition", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        given = fr.markovian_survival(h, c0, t, system=system)
        assert len(calls) == 0
        own = fr.markovian_survival(h, c0, t)
        assert len(calls) == 1
        monkeypatch.undo()
        assert given.meta["method"] == own.meta["method"] == "closed-diagonalizable"
        assert np.array_equal(given.p, own.p)


def test_long_time_slope():
    # clear width separation so the subleading resonances are gone by t ~ 54
    h = fr.build_markovian(
        flat_model([-1.0, 0.4, 1.3], [0.9, 0.2, 0.5], 0.4), 0.4
    )
    sys = fr.resonance_decomposition(h)
    assert sys.eigenvalues[1].imag - sys.eigenvalues[0].imag < -0.05
    c0 = fr.InitialState.normalized(np.array([0.4, 1.0, 0.6]))
    t = np.linspace(54.0, 60.0, 200)
    p = fr.markovian_survival(h, c0, t).p
    slope = np.polyfit(t, np.log(p), 1)[0]
    assert slope == pytest.approx(2 * sys.eigenvalues[0].imag, rel=0.05)


def test_defective_branch_continuous_at_near_ep():
    # gap about 10x the detection threshold: both branches nearly coincide.
    # a = 1 - 2^-47 keeps lam^2 - a^2 (and hence the eigenvalue splitting)
    # exactly representable, so the test probes the branch logic rather than
    # float cancellation in the matrix entries themselves.
    a = 1.0 - 2.0**-47
    gap = 2.0 * math.sqrt(LAM**2 - a * a)
    matrix = np.array([[-LAM - 1j * a, -1j * a], [-1j * a, LAM - 1j * a]])
    h = mk.EffectiveHamiltonianMarkov(
        matrix=matrix,
        gamma=GAMMA,
        levels=np.array([-LAM, LAM]),
        couplings=np.array([math.sqrt(a / GAMMA / 2)] * 2, dtype=complex),
    )
    norm = float(np.linalg.norm(matrix, 2))
    assert gap == pytest.approx(10.0 * mk.EP_GAP_FACTOR * norm, rel=0.05)
    sys = fr.resonance_decomposition(h)
    assert sys.kind is fr.ResonanceKind.DIAGONALIZABLE
    c0 = fr.InitialState.normalized(np.array([1.0, -1.0]))
    t = np.linspace(0.0, 6.0, 61)
    diag = fr.markovian_survival(h, c0, t).p
    forced = mk._defective_amplitudes(
        h, mk.ResonanceSystem(
            kind=fr.ResonanceKind.DEFECTIVE,
            eigenvalues=sys.eigenvalues,
            blocks=mk._jordan_blocks(h.matrix, sys.eigenvalues, 10 * gap),
        ),
        c0.amplitudes,
        t,
    )
    p_forced = np.sum(np.abs(forced) ** 2, axis=0)
    assert np.max(np.abs(diag - p_forced)) < 1e-5
    expm = fr.markovian_survival(h, c0, t, method="expm").p
    assert np.max(np.abs(diag - expm)) < 1e-6
    assert np.max(np.abs(p_forced - expm)) < 1e-6


def test_anti_pt_phases():
    for xi, phase in ((2.0, "symmetric"), (4.0, "exceptional"), (6.0, "broken")):
        _, _, h = two_atom(xi)
        rep = fr.anti_pt_check(h)
        assert rep.is_anti_pt
        assert rep.residual < 1e-14
        assert rep.phase == phase
    # symmetric phase satisfies z1* = -z2
    _, _, h = two_atom(2.0)
    sys = fr.resonance_decomposition(h)
    assert np.conj(sys.eigenvalues[0]) == pytest.approx(-sys.eigenvalues[1], abs=1e-13)


def test_anti_pt_holds_for_larger_chains():
    for n_atoms in (3, 4, 5):
        params = fr.WaveguideParams(n_atoms, LAM, KAP, 1.5, fr.INFINITE)
        h = fr.build_markovian(fr.build_waveguide_model(params), GAMMA)
        rep = fr.anti_pt_check(h)
        assert rep.is_anti_pt


def _loop_is_defective(h, ep_gap_factor):
    """The EP decision as a double loop over eigenvalue pairs against the
    2-norm: the reference of the vectorized gap and the deferred SVD."""
    mat = h.matrix
    n = mat.shape[0]
    z, vecs = mk._eig2(mat) if n == 2 else scipy.linalg.eig(mat)
    gap_tol = ep_gap_factor * max(float(np.linalg.norm(mat, 2)), 1e-300)
    min_gap = min(abs(z[i] - z[j]) for i in range(n) for j in range(i))
    if not min_gap < gap_tol:
        return False
    cond = np.linalg.cond(vecs)
    return (not np.isfinite(cond)) or cond > mk.EP_COND


def test_ep_decision_matches_loop_reference(monkeypatch):
    rng = np.random.default_rng(11)
    cases = [random_markovian(rng) for _ in range(6)] + [two_atom(4.0)[2]]
    params = fr.WaveguideParams(40, LAM, 1.01, 0.5, fr.INFINITE)
    cases.append(fr.build_markovian(fr.build_waveguide_model(params), GAMMA))
    two_norms = []
    norm = np.linalg.norm

    def counted(x, ord=None, *args, **kwargs):
        if ord == 2:
            two_norms.append(1)
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    for h in cases:
        z = scipy.linalg.eigvals(h.matrix)
        gap = min(abs(a - b) for i, a in enumerate(z) for b in z[:i])
        # the default, and factors that put the gap just either side of the
        # Frobenius and the 2-norm thresholds
        factors = [mk.EP_GAP_FACTOR]
        for size in (norm(h.matrix), norm(h.matrix, 2)):
            factors += [gap / size * (1 - 1e-9), gap / size * (1 + 1e-9)]
        for factor in factors:
            with monkeypatch.context() as m:
                m.setattr(mk, "EP_GAP_FACTOR", factor)
                got = fr.resonance_decomposition(h).kind
            want = _loop_is_defective(h, factor)
            assert (got is fr.ResonanceKind.DEFECTIVE) == want
    two_norms.clear()
    for h in cases[:-2]:  # well-separated random spectra need no SVD
        fr.resonance_decomposition(h)
    assert not two_norms
