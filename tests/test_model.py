import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import friedrichs as fr
from friedrichs.errors import (
    ConfigError,
    DegenerateLevels,
    EmptyBand,
    NegativeSpectralDensity,
    UnnormalizedInitialState,
)

from _support import random_model


def smooth_j(om):
    om = np.asarray(om, dtype=float)
    out = np.zeros_like(om)
    inside = (om > -1.5) & (om < 1.5)
    out[inside] = (1.5 - om[inside]) * (om[inside] + 1.5)
    return out


def make_model(levels=(-1.0, 1.0), couplings=(0.3, 0.3)):
    return fr.FriedrichsModel(
        discrete=fr.DiscreteSpectrum(np.array(levels), np.array(couplings)),
        continuum=fr.ContinuumBand(-1.5, 1.5, smooth_j, edge_exponents=(1.0, 1.0)),
    )


def test_well_formed_model_accepted():
    m = fr.validate_model(make_model())
    assert m.n_levels == 2
    assert m.omega_low == -1.5 and m.omega_up == 1.5


def test_degenerate_levels_rejected():
    with pytest.raises(DegenerateLevels):
        make_model(levels=(0.0, 0.0))


def test_unsorted_levels_rejected():
    with pytest.raises(DegenerateLevels):
        make_model(levels=(1.0, -1.0))


def test_unnormalized_initial_rejected():
    with pytest.raises(UnnormalizedInitialState):
        fr.InitialState(np.array([1.0, 1.0]))


@pytest.mark.parametrize("levels, couplings, named", [
    ((-2.0, np.nan), (0.3, 0.3), "level 1 is nan"),
    ((-np.inf, 1.0), (0.3, 0.3), "level 0 is -inf"),
    ((-2.0, 1.0), (0.3, np.inf), "coupling 1 is (inf+0j)"),
    ((-2.0, 1.0), (complex(0.3, np.nan), 0.3), "coupling 0 is (0.3+nanj)"),
])
def test_non_finite_levels_and_couplings_rejected(levels, couplings, named):
    # a NaN level used to hang the census's K-zero search, and a non-finite
    # coupling to end in a PoleHit
    with pytest.raises(ConfigError, match=re.escape(named)):
        make_model(levels=levels, couplings=couplings)


@pytest.mark.parametrize("amplitudes", [(np.nan, 1.0), (np.nan, np.nan), (np.inf, 0.0)])
def test_non_finite_initial_amplitudes_rejected(amplitudes):
    with pytest.raises(UnnormalizedInitialState):
        fr.InitialState(np.array(amplitudes))


def test_empty_band_rejected():
    with pytest.raises(EmptyBand):
        fr.ContinuumBand(1.5, -1.5, smooth_j)


@pytest.mark.parametrize(
    "lo, up, error, named",
    [
        (-np.inf, 1.0, ConfigError, "omega_low=-inf"),
        (-1.0, np.inf, ConfigError, "omega_up=inf"),
        (-np.inf, np.inf, ConfigError, "omega_low=-inf, omega_up=inf"),
        (np.nan, 1.0, EmptyBand, "omega_low=nan"),
    ],
)
def test_non_finite_band_edge_rejected(lo, up, error, named):
    with pytest.raises(error, match=re.escape(named)):
        fr.ContinuumBand(lo, up, smooth_j)


@pytest.mark.parametrize(
    "exponents, named",
    [((0.0, 1.0), "0.0 at omega_low=-1.5"), ((1.0, -1.0), "-1.0 at omega_up=1.5"),
     ((1.0, float("nan")), "nan at omega_up=1.5"), (("divergent", 1.0), "'divergent'")],
)
def test_non_positive_edge_exponent_rejected(exponents, named):
    # s = 0 (J finite at the edge) makes Sigma diverge there, and s <= -1
    # makes J non-integrable; both used to pass for a convergent edge and
    # give a finite Sigma at the edge; DIVERGENT is the one way to say so
    with pytest.raises(ConfigError, match=re.escape(named)):
        fr.ContinuumBand(-1.5, 1.5, smooth_j, edge_exponents=exponents)


def test_negative_density_rejected():
    bad = fr.FriedrichsModel(
        discrete=fr.DiscreteSpectrum(np.array([0.0]), np.array([0.3])),
        continuum=fr.ContinuumBand(-1.0, 1.0, lambda om: np.asarray(om) * 0.0 - 1e-3),
    )
    with pytest.raises(NegativeSpectralDensity):
        fr.validate_model(bad)


def test_vanishing_density_rejected():
    # J = 0 left K - 1/Sigma to divide by Sigma = 0 (a ZeroDivisionError)
    bad = fr.FriedrichsModel(
        discrete=fr.DiscreteSpectrum(np.array([-2.0, 2.5]), np.array([0.3, 0.2])),
        continuum=fr.ContinuumBand(-1.0, 1.0, lambda om: np.zeros_like(np.asarray(om, float))),
    )
    with pytest.raises(EmptyBand, match=re.escape("[-1.0, 1.0]")):
        fr.validate_model(bad)


def test_declared_zero_must_be_zero():
    bad = fr.FriedrichsModel(
        discrete=fr.DiscreteSpectrum(np.array([0.0]), np.array([0.3])),
        continuum=fr.ContinuumBand(-1.5, 1.5, smooth_j, interior_zeros=(0.5,)),
    )
    with pytest.raises(NegativeSpectralDensity):
        fr.validate_model(bad)


def test_validation_idempotent():
    m = fr.validate_model(make_model())
    assert fr.validate_model(m) is m


def test_scalar_density_gets_vectorized():
    m = fr.FriedrichsModel(
        discrete=fr.DiscreteSpectrum(np.array([0.0]), np.array([0.3])),
        continuum=fr.ContinuumBand(
            -1.0, 1.0, lambda om: float(1.0 - om**2) if abs(om) < 1 else 0.0
        ),
    )
    v = fr.validate_model(m)
    vals = v.j(np.array([0.0, 0.5]))
    assert vals.shape == (2,)


@given(st.lists(st.floats(-5, 5), min_size=1, max_size=6).filter(lambda v: any(abs(x) > 1e-3 for x in v)))
@settings(max_examples=50, deadline=None)
def test_normalized_constructor(values):
    state = fr.InitialState.normalized(np.array(values, dtype=float))
    assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) < 1e-12


@given(st.floats(0.25, 4.0))
@settings(max_examples=8, deadline=None)
def test_energy_unit_covariance(s):
    """Scaling all energies by s scales eigenvalues by s and times by 1/s."""
    base = fr.WaveguideParams(3, 1.0, 0.75, 0.25, fr.INFINITE)
    scaled = fr.WaveguideParams(3, s, 0.75 * s, 0.25 * s, fr.INFINITE)
    mb = fr.build_waveguide_model(base)
    ms = fr.build_waveguide_model(scaled)
    eb = [st_.energy for st_ in fr.solve_bound_states(mb)]
    es = [st_.energy for st_ in fr.solve_bound_states(ms)]
    assert np.allclose(np.array(es), s * np.array(eb), rtol=1e-9, atol=1e-12)

    init_b = fr.default_initial_state(base)
    init_s = fr.default_initial_state(scaled)
    t_b = np.array([0.0, 2.0, 5.0])
    pb = fr.survival_probability(mb, init_b, t_b, n_base_nodes=1025).p
    ps = fr.survival_probability(ms, init_s, t_b / s, n_base_nodes=1025).p
    assert np.allclose(pb, ps, atol=5e-7)


def test_random_models_validate():
    rng = np.random.default_rng(0)
    for _ in range(10):
        m = random_model(rng, with_zero=bool(rng.integers(2)))
        assert m.n_levels >= 1


def _overrides_reads(tree: ast.Module) -> list:
    """(enclosing function, line) of every `.overrides` attribute read."""
    out = []

    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if isinstance(node, ast.Attribute) and node.attr == "overrides":
            out.append((fn, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(tree, None)
    return out


def test_only_spectral_reads_the_overrides():
    # the AnalyticOverrides contract: spectral classifies E, then calls the
    # closed forms; validate_model only carries the field to the handle
    src = Path(fr.__file__).resolve().parent
    reads = {
        path.stem: _overrides_reads(ast.parse(path.read_text()))
        for path in sorted(src.glob("*.py"))
    }
    assert reads["spectral"]
    assert [fn for fn, _ in reads.pop("model")] == ["validate_model"]
    del reads["spectral"]
    assert {name: found for name, found in reads.items() if found} == {}
