import mpmath
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from friedrichs import quadrature as qd


def _panels(rng, n_nodes, half):
    """Uneven nodes on [0, pi] and the band phase mid - half*cos(k)."""
    gaps = rng.uniform(0.2, 1.0, n_nodes - 1)
    k = np.concatenate([[0.0], np.cumsum(gaps)]) * (np.pi / gaps.sum())
    return k, 0.3 - half * np.cos(k)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 4),
    st.integers(20, 400),
    st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_rows_match_single_level_calls(seed, n_rows, n_nodes, uniform):
    rng = np.random.default_rng(seed)
    k, phase = _panels(rng, n_nodes, rng.uniform(0.1, 5.0))
    f = rng.normal(size=(n_rows, n_nodes)) + 1j * rng.normal(size=(n_rows, n_nodes))
    t_max = rng.uniform(1.0, 300.0)
    times = np.linspace(0.0, t_max, 300) if uniform else np.sort(rng.uniform(0, t_max, 300))
    both = qd.fourier_linear(k, f, times, phase=phase)
    assert both.shape == (n_rows, times.size)
    for row, values in zip(f, both):
        single = qd.fourier_linear(k, row, times, phase=phase)
        assert single.shape == times.shape
        assert np.max(np.abs(values - single)) <= 1e-13


@given(
    st.integers(0, 2**32 - 1),
    st.floats(10.0, 1e4),
    st.integers(200, 1000),
)
@settings(max_examples=6, deadline=None)
def test_phase_recurrence_matches_direct_evaluation(seed, t_band, n_nodes):
    # a uniform grid takes the recurred phases; the same times interleaved
    # with jittered ones form a non-uniform grid that computes them directly
    rng = np.random.default_rng(seed)
    half = rng.uniform(0.1, 5.0)
    k, phase = _panels(rng, n_nodes, half)
    f = np.exp(1j * rng.uniform(0, 2 * np.pi, (2, n_nodes))) * rng.uniform(0, 1, n_nodes)
    times = np.linspace(0.0, t_band / (2.0 * half), 2001)
    jitter = times[:-1] + rng.uniform(0.1, 0.9, times.size - 1) * (times[1] - times[0])
    mixed = np.empty(2 * times.size - 1)
    mixed[0::2], mixed[1::2] = times, jitter
    recurred = qd.fourier_linear(k, f, times, phase=phase)
    direct = qd.fourier_linear(k, f, mixed, phase=phase)[:, 0::2]
    assert np.max(np.abs(recurred - direct)) <= 1e-12


@given(st.integers(0, 2**32 - 1), st.integers(2, 300))
@settings(max_examples=20, deadline=None)
def test_exact_for_linear_integrand(seed, n_nodes):
    # f = a + b*x against the linear phase x is integrated exactly on any
    # nodes, through both the series (small t*h) and closed-form panels
    rng = np.random.default_rng(seed)
    length = rng.uniform(0.5, 4.0)
    gaps = rng.uniform(0.2, 1.0, n_nodes - 1)
    x = np.concatenate([[0.0], np.cumsum(gaps)]) * (length / gaps.sum())
    a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
    times = np.linspace(0.0, 2000.0 / length, 301)
    got = qd.fourier_linear(x, a + b * x, times)

    mpmath.mp.dps = 40
    ell = mpmath.mpf(length)
    for t, value in zip(times[::10], got[::10]):
        if t == 0.0:
            exact = a * ell + b * ell**2 / 2
        else:
            t = mpmath.mpf(t)
            ph = mpmath.exp(-1j * ell * t)
            exact = a * (1 - ph) / (1j * t) + b * (ph * (1 + 1j * ell * t) - 1) / t**2
        assert abs(complex(exact) - value) <= 1e-13 * (abs(a) + abs(b)) * length**2
