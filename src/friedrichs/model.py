"""Data model: discrete levels factorizably coupled to a single continuum.

Units: hbar = 1; all energies in one arbitrary base unit, times in its
inverse.  The spectral density J(omega) is the band's only representation:
every kernel and every continuum amplitude profile of a bound state is
built from it.  Where an energy lies (outside the band, on an edge, on a
declared zero of J, or strictly inside) is decided by `spectral` with the
two tolerances of `ValidatedModel.is_edge` and `is_interior_zero`.  The
band's graded rule, with J read on its nodes, is kept on the validated
model (`ValidatedModel._rules`); only `quadrature` builds and reads it.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DegenerateLevels,
    EmptyBand,
    NegativeSpectralDensity,
    UnnormalizedInitialState,
)

#: an edge exponent of DIVERGENT marks an edge where Sigma(omega_edge) diverges
DIVERGENT = None


def _readonly(a, dtype):
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class DiscreteSpectrum:
    """Levels eps_n (strictly increasing) and coupling factors f_n."""

    levels: np.ndarray
    couplings: np.ndarray

    def __post_init__(self):
        levels = _readonly(self.levels, float)
        couplings = _readonly(self.couplings, complex)
        if levels.ndim != 1 or levels.size < 1:
            raise DegenerateLevels("need at least one discrete level")
        if couplings.shape != levels.shape:
            raise DegenerateLevels("levels and couplings must have equal length")
        for name, values in (("level", levels), ("coupling", couplings)):
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                raise ConfigError(f"{name} {bad[0]} is {values[bad[0]]}: it must be finite")
        span = float(levels[-1] - levels[0]) if levels.size > 1 else 0.0
        scale = max(span, float(np.max(np.abs(levels))), 1.0)
        if levels.size > 1 and np.min(np.diff(levels)) <= 1e-12 * scale:
            raise DegenerateLevels("levels must be strictly increasing (no degeneracy)")
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "couplings", couplings)

    @property
    def n(self) -> int:
        return self.levels.size


@dataclass(frozen=True, eq=False)
class ContinuumBand:
    """Band [omega_low, omega_up], both edges finite, with spectral density
    J(omega) >= 0 (the flat-continuum limit is `markovian.build_markovian`).

    edge_exponents holds the power-law exponents of J near each edge
    (s > 0 keeps Sigma finite at that edge); DIVERGENT flags an edge where
    Sigma diverges (e.g. a van Hove 1/sqrt divergence of J, or J finite and
    nonzero there, s = 0), and a numeric s <= 0 is rejected.  Interior
    zeros of J must be declared explicitly; they are the only energies at
    which bound states inside the band are sought.
    """

    omega_low: float
    omega_up: float
    spectral_density: Callable
    edge_exponents: tuple = (1.0, 1.0)
    interior_zeros: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "omega_low", float(self.omega_low))
        object.__setattr__(self, "omega_up", float(self.omega_up))
        object.__setattr__(
            self, "interior_zeros", tuple(sorted(float(z) for z in self.interior_zeros))
        )
        if not self.omega_low < self.omega_up:
            raise EmptyBand(f"omega_low={self.omega_low} >= omega_up={self.omega_up}")
        if not (math.isfinite(self.omega_low) and math.isfinite(self.omega_up)):
            raise ConfigError(
                f"band edges must be finite: omega_low={self.omega_low}, "
                f"omega_up={self.omega_up}"
            )
        for name, s in zip(("omega_low", "omega_up"), self.edge_exponents):
            if s is not DIVERGENT and not (isinstance(s, numbers.Real) and s > 0):
                raise ConfigError(
                    f"edge exponent {s!r} at {name}={getattr(self, name)}: a number > 0, "
                    "or DIVERGENT for an edge where Sigma diverges"
                )


@dataclass(frozen=True, eq=False)
class AnalyticOverrides:
    """Closed forms used in place of quadrature when a model has them.

    Only `spectral` reads them: sigma and sigma_deriv in its one Sigma
    kernel, delta in its Delta; a missing field falls back to quadrature.
    The kernel decides where E lies and calls sigma or sigma_deriv only at
    the classified point: E outside the band, the edge itself for an E on a
    convergent edge, or the declared zero itself for an E on a J-zero.  A
    closed form therefore makes no domain checks of its own.

    sigma(E):        self-energy at a classified point
    sigma_deriv(E):  its derivative there (at an edge only when the edge
                     exponent exceeds 1; it diverges there otherwise)
    delta(E):        principal-value part strictly inside the band; takes a
                     float or an array of energies (the scattering kernel
                     passes all its nodes in one call)
    """

    sigma: Optional[Callable] = None
    sigma_deriv: Optional[Callable] = None
    delta: Optional[Callable] = None


@dataclass(frozen=True, eq=False)
class FriedrichsModel:
    discrete: DiscreteSpectrum
    continuum: ContinuumBand
    overrides: Optional[AnalyticOverrides] = None


@dataclass(frozen=True, eq=False)
class InitialState:
    """Unit-norm amplitudes c_n on the discrete levels."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _readonly(self.amplitudes, complex)
        norm2 = float(np.sum(np.abs(amps) ** 2))
        if not abs(norm2 - 1.0) <= 1e-12:  # NaN amplitudes fail it too
            raise UnnormalizedInitialState(f"sum |c_n|^2 = {norm2!r}, expected 1")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def normalized(cls, values: Sequence[complex]) -> "InitialState":
        v = np.asarray(values, dtype=complex)
        nrm = np.linalg.norm(v)
        if nrm == 0:
            raise UnnormalizedInitialState("cannot normalize the zero vector")
        return cls(v / nrm)


def _check_initial(initial: InitialState, n_levels: int) -> None:
    """ConfigError naming both counts when initial does not have one
    amplitude per level."""
    if initial.amplitudes.size != n_levels:
        raise ConfigError(
            f"the initial state has {initial.amplitudes.size} amplitudes, "
            f"the model {n_levels} levels"
        )


def _vectorized(fn: Callable) -> Callable:
    """Return fn if it already maps arrays to arrays, else a vectorized wrap."""
    probe = np.array([0.25, 0.75])
    try:
        out = fn(probe)
        if np.shape(out) == probe.shape:
            return fn
    except Exception:
        pass
    return np.vectorize(fn, otypes=[float])


@dataclass(frozen=True, eq=False)
class ValidatedModel:
    """Immutable, validated handle consumed by every other module.

    It also holds what the kernels form once per model on first use: |f|^2,
    and in `_rules`, which only `quadrature` fills, the band's one graded
    rule with J read on its nodes, which Sigma, Sigma' and Delta all read.
    """

    discrete: DiscreteSpectrum
    continuum: ContinuumBand
    overrides: Optional[AnalyticOverrides]
    _j: Callable = field(repr=False)
    scale: float = 1.0
    _rules: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def levels(self) -> np.ndarray:
        return self.discrete.levels

    @property
    def couplings(self) -> np.ndarray:
        return self.discrete.couplings

    @functools.cached_property
    def _f2(self) -> np.ndarray:
        """|f_n|^2, formed once for the rational sums K and K'."""
        return np.abs(self.couplings) ** 2

    @property
    def n_levels(self) -> int:
        return self.discrete.n

    @property
    def omega_low(self) -> float:
        return self.continuum.omega_low

    @property
    def omega_up(self) -> float:
        return self.continuum.omega_up

    @property
    def interior_zeros(self) -> tuple:
        return self.continuum.interior_zeros

    def j(self, omega):
        return self._j(omega)

    def inside_band(self, e: float) -> bool:
        return self.omega_low < e < self.omega_up

    def is_interior_zero(self, e: float) -> bool:
        return near_declared_zero(e, self.interior_zeros, self.scale)

    def is_edge(self, e: float) -> bool:
        tol = 1e-12 * self.scale
        return abs(e - self.omega_low) <= tol or abs(e - self.omega_up) <= tol


def energy_scale(levels: np.ndarray, omega_low: float, omega_up: float) -> float:
    """The extent of the levels and the band together, at least max |eps_n|."""
    extent = [float(levels[0]), float(levels[-1]), omega_low, omega_up]
    return max(max(extent) - min(extent), float(np.max(np.abs(levels))), 1e-300)


def near_declared_zero(e: float, zeros, scale: float) -> bool:
    """Whether e lies within 1e-9*scale of one of the declared J-zeros.

    The one J-zero tolerance: `spectral` takes such an e as the zero, and a
    level that close to a zero is a bound state in the continuum.
    """
    return any(abs(e - z) <= 1e-9 * scale for z in zeros)


def _sample_points(model: FriedrichsModel) -> np.ndarray:
    lo, up = model.continuum.omega_low, model.continuum.omega_up
    # cosine-spaced interior points avoid evaluating exactly at the edges
    k = np.linspace(0.0, np.pi, 403)[1:-1]
    mid, half = 0.5 * (lo + up), 0.5 * (up - lo)
    return mid - half * np.cos(k)


def validate_model(model) -> ValidatedModel:
    """Validate a model; idempotent on an already-validated handle."""
    if isinstance(model, ValidatedModel):
        return model
    band = model.continuum
    j = _vectorized(band.spectral_density)

    pts = _sample_points(model)
    vals = np.asarray(j(pts), dtype=float)
    if np.any(vals < -1e-14):
        worst = pts[int(np.argmin(vals))]
        raise NegativeSpectralDensity(f"J({worst}) = {float(np.min(vals))} < 0")
    if not np.any(vals > 0):
        raise EmptyBand(
            f"J vanishes at every sample point of the band "
            f"[{band.omega_low}, {band.omega_up}]"
        )
    jmax = float(np.max(vals)) if vals.size else 1.0
    for z in band.interior_zeros:
        if not band.omega_low < z < band.omega_up:
            raise EmptyBand(f"declared J-zero {z} lies outside the band")
        if abs(float(j(np.array([z]))[0])) > 1e-10 * max(jmax, 1e-300):
            raise NegativeSpectralDensity(f"declared J-zero at {z} has J != 0")

    scale = energy_scale(model.discrete.levels, band.omega_low, band.omega_up)
    return ValidatedModel(
        discrete=model.discrete,
        continuum=band,
        overrides=model.overrides,
        _j=j,
        scale=scale,
    )
