"""Structured exception types shared across the package."""


class FriedrichsError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(FriedrichsError):
    """Malformed run configuration, model document or input; the base of
    every error an input check raises."""


class DegenerateLevels(ConfigError):
    """Two discrete levels coincide within tolerance."""


class NegativeSpectralDensity(ConfigError):
    """Sampled spectral density fell below zero."""


class EmptyBand(ConfigError):
    """Band edges are not ordered (omega_low >= omega_up), or J vanishes on the band."""


class UnnormalizedInitialState(ConfigError):
    """Initial amplitudes do not have unit norm."""


class EInsideBand(FriedrichsError):
    """Energy lies strictly inside the band and is not a declared J-zero."""


class NonconvergentEdge(FriedrichsError):
    """Self-energy requested at a band edge where it diverges."""


class DivergentDerivative(FriedrichsError):
    """Self-energy derivative does not converge at the requested energy."""


class PoleHit(FriedrichsError):
    """Evaluation point is too close to a discrete level."""


class RootNotFound(FriedrichsError):
    """A promised bound-state root could not be bracketed."""


class NormalizationFailure(FriedrichsError):
    """Bound-state normalization came out non-positive or ill-defined."""


class QuadratureBudgetExceeded(FriedrichsError):
    """Oscillatory integral error estimate above the requested tolerance."""


class NegativeGamma(ConfigError):
    """Markovian decay width must be non-negative."""


class LightConeViolation(FriedrichsError):
    """Requested evolution time needs a lattice beyond the memory budget."""


class NormDrift(FriedrichsError):
    """Lattice propagation lost more norm than allowed."""


class ExceptionalPoint(FriedrichsError):
    """Non-Hermitian Hamiltonian is defective: resonance weights are undefined."""
