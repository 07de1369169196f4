"""Bound states and decay dynamics of discrete levels coupled to a continuum."""

from . import errors
from .bound_states import (
    BoundState,
    BoundStateCensus,
    BoundStateKind,
    all_bound_states,
    count_bound_states,
    find_bics,
    solve_bound_states,
)
from .dynamics import (
    DecayCoefficients,
    LongTimeLimit,
    SurvivalSeries,
    decay_coefficients,
    long_time_limit,
    survival_amplitudes,
    survival_probability,
)
from .lattice import evolve as evolve_lattice
from .markovian import (
    AntiPTReport,
    EffectiveHamiltonianMarkov,
    JordanBlock,
    ResonanceKind,
    ResonanceSystem,
    anti_pt_check,
    build_markovian,
    decay_components,
    markovian_survival,
    resonance_decomposition,
)
from .model import (
    DIVERGENT,
    AnalyticOverrides,
    ContinuumBand,
    DiscreteSpectrum,
    FriedrichsModel,
    InitialState,
    ValidatedModel,
    validate_model,
)
from .spectral import (
    delta_gamma,
    i_function,
    k_derivative,
    k_function,
    k_zeros,
    self_energy,
    self_energy_derivative,
)
from .waveguide import (
    INFINITE,
    WaveguideParams,
    build_waveguide_model,
    default_initial_state,
    waveguide_bic_energies,
    waveguide_bound_state_count,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
