import friedrichs as fr

#: the public names; a new one is a new capability, added here on purpose
PUBLIC = [
    "AnalyticOverrides", "AntiPTReport", "BoundState", "BoundStateCensus", "BoundStateKind",
    "ContinuumBand", "DIVERGENT", "DecayCoefficients", "DiscreteSpectrum",
    "EffectiveHamiltonianMarkov", "FriedrichsModel", "INFINITE", "InitialState", "JordanBlock",
    "LongTimeLimit", "ResonanceKind", "ResonanceSystem", "SurvivalSeries", "ValidatedModel",
    "WaveguideParams", "all_bound_states", "anti_pt_check", "bound_states", "build_markovian",
    "build_waveguide_model", "count_bound_states", "decay_coefficients", "decay_components",
    "default_initial_state", "delta_gamma", "dynamics", "errors", "evolve_lattice", "find_bics",
    "i_function", "k_derivative", "k_function", "k_zeros", "lattice", "long_time_limit",
    "markovian", "markovian_survival", "model", "quadrature", "resonance_decomposition",
    "self_energy", "self_energy_derivative", "solve_bound_states", "spectral",
    "survival_amplitudes", "survival_probability", "validate_model", "waveguide",
    "waveguide_bic_energies", "waveguide_bound_state_count",
]


def test_public_names_are_pinned():
    # __all__ is every public name of the package's namespace, so it also
    # holds the 9 submodules imported on the way (bound_states, dynamics,
    # errors, lattice, markovian, model, quadrature, spectral, waveguide)
    assert sorted(fr.__all__) == PUBLIC
