"""Simulator for 1D lattices with phase-modulated complex hopping rates.

Builds sparse Hamiltonians for the homogeneous chain, the two-sublattice
sawtooth realization, and the heterogeneous capture structure; evolves
states under piecewise-constant schedules with one sparse
matrix-exponential propagator; and packages transport/storage experiments
as reproducible presets with CSV/metrics/SVG artifacts.
"""

__version__ = "0.1.0"

from .lattice import (
    ChainSpec,
    DefectSpec,
    SawtoothSpec,
    SandwichSpec,
    Operator,
    ReducedChain,
    build_chain_hamiltonian,
    build_sawtooth_hamiltonian,
    build_sandwich_hamiltonian,
    dispersion,
    group_velocity,
    adiabatic_reduce,
    reduce_phase,
)
from .dynamics import (
    StateVector,
    Schedule,
    ScheduleSegment,
    Trajectory,
    GainRunawayError,
    NormUnderflowError,
    evolve_exact,
    evolve_schedule,
)
from .analysis import (
    ExcitationSpec,
    GaussianFit,
    make_excitation,
    centroid,
    centroid_series,
    centroid_velocity,
    region_norm_fraction,
    measure_reflection,
    fit_gaussian,
    storage_efficiency,
    normalized_profile,
    normalized_profile_matrix,
)
from .protocols import (
    Timing,
    StorageParams,
    ReductionParams,
    DispersionParams,
    ExperimentConfig,
    ExperimentResult,
    PRESETS,
    preset_config,
    resolve_config,
    run_experiment,
    run_preset,
    run_dispersion_scan,
    run_transport,
    run_storage,
    run_reduction_check,
)
from .configio import ConfigError

__all__ = [name for name in dir() if not name.startswith("_")]
