"""Simulator for 1D lattices with phase-modulated complex hopping rates.

Builds sparse Hamiltonians for the homogeneous chain, the two-sublattice
sawtooth realization, and the heterogeneous capture structure; evolves
states under piecewise-constant schedules with one sparse
matrix-exponential propagator; and packages transport/storage experiments
as reproducible presets with CSV/metrics/SVG artifacts.  The root API is
the ``__all__`` of lattice, dynamics, analysis and protocols, plus ConfigError.
"""

__version__ = "0.1.0"

from .lattice import *
from .dynamics import *
from .analysis import *
from .protocols import *
from .configio import ConfigError

__all__ = [name for name in dir() if not name.startswith("_")]
