"""Steady states, natural orbitals, and inverse design for quadratic
open fermion chains.

The package is organized bottom-up:

- :mod:`gausschain.models` — chain parameter sets and (X, Y) builders
- :mod:`gausschain.spectral` — biorthogonal mode decompositions
- :mod:`gausschain.steady` — Lyapunov steady states and time evolution
- :mod:`gausschain.orbitals` — natural orbitals, overlaps, scans
- :mod:`gausschain.design` — microscopic gain/loss realizations
- :mod:`gausschain.manybody` — brute-force master-equation oracle
- :mod:`gausschain.matio` — deterministic JSON/CSV serialization
- :mod:`gausschain.cli` — batch command-line interface
"""

__version__ = "0.1.0"

from .design import (JumpSet, JumpValidationReport, JumpVector,
                     MicroscopicRealization, hn_jump_decomposition, inverse_design,
                     jump_set_payload, realization_payload,
                     ssh_jump_decomposition, validate_jump_set)
from .errors import (DarkSourceError, DecompositionError,
                     DegeneracyError, EnvelopeOverflowError, GausschainError,
                     InfeasibilityError, NormalizationError, ParameterError,
                     RegimeError, ScaleError, SiteIndexError, SolveError,
                     StabilityError, ValidationError)
from .manybody import (DensityMatrix, FockOperatorSet, MasterTrajectory,
                       correlator_of, evolve_master, steady_state_oracle)
from .models import (HatanoNelsonParams, RelaxationMatrix, SourceMatrix, SshParams,
                     build_diagonal_pump, build_hatano_nelson, build_local_pump,
                     build_ssh, default_labels, ssh_index, ssh_labels)
from .orbitals import (DiagnosticsReport, EdgeCandidate, LoadingFactors,
                       NaturalOrbitalSet, density, diagnostics_report,
                       hn_source_scan, identify_edge_candidate, identify_slow_mode,
                       loading_factors, natural_orbitals, normalized_density,
                       overlap, ssh_crossover_scan)
from .spectral import (BiorthogonalSpectrum, ModeVector, biorthogonal_decompose,
                       euclidean_normalize, gap_ratio, hn_analytic_spectrum,
                       hn_normalized_modes, hn_similarity_residual,
                       slow_mode_position, spectrum_payload, ssh_edge_envelopes)
from .steady import (CorrelatorTrajectory, SteadyCorrelator, closed_form_correlator,
                     lyapunov_residual, propagate_correlator,
                     single_mode_approximation, solve_lyapunov_direct,
                     solve_lyapunov_spectral)

__all__ = [name for name in dir() if not name.startswith("_")]
