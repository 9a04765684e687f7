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

``import gausschain`` imports none of these and not numpy either.  Every
name in ``__all__``, the submodules included, is imported on first use
(``gausschain.X``, ``from gausschain import X``) and cached in the package
namespace, so a command pays only for the modules it runs.

What the import does do, on glibc, is keep freed arrays of up to 32 MiB on
the heap and up to 64 MiB of freed heap mapped (_keep_freed_arrays_mapped),
unless GLIBC_TUNABLES or a MALLOC_*_ variable already tunes malloc.
"""

__version__ = "0.1.0"

import importlib

# submodule -> the public names it defines; a name's submodule is imported
# when the name is first read (PEP 562), and the name is then cached here
_EXPORTS = {
    "design": ("JumpSet", "JumpValidationReport", "JumpVector", "MicroscopicRealization",
               "hn_jump_decomposition", "inverse_design", "jump_set_payload",
               "realization_payload", "ssh_jump_decomposition", "validate_jump_set"),
    "errors": ("DarkSourceError", "EnvelopeOverflowError", "GausschainError",
               "InfeasibilityError", "NormalizationError", "ParameterError", "RegimeError",
               "ScaleError", "SiteIndexError", "SolveError", "StabilityError",
               "ValidationError"),
    "manybody": ("DensityMatrix", "FockOperatorSet", "MasterTrajectory", "correlator_of",
                 "evolve_master", "steady_state_oracle"),
    "models": ("HatanoNelsonParams", "RelaxationMatrix", "SourceMatrix", "SshParams",
               "build_diagonal_pump", "build_hatano_nelson", "build_local_pump", "build_ssh",
               "default_labels", "ssh_index", "ssh_labels"),
    "orbitals": ("DiagnosticsReport", "EdgeCandidate", "NaturalOrbitalSet",
                 "density", "diagnostics_report", "hn_source_scan", "identify_edge_candidate",
                 "identify_slow_mode", "loading_factors", "natural_orbitals",
                 "normalized_density", "overlap", "ssh_crossover_scan"),
    "spectral": ("BiorthogonalSpectrum", "ModeVector", "biorthogonal_decompose",
                 "hn_analytic_spectrum", "hn_normalized_modes", "hn_similarity_residual",
                 "slow_mode_position", "ssh_edge_envelopes"),
    "steady": ("CorrelatorTrajectory", "SteadyCorrelator", "closed_form_correlator",
               "propagate_correlator", "single_mode_approximation", "solve_lyapunov_direct",
               "solve_lyapunov_spectral"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    """Import the submodule that defines ``name`` (or is ``name``) and cache it."""
    module = _HOME.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


def _keep_freed_arrays_mapped() -> bool:
    """Stop glibc from unmapping freed N^2 arrays; True if the policy was set.

    By default glibc serves arrays from 128 KiB up by mmap and trims freed
    heap above 128 KiB, so each solve page-faults its arrays back in as
    zero-filled pages.  mallopt(M_MMAP_THRESHOLD, 32 MiB) serves every
    smaller array from the heap, and mallopt(M_TOP_PAD, 64 MiB) keeps up to
    64 MiB of freed heap mapped for the next one.  Only where glibc is the
    C library, and only when the environment does not tune malloc itself.
    Changes no arithmetic.
    """
    import os

    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return False
    tuned = ("GLIBC_TUNABLES", "MALLOC_TOP_PAD_", "MALLOC_TRIM_THRESHOLD_",
             "MALLOC_MMAP_THRESHOLD_")
    if not libc.startswith("glibc") or any(name in os.environ for name in tuned):
        return False
    import ctypes

    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return bool(mallopt(-3, 32 << 20) and mallopt(-2, 64 << 20))  # M_MMAP_THRESHOLD, M_TOP_PAD


_keep_freed_arrays_mapped()
