"""The package and each command load only the modules they use.

``import gausschain`` imports no submodule: every public name, and every
submodule name, is imported on first use through a PEP 562 module
``__getattr__``.  Each command imports, inside its own body, the modules
it calls.  What loads is checked in fresh interpreters, since the test
process has long since imported everything.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import gausschain
from gausschain.matio import write_matrix
from gausschain.models import (HatanoNelsonParams, build_hatano_nelson, build_local_pump,
                               default_labels, matrix_entries)
from tests.conftest import motivation_pair

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# the public surface, pinned: the seven submodules and what they export
PUBLIC_NAMES = [
    "BiorthogonalSpectrum", "CorrelatorTrajectory", "DarkSourceError", "DensityMatrix",
    "DiagnosticsReport", "EdgeCandidate",
    "EnvelopeOverflowError", "FockOperatorSet", "GausschainError", "HatanoNelsonParams",
    "InfeasibilityError", "JumpSet", "JumpValidationReport", "JumpVector",
    "MasterTrajectory", "MicroscopicRealization", "ModeVector", "NaturalOrbitalSet",
    "NormalizationError", "ParameterError", "RegimeError", "RelaxationMatrix", "ScaleError",
    "SiteIndexError", "SolveError", "SourceMatrix", "SshParams", "StabilityError",
    "SteadyCorrelator", "ValidationError", "biorthogonal_decompose", "build_diagonal_pump",
    "build_hatano_nelson", "build_local_pump", "build_ssh", "closed_form_correlator",
    "correlator_of", "default_labels", "density", "design", "diagnostics_report", "errors",
    "evolve_master", "hn_analytic_spectrum", "hn_jump_decomposition", "hn_normalized_modes",
    "hn_similarity_residual", "hn_source_scan", "identify_edge_candidate",
    "identify_slow_mode", "inverse_design", "jump_set_payload", "loading_factors",
    "manybody", "models", "natural_orbitals", "normalized_density",
    "orbitals", "overlap", "propagate_correlator", "realization_payload",
    "single_mode_approximation", "slow_mode_position", "solve_lyapunov_direct",
    "solve_lyapunov_spectral", "spectral", "ssh_crossover_scan", "ssh_edge_envelopes",
    "ssh_index", "ssh_jump_decomposition", "ssh_labels", "steady", "steady_state_oracle",
    "validate_jump_set",
]

BASE = {"gausschain", "gausschain.cli", "gausschain.errors", "gausschain.matio",
        "gausschain.models"}
SOLVE = BASE | {"gausschain.spectral", "gausschain.steady", "gausschain.orbitals"}
DESIGN = BASE | {"gausschain.design"}
# oracle-check calls no orbital code
ORACLE = BASE | {"gausschain.spectral", "gausschain.steady", "gausschain.design",
                 "gausschain.manybody"}

TUNING = ("GLIBC_TUNABLES", "MALLOC_TOP_PAD_", "MALLOC_TRIM_THRESHOLD_",
          "MALLOC_MMAP_THRESHOLD_")
LOADED = "sorted(m for m in sys.modules if m == 'gausschain' or m.startswith('gausschain.'))"


def run_python(code, env=None):
    """Run ``code`` in a fresh interpreter on ``src``; its last stdout line as JSON.

    ``env`` maps variables to set, or to drop where the value is None.
    """
    child = dict(os.environ, PYTHONPATH=SRC)
    for name, value in (env or {}).items():
        if value is None:
            child.pop(name, None)
        else:
            child[name] = value
    proc = subprocess.run([sys.executable, "-c", code], timeout=120, env=child,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_submodule_and_sets_the_heap_policy():
    # with M_MMAP_THRESHOLD at 32 MiB a fresh 1 MiB block comes from the
    # heap; at glibc's default 128 KiB it would be mapped on its own.  The
    # block is placed before the policy function runs again, so only the
    # import can have set it.
    code = ("import ctypes, json, os, sys, gausschain\n"
            f"loaded = {LOADED}\n"
            "numpy = 'numpy' in sys.modules\n"
            "on_heap = None\n"
            "if os.path.exists('/proc/self/maps'):\n"
            "    libc = ctypes.CDLL(None)\n"
            "    libc.malloc.restype, libc.malloc.argtypes = ctypes.c_void_p, (ctypes.c_size_t,)\n"
            "    libc.free.restype, libc.free.argtypes = None, (ctypes.c_void_p,)\n"
            "    block = libc.malloc(1 << 20)\n"
            "    with open('/proc/self/maps') as fh:\n"
            "        heap = [[int(v, 16) for v in line.split()[0].split('-')]\n"
            "                for line in fh if line.rstrip().endswith('[heap]')]\n"
            "    on_heap = any(lo <= block < hi for lo, hi in heap)\n"
            "    libc.free(block)\n"
            "print(json.dumps([loaded, numpy, on_heap, gausschain._keep_freed_arrays_mapped()]))")
    loaded, numpy_loaded, on_heap, applies = run_python(code, env=dict.fromkeys(TUNING))
    assert loaded == ["gausschain"]
    assert numpy_loaded is False
    if applies and on_heap is not None:
        assert on_heap is True


def test_a_submodule_resolves_before_any_other_import():
    code = ("import json, sys, gausschain\n"
            "f = gausschain.models.matrix_entries\n"
            f"print(json.dumps([f.__module__, {LOADED}]))")
    module, loaded = run_python(code)
    assert module == "gausschain.models"
    assert loaded == ["gausschain", "gausschain.errors", "gausschain.models"]


def test_public_names_are_unchanged_and_all_resolve():
    assert gausschain.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        value = getattr(gausschain, name)
        assert value is not None
        if name in ("design", "errors", "manybody", "models", "orbitals", "spectral",
                    "steady"):
            assert value is sys.modules[f"gausschain.{name}"]
        else:
            assert getattr(sys.modules[value.__module__], name) is value


def test_every_public_name_is_listed_by_dir():
    assert set(gausschain.__all__) <= set(dir(gausschain))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        gausschain.no_such_name


def test_star_import_binds_every_public_name():
    code = ("import json\n"
            "from gausschain import *\n"
            "import gausschain\n"
            "print(json.dumps(sorted(n for n in gausschain.__all__ if n not in globals())))")
    assert run_python(code) == []


@pytest.fixture(scope="module")
def matrix_files(tmp_path_factory):
    """(X, Y) files of a physical 4-site pair, of the unphysical 40-site reference, and
    of the unphysical 6-site pair whose dense pump is 0.4 ulp of its peak from Hermitian."""
    root = tmp_path_factory.mktemp("pairs")
    files = {}
    for name, n_sites, kappa, y in (
            ("physical", 4, 1.5, 0.1 * np.eye(4)),
            ("reference", 40, 0.91, matrix_entries(build_local_pump(40, 15, 0.03))),
            ("dense", 6, 1.3, motivation_pair()[1])):
        x = build_hatano_nelson(HatanoNelsonParams(n_sites, 1.0, 0.17, kappa))
        x_file, y_file = str(root / f"{name}-x.json"), str(root / f"{name}-y.json")
        write_matrix(x_file, matrix_entries(x), default_labels(x.dim))
        write_matrix(y_file, y, default_labels(x.dim))
        files[name] = ["--x-file", x_file, "--y-file", y_file]
    return files


COMMANDS = [
    # (argv, pair file key or None, exit code, modules)
    (["hn-profiles"], None, 0, SOLVE),
    (["hn-source-scan", "--n-sites", "8"], None, 0, SOLVE),
    (["hn-occupations"], None, 0, SOLVE),
    (["ssh-profiles"], None, 0, SOLVE),
    (["ssh-crossover", "--g-points", "3"], None, 0, SOLVE),
    (["inverse-design"], None, 0, DESIGN),
    (["inverse-design", "--model", "ssh"], None, 0, DESIGN),
    (["inverse-design", "--model", "custom-file"], "physical", 0, DESIGN),
    # the Hermitian rule is relative to Y's peak, so a dense pump of peak
    # 1.2e5 is taken; its loss Gram is not PSD, so the design is infeasible,
    # and its occupations above 1 fail validate
    (["inverse-design", "--model", "custom-file"], "dense", 3, DESIGN),
    (["validate"], "physical", 0, SOLVE),
    # only a failed occupation check reports the loss Gram, so only it loads design
    (["validate"], "reference", 1, SOLVE | {"gausschain.design"}),
    (["validate"], "dense", 1, SOLVE | {"gausschain.design"}),
    (["oracle-check", "--n-sites", "2", "--t-final", "1.0"], None, 0, ORACLE),
]


@pytest.mark.parametrize("argv, pair, code, modules", COMMANDS,
                         ids=[" ".join(c[0]) + (f" {c[1]}" if c[1] else "") for c in COMMANDS])
def test_each_command_loads_only_its_modules(tmp_path, matrix_files, argv, pair, code,
                                             modules):
    runner = ("import json, sys\n"
              "from gausschain.cli import main\n"
              "code = main(sys.argv[1:])\n"
              f"print(json.dumps([code, {LOADED}]))")
    args = argv + (matrix_files[pair] if pair else []) + ["--out", str(tmp_path)]
    proc = subprocess.run([sys.executable, "-c", runner, *args], timeout=120,
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True)
    exit_code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert exit_code == code, proc.stderr
    assert loaded == sorted(modules)
