"""The requests the benchmark sends to gausschain, one function per op kind.

Each function takes a plain op spec (a dict made by ``workloads.plan``),
calls only the program's public API, and returns a dict of outputs for
the checker.  Everything here is inside the timed region, so it does no
checking and no bookkeeping of its own.  Names are looked up on the
``gausschain`` package at call time, so the traced run sees these calls.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np

import gausschain as gc


def _bands(x) -> dict:
    """Tridiagonal entries of X, so the checker can confirm which X was solved."""
    m = gc.models.matrix_entries(x)
    return {"diag": np.diagonal(m).copy(), "sub": np.diagonal(m, -1).copy(),
            "sup": np.diagonal(m, 1).copy()}


def scan(spec: dict) -> dict:
    """One pump-position scan over every site (the hn-source-scan pipeline)."""
    params = gc.HatanoNelsonParams(spec["n"], spec["t_right"], spec["t_left"], spec["kappa"])
    result = gc.hn_source_scan(params, spec["strength"])
    return {"nu_max": result.nu_max, "loading": result.loading}


def hn_chain(spec: dict) -> dict:
    """One single-band steady state with diagnostics (the hn-profiles pipeline)."""
    params = gc.HatanoNelsonParams(spec["n"], spec["t_right"], spec["t_left"], spec["kappa"])
    x = gc.build_hatano_nelson(params)
    pump = gc.build_local_pump(params.n_sites, spec["pump"], spec["strength"])
    betas, right_unit, _ = gc.hn_normalized_modes(params)
    corr = gc.solve_lyapunov_direct(x, pump)
    slow = gc.slow_mode_position(betas.astype(complex))
    top = gc.natural_orbitals(corr).top_orbital()
    dens = gc.normalized_density(corr)
    o_slow = gc.overlap(gc.ModeVector(right_unit[:, slow], "euclidean"), top)
    return {"c": np.asarray(corr.entries), "density": dens, "o_slow": o_slow, **_bands(x)}


def ssh_chain(spec: dict) -> dict:
    """One two-band steady state with diagnostics (the ssh-profiles pipeline)."""
    params = gc.SshParams(spec["cells"], spec["t1"], spec["t2"], spec["g"], spec["kappa"])
    x = gc.build_ssh(params)
    site = gc.ssh_index(spec["pump_cell"], spec["pump_sublattice"], params.n_cells)
    pump = gc.build_local_pump(params.n_sites, site, spec["strength"])
    spectrum = gc.biorthogonal_decompose(gc.models.matrix_entries(x))
    corr = gc.solve_lyapunov_direct(x, pump)
    top = gc.natural_orbitals(corr).top_orbital()
    dens = gc.normalized_density(corr)
    slow = gc.identify_slow_mode(spectrum)
    edge = gc.identify_edge_candidate(spectrum, params.kappa)
    o_slow = gc.overlap(spectrum.right_mode_unit(slow), top)
    o_edge = gc.overlap(spectrum.right_mode_unit(edge.index), top)
    return {"c": np.asarray(corr.entries), "density": dens, "o_slow": o_slow,
            "o_edge": o_edge, **_bands(x)}


def oracle(spec: dict) -> dict:
    """One many-body cross-check (the oracle-check pipeline, in-process)."""
    n = spec["n"]
    params = gc.HatanoNelsonParams(n, spec["t_right"], spec["t_left"], spec["kappa"])
    x = gc.build_hatano_nelson(params)
    y = gc.build_diagonal_pump([spec["gamma"]] * n)
    realization = gc.inverse_design(x, y)
    jumps = gc.hn_jump_decomposition(params, spec["gamma"])
    spectrum = gc.biorthogonal_decompose(gc.models.matrix_entries(x))
    trajectory = gc.evolve_master(gc.DensityMatrix.vacuum(n), realization.hamiltonian, jumps,
                               spec["t_final"], spec["dt"], stride=spec["stride"])
    zero = np.zeros((n, n))
    max_dev = 0.0
    for time, state in zip(trajectory.times, trajectory.states):
        closed = gc.closed_form_correlator(spectrum, y, zero, float(time))
        max_dev = max(max_dev, float(np.abs(gc.correlator_of(state) - closed).max()))
    rho = gc.steady_state_oracle(realization.hamiltonian, jumps, t_max=spec["t_max"])
    c_oracle = gc.correlator_of(rho)
    direct = gc.solve_lyapunov_direct(x, y)
    steady_dev = float(np.abs(c_oracle - np.asarray(direct.entries)).max())
    return {"trajectory_dev": max_dev, "steady_dev": steady_dev,
            "c": np.asarray(direct.entries), "c_oracle": c_oracle, **_bands(x)}


def cli(spec: dict, workdir: str, env: dict, runner: list | None = None) -> dict:
    """One ``gausschain`` command as a fresh subprocess in ``workdir``.

    ``runner`` replaces ``python -m gausschain.cli`` (the traced run uses
    a runner that records spans); output files are read back as bytes.
    """
    cmd = (runner or [sys.executable, "-m", "gausschain.cli"]) + spec["argv"]
    proc = subprocess.run(cmd, cwd=workdir, capture_output=True, env=env)
    outputs = {}
    for name in spec["outputs"]:
        path = os.path.join(workdir, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                outputs[name] = fh.read()
    return {"returncode": proc.returncode, "files": outputs,
            "stderr": proc.stderr[-300:].decode(errors="replace") if proc.returncode else None}


RUN = {"scan": scan, "hn": hn_chain, "ssh": ssh_chain, "oracle": oracle}
