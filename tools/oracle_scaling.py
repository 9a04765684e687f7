"""Time the many-body oracle on the oracle-check default chain, one JSON line per size.

For the single-band chain and pump of ``gausschain oracle-check`` (t_right = 1,
t_left = 0.17, kappa = 1.5, gamma = 0.1, t in [0, 10] sampled every
dt * stride = 0.1) at 2 to MAX_ORACLE_SITES sites, prints the width of the
widest Liouvillian charge block, the time of the steady solve, of
``evolve_master`` and of ``correlator_of`` over all samples, the peak RSS
of the process so far (sizes run in ascending order), and the deviations
of the oracle from the direct solve and from ``propagate_correlator``.
These measurements set MAX_ORACLE_SITES.  Writes no file.  Run from the
repository root with BLAS on one thread:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/oracle_scaling.py
"""

import json
import resource
import time

import numpy as np

from gausschain import (DensityMatrix, HatanoNelsonParams, build_diagonal_pump,
                        build_hatano_nelson, correlator_of, evolve_master,
                        hn_jump_decomposition, inverse_design, propagate_correlator,
                        solve_lyapunov_direct, steady_state_oracle)
from gausschain.cli import COMMAND_DEFAULTS
from gausschain.manybody import MAX_ORACLE_SITES, operator_set

CHAIN = COMMAND_DEFAULTS["oracle-check"]


def measure(n_sites: int) -> dict:
    params = HatanoNelsonParams(n_sites, CHAIN["t_right"], CHAIN["t_left"], CHAIN["kappa"])
    x = build_hatano_nelson(params)
    y = build_diagonal_pump([CHAIN["gamma"]] * n_sites)
    h = inverse_design(x, y).hamiltonian
    jumps = hn_jump_decomposition(params, CHAIN["gamma"])
    widest = max(rows.size for rows, _ in operator_set(n_sites)._blocks.values())
    grid = (CHAIN["t_final"], CHAIN["dt"])

    start = time.perf_counter()
    rho = steady_state_oracle(h, jumps)
    steady_s = time.perf_counter() - start
    start = time.perf_counter()
    trajectory = evolve_master(DensityMatrix.vacuum(n_sites), h, jumps, *grid,
                               stride=CHAIN["stride"])
    evolve_s = time.perf_counter() - start
    start = time.perf_counter()
    reduced = [correlator_of(state) for state in trajectory.states]
    correlator_s = time.perf_counter() - start

    reference = propagate_correlator(x, y, np.zeros((n_sites, n_sites)), *grid,
                                     stride=CHAIN["stride"])
    trajectory_dev = max(float(np.abs(c - sample).max())
                         for c, sample in zip(reduced, reference.states))
    steady_dev = float(np.abs(correlator_of(rho) - solve_lyapunov_direct(x, y).entries).max())
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    return {"n_sites": n_sites, "widest_block": widest, "samples": len(reduced),
            "steady_s": round(steady_s, 4), "evolve_s": round(evolve_s, 4),
            "correlator_s": round(correlator_s, 4), "max_rss_mb": round(peak_mb, 1),
            "steady_deviation": steady_dev, "trajectory_deviation": trajectory_dev}


if __name__ == "__main__":
    for n in range(2, MAX_ORACLE_SITES + 1):
        print(json.dumps(measure(n)), flush=True)
