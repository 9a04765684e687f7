"""Time DirectSolver on long reference chains, one JSON line per size.

For the single-band reference chain (t_right = 1, t_left = 0.17,
kappa = 0.91, local pump of strength 0.03 at site 15) at 200, 400 and 700
sites, prints the number of doublings, how many of them the thin start
takes and the width its factor reaches, and the median over five runs
of the construction (``build_s``), of one ``solve`` with its residual
(``solve_s``) and of the closed-form spectrum plus its unit slow mode
(``spectrum_s``).  ``minflt_build`` and ``minflt_solve`` are the minor
page faults (``getrusage``) per construction and per solve over the same
timed runs, so a change that moves faults can be told from one that
moves flops.
Writes no file.  Run from the repository root with BLAS on one thread:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/solver_scaling.py
"""

import json
import resource
import time

import numpy as np

from gausschain import (HatanoNelsonParams, build_hatano_nelson, build_local_pump,
                        hn_analytic_spectrum, identify_slow_mode)
from gausschain.steady import DirectSolver, _thin_doublings

SIZES = (200, 400, 700)
SOLVES = 5


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def timed(run) -> tuple[float, float]:
    """Median seconds of SOLVES runs and their minor page faults per run."""
    times, faults = [], minor_faults()
    for _ in range(SOLVES):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return round(float(np.median(times)), 4), (minor_faults() - faults) / SOLVES


def slow_unit_mode(params: HatanoNelsonParams):
    spectrum = hn_analytic_spectrum(params)
    return spectrum.right_mode_unit(identify_slow_mode(spectrum))


def measure(n_sites: int) -> dict:
    params = HatanoNelsonParams(n_sites, 1.0, 0.17, 0.91)
    x = build_hatano_nelson(params)
    solver = DirectSolver(x)
    pump = build_local_pump(n_sites, 15, 0.03)
    doublings = len(solver._powers)
    thin = _thin_doublings(1, n_sites, doublings)
    build_s, build_faults = timed(lambda: DirectSolver(x))
    solve_s, solve_faults = timed(lambda: solver.solve(pump))
    return {"n_sites": n_sites, "doublings": doublings, "thin_doublings": thin,
            "thin_width": 1 << thin, "build_s": build_s, "solve_s": solve_s,
            "spectrum_s": timed(lambda: slow_unit_mode(params))[0],
            "minflt_build": build_faults, "minflt_solve": solve_faults}


if __name__ == "__main__":
    for n in SIZES:
        print(json.dumps(measure(n)), flush=True)
