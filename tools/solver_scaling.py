"""Time DirectSolver on long reference chains, one JSON line per size.

For the single-band reference chain (t_right = 1, t_left = 0.17,
kappa = 0.91, local pump of strength 0.03 at site 15) at 200, 400 and 700
sites, prints the number of doublings, how many of them the thin start
takes and the width its factor reaches, the construction time and the
median time of one ``solve`` (residual included).  Writes no file.  Run
from the repository root with BLAS on one thread:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/solver_scaling.py
"""

import json
import time

import numpy as np

from gausschain import HatanoNelsonParams, build_hatano_nelson, build_local_pump
from gausschain.steady import DirectSolver, _thin_doublings

SIZES = (200, 400, 700)
SOLVES = 5


def measure(n_sites: int) -> dict:
    x = build_hatano_nelson(HatanoNelsonParams(n_sites, 1.0, 0.17, 0.91))
    start = time.perf_counter()
    solver = DirectSolver(x)
    build = time.perf_counter() - start
    pump = build_local_pump(n_sites, 15, 0.03)
    solves = []
    for _ in range(SOLVES):
        start = time.perf_counter()
        solver.solve(pump)
        solves.append(time.perf_counter() - start)
    doublings = len(solver._powers)
    thin = _thin_doublings(1, n_sites, doublings)
    return {"n_sites": n_sites, "doublings": doublings, "thin_doublings": thin,
            "thin_width": 1 << thin, "build_s": round(build, 4),
            "solve_s": round(float(np.median(solves)), 4)}


if __name__ == "__main__":
    for n in SIZES:
        print(json.dumps(measure(n)), flush=True)
