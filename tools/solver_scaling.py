"""Time DirectSolver and the chain spectrum on long reference chains, one JSON line per size.

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

Then, for each size, one ``natural_orbitals`` line on the correlator of
that solve: the median over five calls (``orbitals_s``), how many
occupations it resolves above the floor (``resolved_count``) and the width
of the Rayleigh-Ritz block that certified them (``block_width``; N means
the whole of C was diagonalized).

Then, for ``hn_source_scan`` on the same chain with the same pump
strength at 40 and 200 sites, one line with the median over five runs of
the whole scan (``scan_s``), of the DirectSolver construction
(``build_s``), of the stacked solve of the first chunk of pumps, named by
their sites (``chunk_solve_s``, ``pumps`` of them: all 40 at 40 sites, 3
at 200), and of the certified top occupations of that chunk
(``chunk_top_s``).

Last, for the two-band reference chain (t1 = 0.5, t2 = 1, g = -0.25,
kappa = 1.5) at 100 and 500 cells, one line with the median over five
runs of ``biorthogonal_decompose`` on its X (``decompose_s``).
Writes no file.  Run from the repository root with BLAS on one thread:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/solver_scaling.py
"""

import json
import resource
import time

import numpy as np

from gausschain import (HatanoNelsonParams, SshParams, biorthogonal_decompose,
                        build_hatano_nelson, build_local_pump, build_ssh, hn_analytic_spectrum,
                        hn_source_scan, identify_slow_mode, natural_orbitals)
from gausschain.orbitals import SCAN_CHUNK_ENTRIES, _top_occupations
from gausschain.steady import DirectSolver, _thin_doublings

SIZES = (200, 400, 700)
SCAN_SIZES = (40, 200)
SPECTRUM_CELLS = (100, 500)
SOLVES = 5
STRENGTH = 0.03


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def timed(run) -> tuple[float, float]:
    """Median seconds of SOLVES runs and their minor page faults per run."""
    times, faults = [], minor_faults()
    for _ in range(SOLVES):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return round(float(np.median(times)), 6), (minor_faults() - faults) / SOLVES


def slow_unit_mode(params: HatanoNelsonParams):
    spectrum = hn_analytic_spectrum(params)
    return spectrum.right_mode_unit(identify_slow_mode(spectrum))


def measure(n_sites: int) -> dict:
    params = HatanoNelsonParams(n_sites, 1.0, 0.17, 0.91)
    x = build_hatano_nelson(params)
    solver = DirectSolver(x)
    pump = build_local_pump(n_sites, 15, STRENGTH)
    doublings = len(solver._powers)
    thin = _thin_doublings(1, n_sites, doublings)
    build_s, build_faults = timed(lambda: DirectSolver(x))
    solve_s, solve_faults = timed(lambda: solver.solve(pump))
    return {"n_sites": n_sites, "doublings": doublings, "thin_doublings": thin,
            "thin_width": 1 << thin, "build_s": build_s, "solve_s": solve_s,
            "spectrum_s": timed(lambda: slow_unit_mode(params))[0],
            "minflt_build": build_faults, "minflt_solve": solve_faults}


def measure_orbitals(n_sites: int) -> dict:
    x = build_hatano_nelson(HatanoNelsonParams(n_sites, 1.0, 0.17, 0.91))
    corr = DirectSolver(x).solve(build_local_pump(n_sites, 15, STRENGTH))
    orbs = natural_orbitals(corr)
    return {"orbitals": "natural_orbitals", "n_sites": n_sites,
            "orbitals_s": timed(lambda: natural_orbitals(corr))[0],
            "resolved_count": orbs.resolved_count, "block_width": orbs.block_width}


def measure_scan(n_sites: int) -> dict:
    params = HatanoNelsonParams(n_sites, 1.0, 0.17, 0.91)
    x = build_hatano_nelson(params)
    solver = DirectSolver(x)
    sites = np.arange(1, min(n_sites, max(1, SCAN_CHUNK_ENTRIES // n_sites ** 2)) + 1)
    corr, _ = solver.solve_local(sites, STRENGTH)
    return {"scan": "hn_source_scan", "n_sites": n_sites, "pumps": int(sites.size),
            "scan_s": timed(lambda: hn_source_scan(params, STRENGTH))[0],
            "build_s": timed(lambda: DirectSolver(x))[0],
            "chunk_solve_s": timed(lambda: solver.solve_local(sites, STRENGTH))[0],
            "chunk_top_s": timed(lambda: _top_occupations(corr))[0]}


def measure_spectrum(n_cells: int) -> dict:
    x = build_ssh(SshParams(n_cells, 0.5, 1.0, -0.25, 1.5))
    return {"spectrum": "biorthogonal_decompose", "n_cells": n_cells,
            "decompose_s": timed(lambda: biorthogonal_decompose(x))[0]}


if __name__ == "__main__":
    for n in SIZES:
        print(json.dumps(measure(n)), flush=True)
    for n in SIZES:
        print(json.dumps(measure_orbitals(n)), flush=True)
    for n in SCAN_SIZES:
        print(json.dumps(measure_scan(n)), flush=True)
    for cells in SPECTRUM_CELLS:
        print(json.dumps(measure_spectrum(cells)), flush=True)
