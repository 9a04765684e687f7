"""Regenerate the frozen reference values in tests/data/goldens.json.

The locking and crossover thresholds are qualitative, so the suite
measures them once with this script and then pins the numbers.  Rerun
only when a deliberate change to the pipeline shifts the reference
output; review the diff before committing a new file.
"""

import os
import sys

import numpy as np

from gausschain import (HatanoNelsonParams, SshParams, build_hatano_nelson,
                        build_local_pump, diagnostics_report, hn_analytic_spectrum,
                        hn_source_scan, solve_lyapunov_direct, ssh_crossover_scan)
from gausschain.cli import COMMAND_DEFAULTS
from gausschain.matio import write_json

OUT = os.path.join(os.path.dirname(__file__), os.pardir, "tests", "data",
                   "goldens.json")


def hn_locking_block() -> dict:
    params = HatanoNelsonParams(40, 1.0, 0.17, 0.91)
    x = build_hatano_nelson(params)
    pump = build_local_pump(40, 15, 0.03)
    report = diagnostics_report(hn_analytic_spectrum(params),
                                solve_lyapunov_direct(x, pump))
    orbs = report.orbitals

    scan = hn_source_scan(params, 0.03)
    deviation = np.abs(scan.nu_max_normalized - scan.loading_normalized)
    return {
        "overlap_slow": float(report.overlaps["slow"]),
        "nu_max": float(orbs.occupations[0]),
        "occupation_second_normalized": float(orbs.occupations_normalized()[1]),
        "scan_max_deviation": float(deviation.max()),
        "scan_deviation_argmax_site": int(scan.sites[int(np.argmax(deviation))]),
        "scan_occupation_argmax_site": int(scan.sites[int(np.argmax(scan.nu_max_normalized))]),
        "scan_loading_argmax_site": int(scan.sites[int(np.argmax(scan.loading_normalized))]),
    }


def ssh_crossover_block() -> dict:
    cfg = COMMAND_DEFAULTS["ssh-crossover"]
    params = SshParams(cfg["n_cells"], cfg["t1"], cfg["t2"], 0.0, cfg["kappa"])
    pump = cfg["pump_cell"], cfg["pump_sublattice"], cfg["pump_strength"]
    grid = np.linspace(cfg["g_min"], cfg["g_max"], cfg["g_points"])
    scan = ssh_crossover_scan(params, *pump, g_values=grid)
    if scan.failures:
        raise SystemExit(f"crossover scan had failures: {scan.failures}")
    margin = scan.o_edge - scan.o_slow
    flips = [k for k in range(margin.size - 1) if margin[k] * margin[k + 1] < 0]

    def point(g):
        # the scan reads each row off diagnostics_report, as ssh-profiles does
        sub = ssh_crossover_scan(params, *pump, g_values=[g])
        return {"o_edge": float(sub.o_edge[0]), "o_slow": float(sub.o_slow[0])}

    return {
        "sign_changes": len(flips),
        "crossing_bracket": [float(scan.g_values[flips[0]]),
                             float(scan.g_values[flips[0] + 1])] if flips else None,
        "edge_point": point(-0.25),
        "bulk_point": point(0.20),
    }


def main() -> int:
    payload = {"hn_locking": hn_locking_block(), "ssh_crossover": ssh_crossover_block()}
    write_json(OUT, payload)
    print(f"wrote {os.path.normpath(OUT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
