"""Regenerate the frozen reference values in tests/data/goldens.json.

The locking and crossover thresholds are qualitative, so the suite
measures them once with this script and then pins the numbers.  Rerun
only when a deliberate change to the pipeline shifts the reference
output; review the diff before committing a new file.
"""

import os
import sys

import numpy as np

from gausschain import (SshParams, build_hatano_nelson, build_local_pump, diagnostics_report,
                        hn_analytic_spectrum, hn_source_scan, solve_lyapunov_direct,
                        ssh_crossover_scan)
from gausschain.cli import COMMAND_DEFAULTS, _hn_params, _peak_site
from gausschain.matio import write_json

OUT = os.path.join(os.path.dirname(__file__), os.pardir, "tests", "data",
                   "goldens.json")


def hn_locking_block() -> dict:
    cfg = COMMAND_DEFAULTS["hn-profiles"]
    params = _hn_params(cfg)
    x = build_hatano_nelson(params)
    pump = build_local_pump(params.n_sites, cfg["pump_site"], cfg["pump_strength"])
    report = diagnostics_report(hn_analytic_spectrum(params),
                                solve_lyapunov_direct(x, pump))
    orbs = report.orbitals

    # every pump site, as hn-source-scan runs by default, and its argmax rule
    cfg = COMMAND_DEFAULTS["hn-source-scan"]
    scan = hn_source_scan(_hn_params(cfg), cfg["pump_strength"])
    deviation = np.abs(scan.nu_max_normalized - scan.loading_normalized)
    return {
        "overlap_slow": report.overlaps["slow"],
        "nu_max": orbs.occupations[0],
        "occupation_second_normalized": orbs.occupations_normalized()[1],
        "scan_max_deviation": deviation.max(),
        "scan_deviation_argmax_site": _peak_site(scan.sites, deviation),
        "scan_occupation_argmax_site": _peak_site(scan.sites, scan.nu_max_normalized),
        "scan_loading_argmax_site": _peak_site(scan.sites, scan.loading_normalized),
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
        return {"o_edge": sub.o_edge[0], "o_slow": sub.o_slow[0]}

    return {
        "sign_changes": len(flips),
        "crossing_bracket": scan.g_values[flips[0]:flips[0] + 2] if flips else None,
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
