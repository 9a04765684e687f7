"""Rebuild tests/data/goldens.json from the commands' own outputs.

The pinned locking and crossover values are fields of what hn-profiles,
hn-source-scan, ssh-crossover and ssh-profiles (g -0.25 and 0.20) write at
their defaults.  This script computes none of them: it runs the commands
through gausschain.cli.main into a temporary directory and copies those
fields.  Rerun only when a deliberate change to the pipeline shifts the
reference output; review the diff before committing a new file.

Usage: PYTHONPATH=src python tools/make_goldens.py
"""

import os
import sys
import tempfile

from gausschain.cli import main as cli_main
from gausschain.matio import read_json, write_json

OUT = os.path.join(os.path.dirname(__file__), os.pardir, "tests", "data",
                   "goldens.json")


def summary(outdir: str, name: str, *argv: str) -> dict:
    """Run one command into ``outdir/name`` and return its JSON summary."""
    target = os.path.join(outdir, name)
    if cli_main([*argv, "--out", target]) != 0:
        raise SystemExit(f"gausschain {' '.join(argv)} failed")
    return read_json(os.path.join(target, argv[0] + ".json"))


def golden_payload(outdir: str) -> dict:
    profile = summary(outdir, "profiles", "hn-profiles")
    scan = summary(outdir, "scan", "hn-source-scan")
    crossings = summary(outdir, "crossover", "ssh-crossover")["crossings"]
    edge, bulk = (summary(outdir, f"g{g}", "ssh-profiles", f"--g={g}") for g in ("-0.25", "0.2"))
    return {
        "hn_locking": {
            "overlap_slow": profile["overlap_slow"],
            "nu_max": profile["occupations"][0],
            "occupation_second_normalized": profile["occupations_normalized"][1],
            "scan_max_deviation": scan["max_abs_deviation"],
            "scan_deviation_argmax_site": scan["deviation_argmax_site"],
            "scan_occupation_argmax_site": scan["occupation_argmax_site"],
            "scan_loading_argmax_site": scan["loading_argmax_site"],
        },
        "ssh_crossover": {
            "sign_changes": len(crossings),
            "crossing_bracket": crossings[0] if crossings else None,
            "edge_point": {"o_edge": edge["overlap_edge"], "o_slow": edge["overlap_slow"]},
            "bulk_point": {"o_edge": bulk["overlap_edge"], "o_slow": bulk["overlap_slow"]},
        },
    }


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        payload = golden_payload(tmp)
    write_json(OUT, payload)
    print(f"wrote {os.path.normpath(OUT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
