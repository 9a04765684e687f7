"""Regenerate tests/data/occupations_40.json, the occupation truth of the reference chain.

The steady correlator of the 40-site single-band reference chain
(t_right = 1, t_left = 0.17, kappa = 0.91, pump 0.03 at site 15) is summed
in mpmath by the test suite's ``hn_sine_steady_mp`` and rounded to
doubles; ``mpmath.eigsy`` then diagonalizes that matrix at DPS digits.
Rounding C to doubles moves each occupation by at most EPS/2 ||C||_F
(Weyl), recorded as ``abs_accuracy`` (8.5e-10): every stored occupation
is the chain's own to within that, about 300 times below the occupation
floor of natural_orbitals (2.7e-7 here).  Run from the repository root:

    PYTHONPATH=src:. python tools/make_occupation_truth.py
"""

import os

import mpmath
import numpy as np

from gausschain.cli import COMMAND_DEFAULTS
from gausschain.matio import write_json
from tests.conftest import hn_sine_steady_mp

OUT = os.path.join(os.path.dirname(__file__), os.pardir, "tests", "data",
                   "occupations_40.json")
DPS = 50


def occupation_truth() -> dict:
    cfg = {k: COMMAND_DEFAULTS["hn-occupations"][k]
           for k in ("n_sites", "t_right", "t_left", "kappa", "pump_site", "pump_strength")}
    unit = hn_sine_steady_mp(cfg["n_sites"], cfg["t_right"], cfg["t_left"], cfg["kappa"],
                             cfg["pump_site"])
    c = cfg["pump_strength"] * unit
    with mpmath.workdps(DPS):
        nu = mpmath.eigsy(mpmath.matrix(c.tolist()), eigvals_only=True)
        occupations = sorted((float(v) for v in nu), reverse=True)
    return {**cfg, "dps": DPS,
            "abs_accuracy": float(np.finfo(float).eps / 2 * np.linalg.norm(c)),
            "occupations": occupations}


if __name__ == "__main__":
    write_json(OUT, occupation_truth())
    print(f"wrote {os.path.normpath(OUT)}")
