"""Workload definitions: seeded op plans, reference truths and output checks.

Every workload is a closed loop with one client: the next op starts when
the previous one has returned.  Ops are grouped into cycles that always
hold the same mix (one op per stratum of the parameter range), and a run
measures whole cycles, so the mix, and with it every rate and percentile,
does not drift with the seed.  The seed picks the parameters inside each
stratum; the program only ever receives the generated inputs.

Chains whose truths are costly (pump-scan, long-chain, the cli profile
commands) come from fixed lattices or reference configurations, so
their truths are computed once per checkout and cached, and worst-case
digits do not depend on the seed.  Each op still sends a fresh request:
the seed scales X by an exact power of two and draws the pump strength,
and C(2^k X, s Y) = s 2^-k C(X, Y) holds bit for bit, so the cached
truth stays exact.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys

import mpmath
import numpy as np

import truth

HERE = os.path.dirname(os.path.abspath(__file__))
CACHE_DIR = os.path.join(HERE, "_cache")

# Digit floors: a normwise answer with fewer correct digits than this is
# counted as a failed op (garbage returned with a clean exit).
NORM_DIGITS_FLOOR = 6.0
# Limits the oracle-check command states for itself.
ORACLE_TRAJECTORY_LIMIT = 1e-7
ORACLE_STEADY_LIMIT = 1e-8

SCAN_SITES = 40
LONG_SITES = 200
LONG_CELLS = 100
SSH_T1, SSH_T2 = 0.5, 1.0
T_LEFT_RANGE = (0.1, 0.6)
G_RANGE = (-0.55, 0.60)
MARGIN_RANGE = (0.1, 0.4)


def _truth_version() -> str:
    with open(truth.__file__, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def _strata(lo: float, hi: float, count: int):
    step = (hi - lo) / count
    return [(lo + k * step, lo + (k + 1) * step) for k in range(count)]


def _hn_kappa(t_left: float, n: int, margin: float) -> float:
    """Damping a margin above the finite-chain stability edge (t_right = 1)."""
    return 2.0 * math.sqrt(t_left) * math.cos(math.pi / (n + 1)) + margin


# ---- fixed lattices (seed-independent, so truths are cached) ----------------

def _lattice(tag: str, ranges, points_per_stratum: int = 2):
    rng = np.random.default_rng(int(hashlib.sha256(tag.encode()).hexdigest()[:8], 16))
    return [[tuple(float(rng.uniform(*r)) if isinstance(r, tuple) else r for r in stratum)
             for _ in range(points_per_stratum)] for stratum in ranges]


def scan_lattice():
    """4 strata of t_left, 2 points each: (t_left, margin)."""
    return _lattice("pump-scan", [(s, MARGIN_RANGE) for s in _strata(*T_LEFT_RANGE, 4)])


def long_lattice():
    """4 single-band strata of t_left and 2 two-band strata of g."""
    hn = _lattice("long-chain-hn", [(s, MARGIN_RANGE, (0.0, 1.0))
                                    for s in _strata(*T_LEFT_RANGE, 4)])
    ssh = _lattice("long-chain-ssh", [(s, MARGIN_RANGE) for s in _strata(*G_RANGE, 2)])
    out = []
    for stratum in hn:
        out.append([{"kind": "hn", "n": LONG_SITES, "t_left": tl,
                     "kappa": _hn_kappa(tl, LONG_SITES, m),
                     "pump": 1 + int(u * LONG_SITES)} for tl, m, u in stratum])
    for stratum in ssh:
        out.append([{"kind": "ssh", "cells": LONG_CELLS, "g": g,
                     "kappa": SSH_T1 + SSH_T2 + m} for g, m in stratum])
    return out


# The cli mix runs the commands' reference configurations (40 sites, 20 cells).
CLI_HN = {"kind": "hn", "n": 40, "t_left": 0.17, "kappa": 0.91, "pump": 15}
CLI_SSH = {"kind": "ssh", "cells": 20, "g": -0.25, "kappa": 1.5, "pump": 1}


# ---- X as the program builds it (used for truths and to confirm each op) ----

def hn_bands(n, t_right, t_left, kappa):
    return kappa, [-t_right] * (n - 1), [-t_left] * (n - 1)


def ssh_bands(cells, t1, t2, g, kappa):
    right = [t1 * math.exp(g), t2 * math.exp(g)]
    left = [t1 * math.exp(-g), t2 * math.exp(-g)]
    sub = [-right[j % 2] for j in range(2 * cells - 1)]
    sup = [-left[j % 2] for j in range(2 * cells - 1)]
    return kappa, sub, sup


def _chain(bands) -> truth.Chain:
    kappa, sub, sup = bands
    return truth.Chain(kappa, sub, sup)


# ---- truths ----------------------------------------------------------------

def _scan_truth(tl: float, margin: float) -> dict:
    """Unit-strength nu_max(s) and A_1(s) for every pump site of one chain."""
    n = SCAN_SITES
    kappa = _hn_kappa(tl, n, margin)
    chain = _chain(hn_bands(n, 1.0, tl, kappa))
    half = (n + 1) // 2
    greens = chain.greens(range(half))
    nu = []
    for p in range(n):
        # H is persymmetric, so G for pump n-1-p is G for pump p mirrored
        gh, gl = greens[p] if p < half else (g[:, ::-1][::-1] for g in greens[n - 1 - p])
        nu.append(truth.top_eigenvalue(*chain.assemble(gh, gl, p)))
    with mpmath.workdps(40):
        t, th = mpmath.sqrt(mpmath.mpf(tl)), mpmath.pi / (n + 1)
        beta1 = mpmath.mpf(kappa) - 2 * t * mpmath.cos(th)
        inv_r = t  # 1/r = sqrt(t_left / t_right) with t_right = 1
        a1 = [(inv_r ** (2 * j)) * (2 / mpmath.mpf(n + 1)) * mpmath.sin(j * th) ** 2
              / (2 * beta1) for j in range(1, n + 1)]
    return {"nu": truth.dd_from_mpf(nu), "a1": truth.dd_from_mpf(a1)}


def _long_truth(point: dict) -> dict:
    if point["kind"] == "hn":
        chain = _chain(hn_bands(point["n"], 1.0, point["t_left"], point["kappa"]))
        p = point["pump"] - 1
        c = chain.assemble(*chain.greens([p])[0], p)
        truth.spot_check_sine_basis(c, point["n"], 1.0, point["t_left"], point["kappa"], p)
    else:
        chain = _chain(ssh_bands(point["cells"], SSH_T1, SSH_T2, point["g"], point["kappa"]))
        c = chain.assemble(*chain.greens([0])[0], 0)
    return {"c": c}


def _cli_truth(point: dict) -> dict:
    """Unit-strength C of a reference config plus what the commands print."""
    if point["kind"] == "hn":
        bands = hn_bands(point["n"], 1.0, point["t_left"], point["kappa"])
    else:
        bands = ssh_bands(point["cells"], SSH_T1, SSH_T2, point["g"], point["kappa"])
    chain, p = _chain(bands), point["pump"] - 1
    ch, cl = chain.assemble(*chain.greens([p])[0], p)
    diag = ch.diagonal().astype(np.longdouble) + cl.diagonal()
    return {"nu_max": truth.dd_from_mpf([truth.top_eigenvalue(ch, cl)]),
            "density": _ld_to_dd(diag / diag.sum()), "trace": _ld_to_dd([diag.sum()])}


def _ld_to_dd(x) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.longdouble)
    hi = x.astype(np.float64)
    return hi, (x - hi).astype(np.float64)


def _cache_path(key: dict) -> str:
    blob = json.dumps({"v": _truth_version(), **key}, sort_keys=True).encode()
    return os.path.join(CACHE_DIR, hashlib.sha256(blob).hexdigest()[:24] + ".npz")


def _compute(job):
    kind, arg = job
    return {"scan": lambda: _scan_truth(*arg), "long": lambda: _long_truth(arg),
            "cli": lambda: _cli_truth(arg)}[kind]()


def _load(path: str) -> dict:
    with np.load(path) as data:
        out = {}
        for name in {k.rsplit("_", 1)[0] for k in data.files}:
            out[name] = (data[name + "_hi"], data[name + "_lo"])
        return out


def _store(path: str, value: dict) -> None:
    os.makedirs(CACHE_DIR, exist_ok=True)
    arrays = {}
    for name, (hi, lo) in value.items():
        arrays[name + "_hi"], arrays[name + "_lo"] = hi, lo
    tmp = path + ".tmp.npz"
    np.savez(tmp, **arrays)
    os.replace(tmp, path)


def lattice_jobs():
    jobs = [("scan", pt) for stratum in scan_lattice() for pt in stratum]
    jobs += [("long", pt) for stratum in long_lattice() for pt in stratum]
    jobs += [("cli", CLI_HN), ("cli", CLI_SSH)]
    return jobs


BUILD_WORKERS = 2
BUILD_TIMEOUT_S = 800


def _missing_jobs():
    return [job for job in lattice_jobs() if not os.path.exists(_cache_path({"job": job}))]


def _build_jobs(indices) -> None:
    jobs = lattice_jobs()
    for k in indices:
        _store(_cache_path({"job": jobs[k]}), _compute(jobs[k]))


def build_truths(log) -> None:
    """Compute every missing lattice truth (the one-off build of a checkout).

    The work is split over plain child interpreters, each handed a fixed
    list of jobs, which are always waited for, so no helper process
    outlives the run.
    """
    missing = [k for k, job in enumerate(lattice_jobs())
               if not os.path.exists(_cache_path({"job": job}))]
    if not missing:
        return
    log(f"building {len(missing)} reference truths (once per checkout)")
    shares = [share for w in range(BUILD_WORKERS) if (share := missing[w::BUILD_WORKERS])]
    procs = []
    try:
        for share in shares:
            procs.append(subprocess.Popen([sys.executable, os.path.abspath(__file__),
                                           *map(str, share)], cwd=HERE))
        for proc in procs:
            proc.wait(timeout=BUILD_TIMEOUT_S)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    if any(proc.returncode != 0 for proc in procs) or _missing_jobs():
        raise RuntimeError("building the reference truths failed")


def lattice_truth(job) -> dict:
    return _load(_cache_path({"job": job}))


# ---- seeded plans ------------------------------------------------------------

class _Scales:
    """Hands out power-of-two scales so a lattice point is never sent twice alike."""

    def __init__(self, rng, choices):
        self.rng, self.choices, self.used = rng, list(choices), {}

    def next(self, key) -> int:
        order = self.used.get(key)
        if order is None or not order:
            order = self.used[key] = [int(k) for k in self.rng.permutation(self.choices)]
        return order.pop()


def plan(workload: str, seed: int, cycles: int) -> list[list[dict]]:
    rng = np.random.default_rng(seed)
    return [PLANNERS[workload](rng, c, state) for state in [{}] for c in range(cycles)]


def _point(rng, state, stratum: int, cycle: int, count: int) -> int:
    """Lattice point of a stratum for this cycle: a seeded offset, then round robin.

    Every run thus visits the points of each stratum in equal shares.
    """
    offsets = state.setdefault("offsets", {})
    if stratum not in offsets:
        offsets[stratum] = int(rng.integers(count))
    return (offsets[stratum] + cycle) % count


def _plan_scan(rng, cycle, state):
    scales = state.setdefault("scales", _Scales(rng, range(-2, 3)))
    ops = []
    for si, stratum in enumerate(scan_lattice()):
        pi = _point(rng, state, si, cycle, len(stratum))
        tl, margin = stratum[pi]
        k = scales.next((si, pi))
        f = 2.0 ** k
        ops.append({"kind": "scan", "n": SCAN_SITES, "t_right": f, "t_left": tl * f,
                    "kappa": _hn_kappa(tl, SCAN_SITES, margin) * f,
                    "strength": float(rng.uniform(0.01, 0.1)), "scale": k,
                    "truth": ["scan", [tl, margin]]})
    return ops


def _plan_long(rng, cycle, state):
    scales = state.setdefault("scales", _Scales(rng, range(-3, 4)))
    ops = []
    for si, stratum in enumerate(long_lattice()):
        pi = _point(rng, state, si, cycle, len(stratum))
        point = stratum[pi]
        k = scales.next((si, pi))
        f = 2.0 ** k
        op = {"kind": point["kind"], "kappa": point["kappa"] * f, "scale": k,
              "strength": float(10.0 ** rng.uniform(-3, 0)), "truth": ["long", point]}
        if point["kind"] == "hn":
            op.update(n=point["n"], t_right=f, t_left=point["t_left"] * f, pump=point["pump"])
        else:
            op.update(cells=point["cells"], t1=SSH_T1 * f, t2=SSH_T2 * f, g=point["g"],
                      pump_cell=1, pump_sublattice="A")
        ops.append(op)
    return ops


# oracle chains per size: (t_left, damping margin over the feasibility bound)
ORACLE_CENTRES = {2: (0.17, 0.1), 3: (0.35, 0.1), 4: (0.5, 0.1)}


def _plan_oracle(rng, cycle, state):
    ops = []
    for n, (tl0, margin) in ORACLE_CENTRES.items():
        tl = tl0 * float(rng.uniform(0.97, 1.03))
        gamma = float(rng.uniform(0.09, 0.11))
        # feasibility of the local jump decomposition: 2 kappa - gamma >= 2 (tR + tL)
        kappa = 1.0 + tl + gamma / 2 + margin
        min_rate = kappa - 2.0 * math.sqrt(tl) * math.cos(math.pi / (n + 1))
        ops.append({"kind": "oracle", "n": n, "t_right": 1.0, "t_left": tl, "kappa": kappa,
                    "gamma": gamma, "t_final": 10.0, "dt": 0.002, "stride": 50,
                    "t_max": None if n <= 3 else 50.0 / min_rate})
    return ops


def _num(v: float) -> str:
    return repr(float(v))


def _plan_cli(rng, cycle, state):
    # reference configs, sent as fresh requests: X scaled by 2^k, seeded pump strength
    k_hn, k_ssh = (int(k) for k in rng.integers(-2, 3, size=2))
    f_hn, f_ssh = 2.0 ** k_hn, 2.0 ** k_ssh
    strength = float(rng.uniform(0.01, 0.1))
    hn_args = ["--n-sites", str(CLI_HN["n"]), "--t-right", _num(f_hn),
               "--t-left", _num(CLI_HN["t_left"] * f_hn), "--kappa", _num(CLI_HN["kappa"] * f_hn),
               "--pump-site", str(CLI_HN["pump"]), "--pump-strength", _num(strength)]
    hn_truth = {"point": CLI_HN, "factor": strength / f_hn}
    ssh_strength = float(10.0 ** rng.uniform(-9, -7))
    ssh_args = ["--n-cells", str(CLI_SSH["cells"]), "--t1", _num(SSH_T1 * f_ssh),
                "--t2", _num(SSH_T2 * f_ssh), f"--g={CLI_SSH['g']!r}",
                "--kappa", _num(CLI_SSH["kappa"] * f_ssh), "--pump-strength", _num(ssh_strength)]
    ssh_truth = {"point": CLI_SSH, "factor": ssh_strength / f_ssh}
    d_tl, d_gamma = float(rng.uniform(*T_LEFT_RANGE)), float(rng.uniform(0.05, 0.2))
    d_kappa = 1.0 + d_tl + d_gamma / 2 + float(rng.uniform(0.05, 0.3))
    s_g, s_gamma = float(rng.uniform(-0.3, 0.3)), float(rng.uniform(0.05, 0.2))
    s_kappa = (SSH_T1 + SSH_T2) * math.cosh(s_g) + s_gamma / 2 + float(rng.uniform(0.05, 0.3))
    # validate expects a physical pair, so its damping meets the jump-feasibility bound
    v_tl, v_gamma = float(rng.uniform(*T_LEFT_RANGE)), float(rng.uniform(0.05, 0.2))
    v_kappa = 1.0 + v_tl + v_gamma / 2 + float(rng.uniform(0.05, 0.3))
    configs = [
        {"argv": ["hn-profiles", "--out", "."] + hn_args, "truth": hn_truth},
        {"argv": ["hn-occupations", "--out", "."] + hn_args, "truth": hn_truth},
        {"argv": ["ssh-profiles", "--out", "."] + ssh_args, "truth": ssh_truth},
        {"argv": ["inverse-design", "--out", ".", "--model", "hn", "--t-left", _num(d_tl),
                  "--kappa", _num(d_kappa), "--gamma", _num(d_gamma)],
         "truth": {"bands": hn_bands(3, 1.0, d_tl, d_kappa), "gamma": d_gamma}},
        {"argv": ["inverse-design", "--out", ".", "--model", "ssh", f"--g={s_g!r}",
                  "--kappa", _num(s_kappa), "--gamma", _num(s_gamma)],
         "truth": {"bands": ssh_bands(3, SSH_T1, SSH_T2, s_g, s_kappa), "gamma": s_gamma}},
        {"argv": ["validate", "--out", ".", "--x-file", "x.json", "--y-file", "y.json"],
         "inputs": {"bands": hn_bands(12, 1.0, v_tl, v_kappa), "gamma": v_gamma}},
    ]
    outputs = {"inverse-design": ["inverse-design.json"], "validate": ["validate.json"]}
    ops = []
    for repeat in (0, 1):
        for j, cfg in enumerate(configs):
            name = cfg["argv"][0]
            ops.append({"kind": "cli", "config": j, "repeat": repeat,
                        "outputs": outputs.get(name, [name + ".csv", name + ".json"]),
                        **cfg})
    return ops


def warmup(plan) -> dict:
    """The set-up op: the plan's first op; the oracle's trajectory is cut to t <= 1."""
    op = dict(plan[0][0])
    if op["kind"] == "oracle":
        op["t_final"] = 1.0
    return op


PLANNERS = {"pump-scan": _plan_scan, "long-chain": _plan_long,
            "oracle": _plan_oracle, "cli": _plan_cli}


# ---- checking -------------------------------------------------------------------

class BenchError(RuntimeError):
    """The benchmark itself is inconsistent (not a failure of the program)."""


def _clamp(digits: float) -> float:
    return min(16.0, max(0.0, digits))


def _dd_times(t, factor: float):
    return truth.dd_scale(np.asarray(t[0], float), np.asarray(t[1], float), factor)


def digits(prog, t) -> tuple[float, float] | None:
    """(normwise, entrywise) correct digits of ``prog`` against a double-double truth.

    Normwise: -log10 ||prog - T||_F / ||T||_F.  Entrywise: -log10 of the
    worst |prog_ij - T_ij| / |T_ij| over nonzero T_ij, so tiny entries
    count.  Both clamped to [0, 16].  None if ``prog`` is not finite.
    """
    prog = np.asarray(prog)
    if not np.all(np.isfinite(prog)):
        return None
    th, tl = (np.asarray(a, dtype=float) for a in t)
    err = np.hypot((np.real(prog) - th) - tl, np.imag(prog))
    scale = float(np.linalg.norm(th))
    norm = float(np.linalg.norm(err)) / scale
    nz = th != 0
    entry = float(np.max(err[nz] / np.abs(th[nz]))) if nz.any() else 0.0
    if (~nz).any() and float(err[~nz].max()) > 0:
        entry = max(entry, float(err[~nz].max()) / scale)
    as_digits = lambda e: 16.0 if e == 0 else _clamp(-math.log10(e))
    return as_digits(norm), as_digits(entry)


def _worst(pairs):
    """Digits of an op with several outputs: the worst of each; None if any is not finite."""
    if any(p is None for p in pairs):
        return None
    return min(p[0] for p in pairs), min(p[1] for p in pairs)


def _graded(dig):
    """(failure kind, digits) for an op whose outputs are all compared with truth."""
    return ("nonfinite" if dig is None else None), dig


def _same_bands(out: dict, bands, factor: float) -> None:
    kappa, sub, sup = bands
    want = {"diag": [kappa * factor] * (len(sub) + 1), "sub": [v * factor for v in sub],
            "sup": [v * factor for v in sup]}
    for key, values in want.items():
        got = np.asarray(out[key])
        if got.shape != (len(values),) or not np.array_equal(got, np.asarray(values, complex)):
            raise BenchError(f"the program built a different X than the truth assumes ({key})")


class Checker:
    """Turns one op's record into (failure kind or None, digits or None)."""

    def __init__(self):
        self._truths: dict[str, dict] = {}
        self._first_bytes: dict[tuple, dict] = {}

    def _truth(self, key, compute) -> dict:
        k = json.dumps(key, sort_keys=True)
        if k not in self._truths:
            self._truths[k] = compute()
        return self._truths[k]

    def check(self, op: dict, rec: dict):
        """Return (failure kind or None, (norm, entry) digits or None)."""
        if "error" in rec:
            prefix = "crash:" if rec.get("unexpected") else "raise:"
            return prefix + rec["error"], None
        kind, dig = getattr(self, "_check_" + op["kind"])(op, rec["out"])
        if kind is None and dig is not None and dig[0] < NORM_DIGITS_FLOOR:
            kind = "below_floor"
        return kind, dig

    def _check_scan(self, op, out):
        t = self._truth(op["truth"], lambda: lattice_truth(tuple(op["truth"])))
        f = op["strength"] * 2.0 ** -op["scale"]
        return _graded(_worst([digits(out["nu_max"], _dd_times(t["nu"], f)),
                               digits(out["loading"], _dd_times(t["a1"], f))]))

    def _check_long(self, op, out):
        point = op["truth"][1]
        f = 2.0 ** op["scale"]
        if op["kind"] == "hn":
            _same_bands(out, hn_bands(point["n"], 1.0, point["t_left"], point["kappa"]), f)
        else:
            _same_bands(out, ssh_bands(point["cells"], SSH_T1, SSH_T2, point["g"],
                                       point["kappa"]), f)
        t = self._truth(op["truth"], lambda: lattice_truth(tuple(op["truth"])))
        return _graded(digits(out["c"], _dd_times(t["c"], op["strength"] / f)))

    _check_hn = _check_ssh = _check_long

    def _check_oracle(self, op, out):
        bands = hn_bands(op["n"], op["t_right"], op["t_left"], op["kappa"])
        _same_bands(out, bands, 1.0)
        t = self._truth(op, lambda: {"c": _chain(bands).diagonal_pump([op["gamma"]] * op["n"])})
        kind, dig = _graded(_worst([digits(out["c"], t["c"]), digits(out["c_oracle"], t["c"])]))
        within = (out["trajectory_dev"] <= ORACLE_TRAJECTORY_LIMIT
                  and out["steady_dev"] <= ORACLE_STEADY_LIMIT)
        return kind or (None if within else "oracle_limit"), dig

    # -- cli --

    def _local_truth(self, spec: dict) -> dict:
        t = self._truth(spec["point"], lambda: lattice_truth(("cli", spec["point"])))
        f = spec["factor"]
        return {"nu_max": _dd_times(t["nu_max"], f), "trace": _dd_times(t["trace"], f),
                "density": t["density"]}

    def _check_cli(self, op, out):
        if out["returncode"] != 0:
            return "exit_nonzero", None
        files = out["files"]
        if set(files) != set(op["outputs"]):
            return "missing_output", None
        key = (op["cycle"], op["config"])
        if self._first_bytes.setdefault(key, files) != files:
            return "nondeterministic_output", None
        name = op["argv"][0]
        doc = json.loads(files[name + ".json"])
        if name in ("hn-profiles", "hn-occupations", "ssh-profiles"):
            t = self._local_truth(op["truth"])
            pairs = []
            if name != "ssh-profiles":
                nu = doc["occupations"][0] if name == "hn-profiles" else doc["nu_max"]
                pairs.append(digits([nu], t["nu_max"]))
            if name == "hn-occupations":
                pairs.append(digits([doc["trace"]], t["trace"]))
            else:
                rows = [ln.split(",") for ln in files[name + ".csv"].decode().splitlines()
                        if ln and not ln.startswith("#")][1:]
                pairs.append(digits([float(r[4]) for r in rows], t["density"]))
            return _graded(_worst(pairs))
        if name == "inverse-design":
            if not (doc["validation"] or {}).get("passed"):
                return "validation_failed", None
            spec = op["truth"]
            kappa, sub, sup = spec["bands"]
            n = len(sub) + 1
            with mpmath.workdps(40):
                x = mpmath.matrix(n, n)
                for j in range(n):
                    x[j, j] = mpmath.mpf(kappa)
                for j in range(n - 1):
                    x[j + 1, j], x[j, j + 1] = mpmath.mpf(sub[j]), mpmath.mpf(sup[j])
                y = mpmath.eye(n) * mpmath.mpf(spec["gamma"])
                exact = {"hamiltonian": -(x - x.T) / 2, "gain_gram": y,
                         "loss_gram": x + x.T - y}
                truths = {k: truth.dd_from_mpf(list(v)) for k, v in exact.items()}
            real = doc["realization"]
            prog = np.concatenate([np.ravel(real["hamiltonian"]["im"]),
                                   np.ravel(real["gain_gram"]["re"]),
                                   np.ravel(real["loss_gram"]["re"])])
            t = tuple(np.concatenate([truths[k][i] for k in ("hamiltonian", "gain_gram",
                                                             "loss_gram")]) for i in (0, 1))
            return _graded(digits(prog, t))
        if name == "validate":
            return (None if doc["passed"] else "validation_failed"), None
        raise BenchError(f"no check for command {name}")


if __name__ == "__main__":
    _build_jobs(int(k) for k in sys.argv[1:])
