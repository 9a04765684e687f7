"""gausschain benchmark: one workload per invocation, checked against truth.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Run from the repository root.  The first run in a checkout also builds
(and caches under perfbench/_cache) the high-precision reference truths
of the lattice workloads.  Each run:

1. plans whole cycles of ops from the seed (see workloads.py);
2. measures set-up five times: a fresh client interpreter that imports
   gausschain and runs one warm-up op (four set-up-only clients, then the
   measuring one), reporting the median;
3. lets the client run whole cycles, one op at a time, with BLAS pinned
   to one thread, until about ``--seconds`` of reference-speed time
   (see clock.py) are spent;
4. checks every op against the truth and prints every metric by name
   with its unit; the last stdout line is the JSON result.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` they are the per-layer ones, from spans recorded around
each public gausschain function; every cycle is sent untraced and then
traced, which gives the tracing overhead.  Op times are scaled to a
reference host speed (see clock.py).  Result files (environment, metrics,
failure kinds, raw per-op records, spans) go to perfbench/_results.
"""

from __future__ import annotations

import os

PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PIN)  # before numpy is imported, here and in every child

import argparse
import importlib.metadata
import json
import pickle
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

from clock import speed_factor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "_results")
WORKLOADS = ("pump-scan", "long-chain", "oracle", "cli")
SETUP_RUNS = 5
MAX_CYCLES = 64
RUN_TIMEOUT_S = 170

UNITS = {"setup_s": "s", "ok_ops_per_s": "1/s", "latency_ms_p50": "ms",
         "latency_ms_p90": "ms", "ok_frac": "frac", "digits_lost_norm_max": "digits",
         "digits_lost_entry_max": "digits", "peak_rss_mb": "MB"}

LAYER_METRICS = {
    "steady.solve": ("calls", "self_s", "fail"),
    "steady.transient": ("calls", "self_s"),
    "spectral.decompose": ("calls", "self_s", "fail"),
    "spectral.analytic": ("calls", "self_s"),
    "orbitals.scan": ("self_s",),
    "orbitals.natural": ("calls", "self_s"),
    "orbitals.diag": ("self_s",),
    "manybody.evolve": ("calls", "self_s"),
    "manybody.steady": ("calls", "self_s", "fail"),
    "manybody.correlator": ("self_s",),
    "design": ("calls", "self_s"),
    "matio": ("calls", "self_s"),
    "cli.main": ("self_s",),
    "models": ("calls", "self_s"),
}
FIELD_UNITS = {"calls": "count/op", "self_s": "s/op", "fail": "count/op"}


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def environment(seed: int) -> dict:
    import mpmath

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": importlib.metadata.version("scipy"),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "mpmath": mpmath.__version__, "nproc": os.cpu_count(), "blas_threads": PIN,
            "seed": seed, "git_commit": commit}


def _prepare_cli(plan, tmpdir: str) -> dict:
    """Work directories (and validate's input files) for every planned cli op."""
    def write_matrix(path, m):
        n = m.shape[0]
        with open(path, "w") as fh:
            json.dump({"dim": n, "labels": [str(j) for j in range(1, n + 1)],
                       "re": m.real.tolist(), "im": m.imag.tolist()}, fh)

    for c, cycle in enumerate(plan):
        for op in cycle:
            op["cycle"] = c
            op["workdir"] = f"c{c}_{op['config']}"
            path = os.path.join(tmpdir, op["workdir"])
            os.makedirs(path, exist_ok=True)
            if "inputs" in op and op["repeat"] == 0:
                kappa, sub, sup = op["inputs"]["bands"]
                n = len(sub) + 1
                x = np.diag([kappa] * n) + np.diag(sub, -1) + np.diag(sup, 1)
                write_matrix(os.path.join(path, "x.json"), x.astype(complex))
                write_matrix(os.path.join(path, "y.json"),
                             np.eye(n, dtype=complex) * op["inputs"]["gamma"])
    warm = dict(plan[0][0], workdir="warmup")
    os.makedirs(os.path.join(tmpdir, "warmup"), exist_ok=True)
    return warm


def _client(job: dict, tmpdir: str, setup_only: bool):
    """Start one client; return (set-up seconds, result or None)."""
    job = dict(job, setup_only=setup_only)
    job_path = os.path.join(tmpdir, "job.json")
    out_path = os.path.join(tmpdir, "out.pkl")
    with open(job_path, "w") as fh:
        json.dump(job, fh)
    start = time.monotonic()
    # the client leads its own process group, so a cli op it had running
    # when it was stopped is stopped with it
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), job_path,
                             out_path], stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    # the client stamps READY with CLOCK_MONOTONIC, which is shared across
    # processes, then times the host-speed probe in its own process
    stamps = dict(ln.split() for ln in stdout.splitlines() if ln.count(" ") == 1)
    if "READY" not in stamps or proc.returncode != 0:
        raise RuntimeError(f"client failed (exit {proc.returncode})")
    setup = (float(stamps["READY"]) - start) * float(stamps["SETUP_FACTOR"])
    if setup_only:
        return setup, None
    records = []
    with open(out_path, "rb") as fh:
        while True:
            try:
                records.append(pickle.load(fh))
            except EOFError:
                break
    return setup, dict(records.pop(), records=records)


def scale_to_reference(records, result) -> None:
    """Attach each op's host-speed factor and its wall time at reference speed."""
    after = [r["pre"] for r in records[1:]] + [result["probes_end"]]
    for r, post in zip(records, after):
        r["factor"] = speed_factor(r["pre"] + r["inner"] + post)
        r["ref_seconds"] = r["seconds"] * r["factor"]


def end_to_end(records, checks, setups, result) -> dict:
    ok = [kind is None for kind, _ in checks]
    seconds = [r["ref_seconds"] for r in records]
    # a failed op's time is charged to the next delivered result, so turning
    # a failure into a success can never read as a latency regression
    samples, carry = [], 0.0
    for good, s in zip(ok, seconds):
        carry += s
        if good:
            samples.append(carry * 1e3)
            carry = 0.0
    p50, p90 = np.percentile(samples or [sum(seconds) * 1e3], [50, 90])
    lost_norm = [16.0 if kind else 16.0 - dig[0] for kind, dig in checks if kind or dig]
    lost_entry = [16.0 if kind else 16.0 - dig[1] for kind, dig in checks if kind or dig]
    return {"setup_s": statistics.median(setups),
            "ok_ops_per_s": sum(ok) / sum(seconds),
            "latency_ms_p50": float(p50),
            "latency_ms_p90": float(p90),
            "ok_frac": sum(ok) / len(ok),
            "digits_lost_norm_max": max(lost_norm, default=0.0),
            "digits_lost_entry_max": max(lost_entry, default=0.0),
            "peak_rss_mb": result["peak_rss_mb"]}


def per_layer(records, result, workload: str) -> tuple[dict, dict]:
    from spans import layer_totals

    def scaled(spans, factor):
        return [[layer, start * factor, end * factor, *rest]
                for layer, start, end, *rest in spans]

    traced = [r for r in records if r["traced"]]
    n = max(len(traced), 1)
    import_s = exit_nonzero = 0.0
    if workload == "cli":
        totals, top, failed_points = {}, 0.0, 0
        for r in traced:
            child = r.get("out", {}).get("child", {"import_s": 0.0, "spans": []})
            part, part_top, part_failed = layer_totals(scaled(child["spans"], r["factor"]))
            for layer, agg in part.items():
                dst = totals.setdefault(layer, dict.fromkeys(agg, 0))
                for key, value in agg.items():
                    dst[key] += value
            top += part_top + child["import_s"] * r["factor"]
            import_s += child["import_s"] * r["factor"]
            failed_points += part_failed
            exit_nonzero += r.get("out", {}).get("returncode", 1) != 0
    else:
        # spans keep their order (parents are list indices); each op has one factor
        spans = [scaled([sp], records[sp[4]]["factor"])[0] for sp in result["spans"]]
        totals, top, failed_points = layer_totals(spans)
    metrics, units = {}, {}
    empty = {"calls": 0, "self_s": 0.0, "fail": 0, "extra": 0, "infeasible": 0}
    for layer, fields in LAYER_METRICS.items():
        agg = totals.get(layer, empty)
        for field in fields:
            metrics[f"{layer}.{field}"] = agg[field] / n
            units[f"{layer}.{field}"] = FIELD_UNITS[field]
    extras = {
        "orbitals.scan.points": (totals.get("orbitals.scan", empty)["extra"], "count/op"),
        "orbitals.scan.failed_points": (failed_points, "count/op"),
        "design.infeasible": (totals.get("design", empty)["infeasible"], "count/op"),
        "matio.bytes_written": (totals.get("matio", empty)["extra"], "B/op"),
        "cli.exit_nonzero": (exit_nonzero, "count/op"),
        "cli.import_s": (import_s, "s/op"),
        "cli.proc_s": (sum(r["ref_seconds"] for r in traced) if workload == "cli" else 0.0,
                       "s/op"),
        "bench.unattributed_s": (sum(r["ref_seconds"] for r in traced) - top, "s/op"),
    }
    for name, (value, unit) in extras.items():
        metrics[name], units[name] = value / n, unit
    plain = sum(r["ref_seconds"] for r in records if not r["traced"])
    metrics["bench.trace_overhead_frac"] = sum(r["ref_seconds"] for r in traced) / plain - 1.0
    units["bench.trace_overhead_frac"] = "frac"
    return metrics, units


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import workloads

    workloads.build_truths(log)
    plan = workloads.plan(workload, seed, MAX_CYCLES)
    tmpdir = tempfile.mkdtemp(prefix="_tmp-", dir=HERE)
    try:
        warm = _prepare_cli(plan, tmpdir) if workload == "cli" else workloads.warmup(plan)
        job = {"workload": workload, "src": SRC, "plan": plan, "warmup": warm,
               "seconds": seconds, "trace": trace, "tmpdir": tmpdir,
               "clirunner": os.path.join(HERE, "clirunner.py")}
        setups = [_client(job, tmpdir, True)[0] for _ in range(SETUP_RUNS - 1)]
        setup, result = _client(job, tmpdir, False)
        setups.append(setup)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    records = result["records"]
    scale_to_reference(records, result)
    ops = [plan[r["cycle"]][r["slot"]] for r in records]
    checker = workloads.Checker()
    checks = [checker.check(op, rec) for op, rec in zip(ops, records)]
    kinds: dict[str, int] = {}
    for kind, _ in checks:
        if kind:
            kinds[kind] = kinds.get(kind, 0) + 1
    if trace:
        metrics, units = per_layer(records, result, workload)
    else:
        metrics, units = end_to_end(records, checks, setups, result), UNITS
    failed = sum(kinds.values())
    summary = {"correct": not any(k.startswith("crash:") for k in kinds),
               "attempted": len(records), "failed": failed,
               "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"BENCH_{workload}_seed{seed}_trace{int(trace)}")
    with open(stem + ".json", "w") as fh:
        json.dump({"workload": workload, "seconds": seconds, "trace": trace,
                   "environment": environment(seed), "setup_samples_s": setups,
                   "cycles": len(result["cycle_times"]), "failure_kinds": kinds,
                   "fail_frac": failed / len(records), **summary,
                   "ops": [{"cycle": r["cycle"], "seconds": r["seconds"],
                            "host_speed_factor": r["factor"], "failure": kind,
                            "digits": dig,
                            "error": r.get("message") or (r.get("out") or {}).get("stderr")}
                           for r, (kind, dig) in zip(records, checks)]}, fh, indent=1)
    if trace:
        with open(stem + ".spans.jsonl", "w") as fh:
            for span in result["spans"]:
                fh.write(json.dumps(span) + "\n")
    print(f"{workload}: {len(records)} ops in {len(result['cycle_times'])} cycles, "
          f"{failed} failed {json.dumps(kinds, sort_keys=True)}")
    for name, entry in summary["metrics"].items():
        print(f"  {name:32s} {entry['value']:14.6g} {entry['unit']}")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still leaves through the finally blocks that stop its children
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(SRC, "gausschain", "__init__.py")):
        print(f"error: no gausschain sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
