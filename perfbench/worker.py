"""Benchmark client process: imports gausschain, warms up, runs timed cycles.

Run by ``run.py`` as ``python3 worker.py JOB.json OUT.pkl``.  It prints
``READY <monotonic time>`` once the import and the warm-up op are done
(the end of set-up), then runs whole cycles of ops, one at a time, until
``--seconds`` of reference-speed time are spent.  Only the program calls
of each op are timed; the host-speed probe of clock.py runs in the gap
before each op and, in untraced in-process ops, on a timer inside it,
with its time taken out of the op's.
"""

from __future__ import annotations

import json
import os
import pickle
import resource
import sys
import time

from clock import Sampler, probe_seconds, speed_factor

WALL_CAP = 1.25
GAP_PROBES = 4
SETUP_PROBES = 5


def main(job_path: str, out_path: str) -> int:
    # one core for the client and its children, so the host-speed probe
    # is timed on the core that runs the ops
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    with open(job_path) as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    import numpy as np

    import gausschain
    import ops
    from spans import Tracer

    expected = (gausschain.GausschainError, np.linalg.LinAlgError)
    is_cli = job["workload"] == "cli"
    env = dict(os.environ, PYTHONPATH=job["src"])
    # cli ops are traced inside their own child interpreter (clirunner.py)
    tracer = Tracer() if job["trace"] and not is_cli else None
    sampler = Sampler()

    def run_op(op: dict, traced: bool, probed: bool) -> dict:
        """Run one op; the record holds its wall time and its outputs or error.

        With ``probed`` the host-speed probe runs on a timer during the op;
        its samples go into the record and its time is not counted.
        """
        call, spans_file = (lambda: ops.RUN[op["kind"]](op)), None
        if is_cli:
            workdir = os.path.join(job["tmpdir"], op["workdir"])
            runner = None
            if traced:
                spans_file = os.path.join(workdir, "spans.json")
                runner = [sys.executable, job["clirunner"], job["src"], spans_file]
            call = lambda: ops.cli(op, workdir, env, runner)
        rec = {"inner": []}
        if probed:
            sampler.start()
        start = time.perf_counter()
        try:
            rec["out"] = call()
        except expected as exc:
            rec.update(error=type(exc).__name__, message=str(exc)[:300])
        except Exception as exc:  # a crash outside the documented errors: reported, run goes on
            rec.update(error=type(exc).__name__, message=str(exc)[:300], unexpected=True)
        end = time.perf_counter()
        rec["seconds"] = end - start
        if probed:
            sampler.stop()
            rec["seconds"] -= sampler.busy_between(start, end)
            rec["inner"] = list(sampler.samples)
        if spans_file is not None and os.path.exists(spans_file):
            with open(spans_file) as fh:
                rec["out"]["child"] = json.load(fh)
            os.remove(spans_file)
        return rec

    run_op(job["warmup"], False, False)
    print("READY", time.monotonic(), flush=True)
    # host speed right after set-up, measured in this process, scales the set-up time
    print("SETUP_FACTOR", speed_factor([probe_seconds() for _ in range(SETUP_PROBES)]),
          flush=True)
    if job["setup_only"]:
        return 0

    if tracer is not None:
        tracer.install()
    cycle_times, count = [], 0
    budget = job["seconds"]
    # on a host much slower than the reference, wall time caps the run instead
    wall_limit = time.perf_counter() + WALL_CAP * budget
    # a traced run sends every cycle twice, untraced then traced, so the
    # tracing overhead is measured on identical requests
    passes = (False, True) if job["trace"] else (False,)
    # records are streamed to disk as they complete, so stored outputs do
    # not count towards the client's peak memory
    with open(out_path, "wb") as sink:
        for index, cycle in enumerate(job["plan"]):
            for traced in passes:
                if tracer is not None:
                    tracer.active = traced
                cycle_start, probes = time.perf_counter(), []
                for slot, op in enumerate(cycle):
                    if tracer is not None:
                        tracer.op_id = count
                    # probes stay out of traced ops, so spans hold no probe time,
                    # and out of cli ops, whose child would share the core with them
                    pre = [probe_seconds() for _ in range(GAP_PROBES)]
                    rec = run_op(op, traced, not (traced or is_cli))
                    probes += pre + rec["inner"]
                    pickle.dump({"cycle": index, "slot": slot, "traced": traced, "pre": pre,
                                 **rec}, sink)
                    count += 1
                # the budget is spent in reference-speed seconds, so the number
                # of cycles, and with it the op mix, does not follow host speed
                cycle_times.append((time.perf_counter() - cycle_start) * speed_factor(probes))
            spent = sum(cycle_times)
            if spent + 0.5 * spent / (index + 1) >= budget or time.perf_counter() > wall_limit:
                break
        if tracer is not None:
            tracer.uninstall()
        usage = resource.getrusage(resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF)
        pickle.dump({"cycle_times": cycle_times,
                     "probes_end": [probe_seconds() for _ in range(GAP_PROBES)],
                     "peak_rss_mb": usage.ru_maxrss / 1024.0,
                     "spans": tracer.spans if tracer is not None else []}, sink)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
