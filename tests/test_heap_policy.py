"""The glibc heap policy that importing gausschain sets.

It keeps freed arrays of up to 32 MiB on the heap and up to 64 MiB of
freed heap mapped, so warm solves reuse pages instead of faulting fresh
zero-filled ones in.  It must change no result, and must do nothing off
glibc or where the environment already tunes malloc.
"""

import ctypes
import os
import resource
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import gausschain
from gausschain import (HatanoNelsonParams, SshParams, build_hatano_nelson, build_local_pump,
                        build_ssh, hn_source_scan, solve_lyapunov_direct, ssh_index)
from gausschain.steady import DirectSolver

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")
TUNING = ("GLIBC_TUNABLES", "MALLOC_TOP_PAD_", "MALLOC_TRIM_THRESHOLD_",
          "MALLOC_MMAP_THRESHOLD_")


def policy_outputs() -> dict:
    """C of the 200-site single-band and 100-cell two-band chains and a 40-pump scan."""
    hn = build_hatano_nelson(HatanoNelsonParams(200, 1.0, 0.17, 0.91))
    ssh = build_ssh(SshParams(100, 0.5, 1.0, -0.25, 1.5))
    scan = hn_source_scan(HatanoNelsonParams(40, 1.0, 0.17, 0.91), 0.03)
    return {"hn": solve_lyapunov_direct(hn, build_local_pump(200, 15, 0.03)).entries,
            "ssh": solve_lyapunov_direct(ssh, build_local_pump(200, ssh_index(1, "A", 100),
                                                               1e-8)).entries,
            "nu_max": scan.nu_max, "loading": scan.loading}


def test_results_are_bit_identical_with_the_policy_skipped(tmp_path):
    # MALLOC_TOP_PAD_ at glibc's default 128 KiB: the child keeps glibc's
    # allocator and serves every array above 128 KiB by mmap
    path = str(tmp_path / "skipped.npz")
    env = {k: v for k, v in os.environ.items() if k not in TUNING}
    env.update(PYTHONPATH=os.pathsep.join([SRC, TESTS]), MALLOC_TOP_PAD_="131072")
    code = ("import sys, numpy as np, gausschain; "
            "from test_heap_policy import policy_outputs; "
            "assert not gausschain._keep_freed_arrays_mapped(); "
            f"np.savez({path!r}, **policy_outputs())")
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    here = policy_outputs()
    with np.load(path) as skipped:
        assert sorted(skipped.files) == sorted(here)
        for name, value in here.items():
            assert np.array_equal(skipped[name], value), name


def test_warm_solves_take_no_page_faults():
    # without the policy a 40-pump scan takes about 560 minor faults and a
    # 100-cell two-band build about 1500, every time
    if not gausschain._keep_freed_arrays_mapped():
        pytest.skip("the heap policy applies to glibc only, untuned by the environment")
    params = HatanoNelsonParams(40, 1.0, 0.17, 0.91)
    ssh = build_ssh(SshParams(100, 0.5, 1.0, -0.25, 1.5))

    def work():
        hn_source_scan(params, 0.03)
        DirectSolver(ssh)

    work()
    work()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(10):
        work()
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 50


@pytest.fixture
def no_mallopt(monkeypatch):
    """Fail the test if the policy reaches the C library."""
    def refuse(*args, **kwargs):
        raise AssertionError("the C library was loaded")
    monkeypatch.setattr(ctypes, "CDLL", refuse)
    for name in TUNING:
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


def raise_value_error(name):
    raise ValueError(f"unrecognized configuration name {name!r}")


@pytest.mark.parametrize("confstr", [raise_value_error, lambda name: None,
                                     lambda name: "musl 1.2.4"])
def test_policy_is_a_noop_off_glibc(no_mallopt, confstr):
    no_mallopt.setattr(os, "confstr", confstr)
    assert gausschain._keep_freed_arrays_mapped() is False


def test_policy_is_a_noop_without_confstr(no_mallopt):
    no_mallopt.delattr(os, "confstr", raising=False)
    assert gausschain._keep_freed_arrays_mapped() is False


@pytest.mark.parametrize("name", TUNING)
def test_policy_yields_to_the_environment(no_mallopt, name):
    no_mallopt.setattr(os, "confstr", lambda key: "glibc 2.36")
    no_mallopt.setenv(name, "glibc.malloc.trim_threshold=0" if name == "GLIBC_TUNABLES"
                      else "0")
    assert gausschain._keep_freed_arrays_mapped() is False


def test_policy_sets_mmap_threshold_and_top_pad(monkeypatch):
    calls = []

    class Mallopt:
        def __call__(self, param, value):
            calls.append((param, value))
            return 1

    monkeypatch.setattr(os, "confstr", lambda key: "glibc 2.36")
    monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=Mallopt()))
    for name in TUNING:
        monkeypatch.delenv(name, raising=False)
    assert gausschain._keep_freed_arrays_mapped() is True
    assert calls == [(-3, 32 << 20), (-2, 64 << 20)]  # M_MMAP_THRESHOLD, M_TOP_PAD
