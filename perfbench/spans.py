"""Per-layer spans recorded from outside the program.

The tracer swaps each public gausschain function for a wrapper in every
``gausschain`` module namespace that binds it: ``cli`` and ``orbitals``
import names directly, so patching only the defining module would miss
those calls.  Spans (layer, start, end, parent, op id, error, extra) are
kept in memory and written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import os
import sys
import time

# layer -> (defining module, public functions in that layer)
LAYERS = {
    "models": ("models", ["build_hatano_nelson", "build_ssh", "build_local_pump",
                          "build_diagonal_pump", "matrix_entries"]),
    "spectral.decompose": ("spectral", ["biorthogonal_decompose"]),
    "spectral.analytic": ("spectral", ["hn_analytic_spectrum", "hn_normalized_modes",
                                       "hn_similarity_residual", "ssh_edge_envelopes"]),
    "steady.solve": ("steady", ["solve_lyapunov_direct", "solve_lyapunov_spectral",
                                "single_mode_approximation"]),
    "steady.transient": ("steady", ["propagate_correlator", "closed_form_correlator"]),
    "orbitals.scan": ("orbitals", ["hn_source_scan", "ssh_crossover_scan"]),
    "orbitals.natural": ("orbitals", ["natural_orbitals"]),
    "orbitals.diag": ("orbitals", ["density", "normalized_density", "loading_factors",
                                   "overlap", "identify_slow_mode",
                                   "identify_edge_candidate", "diagnostics_report"]),
    "design": ("design", ["inverse_design", "hn_jump_decomposition",
                          "ssh_jump_decomposition", "validate_jump_set",
                          "jump_set_payload", "realization_payload"]),
    "manybody.evolve": ("manybody", ["evolve_master"]),
    "manybody.steady": ("manybody", ["steady_state_oracle"]),
    "manybody.correlator": ("manybody", ["correlator_of"]),
    "matio": ("matio", ["write_json", "write_csv", "write_matrix", "read_json",
                        "read_matrix", "read_csv"]),
    "cli.main": ("cli", ["main"]),
}

WRITERS = {"write_json", "write_csv", "write_matrix"}


class Tracer:
    """In-memory span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self.op_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer: str):
        tracer = self
        writer = fn.__name__ in WRITERS
        scan = layer == "orbitals.scan"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [layer, time.perf_counter(), 0.0, parent, tracer.op_id, None, 0]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if writer:
                span[6] = os.path.getsize(args[0])
            elif scan:
                span[6] = int(len(result.g_values if hasattr(result, "g_values")
                                  else result.sites))
            return result

        return wrapper

    def install(self) -> None:
        """Patch every binding of every traced function in loaded gausschain modules."""
        originals = {}
        for layer, (module, names) in LAYERS.items():
            mod = sys.modules.get(f"gausschain.{module}")
            if mod is None:  # not imported, so nothing can call it
                continue
            for name in names:
                fn = getattr(mod, name)
                originals[id(fn)] = (fn, self._wrap(fn, layer))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "gausschain" or modname.startswith("gausschain.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()


def layer_totals(spans) -> tuple[dict, float, int]:
    """Aggregate spans into per-layer calls, self time, failures and extras.

    Self time is a span's duration minus the durations of its direct
    children; calls are synchronous, so children never overlap and the
    self times of all spans add up to the time covered by top-level spans.
    Returns ``(per_layer, top_level_seconds, failed_scan_points)``.
    """
    child_time = [0.0] * len(spans)
    for _layer, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    per_layer: dict[str, dict] = {}
    top_level = 0.0
    failed_points = 0
    for k, (layer, start, end, parent, _op, err, extra) in enumerate(spans):
        agg = per_layer.setdefault(layer, {"calls": 0, "self_s": 0.0, "fail": 0,
                                           "extra": 0, "infeasible": 0})
        agg["calls"] += 1
        agg["self_s"] += (end - start) - child_time[k]
        agg["extra"] += extra
        if err is not None:
            agg["fail"] += 1
            agg["infeasible"] += err == "InfeasibilityError"
            # a failed solve directly under a scan is a failed scan point
            if layer == "steady.solve" and parent >= 0 and spans[parent][0] == "orbitals.scan":
                failed_points += 1
        if parent < 0:
            top_level += end - start
    return per_layer, top_level, failed_points
