"""Batch command-line surface exposing every pipeline stage as data files.

Each subcommand reads its parameters from built-in defaults, an optional
JSON config file, and command-line flags, in that order (flags win).
Every command writes a JSON summary, after a CSV table where it has one,
through one writer (_write); both embed the toolkit version and the fully
resolved config, and identical configs produce byte-identical files.

Exit codes: 0 success, 1 validation failure, 2 numeric or parameter
error, 3 infeasibility.

Each command imports the solver, spectrum, orbital, design and many-body
modules it calls inside its own body, so start-up loads only those.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import __version__
from .errors import (GausschainError, InfeasibilityError, ParameterError,
                     ValidationError)
from .matio import (_complex_parts, dumps_json, ensure_dir, read_json, read_matrix, write_csv,
                    write_json)
from .models import (HatanoNelsonParams, SourceMatrix, SshParams, _check_finite_scalar, _count,
                     _vector, build_diagonal_pump, build_hatano_nelson, build_ssh,
                     default_labels, matrix_entries, ssh_index, ssh_labels)

OCCUPATION_HEADER = ("alpha", "nu", "nu_norm")

# Thresholds applied by the validate and oracle-check commands; validate reads
# asymmetry, density and trace relative to the top occupation nu_max, and
# takes its occupation, density and trace limits from the natural orbitals'
# own certificate (occupation_floor and tail_bound).
VALIDATE_RESIDUAL_LIMIT = 1e-8
VALIDATE_ASYMMETRY_LIMIT = 1e-10
ORACLE_TRAJECTORY_LIMIT = 1e-7
ORACLE_STEADY_LIMIT = 1e-8

COMMAND_DEFAULTS = {
    "hn-profiles": {
        "out": ".", "n_sites": 40, "t_right": 1.0, "t_left": 0.17, "kappa": 0.91,
        "pump_site": 15, "pump_strength": 0.03,
    },
    "hn-source-scan": {
        "out": ".", "n_sites": 40, "t_right": 1.0, "t_left": 0.17, "kappa": 0.91,
        "pump_strength": 0.03, "s_min": 1, "s_max": 0,
    },
    "hn-occupations": {
        "out": ".", "n_sites": 40, "t_right": 1.0, "t_left": 0.17, "kappa": 0.91,
        "pump_site": 15, "pump_strength": 0.03,
    },
    "ssh-profiles": {
        "out": ".", "n_cells": 20, "t1": 0.5, "t2": 1.0, "g": -0.25, "kappa": 1.5,
        "pump_cell": 1, "pump_sublattice": "A", "pump_strength": 1e-8,
    },
    "ssh-crossover": {
        "out": ".", "n_cells": 20, "t1": 0.5, "t2": 1.0, "kappa": 1.5,
        "pump_cell": 1, "pump_sublattice": "A", "pump_strength": 1e-8,
        "g_min": -0.55, "g_max": 0.60, "g_points": 24,
    },
    "inverse-design": {
        "out": ".", "model": "hn", "n_sites": 3, "t_right": 1.0, "t_left": 0.17,
        "n_cells": 3, "t1": 0.5, "t2": 1.0, "g": 0.0, "kappa": 1.5,
        "gamma": 0.1, "pump_file": "", "x_file": "", "y_file": "",
    },
    "validate": {"out": ".", "x_file": "", "y_file": ""},
    "oracle-check": {
        "out": ".", "n_sites": 3, "t_right": 1.0, "t_left": 0.17, "kappa": 1.5,
        "gamma": 0.1, "t_final": 10.0, "dt": 0.002, "stride": 50,
    },
}

# Default kappa of inverse-design --model ssh: at t1 0.5, t2 1.0, g 0 the
# two-band gate is 2 kappa - gamma >= t1 + t2 = 3, which the shared
# single-band default kappa 1.5 misses.
_SSH_DESIGN_KAPPA = 2.0

COMMAND_HELP = {
    "hn-profiles": "slow-mode, top-orbital, and density profiles of the single-band chain",
    "hn-source-scan": "top occupation vs analytic loading for every pump position",
    "hn-occupations": "natural-orbital occupation spectrum of the single-band steady state",
    "ssh-profiles": "profiles and edge/slow overlaps of the two-band chain at one g",
    "ssh-crossover": "edge vs slow locking overlap along a nonreciprocity scan",
    "inverse-design": "split a target (X, Y) into Hamiltonian, Grams, and local jumps",
    "validate": "run the invariant suite on a matrix-JSON (X, Y) pair",
    "oracle-check": "compare the correlator stack against the many-body master equation",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gausschain",
        description="Steady states, natural orbitals, and inverse design for "
                    "quadratic open fermion chains.")
    parser.add_argument("--version", action="version",
                        version=f"gausschain {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, defaults in COMMAND_DEFAULTS.items():
        p = sub.add_parser(command, help=COMMAND_HELP[command],
                           description=COMMAND_HELP[command])
        p.add_argument("--config", default=None, metavar="PATH",
                       help="JSON file of parameter overrides (flags win)")
        for key, value in defaults.items():
            flag = "--" + key.replace("_", "-")
            note = f"default {value!r}"
            if command == "inverse-design" and key == "kappa":
                note += f"; {_SSH_DESIGN_KAPPA!r} for model ssh"
            p.add_argument(flag, dest=key, type=type(value), default=None,
                           metavar=key.upper(), help=f"override {key} ({note})")
    return parser


def _coerce(key: str, value, target: type):
    if target is float:
        return _check_finite_scalar(key, value)
    if target is int and isinstance(value, int) and not isinstance(value, bool):
        return value
    if target is int and isinstance(value, float) and value.is_integer():
        return int(value)
    if target is str and isinstance(value, str):
        return value
    raise ParameterError(f"config key {key!r} must be of type {target.__name__}")


def resolve_config(args: argparse.Namespace) -> dict:
    """Merge defaults, config file, and flags into one echoable dict."""
    command = args.command
    defaults = COMMAND_DEFAULTS[command]
    cfg = dict(defaults)
    given = set()
    if args.config:
        overrides = read_json(args.config)
        if not isinstance(overrides, dict):
            raise ParameterError(f"config file {args.config} must hold a JSON object")
        for key, value in overrides.items():
            if key not in defaults:
                raise ParameterError(f"unknown config key {key!r} for command {command}")
            cfg[key] = _coerce(key, value, type(defaults[key]))
            given.add(key)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = _coerce(key, value, type(defaults[key]))
            given.add(key)
    if command == "inverse-design" and cfg["model"] == "ssh" and "kappa" not in given:
        cfg["kappa"] = _SSH_DESIGN_KAPPA
    return {"command": command, **cfg}


def _write(cfg: dict, fields: dict, table=None) -> str:
    """Write <out>/<command>.csv, with the version and config as comment lines, when
    ``table`` = (header, rows) is given, then <out>/<command>.json as {version,
    command, config, **fields}; returns the "wrote ..." phrase of the stdout line."""
    base = os.path.join(ensure_dir(cfg["out"]), cfg["command"])
    paths = []
    if table is not None:
        write_csv(base + ".csv", *table,
                  comments=(f"gausschain {__version__}", f"config: {dumps_json(cfg)}"))
        paths.append(base + ".csv")
    write_json(base + ".json", {"version": __version__, "command": cfg["command"],
                                "config": cfg, **fields})
    return "wrote " + " and ".join(paths + [base + ".json"])


def _hn_params(cfg: dict) -> HatanoNelsonParams:
    return HatanoNelsonParams(cfg["n_sites"], cfg["t_right"], cfg["t_left"], cfg["kappa"])


def _ssh_params(cfg: dict, g: float | None = None) -> SshParams:
    return SshParams(cfg["n_cells"], cfg["t1"], cfg["t2"],
                     cfg["g"] if g is None else g, cfg["kappa"])


def _peak_site(sites: np.ndarray, values: np.ndarray) -> int:
    """The lowest site whose value lies within 8 eps (absolute) of the maximum.

    Scan columns have unit peak (the deviation is the difference of two),
    and mirror-image sites of a reciprocal chain tie to rounding, so a plain
    argmax would let rounding pick the site.
    """
    near = values >= values.max() - 8 * np.finfo(float).eps
    return int(sites[int(np.argmax(near))])


def cmd_hn_profiles(cfg: dict) -> None:
    from .orbitals import PROFILE_HEADER, _pumped_chain, profile_rows

    params = _hn_params(cfg)
    spectrum, corr, report = _pumped_chain(params, cfg["pump_site"], cfg["pump_strength"])
    orbs, o_slow = report.orbitals, report.overlaps["slow"]
    wrote = _write(cfg, dict(
        betas=_complex_parts(spectrum.betas),
        occupations=orbs.occupations,
        occupations_normalized=orbs.occupations_normalized(),
        occupation_floor=orbs.occupation_floor,
        resolved_count=orbs.resolved_count,
        overlap_slow=o_slow,
        dominant_indices=orbs.dominant_indices(),
        locked=orbs.locked,
        density_argmax=np.argmax(report.density_normalized) + 1,
        log10_condition=spectrum.log10_condition,
        residual=corr.residual,
        method=corr.method,
    ), (PROFILE_HEADER, profile_rows(default_labels(params.n_sites), report)))
    print(f"hn-profiles: {params.n_sites} sites, overlap_slow={o_slow:.9f}, {wrote}")


def cmd_hn_occupations(cfg: dict) -> None:
    from .orbitals import _pumped_chain, density

    _, corr, report = _pumped_chain(_hn_params(cfg), cfg["pump_site"], cfg["pump_strength"])
    orbs = report.orbitals
    normalized = orbs.occupations_normalized()
    separation = normalized[1] if orbs.resolved_count > 1 else None
    rows = zip(range(1, orbs.resolved_count + 1), orbs.occupations, normalized)
    wrote = _write(cfg, dict(
        nu_max=orbs.occupations[0],
        occupations=orbs.occupations,
        occupations_normalized=normalized,
        occupation_floor=orbs.occupation_floor,
        resolved_count=orbs.resolved_count,
        separation_second=separation,
        trace=density(corr).sum(),
        dominant_indices=orbs.dominant_indices(),
        locked=orbs.locked,
        residual=corr.residual,
        method=corr.method,
    ), (OCCUPATION_HEADER, rows))
    print(f"hn-occupations: nu_max={orbs.occupations[0]:.9g}, "
          f"second/top={'n/a' if separation is None else f'{separation:.9g}'}, {wrote}")


def cmd_hn_source_scan(cfg: dict) -> None:
    from .orbitals import SOURCE_SCAN_HEADER, hn_source_scan

    params = _hn_params(cfg)
    if cfg["s_max"] < 0:
        raise ParameterError(f"s_max must be >= 0 (0 scans to the last site), got {cfg['s_max']}")
    s_max = cfg["s_max"] or params.n_sites
    sites = range(cfg["s_min"], s_max + 1)
    scan = hn_source_scan(params, cfg["pump_strength"], sites=sites)
    deviation = np.abs(scan.nu_max_normalized - scan.loading_normalized)
    wrote = _write(cfg, dict(
        n_points=scan.sites.size,
        max_abs_deviation=deviation.max(),
        deviation_argmax_site=_peak_site(scan.sites, deviation),
        occupation_argmax_site=_peak_site(scan.sites, scan.nu_max_normalized),
        loading_argmax_site=_peak_site(scan.sites, scan.loading_normalized),
    ), (SOURCE_SCAN_HEADER, scan.rows()))
    print(f"hn-source-scan: {scan.sites.size} sites, "
          f"max |nu_norm - A1_norm| = {deviation.max():.6g}, {wrote}")


def cmd_ssh_profiles(cfg: dict) -> None:
    from .orbitals import PROFILE_HEADER, _pumped_chain, profile_rows

    params = _ssh_params(cfg)
    site = ssh_index(cfg["pump_cell"], cfg["pump_sublattice"], params.n_cells)
    spectrum, corr, report = _pumped_chain(params, site, cfg["pump_strength"])
    orbs, edge = report.orbitals, report.edge
    o_slow, o_edge = report.overlaps["slow"], report.overlaps["edge"]
    wrote = _write(cfg, dict(
        betas=_complex_parts(spectrum.betas),
        overlap_edge=o_edge,
        overlap_slow=o_slow,
        edge_mode_index=edge.index,
        slow_mode_index=report.slow,
        edge_in_window_count=edge.in_window_count,
        edge_used_fallback=edge.used_fallback,
        edge_tied_indices=edge.tied,
        occupation_floor=orbs.occupation_floor,
        resolved_count=orbs.resolved_count,
        dominant_indices=orbs.dominant_indices(),
        locked=orbs.locked,
        log10_condition=spectrum.log10_condition,
        residual=corr.residual,
        method=corr.method,
    ), (PROFILE_HEADER, profile_rows(ssh_labels(params.n_cells), report)))
    print(f"ssh-profiles: g={params.g:g}, O_edge={o_edge:.6f}, O_slow={o_slow:.6f}, {wrote}")


def cmd_ssh_crossover(cfg: dict) -> None:
    from .orbitals import CROSSOVER_HEADER, ssh_crossover_scan

    grid = np.linspace(cfg["g_min"], cfg["g_max"], _count("g_points", cfg["g_points"]))
    params = _ssh_params(cfg, g=0.0)
    scan = ssh_crossover_scan(params, cfg["pump_cell"], cfg["pump_sublattice"],
                              cfg["pump_strength"], g_values=grid)
    margin = scan.o_edge - scan.o_slow
    crossings = [scan.g_values[k:k + 2] for k in range(margin.size - 1)
                 if margin[k] != 0 and margin[k] * margin[k + 1] < 0]
    wrote = _write(cfg, dict(n_points=scan.g_values.size, crossings=crossings,
                             failures=scan.failures), (CROSSOVER_HEADER, scan.rows()))
    print(f"ssh-crossover: {scan.g_values.size} points, "
          f"{len(crossings)} sign change(s) of O_edge - O_slow, {wrote}")


def _read_pair(cfg: dict, who: str) -> tuple[np.ndarray, tuple[str, ...], np.ndarray]:
    """X entries, X labels and Y entries from the x_file and y_file of ``cfg``."""
    if not cfg["x_file"] or not cfg["y_file"]:
        raise ParameterError(f"{who} requires x_file and y_file")
    x, labels = read_matrix(cfg["x_file"])
    y, _ = read_matrix(cfg["y_file"])
    if y.shape != x.shape:
        raise ParameterError(f"y_file shape {y.shape} does not match x_file shape {x.shape}")
    return x, labels, y


def _design_inputs(cfg: dict):
    """Target (X, labels, Y) and the model's jump set (None for custom-file)."""
    from .design import hn_jump_decomposition, ssh_jump_decomposition

    model = cfg["model"]
    if model == "hn":
        params = _hn_params(cfg)
        x = build_hatano_nelson(params)
        decompose = hn_jump_decomposition
    elif model == "ssh":
        params = _ssh_params(cfg)
        x = build_ssh(params)
        decompose = ssh_jump_decomposition
    elif model == "custom-file":
        entries, labels, y_entries = _read_pair(cfg, "model custom-file")
        return entries, labels, SourceMatrix(y_entries, labels=labels), None
    else:
        raise ParameterError(f"model must be hn, ssh, or custom-file, got {model!r}")
    if cfg["pump_file"]:  # one Y for both; its length is checked by the decomposition
        y = gamma = build_diagonal_pump(_vector(f"pump_file {cfg['pump_file']}",
                                                read_json(cfg["pump_file"])))
    else:
        gamma = cfg["gamma"]
        y = build_diagonal_pump([gamma] * params.n_sites)
    return matrix_entries(x), x.labels, y, decompose(params, gamma)


def cmd_inverse_design(cfg: dict) -> None:
    from .design import inverse_design, jump_set_payload, realization_payload, validate_jump_set

    x_entries, labels, y, jumps = _design_inputs(cfg)
    realization = inverse_design(x_entries, y)
    validation = None
    if jumps is not None:
        validation = dataclasses.asdict(validate_jump_set(jumps, realization))
    wrote = _write(cfg, dict(
        realization=realization_payload(realization, labels),
        jumps=jump_set_payload(jumps) if jumps is not None else None,
        validation=validation,
    ))
    print(f"inverse-design: physical={realization.physical}, "
          f"loss_min_eigenvalue={realization.loss_min_eigenvalue:.6g}, {wrote}")
    if validation is not None:
        print(f"inverse-design: jump set validated, max deviation "
              f"{max(v for k, v in validation.items() if k.endswith('_error')):.3e}")


def cmd_validate(cfg: dict) -> None:
    from .orbitals import natural_orbitals
    from .steady import DirectSolver

    x, labels, y_entries = _read_pair(cfg, "validate")

    checks: list[dict] = []

    def add(name: str, value, limit, passed=None, detail: str = "") -> None:
        """One check; unless ``passed`` is given, it passes at value <= limit."""
        checks.append({"name": name, "passed": value <= limit if passed is None else passed,
                       "value": value, "limit": limit, "detail": detail})

    try:
        source = SourceMatrix(y_entries, labels=labels)
        add("source_hermitian_psd", *source._psd, True)
    except GausschainError as exc:
        source = None
        add("source_hermitian_psd", None, None, False, str(exc))

    # the certificate of the solver the steady checks use: LU pivots for
    # chains, since eigvals on long nonnormal chains returns pseudospectrum
    try:
        solver = DirectSolver(x)
    except GausschainError as exc:
        solver = None
        add("relaxation_stable", None, 0.0, False, str(exc))
    else:
        certificate, margin = solver._certificate
        add("relaxation_stable", margin, 0.0, True, f"certified by the {certificate}")

    if source is not None and solver is not None:
        try:
            corr = solver.solve(source)
            c, orbs = np.asarray(corr.entries), natural_orbitals(corr)
            occ = orbs.occupations
            # rounding in C scales with C: asymmetry, density and trace are read per nu_max
            nu_max = float(np.abs(occ).max(initial=0.0))
            per_nu = 1.0 / nu_max if nu_max > 0 else 0.0
            add("steady_residual", corr.residual, VALIDATE_RESIDUAL_LIMIT)
            add("correlator_hermitian", corr.asymmetry * per_nu, VALIDATE_ASYMMETRY_LIMIT)
            # every omitted occupation lies within the floor, and their
            # total within tail_bound: the limits are what the certificate proves
            floor = orbs.occupation_floor
            bounds = {"min": occ.min(), "max": occ.max()}
            in_unit = bounds["min"] >= -floor and bounds["max"] <= 1.0 + floor
            detail = ""
            if not in_unit:
                from .design import inverse_design

                detail = ("loss Gram X + X^dag - Y has min eigenvalue "
                          f"{inverse_design(x, source).loss_min_eigenvalue:.3g}; "
                          "a physical pair has >= 0")
            add("occupations_in_unit_interval", bounds, floor, in_unit, detail)
            defect = (np.abs(orbs.orbitals) ** 2 @ occ).real - c.diagonal().real
            add("density_reconstruction", per_nu * np.abs(defect).max(), per_nu * orbs.tail_bound)
            add("occupation_trace", per_nu * abs(occ.sum() - np.trace(c).real),
                per_nu * orbs.tail_bound)
        except GausschainError as exc:
            add("steady_state", None, None, False, str(exc))
    else:
        add("steady_state", None, None, False,
            "skipped: prerequisites failed (source or stability)")

    passed = all(c["passed"] for c in checks)
    wrote = _write(cfg, dict(checks=checks, passed=passed))
    for c in checks:
        status = "ok  " if c["passed"] else "FAIL"
        print(f"validate: {status} {c['name']} value={dumps_json(c['value'])} "
              f"limit={dumps_json(c['limit'])}"
              + (f" ({c['detail']})" if c["detail"] else ""))
    if not passed:
        failed = ", ".join(c["name"] for c in checks if not c["passed"])
        raise ValidationError(f"invariant suite failed: {failed}", checks)
    print(f"validate: all {len(checks)} checks passed, {wrote}")


def cmd_oracle_check(cfg: dict) -> None:
    from .design import hn_jump_decomposition, inverse_design
    from .manybody import DensityMatrix, correlator_of, evolve_master, steady_state_oracle
    from .steady import propagate_correlator, solve_lyapunov_direct

    params = _hn_params(cfg)
    n = params.n_sites
    x = build_hatano_nelson(params)
    y = build_diagonal_pump([cfg["gamma"]] * n)
    realization = inverse_design(x, y)
    jumps = hn_jump_decomposition(params, cfg["gamma"])

    # both sample on steady._sample_grid, so the times agree by construction
    trajectory = evolve_master(DensityMatrix.vacuum(n), realization.hamiltonian,
                               jumps, cfg["t_final"], cfg["dt"], stride=cfg["stride"])
    reference = propagate_correlator(x, y, np.zeros((n, n)), cfg["t_final"],
                                     cfg["dt"], stride=cfg["stride"])
    max_dev = max(np.abs(correlator_of(state) - sample).max()
                  for state, sample in zip(trajectory.states, reference.states))

    steady_rho = steady_state_oracle(realization.hamiltonian, jumps)
    direct = solve_lyapunov_direct(x, y)
    steady_dev = np.abs(correlator_of(steady_rho) - np.asarray(direct.entries)).max()

    passed = max_dev <= ORACLE_TRAJECTORY_LIMIT and steady_dev <= ORACLE_STEADY_LIMIT
    wrote = _write(cfg, dict(
        n_samples=trajectory.times.size,
        max_trajectory_deviation=max_dev,
        trajectory_limit=ORACLE_TRAJECTORY_LIMIT,
        steady_state_deviation=steady_dev,
        steady_limit=ORACLE_STEADY_LIMIT,
        max_trace_drift=trajectory.max_trace_drift,
        passed=passed,
    ))
    print(f"oracle-check: max trajectory deviation {max_dev:.3e} "
          f"(limit {ORACLE_TRAJECTORY_LIMIT:g}), steady deviation {steady_dev:.3e} "
          f"(limit {ORACLE_STEADY_LIMIT:g}), {wrote}")
    if not passed:
        raise ValidationError(
            f"oracle disagrees with the correlator stack: trajectory {max_dev:.3e}, "
            f"steady {steady_dev:.3e}")


HANDLERS = {
    "hn-profiles": cmd_hn_profiles,
    "hn-source-scan": cmd_hn_source_scan,
    "hn-occupations": cmd_hn_occupations,
    "ssh-profiles": cmd_ssh_profiles,
    "ssh-crossover": cmd_ssh_crossover,
    "inverse-design": cmd_inverse_design,
    "validate": cmd_validate,
    "oracle-check": cmd_oracle_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        HANDLERS[args.command](cfg)
    except InfeasibilityError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        for label, deficit in exc.deficits:
            print(f"  deficit at {label}: {deficit:.6g}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 1
    except (GausschainError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
