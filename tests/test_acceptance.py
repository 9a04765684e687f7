"""Release acceptance suite.

One test per criterion, each named after what it certifies and asserted
at the release tolerance, so a verbose run reads as a pass/fail line
per criterion.  Golden values live in tests/data/goldens.json; the
cross-solver breakdown curve is emitted under tests/artifacts/.
"""

import os

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gausschain import (
    DensityMatrix,
    HatanoNelsonParams,
    InfeasibilityError,
    SshParams,
    biorthogonal_decompose,
    build_diagonal_pump,
    build_hatano_nelson,
    build_local_pump,
    build_ssh,
    closed_form_correlator,
    correlator_of,
    diagnostics_report,
    evolve_master,
    hn_analytic_spectrum,
    hn_jump_decomposition,
    hn_normalized_modes,
    hn_similarity_residual,
    hn_source_scan,
    inverse_design,
    loading_factors,
    natural_orbitals,
    normalized_density,
    propagate_correlator,
    solve_lyapunov_direct,
    solve_lyapunov_spectral,
    ssh_crossover_scan,
    ssh_jump_decomposition,
    steady_state_oracle,
    validate_jump_set,
)
from gausschain.matio import ensure_dir, write_csv
from gausschain.models import matrix_entries, ssh_index
from tests.conftest import HN_REFERENCE, SSH_REFERENCE, crossover_grid

ARTIFACT_DIR = os.path.join(os.path.dirname(__file__), "artifacts")

HN_SIZES = (2, 4, 8, 12, 20, 40)
SSH_CELLS = (1, 4, 10, 20)


def hn_reference_params(n=None):
    return HatanoNelsonParams(n or HN_REFERENCE["n_sites"], HN_REFERENCE["t_right"],
                              HN_REFERENCE["t_left"], HN_REFERENCE["kappa"])


def ssh_reference_params(g, cells=None):
    return SshParams(cells or SSH_REFERENCE["n_cells"], SSH_REFERENCE["t1"], SSH_REFERENCE["t2"],
                     g, SSH_REFERENCE["kappa"])


def relative_residual(x, c, y):
    return float(np.linalg.norm(x @ c + c @ x.conj().T - y) / np.linalg.norm(y))


def hn_edge_pump_pair(n):
    x = matrix_entries(build_hatano_nelson(hn_reference_params(n)))
    y = matrix_entries(build_local_pump(n, n, HN_REFERENCE["pump_strength"]))
    return x, y


def ssh_corner_pump_pair(cells, g):
    x = matrix_entries(build_ssh(ssh_reference_params(g, cells)))
    site = ssh_index(SSH_REFERENCE["pump_cell"], SSH_REFERENCE["pump_sublattice"], cells)
    y = matrix_entries(build_local_pump(2 * cells, site, SSH_REFERENCE["pump_strength"]))
    return x, y


def test_criterion_01_direct_solver_residuals_stay_below_1e10():
    worst = 0.0
    for n in HN_SIZES:
        x, y = hn_edge_pump_pair(n)
        c = solve_lyapunov_direct(x, y).entries
        worst = max(worst, relative_residual(x, c, y))
    for cells in SSH_CELLS:
        for g in (SSH_REFERENCE["g_edge"], SSH_REFERENCE["g_bulk"]):
            x, y = ssh_corner_pump_pair(cells, g)
            c = solve_lyapunov_direct(x, y).entries
            worst = max(worst, relative_residual(x, c, y))
    assert worst <= 1e-10
    print(f"criterion 01 PASS: worst relative residual {worst:.3e} <= 1e-10")


def test_criterion_02_cross_solver_agreement_within_conditioning():
    rows = []
    worst_checked = 0.0
    n_checked = 0
    for n in range(2, 33, 2):
        x, y = hn_edge_pump_pair(n)
        spectrum = biorthogonal_decompose(x)
        direct = solve_lyapunov_direct(x, y).entries
        spectral = solve_lyapunov_spectral(spectrum, y).entries
        deviation = float(np.linalg.norm(spectral - direct) / np.linalg.norm(direct))
        checked = spectrum.log10_condition < 10
        rows.append(("hn", n, 10 ** spectrum.log10_condition, deviation, checked))
        if checked:
            worst_checked = max(worst_checked, deviation)
            n_checked += 1
    for g in (SSH_REFERENCE["g_edge"], 0.0, SSH_REFERENCE["g_bulk"]):
        x, y = ssh_corner_pump_pair(SSH_REFERENCE["n_cells"], g)
        spectrum = biorthogonal_decompose(x)
        direct = solve_lyapunov_direct(x, y).entries
        spectral = solve_lyapunov_spectral(spectrum, y).entries
        deviation = float(np.linalg.norm(spectral - direct) / np.linalg.norm(direct))
        checked = spectrum.log10_condition < 10
        rows.append((f"ssh(g={g:+.2f})", 2 * SSH_REFERENCE["n_cells"],
                     10 ** spectrum.log10_condition, deviation, checked))
        if checked:
            worst_checked = max(worst_checked, deviation)
            n_checked += 1

    ensure_dir(ARTIFACT_DIR)
    write_csv(os.path.join(ARTIFACT_DIR, "cross_solver_breakdown.csv"),
              ("model", "size", "condition", "relative_deviation", "checked"),
              rows)
    assert any(n >= 12 for model, n, cond, dev, checked in rows
               if model == "hn" and checked)
    assert worst_checked <= 1e-6
    print(f"criterion 02 PASS: {n_checked} configurations under condition 1e10, "
          f"worst deviation {worst_checked:.3e} <= 1e-6; breakdown curve in "
          f"{ARTIFACT_DIR}/cross_solver_breakdown.csv")


def test_criterion_03_many_body_oracle_equivalence():
    # the single-band chain at 2 and 3 sites, the two-band chain at 2 cells
    gamma = 0.1
    chains = [(HatanoNelsonParams(n, 1.0, 0.17, 1.5), build_hatano_nelson,
               hn_jump_decomposition) for n in (2, 3)]
    chains += [(SshParams(2, 0.5, 1.0, g, 2.0), build_ssh, ssh_jump_decomposition)
               for g in (-0.25, 0.0, 0.3)]
    worst_traj = worst_steady = 0.0
    for params, build, decompose in chains:
        n = params.n_sites
        x = matrix_entries(build(params))
        y = gamma * np.eye(n)
        realization = inverse_design(x, y)
        assert realization.physical
        jumps = decompose(params, gamma)
        trajectory = evolve_master(DensityMatrix.vacuum(n), realization.hamiltonian,
                                   jumps, t_final=10.0, dt=0.002, stride=50)
        reference = propagate_correlator(x, y, np.zeros((n, n)),
                                         t_final=10.0, dt=0.002, stride=50)
        assert trajectory.times[-1] == 10.0
        for state, sample in zip(trajectory.states, reference.states):
            worst_traj = max(worst_traj, float(np.abs(correlator_of(state) - sample).max()))
        rho = steady_state_oracle(realization.hamiltonian, jumps)
        direct = solve_lyapunov_direct(x, y).entries
        worst_steady = max(worst_steady, float(np.abs(correlator_of(rho) - direct).max()))
    assert worst_traj <= 1e-7
    assert worst_steady <= 1e-8
    print(f"criterion 03 PASS: trajectory deviation from propagate_correlator "
          f"{worst_traj:.3e} <= 1e-7 over t in [0, 10], steady deviation "
          f"{worst_steady:.3e} <= 1e-8, single- and two-band chains")


def test_criterion_04_physical_realizations_give_physical_states():
    cases = []
    for n, kappa, gamma in ((3, 1.5, 0.1), (8, 2.0, 0.5), (1, 0.8, 1.6)):
        params = HatanoNelsonParams(n, 1.0, 0.17, kappa)
        cases.append((matrix_entries(build_hatano_nelson(params)),
                      hn_jump_decomposition(params, gamma)))
    for cells, kappa, gamma, g in ((3, 1.6, 0.1, 0.0), (4, 2.2, 0.3, 0.2)):
        params = SshParams(cells, 0.5, 1.0, g, kappa)
        cases.append((matrix_entries(build_ssh(params)),
                      ssh_jump_decomposition(params, gamma)))
    profile_params = HatanoNelsonParams(4, 1.0, 0.17, 1.5)
    cases.append((matrix_entries(build_hatano_nelson(profile_params)),
                  hn_jump_decomposition(profile_params,
                                        build_diagonal_pump([0.3, 0.0, 0.0, 0.1]))))

    worst_occ_low, worst_occ_high, worst_recon = 0.0, 1.0, 0.0
    for x, jumps in cases:
        assert float(np.linalg.eigvalsh(jumps.loss_gram()).min()) >= -1e-12
        assert float(np.linalg.eigvalsh(jumps.gain_gram()).min()) >= -1e-12
        corr = solve_lyapunov_direct(x, jumps.gain_gram())
        orbitals = natural_orbitals(corr)
        occ = orbitals.occupations
        assert occ.min() >= -1e-10
        assert occ.max() <= 1.0 + 1e-10
        profile = (np.abs(orbitals.orbitals) ** 2 @ occ).real
        recon = float(np.abs(profile
                             - np.asarray(corr.entries).diagonal().real).max())
        assert recon <= 1e-12
        worst_occ_low = min(worst_occ_low, float(occ.min()))
        worst_occ_high = max(worst_occ_high, float(occ.max()))
        worst_recon = max(worst_recon, recon)
    print(f"criterion 04 PASS: {len(cases)} feasible realizations, occupations in "
          f"[{worst_occ_low:.3e}, {worst_occ_high:.9f}], density reconstruction "
          f"{worst_recon:.3e} <= 1e-12")


def test_criterion_05_boundary_locking_profiles(golden):
    gold = golden["hn_locking"]
    params = hn_reference_params()
    n = params.n_sites
    x = matrix_entries(build_hatano_nelson(params))
    pump = build_local_pump(n, HN_REFERENCE["pump_site"], HN_REFERENCE["pump_strength"])
    corr = solve_lyapunov_direct(x, pump)
    orbitals = natural_orbitals(corr)

    betas, right_unit, _ = hn_normalized_modes(params)
    slow_profile = np.abs(right_unit[:, int(np.argmin(betas))]) ** 2
    top_profile = np.abs(orbitals.top_orbital().amplitudes) ** 2
    dens = normalized_density(corr)
    for name, profile in (("top orbital", top_profile),
                          ("slow mode", slow_profile),
                          ("density", dens)):
        assert int(np.argmax(profile)) + 1 >= 35, name

    o_slow = float(np.abs(np.vdot(right_unit[:, int(np.argmin(betas))],
                                  orbitals.top_orbital().amplitudes)) ** 2)
    assert abs(o_slow - gold["overlap_slow"]) <= 1e-6

    scan = hn_source_scan(params, HN_REFERENCE["pump_strength"])
    deviation = np.abs(scan.nu_max_normalized - scan.loading_normalized)
    assert abs(float(deviation.max()) - gold["scan_max_deviation"]) <= 1e-6
    occ_argmax = int(scan.sites[int(np.argmax(scan.nu_max_normalized))])
    load_argmax = int(scan.sites[int(np.argmax(scan.loading_normalized))])
    assert occ_argmax == load_argmax
    assert occ_argmax == gold["scan_occupation_argmax_site"]

    normalized = orbitals.occupations_normalized()
    assert normalized[0] == 1.0
    assert normalized[1] < 1.0
    assert abs(float(normalized[1]) - gold["occupation_second_normalized"]) <= 1e-6
    print(f"criterion 05 PASS: boundary argmax >= 35, overlap {o_slow:.9f} "
          f"within 1e-6 of golden, scan deviation "
          f"{float(deviation.max()):.9f} frozen, second occupation "
          f"{float(normalized[1]):.3e} frozen")


def test_criterion_06_edge_to_bulk_crossover_scan(golden):
    gold = golden["ssh_crossover"]
    grid = crossover_grid()
    assert grid.size == 24
    scan = ssh_crossover_scan(ssh_reference_params(0.0), SSH_REFERENCE["pump_cell"],
                              SSH_REFERENCE["pump_sublattice"], SSH_REFERENCE["pump_strength"],
                              g_values=grid)
    assert scan.failures == ()

    idx_edge = int(np.argmin(np.abs(grid - SSH_REFERENCE["g_edge"])))
    idx_bulk = int(np.argmin(np.abs(grid - SSH_REFERENCE["g_bulk"])))
    assert abs(grid[idx_edge] - SSH_REFERENCE["g_edge"]) <= 1e-12
    assert abs(grid[idx_bulk] - SSH_REFERENCE["g_bulk"]) <= 1e-12
    assert scan.o_edge[idx_edge] > scan.o_slow[idx_edge]
    assert scan.o_slow[idx_bulk] > scan.o_edge[idx_bulk]

    margin = scan.o_edge - scan.o_slow
    sign_changes = [(float(grid[k]), float(grid[k + 1]))
                    for k in range(margin.size - 1)
                    if margin[k] != 0 and margin[k] * margin[k + 1] < 0]
    assert len(sign_changes) == gold["sign_changes"] == 1
    assert_allclose(sign_changes[0], gold["crossing_bracket"], atol=1e-12)
    print(f"criterion 06 PASS: edge wins at g={SSH_REFERENCE['g_edge']}, bulk wins at "
          f"g={SSH_REFERENCE['g_bulk']}, single crossing in "
          f"[{sign_changes[0][0]:.4f}, {sign_changes[0][1]:.4f}]")


def test_criterion_07_normalized_diagnostics_ignore_pump_scale():
    worst = 0.0

    def compare(x, site, strength, kappa=None):
        nonlocal worst
        spectrum = biorthogonal_decompose(x)
        a, b = [diagnostics_report(spectrum, solve_lyapunov_direct(
                    x, build_local_pump(40, site, strength * scale)), kappa=kappa)
                for scale in (1.0, 1e3)]
        la, lb = [loading_factors(spectrum, site, strength * scale) for scale in (1.0, 1e3)]
        assert a.orbitals.dominant_indices() == b.orbitals.dominant_indices()
        deltas = [float(np.abs(a.density_normalized - b.density_normalized).max()),
                  float(np.abs(a.orbitals.occupations_normalized()
                               - b.orbitals.occupations_normalized()).max()),
                  float(np.abs(la.normalized - lb.normalized).max())]
        deltas += [abs(a.overlaps[key] - b.overlaps[key]) for key in a.overlaps]
        worst = max(worst, max(deltas))

    x = matrix_entries(build_hatano_nelson(hn_reference_params()))
    compare(x, HN_REFERENCE["pump_site"], HN_REFERENCE["pump_strength"])

    x = matrix_entries(build_ssh(ssh_reference_params(SSH_REFERENCE["g_edge"])))
    site = ssh_index(SSH_REFERENCE["pump_cell"], SSH_REFERENCE["pump_sublattice"], SSH_REFERENCE["n_cells"])
    compare(x, site, SSH_REFERENCE["pump_strength"], kappa=SSH_REFERENCE["kappa"])

    assert worst <= 1e-10
    print(f"criterion 07 PASS: thousandfold pump change moves normalized "
          f"diagnostics by {worst:.3e} <= 1e-10")


def test_criterion_08_inverse_design_round_trip_and_exact_gating():
    hn_threshold = 2.0 * (1.0 + 0.17)
    worst_rebuild, worst_gram = 0.0, 0.0
    n_feasible = n_infeasible = 0

    def check_roundtrip(x, y, jumps):
        nonlocal worst_rebuild, worst_gram
        realization = inverse_design(x, y)
        rebuilt = (1j * realization.hamiltonian
                   + 0.5 * (realization.loss_gram + realization.gain_gram))
        worst_rebuild = max(worst_rebuild,
                            float(np.abs(rebuilt - x).max()),
                            float(np.abs(realization.gain_gram - y).max()))
        assert float(np.abs(rebuilt - x).max()) <= 1e-12
        assert float(np.abs(realization.gain_gram - y).max()) <= 1e-12
        report = validate_jump_set(jumps, realization)
        assert report.passed
        worst_gram = max(worst_gram, report.loss_gram_error, report.gain_gram_error)
        assert max(report.loss_gram_error, report.gain_gram_error) <= 1e-12

    for kappa in (0.91, 1.17, (hn_threshold + 0.1) / 2.0, 1.5, 2.0):
        for gamma in (0.03, 0.1, 1.0):
            params = HatanoNelsonParams(3, 1.0, 0.17, kappa)
            feasible = 2.0 * kappa - gamma >= hn_threshold
            if feasible:
                jumps = hn_jump_decomposition(params, gamma)
                check_roundtrip(matrix_entries(build_hatano_nelson(params)),
                                gamma * np.eye(3), jumps)
                n_feasible += 1
            else:
                with pytest.raises(InfeasibilityError):
                    hn_jump_decomposition(params, gamma)
                n_infeasible += 1

    for g in (-0.2, 0.0, 0.2):
        ssh_threshold = (2.0 * 0.5 + 2.0 * 1.0) * np.cosh(g)
        for kappa in (1.2, (ssh_threshold + 0.1) / 2.0, 1.8):
            for gamma in (0.1, 0.6):
                params = SshParams(4, 0.5, 1.0, g, kappa)
                feasible = 2.0 * kappa - gamma >= ssh_threshold * (1.0 - 1e-14)
                if feasible:
                    jumps = ssh_jump_decomposition(params, gamma)
                    check_roundtrip(matrix_entries(build_ssh(params)),
                                    gamma * np.eye(8), jumps)
                    n_feasible += 1
                else:
                    with pytest.raises(InfeasibilityError):
                        ssh_jump_decomposition(params, gamma)
                    n_infeasible += 1

    assert n_feasible > 0 and n_infeasible > 0
    print(f"criterion 08 PASS: {n_feasible} feasible points rebuilt to "
          f"{worst_rebuild:.3e} (grams {worst_gram:.3e}) <= 1e-12, "
          f"{n_infeasible} infeasible points rejected exactly at the gate")


def test_criterion_09_analytic_modes_match_numerics():
    worst_closed, worst_numeric = 0.0, 0.0
    for n in range(2, 13):
        params = hn_reference_params(n)
        betas = hn_analytic_spectrum(params).betas.real
        modes = np.arange(1, n + 1)
        closed = (HN_REFERENCE["kappa"]
                  - 2.0 * np.sqrt(HN_REFERENCE["t_right"] * HN_REFERENCE["t_left"])
                  * np.cos(modes * np.pi / (n + 1)))
        worst_closed = max(worst_closed, float(np.abs(betas - closed).max()))

        numeric = biorthogonal_decompose(
            matrix_entries(build_hatano_nelson(params)))
        worst_numeric = max(worst_numeric,
                            float(np.abs(np.sort(numeric.betas.real)
                                         - np.sort(betas)).max()),
                            float(np.abs(numeric.betas.imag).max()))
    assert worst_closed <= 1e-14
    assert worst_numeric <= 1e-10

    residual = hn_similarity_residual(hn_reference_params(12))
    assert residual <= 1e-9
    print(f"criterion 09 PASS: closed-form betas to {worst_closed:.3e} <= 1e-14, "
          f"numeric agreement {worst_numeric:.3e} <= 1e-10 for N <= 12, "
          f"similarity residual {residual:.3e} <= 1e-9 at N = 12")


def test_criterion_10_transients_and_fixed_point():
    n = 8
    params = hn_reference_params(n)
    x = matrix_entries(build_hatano_nelson(params))
    y = matrix_entries(build_local_pump(n, 4, HN_REFERENCE["pump_strength"]))
    spectrum = biorthogonal_decompose(x)

    zero = np.zeros((n, n))
    trajectory = propagate_correlator(x, y, zero, t_final=10.0, dt=0.002, stride=500)
    worst_transient = 0.0
    for time, sample in zip(trajectory.times, trajectory.states):
        closed = closed_form_correlator(spectrum, y, zero, float(time))
        worst_transient = max(worst_transient, float(np.abs(sample - closed).max()))
    assert worst_transient <= 1e-8

    steady = solve_lyapunov_direct(x, y)
    held = propagate_correlator(x, y, steady.entries, t_final=5.0, dt=0.002,
                                stride=500)
    worst_drift = float(np.abs(held.states - steady.entries).max())
    assert worst_drift <= 1e-10
    print(f"criterion 10 PASS: transients within {worst_transient:.3e} <= 1e-8 "
          f"of the closed form, fixed point stationary to {worst_drift:.3e} "
          f"<= 1e-10")
