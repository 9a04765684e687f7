"""Builders for the chain matrices and pump terms."""

import ast
import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import gausschain
from gausschain import (BiorthogonalSpectrum, DensityMatrix, FockOperatorSet, GausschainError,
                        HatanoNelsonParams, JumpVector, ModeVector, NaturalOrbitalSet,
                        ParameterError,
                        RelaxationMatrix, SiteIndexError, SourceMatrix, SshParams,
                        SteadyCorrelator, biorthogonal_decompose,
                        build_diagonal_pump, build_hatano_nelson, build_local_pump, build_ssh,
                        closed_form_correlator, default_labels, density, diagnostics_report,
                        evolve_master, hn_jump_decomposition, hn_source_scan, identify_edge_candidate,
                        inverse_design, loading_factors, natural_orbitals,
                        normalized_density, overlap, propagate_correlator,
                        single_mode_approximation, solve_lyapunov_direct,
                        solve_lyapunov_spectral, ssh_crossover_scan, ssh_index, ssh_jump_decomposition, ssh_labels, steady_state_oracle)
from gausschain.matio import dumps_json, matrix_from_payload, matrix_payload
from gausschain.models import (PSD_TOL, _check_finite_scalar, _count, _number_mask, _positions,
                               _strength, _vector, matrix_entries)
from gausschain.steady import DirectSolver
from tests.conftest import motivation_pair


def test_hn_two_sites_reference_values():
    x = build_hatano_nelson(HatanoNelsonParams(2, 1.0, 0.17, 0.91))
    assert_array_equal(np.asarray(x.entries), np.array([[0.91, -0.17], [-1.0, 0.91]]))
    assert x.labels == ("1", "2")


def test_hn_single_site_is_bare_damping():
    for tr, tl in [(1.0, 0.17), (0.3, 2.0)]:
        x = build_hatano_nelson(HatanoNelsonParams(1, tr, tl, 0.5))
        assert_array_equal(np.asarray(x.entries), np.array([[0.5]]))


def test_hn_reciprocal_is_symmetric_tridiagonal():
    x = np.asarray(build_hatano_nelson(HatanoNelsonParams(3, 1.0, 1.0, 3.0)).entries)
    expected = np.array([[3., -1., 0.], [-1., 3., -1.], [0., -1., 3.]])
    assert_array_equal(x, expected)
    assert np.abs(x - x.conj().T).max() <= 1e-15


def test_hn_structure_random_parameters():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(1, 12))
        tr, tl = rng.uniform(0.05, 3.0, size=2)
        kappa = rng.uniform(-1.0, 4.0)
        x = np.asarray(build_hatano_nelson(HatanoNelsonParams(n, tr, tl, kappa)).entries)
        assert_allclose(np.diag(x), np.full(n, kappa))
        if n > 1:
            assert_allclose(np.diag(x, -1), np.full(n - 1, -tr))
            assert_allclose(np.diag(x, 1), np.full(n - 1, -tl))
        # tridiagonal: nothing beyond the first off-diagonals
        assert np.abs(np.triu(x, 2)).max() == 0
        assert np.abs(np.tril(x, -2)).max() == 0


def test_hn_rejects_nonpositive_hoppings():
    # the parameter set is the one home of the hopping rule: a zero hopping
    # once passed it and was refused by each builder and closed form instead
    with pytest.raises(ParameterError, match="^t_right must be positive, got 0.0$"):
        HatanoNelsonParams(3, 0.0, 0.17, 1.0)
    with pytest.raises(ParameterError, match="^t_left must be positive, got -0.1$"):
        HatanoNelsonParams(3, 1.0, -0.1, 1.0)


def test_hn_params_reject_bad_sizes():
    with pytest.raises(ParameterError):
        HatanoNelsonParams(0, 1.0, 1.0, 1.0)
    with pytest.raises(ParameterError):
        HatanoNelsonParams(3, 1.0, float("nan"), 1.0)


def test_ssh_single_cell_reciprocal():
    x = build_ssh(SshParams(1, 0.5, 1.0, 0.0, 1.5))
    assert_array_equal(np.asarray(x.entries), np.array([[1.5, -0.5], [-0.5, 1.5]]))
    assert x.labels == ("1A", "1B")


def test_ssh_nonreciprocal_entry_values():
    g = 0.2
    x = np.asarray(build_ssh(SshParams(2, 0.5, 1.0, g, 1.5)).entries)
    # basis (1A, 1B, 2A, 2B)
    assert x[1, 0] == pytest.approx(-0.5 * np.exp(g))
    assert x[0, 1] == pytest.approx(-0.5 * np.exp(-g))
    assert x[2, 1] == pytest.approx(-1.0 * np.exp(g))
    assert x[1, 2] == pytest.approx(-1.0 * np.exp(-g))
    assert_allclose(np.diag(x), np.full(4, 1.5))
    assert np.abs(np.triu(x, 2)).max() == 0


def test_ssh_reciprocal_point_is_real_symmetric():
    x = np.asarray(build_ssh(SshParams(4, 0.5, 1.0, 0.0, 1.5)).entries)
    assert np.abs(x.imag).max() == 0
    assert np.abs(x - x.T).max() == 0


def test_ssh_rejects_nonpositive_hoppings():
    # a chain has bonds: SshParams refuses a zero hopping, as HatanoNelsonParams
    # does, so build_ssh, the edge envelopes and the scans never see one
    with pytest.raises(ParameterError, match="^t1 must be positive, got 0.0$"):
        SshParams(2, 0.0, 1.0, 0.1, 1.0)
    with pytest.raises(ParameterError, match="^t2 must be positive, got -1.0$"):
        SshParams(2, 0.5, -1.0, 0.1, 1.0)


@pytest.mark.parametrize("t1, g", [(0.5, 1000.0), (0.5, -1000.0), (0.5, 709.9),
                                   (1e-300, -100.0)])
def test_ssh_refuses_a_g_whose_bonds_leave_the_double_range(t1, g):
    # math.exp(1000) once leaked OverflowError from the bond properties, and
    # t1 e^-100 = 0.0 at t1 = 1e-300 made a bond the builder took
    with pytest.raises(ParameterError, match=f"^g must keep .* got {re.escape(repr(g))}$"):
        SshParams(3, t1, 1.0, g, 1.5)
    edge = build_ssh(SshParams(3, 0.5, 1.0, 700.0, 1.5)).entries  # bands t e^+-700
    assert 0.0 < -edge[0, 1] < -edge[2, 1] < math.inf  # t1 e^-700 is 1e-304, t2 e^700 1e304


def test_ssh_index_and_labels():
    assert ssh_index(1, "A", 3) == 1
    assert ssh_index(1, "B", 3) == 2
    assert ssh_index(3, "A", 3) == 5
    assert ssh_labels(2) == ("1A", "1B", "2A", "2B")
    with pytest.raises(SiteIndexError):
        ssh_index(4, "A", 3)
    with pytest.raises(ParameterError):
        ssh_index(1, "C", 3)


def test_local_pump_matches_reference_setting():
    y = np.asarray(build_local_pump(40, 15, 0.03).entries)
    expected = np.zeros((40, 40))
    expected[14, 14] = 0.03
    assert_array_equal(y, expected)


def test_local_pump_small_and_errors():
    assert_array_equal(np.asarray(build_local_pump(2, 1, 1.0).entries),
                       np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(SiteIndexError):
        build_local_pump(2, 3, 1.0)
    with pytest.raises(ParameterError):
        build_local_pump(2, 1, 0.0)
    with pytest.raises(ParameterError):
        build_local_pump(2, 1, -0.5)


def test_diagonal_pump_consistency_with_local():
    y = np.zeros(5)
    y[2] = 0.7
    diag = np.asarray(build_diagonal_pump(y).entries)
    local = np.asarray(build_local_pump(5, 3, 0.7).entries)
    assert_array_equal(diag, local)
    assert_array_equal(np.asarray(build_diagonal_pump([1.0, 2.0, 3.0]).entries),
                       np.diag([1.0, 2.0, 3.0]).astype(complex))
    with pytest.raises(ParameterError):
        build_diagonal_pump([0.1, -0.2, 0.3])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ParameterError):
            build_diagonal_pump([0.1, bad, 0.3])


def test_source_matrix_validation():
    with pytest.raises(ParameterError):
        SourceMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(ParameterError):
        SourceMatrix(np.array([[1.0, 0.0], [0.0, -1e-6]]))  # negative eigenvalue
    # borderline rounding noise passes the relative PSD tolerance
    m = np.array([[1.0, 0.0], [0.0, -1e-13]])
    assert SourceMatrix(m).dim == 2


def test_source_matrix_symmetrizes_only_inexact_input():
    # An exactly Hermitian Y is stored as given, in a frozen copy; one
    # within HERMITIAN_RTOL of its peak is stored as (Y + Y^dag) / 2.
    y = np.array([[1.0, 0.25 - 0.5j], [0.25 + 0.5j, 2.0]])
    src = SourceMatrix(y)
    assert np.array_equal(src.entries, y) and not src.entries.flags.writeable
    y[0, 0] = 5.0
    assert src.entries[0, 0] == 1.0
    noisy = y.copy()
    noisy[0, 1] += 4e-13
    assert np.array_equal(SourceMatrix(noisy).entries, 0.5 * (noisy + noisy.conj().T))
    noisy[0, 1] += 6e-12  # 6.4e-12 of defect at peak 5.0 is above 5e-12
    with pytest.raises(ParameterError, match="not Hermitian"):
        SourceMatrix(noisy)
    for bad in (np.nan, complex(0.0, np.inf)):
        with pytest.raises(ParameterError, match="non-finite"):
            SourceMatrix(np.diag([1.0, bad]))
    with pytest.raises(ParameterError, match="label count"):
        SourceMatrix(np.eye(2), ("1",))


def test_source_matrix_psd_rule_on_diagonal_and_dense_pumps():
    # Diagonal pumps are screened by their entries, others by eigvalsh;
    # both apply the same relative tolerance and message.
    with pytest.raises(ParameterError, match="min eigenvalue"):
        SourceMatrix(np.diag([0.5, -0.25, 1.0]))
    with pytest.raises(ParameterError, match="min eigenvalue"):
        SourceMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalues 3, -1
    edge = SourceMatrix(np.diag([2.0, -PSD_TOL * 2.0, 0.0]))
    assert edge.entries[1, 1] == -PSD_TOL * 2.0


def test_chain_and_pump_builders_are_float64():
    built = (build_hatano_nelson(HatanoNelsonParams(6, 1.0, 0.17, 0.91)),
             build_ssh(SshParams(3, 0.5, 1.0, -0.25, 1.5)),
             build_local_pump(6, 2, 0.03), build_diagonal_pump([0.1, 0.0, 0.2]))
    for m in built:
        assert m.entries.dtype == np.float64


def test_matrix_entries_is_float64_unless_an_imaginary_part_is_nonzero():
    # -0.0 imaginary parts count as zero; one tiny nonzero one keeps complex.
    zero = np.array([[1.0 + 0.0j, complex(-2.0, -0.0)], [3.0, 4.0]])
    for out in (matrix_entries(zero), RelaxationMatrix(zero).entries):
        assert out.dtype == np.float64
        assert_array_equal(out, zero.real)
    assert matrix_entries([[1, 2], [3, 4]]).dtype == np.float64
    one = zero.copy()
    one[0, 1] += 1e-300j
    for out in (matrix_entries(one), RelaxationMatrix(one).entries):
        assert out.dtype == np.complex128
        assert_array_equal(out, one)
    hermitian = np.array([[1.0, 0.5j], [-0.5j, 1.0]])
    assert SourceMatrix(hermitian).entries.dtype == np.complex128
    assert SourceMatrix(hermitian.real.astype(complex)).entries.dtype == np.float64


def gated_calls():
    """Entry point -> (role its error names, valid matrix, call on one matrix).

    Every matrix a call takes passes models.matrix_entries, which refuses
    one that is not finite and names it by its role in that call.
    """
    params = HatanoNelsonParams(3, 1.0, 0.17, 1.5)
    x = matrix_entries(build_hatano_nelson(params))
    y = 0.1 * np.eye(3)
    c = solve_lyapunov_direct(x, y).entries
    spec = biorthogonal_decompose(x)
    h = inverse_design(x, y).hamiltonian
    jumps = hn_jump_decomposition(params, 0.1)
    zero, eye, unit = np.zeros((3, 3)), np.eye(3), [1.0, 0.0, 0.0]
    vacuum = np.diag([1.0, 0.0, 0.0, 0.0])  # 2 sites
    return {
        "RelaxationMatrix": ("relaxation matrix", x, RelaxationMatrix),
        "SourceMatrix": ("source matrix", y, SourceMatrix),
        "SteadyCorrelator": ("correlator", c, lambda m: SteadyCorrelator(m, "direct", 0.0, 0.0)),
        "DirectSolver": ("relaxation matrix", x, DirectSolver),
        "DirectSolver.solve": ("source matrix", y, lambda m: DirectSolver(x).solve(m)),
        "solve_lyapunov_direct X": ("relaxation matrix", x,
                                    lambda m: solve_lyapunov_direct(m, y)),
        "solve_lyapunov_direct": ("source matrix", y, lambda m: solve_lyapunov_direct(x, m)),
        "solve_lyapunov_spectral": ("source matrix", y,
                                    lambda m: solve_lyapunov_spectral(spec, m)),
        "closed_form_correlator Y": ("source matrix", y,
                                     lambda m: closed_form_correlator(spec, m, zero, 1.0)),
        "closed_form_correlator C0": ("initial state C0", zero,
                                      lambda m: closed_form_correlator(spec, y, m, 1.0)),
        "propagate_correlator X": ("relaxation X", x,
                                   lambda m: propagate_correlator(m, y, zero, 1.0, 0.1)),
        "propagate_correlator Y": ("source Y", y,
                                   lambda m: propagate_correlator(x, m, zero, 1.0, 0.1)),
        "propagate_correlator C0": ("initial state C0", zero,
                                    lambda m: propagate_correlator(x, y, m, 1.0, 0.1)),
        "natural_orbitals": ("correlator", c, natural_orbitals),
        "density": ("correlator", c, density),
        "normalized_density": ("correlator", c, normalized_density),
        "diagnostics_report": ("correlator", c, lambda m: diagnostics_report(spec, m)),
        "biorthogonal_decompose": ("relaxation matrix", x, biorthogonal_decompose),
        "inverse_design X": ("relaxation matrix", x, lambda m: inverse_design(m, y)),
        "inverse_design Y": ("source matrix", y, lambda m: inverse_design(x, m)),
        "evolve_master": ("one-body Hamiltonian", h,
                          lambda m: evolve_master(DensityMatrix.vacuum(3), m, jumps, 1.0, 0.1)),
        "steady_state_oracle": ("one-body Hamiltonian", h,
                                lambda m: steady_state_oracle(m, jumps)),
        "DensityMatrix": ("density matrix", vacuum, DensityMatrix),
        "one_body_operator": ("coefficient matrix", h, FockOperatorSet(3).one_body_operator),
        "matrix_payload": ("matrix payload", eye, lambda m: matrix_payload(m, ("1", "2", "3"))),
        "BiorthogonalSpectrum u": ("spectrum u", eye,
                                   lambda m: BiorthogonalSpectrum(unit, m, unit)),
    }


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", list(gated_calls()))
def test_every_matrix_entry_point_refuses_non_finite_entries_by_role(entry, bad):
    # density once returned NaN, normalized_density [nan, 0] with a warning,
    # evolve_master blamed density matrix sample 1, and the oracle raised a
    # raw LinAlgError
    role, good, call = gated_calls()[entry]
    call(good)
    broken = np.array(good)
    broken[1, 1] = bad
    message = f"{role} contains non-finite entries: entry (2, 2) is {broken[1, 1].item()!r}"
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        call(broken)


@pytest.mark.parametrize("entry", list(gated_calls()))
def test_every_matrix_entry_point_refuses_an_empty_matrix_by_role(entry):
    # A 0x0 matrix once made DirectSolver, solve_lyapunov_direct,
    # natural_orbitals, biorthogonal_decompose and inverse_design raise a
    # raw numpy ValueError.
    role, _, call = gated_calls()[entry]
    with pytest.raises(ParameterError, match=f"^{role} must not be empty$"):
        call(np.zeros((0, 0)))


@pytest.mark.parametrize("short", [0, -1], ids=["first-row-short", "last-row-short"])
@pytest.mark.parametrize("entry", list(gated_calls()))
def test_every_matrix_entry_point_names_ragged_rows_by_role(entry, short):
    # ragged rows were once called non-finite, naming the good first row
    role, good, call = gated_calls()[entry]
    rows = np.array(good).tolist()
    rows[short] = rows[short][:-1]
    message = f"{role} has rows of unequal lengths {[len(row) for row in rows]}"
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        call(rows)


def gated_scalars():
    """Entry point -> (kind, role its error names, valid value, call on one value).

    Every index, count, strength and other real parameter a call takes passes
    the scalar gate of models (_positions, _count, _strength,
    _check_finite_scalar).  An "index" lies in 1..3 here: every chain below
    has three sites, cells or modes.
    """
    params = HatanoNelsonParams(3, 1.0, 0.17, 1.5)
    ssh = SshParams(3, 0.5, 1.0, 0.0, 1.5)
    wide_gap = SshParams(3, 0.5, 1.0, 0.0, 2.0)  # local jumps need 2 kappa - gamma >= 3
    x = matrix_entries(build_hatano_nelson(params))
    y = 0.1 * np.eye(3)
    zero = np.zeros((3, 3))
    spectrum = biorthogonal_decompose(x)
    h = inverse_design(x, y).hamiltonian
    jumps = hn_jump_decomposition(params, 0.1)
    return {
        # 1-based indices -> SiteIndexError
        "build_local_pump site": ("index", "pump site", 2, lambda s: build_local_pump(3, s, 0.1)),
        "ssh_index cell": ("index", "cell", 2, lambda c: ssh_index(c, "A", 3)),
        "right_mode_unit": ("index", "mode index", 2, spectrum.right_mode_unit),
        "loading_factors site": ("index", "pump site", 2,
                                 lambda s: loading_factors(spectrum, s, 0.1)),
        "single_mode_approximation site": ("index", "pump site", 2,
                                           lambda s: single_mode_approximation(spectrum, s, 0.1)),
        "hn_source_scan sites": ("index", "pump site", 2,
                                 lambda s: hn_source_scan(params, 0.1, sites=[s])),
        "DirectSolver.solve_local sites": ("index", "pump site", 2,
                                           lambda s: DirectSolver(x).solve_local([s], 0.1)),
        "ssh_crossover_scan cell": ("index", "cell", 2,
                                    lambda c: ssh_crossover_scan(ssh, c, "A", 0.1, [0.0])),
        # counts -> ParameterError
        "HatanoNelsonParams": ("count", "n_sites", 3,
                               lambda n: HatanoNelsonParams(n, 1.0, 0.17, 1.5)),
        "SshParams": ("count", "n_cells", 3, lambda n: SshParams(n, 0.5, 1.0, 0.0, 1.5)),
        "build_local_pump dim": ("count", "dim", 3, lambda d: build_local_pump(d, 1, 0.1)),
        "default_labels": ("count", "dim", 3, default_labels),
        "ssh_labels": ("count", "n_cells", 3, ssh_labels),
        "ssh_index n_cells": ("count", "n_cells", 3, lambda n: ssh_index(1, "A", n)),
        "FockOperatorSet": ("count", "n_sites", 3, FockOperatorSet),
        "DensityMatrix.vacuum": ("count", "n_sites", 3, DensityMatrix.vacuum),
        "propagate_correlator stride": ("count", "stride", 2,
                                        lambda k: propagate_correlator(x, y, zero, 0.2, 0.1, k)),
        "evolve_master stride": ("count", "stride", 2,
                                 lambda k: evolve_master(DensityMatrix.vacuum(3), h, jumps,
                                                         0.2, 0.1, k)),
        # strengths -> ParameterError
        "build_local_pump strength": ("strength", "pump strength", 0.1,
                                      lambda g: build_local_pump(3, 1, g)),
        "loading_factors strength": ("strength", "pump strength", 0.1,
                                     lambda g: loading_factors(spectrum, 1, g)),
        "single_mode_approximation strength": (
            "strength", "pump strength", 0.1, lambda g: single_mode_approximation(spectrum, 1, g)),
        "hn_source_scan strength": ("strength", "pump strength", 0.1,
                                    lambda g: hn_source_scan(params, g)),
        "DirectSolver.solve_local strength": ("strength", "pump strength", 0.1,
                                              lambda g: DirectSolver(x).solve_local([1], g)),
        "ssh_crossover_scan strength": ("strength", "pump strength", 0.1,
                                        lambda g: ssh_crossover_scan(ssh, 1, "A", g, [0.0])),
        "propagate_correlator dt": ("strength", "dt", 0.1,
                                    lambda dt: propagate_correlator(x, y, zero, 0.2, dt)),
        "evolve_master dt": ("strength", "dt", 0.1,
                             lambda dt: evolve_master(DensityMatrix.vacuum(3), h, jumps, 0.2, dt)),
        "hn_jump_decomposition gamma": ("strength",
                                        "single-band decomposition: uniform pump strength", 0.1,
                                        lambda g: hn_jump_decomposition(params, g)),
        "ssh_jump_decomposition gamma": ("strength",
                                         "two-band decomposition: uniform pump strength", 0.1,
                                         lambda g: ssh_jump_decomposition(wide_gap, g)),
        "HatanoNelsonParams t_left": ("strength", "t_left", 0.17,
                                      lambda t: HatanoNelsonParams(3, 1.0, t, 1.5)),
        "SshParams t1": ("strength", "t1", 0.5, lambda t: SshParams(3, t, 1.0, 0.0, 1.5)),
        # other real parameters -> ParameterError
        "SshParams g": ("finite", "g", 0.0, lambda g: SshParams(3, 0.5, 1.0, g, 1.5)),
        "identify_edge_candidate kappa": ("finite", "kappa", 1.5,
                                          lambda k: identify_edge_candidate(spectrum, k)),
        "propagate_correlator t_final": ("finite", "t_final", 0.2,
                                         lambda t: propagate_correlator(x, y, zero, t, 0.1)),
        "evolve_master t_final": ("finite", "t_final", 0.2,
                                  lambda t: evolve_master(DensityMatrix.vacuum(3), h, jumps,
                                                          t, 0.1)),
        "closed_form_correlator t": ("finite", "time", 0.2,
                                     lambda t: closed_form_correlator(spectrum, y, zero, t)),
    }


BAD_SCALARS = {
    "index": [0, 4, 2.5, math.nan, math.inf, -math.inf, True],
    "count": [0, 2.5, math.nan, math.inf, True],
    "strength": [0.0, -1.0, math.nan, math.inf, True, "abc"],
    "finite": [math.nan, math.inf, -math.inf, True, "abc"],
}


def scalar_cases():
    for entry, (kind, *_) in gated_scalars().items():
        for bad in BAD_SCALARS[kind]:
            yield pytest.param(entry, bad, id=f"{entry}-{bad}")


@pytest.mark.parametrize("entry, bad", list(scalar_cases()))
def test_every_scalar_entry_point_refuses_a_bad_value_by_role(entry, bad):
    # At the parent of the scalar gate 2.5, nan, inf or True leaked a raw
    # ValueError, OverflowError or TypeError from many of these, and some
    # returned a wrong answer: FockOperatorSet(2.5) built a 2-site set,
    # annihilation(0) gave site 3's operator, and build_local_pump(3, True,
    # 0.1) pumped site 1.  float() took True as 1.0 and leaked a raw
    # ValueError for "abc", and a NaN kappa gave mode 1 with used_fallback.
    # t_final=True sampled to t = 1 and closed_form_correlator took t=True.
    kind, role, good, call = gated_scalars()[entry]
    call(good)
    if kind == "index":
        error, message = SiteIndexError, f"{role} {bad} outside 1..3"
    elif kind == "count":
        error, message = ParameterError, f"{role} must be a positive integer, got {bad!r}"
    elif kind == "strength" and isinstance(bad, float) and math.isfinite(bad):
        error, message = ParameterError, f"{role} must be positive, got {bad}"
    else:
        error, message = ParameterError, f"{role} must be finite, got {bad!r}"
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(bad)


def gated_vectors():
    """Entry point -> (kind, role its error names, valid value, call on one value).

    Every vector a call takes passes models._vector, every matrix
    matrix_entries, and a matrix file's re and im and an orbital matrix
    (N x k, not square) models._numbers; all read models._number_mask.  NaN,
    inf and empty matrices are refused by role in the two tests above; a
    non-square one names its shape.
    """
    params = HatanoNelsonParams(3, 1.0, 0.17, 1.5)
    wide_gap = SshParams(3, 0.5, 1.0, 0.0, 2.0)
    unit, eye = [1.0, 0.0, 0.0], np.eye(3)
    payload = json.loads(dumps_json(matrix_payload(eye, ("1", "2", "3"))))  # as a file holds it
    ops = FockOperatorSet(3)
    occupations = [3.0, 2.0, 1.0]
    table = {
        "build_diagonal_pump": ("vector", "pump profile", [0.1, 0.2, 0.3], build_diagonal_pump),
        "hn_jump_decomposition profile": (
            "vector", "pump profile", [0.1, 0.2, 0.3],
            lambda g: hn_jump_decomposition(params, build_diagonal_pump(g))),
        "ssh_jump_decomposition profile": (
            "vector", "pump profile", [0.1] * 6,
            lambda g: ssh_jump_decomposition(wide_gap, build_diagonal_pump(g))),
        "ssh_crossover_scan g_values": ("vector", "g_values", [0.0, 0.1, 0.2],
                                        lambda g: ssh_crossover_scan(wide_gap, 1, "A", 0.1, g)),
        "ModeVector": ("vector", "mode vector", unit, ModeVector),
        "JumpVector": ("vector", "jump vector 'x'", unit, lambda v: JumpVector("x", "loss", v)),
        "overlap first": ("vector", "overlap input", unit, lambda v: overlap(v, unit)),
        "overlap second": ("vector", "overlap input", unit, lambda v: overlap(unit, v)),
        "BiorthogonalSpectrum betas": ("vector", "spectrum betas", [1.0, 2.0, 3.0],
                                       lambda b: BiorthogonalSpectrum(b, eye, unit)),
        "BiorthogonalSpectrum log_d": ("vector", "spectrum log_d", unit,
                                       lambda d: BiorthogonalSpectrum(unit, eye, d)),
        "loss_operator": ("vector", "loss vector", unit, ops.loss_operator),
        "gain_operator": ("vector", "gain vector", unit, ops.gain_operator),
        "NaturalOrbitalSet occupations": ("vector", "orbital occupations", occupations,
                                          lambda w: NaturalOrbitalSet(w, eye, 0.0, 3)),
        "NaturalOrbitalSet orbitals": ("array", "orbital matrix", eye[:, :2].tolist(),
                                       lambda v: NaturalOrbitalSet([3.0, 2.0], v, 0.0, 3)),
        "matrix_from_payload re": ("file", "matrix payload re", payload["re"],
                                   lambda m: matrix_from_payload({**payload, "re": m})),
        "matrix_from_payload im": ("file", "matrix payload im", payload["im"],
                                   lambda m: matrix_from_payload({**payload, "im": m})),
    }
    for entry, (role, good, call) in gated_calls().items():
        table[entry] = ("matrix", role, np.array(good).tolist(), call)
    return table


NESTED, EMPTY = "nested", "empty"
BAD_ENTRIES = {
    "vector": [True, None, "0.1", math.nan, math.inf, -math.inf, NESTED, EMPTY],
    "file": [True, None, "0.1", math.nan, math.inf, -math.inf],
    "array": [True, None, "0.1", math.nan, math.inf, -math.inf],
    "matrix": [True, None, "0.1"],
}


def vector_cases():
    for entry, (kind, *_) in gated_vectors().items():
        for bad in BAD_ENTRIES[kind]:
            yield pytest.param(entry, bad, id=f"{entry}-{bad}")


@pytest.mark.parametrize("entry, bad", list(vector_cases()))
def test_every_vector_and_matrix_entry_point_refuses_a_bad_entry_by_role(entry, bad):
    # At the parent of the number rule np.asarray and float() took True as
    # 1.0 and leaked a raw TypeError for None or ValueError for "0.1" where
    # they did not take it too (ModeVector, matrix_entries, matrix files);
    # a nested list passed reshape(-1), NaN in a g list failed every scan
    # point instead of the call, and each vector named its own message.
    kind, role, good, call = gated_vectors()[entry]
    call(good)
    if bad is NESTED or bad is EMPTY:
        value = [good] if bad is NESTED else []
        message = f"{role} must be a non-empty list of numbers, got shape {np.shape(value)}"
    else:
        value = [list(row) if isinstance(row, list) else row for row in good]
        if kind == "vector":
            value[1], where = bad, 2
        else:
            value[1][1], where = bad, (2, 2)
        message = f"{role} contains non-finite entries: entry {where} is {bad!r}"
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        call(value)


def held_arrays():
    """Wrapper -> (build from caller arrays, the caller arrays, the held fields)."""
    eye, cplx = np.eye(2), np.array([[1.0, 0.5j], [-0.5j, 1.0]])
    betas, log_d, unit = np.array([1.0, 2.0]), np.zeros(2), np.array([1.0, 0.0])
    other = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return {
        "RelaxationMatrix": (RelaxationMatrix, (eye,), ("entries",)),
        "SourceMatrix": (SourceMatrix, (cplx,), ("entries",)),
        "SteadyCorrelator": (lambda c: SteadyCorrelator(c, "direct", 0.0, 0.0), (eye,),
                             ("entries",)),
        "ModeVector": (ModeVector, (unit,), ("amplitudes",)),
        "JumpVector": (lambda v: JumpVector("x", "loss", v), (unit,), ("vector",)),
        "DensityMatrix": (DensityMatrix, (np.diag([1.0, 0.0]).astype(complex),), ("entries",)),
        "BiorthogonalSpectrum": (BiorthogonalSpectrum, (betas, other, log_d),
                                 ("betas", "u", "log_d")),
        "NaturalOrbitalSet": (lambda w, v: NaturalOrbitalSet(w, v, 0.0, 2),
                              (np.array([2.0, 1.0]), other), ("occupations", "orbitals")),
    }


@pytest.mark.parametrize("wrapper", list(held_arrays()))
def test_every_array_holding_wrapper_leaves_the_caller_array_writable_and_unaliased(wrapper):
    # BiorthogonalSpectrum and NaturalOrbitalSet once set writeable = False on
    # a caller's complex u or orbital matrix, which np.asarray passed through
    build, arrays, fields = held_arrays()[wrapper]
    held = build(*arrays)
    for array, name in zip(arrays, fields):
        mine = getattr(held, name)
        assert array.flags.writeable and not mine.flags.writeable
        assert not np.shares_memory(array, mine)


def test_spectrum_condition_is_read_once_off_the_envelope():
    # the span of log d over ln 10, computed on first read and kept: the
    # trust check of every mode sum reads it, 101 times per oracle op
    log_d = np.array([-400.0, 400.0]) * math.log(10.0)
    spectrum = BiorthogonalSpectrum([1.0, 2.0], np.eye(2), log_d)
    assert spectrum.log10_condition == (log_d[1] - log_d[0]) / math.log(10.0)
    assert spectrum.log10_condition is spectrum.log10_condition
    assert type(spectrum.log10_condition) is float
    assert BiorthogonalSpectrum([1.0], np.eye(1), [3.0]).log10_condition == 0.0


def test_the_number_rule_reads_an_ndarray_by_its_dtype_and_a_list_entry_by_entry():
    # np.asarray([0.1, True]) is [0.1, 1.0]: only the walk of the list sees the bool
    for value, ok in [([0.1, True], [True, False]), ([[1, None], [2.0, "x"]], [[1, 0], [1, 0]]),
                      ([1, [2, 3]], [True, False]), ([2 ** 70, 1.0], [False, True]),
                      (np.array([0.1, np.nan]), [True, False]), (np.array([True]), [False]),
                      (np.array(["1"]), [False]), ((np.float64(1.0), np.True_), [True, False])]:
        assert_array_equal(_number_mask(value)[1], np.array(ok, dtype=bool))
    assert_array_equal(_number_mask([1j, np.inf])[1], [False, False])
    assert_array_equal(_number_mask([1j, np.inf], "iufc")[1], [True, False])
    assert _number_mask(0.5)[1] and not _number_mask(False)[1] and not _number_mask(None)[1]


# strings are sampled: st.text builds a Unicode table on first use, which alone
# takes longer than the whole test
GARBAGE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.complex_numbers()
    | st.sampled_from(["", "0.1", "nan", "x"]),
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner), max_leaves=12)


def number_gates():
    """One call per gate of models and per vector or matrix file reader."""
    params = HatanoNelsonParams(3, 1.0, 0.17, 1.5)
    return [
        lambda v: _positions("site", v, 3), lambda v: _count("count", v),
        lambda v: _check_finite_scalar("scalar", v), lambda v: _strength("strength", v),
        lambda v: _vector("vector", v), lambda v: _vector("vector", v, "iufc"),
        matrix_entries, build_diagonal_pump, ModeVector, lambda v: JumpVector("x", "gain", v),
        lambda v: hn_jump_decomposition(params, v), matrix_from_payload,
        lambda v: BiorthogonalSpectrum(v, np.eye(1), v),
        lambda v: matrix_from_payload({"dim": 1, "labels": ["1"], "re": v, "im": [[0.0]]}),
    ]


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(value=GARBAGE)
def test_garbage_at_any_gate_raises_nothing_but_a_gausschain_error(value):
    for gate in number_gates():
        try:
            gate(value)
        except GausschainError:
            pass


def test_array_indices_are_checked_in_one_pass_naming_the_first_bad_one():
    params = HatanoNelsonParams(10, 1.0, 0.17, 0.91)
    solver = DirectSolver(build_hatano_nelson(params))
    # np.asarray([1, True]) is [1, 1]: a bool in a list once pumped site 1 twice
    for sites, bad in [([1, 2.5, 11], "2.5"), ([3, 11, 0], "11"), (np.array([True]), "True"),
                       (np.array([4.0, np.nan]), "nan"), ([1, True], "True"),
                       ((2, np.True_), "True")]:
        with pytest.raises(SiteIndexError, match=f"^pump site {bad} outside 1..10$"):
            hn_source_scan(params, 0.03, sites=sites)
        with pytest.raises(SiteIndexError, match=f"^pump site {bad} outside 1..10$"):
            solver.solve_local(sites, 0.03)
    scan = hn_source_scan(params, 0.03, sites=np.array([2.0, 10.0]))
    assert scan.sites.tolist() == [2, 10] and scan.sites.dtype.kind == "i"


def test_site_index_error_is_raised_only_by_the_models_gate():
    # hand-written index checks elsewhere once disagreed on what a site is
    package = os.path.dirname(gausschain.__file__)
    raisers = set()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            if any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                   and node.func.id == "SiteIndexError" for node in ast.walk(tree)):
                raisers.add(name)
    assert raisers == {"models.py"}


HERMITIAN_SCALES = (1e-12, 1.0, 1e8)
HERMITIAN_ENTRIES = ("SourceMatrix", "natural_orbitals", "evolve_master", "steady_state_oracle",
                     "inverse_design", "validate")


def validate_source_check(tmp_path, x, y):
    """(value, limit) of validate's source_hermitian_psd entry for (X, Y), or a
    ParameterError carrying its detail when the entry fails."""
    from gausschain.cli import main
    from gausschain.matio import write_matrix

    labels = default_labels(x.shape[0])
    write_matrix(str(tmp_path / "x.json"), x, labels)
    write_matrix(str(tmp_path / "y.json"), y, labels)
    main(["validate", "--x-file", str(tmp_path / "x.json"), "--y-file",
          str(tmp_path / "y.json"), "--out", str(tmp_path)])
    with open(tmp_path / "validate.json", encoding="utf-8") as fh:
        check = json.load(fh)["checks"][0]
    assert check["name"] == "source_hermitian_psd"
    if not check["passed"]:
        raise ParameterError(check["detail"])
    return check["value"], check["limit"]


def hermitian_entries(tmp_path, scale):
    """Entry point -> (role the Hermitian rule names, exactly Hermitian matrix at
    ``scale``, call on one matrix returning a tuple of what it computed from it).

    The jump rates are scaled with the one-body Hamiltonian and the times by
    1/scale, so the oracle runs the same dynamics at every scale.
    """
    from gausschain.design import JumpSet, JumpVector

    params = HatanoNelsonParams(3, 1.0, 0.17, 1.5)
    x = scale * matrix_entries(build_hatano_nelson(params))
    y = scale * np.array([[0.1, 0.05, 0.02], [0.05, 0.1, 0.05], [0.02, 0.05, 0.1]])
    c = solve_lyapunov_direct(x, y).entries
    h = inverse_design(x, y).hamiltonian
    unit = hn_jump_decomposition(params, 0.1)

    def scaled(vectors):
        return tuple(JumpVector(v.label, v.kind, math.sqrt(scale) * v.vector) for v in vectors)

    jumps = JumpSet(3, scaled(unit.loss_vectors), scaled(unit.gain_vectors))

    def orbitals(m):
        orbs = natural_orbitals(m)
        return orbs.occupations, orbs.orbitals, orbs.occupation_floor

    def design(m):
        r = inverse_design(x, m)
        return r.gain_gram, r.loss_gram, r.loss_min_eigenvalue, r.physical

    def evolve(m):
        return (evolve_master(DensityMatrix.vacuum(3), m, jumps, 1.0 / scale,
                              0.5 / scale).states[-1].entries,)

    return {
        "SourceMatrix": ("source matrix", y, lambda m: (SourceMatrix(m).entries,)),
        "natural_orbitals": ("correlator", c, orbitals),
        "evolve_master": ("one-body Hamiltonian", h, evolve),
        "steady_state_oracle": ("one-body Hamiltonian", h,
                                lambda m: (steady_state_oracle(m, jumps).entries,)),
        "inverse_design": ("source matrix", y, design),
        "validate": ("source matrix", y, lambda m: validate_source_check(tmp_path, x, m)),
    }


def hermitian_rule_rows():
    rows = [(entry, scale, case) for entry in HERMITIAN_ENTRIES for scale in HERMITIAN_SCALES
            for case in ("exact", "few ulps", "1e-6 of peak")]
    rows += [("inverse_design", scale, "loss Gram -0.6 %") for scale in HERMITIAN_SCALES]
    rows += [("SourceMatrix", 2e-12, "45 % asymmetric"),
             ("natural_orbitals", 1e-8, "0.9 % asymmetric"),
             ("validate", 1.2e5, "0.4 ulp asymmetric"),
             ("inverse_design", 1.2e5, "0.4 ulp asymmetric")]
    return rows


@pytest.mark.parametrize("entry, scale, case", hermitian_rule_rows())
def test_one_hermitian_and_psd_rule_relative_to_each_matrix_scale(monkeypatch, tmp_path,
                                                                   entry, scale, case):
    # Four hand-written rules, three of them absolute, once judged Y, C, h and
    # the loss Gram: a 1e-6 defect at peak 1e-12 passed, a few ulps at 1e8
    # (and 0.4 ulp of the 6-site pump, peak 1.2e5) were refused, and the
    # -0.6 % loss Gram scaled by 1e-12 was reported physical.
    import gausschain.manybody
    import gausschain.models
    import gausschain.orbitals

    if case == "loss Gram -0.6 %":
        # 3 sites, t_left 0.17, gamma 0.1, kappa 0.01 below the physical edge
        edge = (0.1 + 2 * 1.17 * math.cos(math.pi / 4)) / 2
        x = build_hatano_nelson(HatanoNelsonParams(3, 1.0, 0.17, edge - 0.01)).entries
        r = inverse_design(scale * x, scale * 0.1 * np.eye(3))
        w = np.linalg.eigvalsh(r.loss_gram)
        assert w[0] / w[-1] == pytest.approx(-0.00608, rel=1e-3)
        assert r.physical is False and r.loss_min_eigenvalue == w[0]
        return
    role, m, call = hermitian_entries(tmp_path, scale if scale in HERMITIAN_SCALES else 1.0)[entry]
    if case == "45 % asymmetric":
        m = np.array([[2e-12, 9e-13], [0.0, 2e-12]])
    elif case == "0.9 % asymmetric":
        m = np.array([[1e-8, 9e-11], [0.0, 1e-8]])
    elif case == "0.4 ulp asymmetric":
        x, m = motivation_pair()
        call = {"validate": lambda y: validate_source_check(tmp_path, x, y),
                "inverse_design": lambda y: (inverse_design(x, y).gain_gram,)}[entry]
    else:
        m = np.array(m)
        peak = np.abs(m).max()
        m[0, 1] += {"exact": 0.0, "few ulps": 3 * np.spacing(peak),
                    "1e-6 of peak": 1e-6 * peak}[case]
    defect = np.abs(m - m.conj().T).max()
    if case in ("1e-6 of peak", "45 % asymmetric", "0.9 % asymmetric"):
        message = f"{role} not Hermitian: max |M - M^dag| = {defect:.3e} at peak"
        with pytest.raises(ParameterError, match="^" + re.escape(message)):
            call(m)
        return

    # the rule's first call is on the input; validate may judge the stored Y again
    rule, seen = gausschain.models._hermitian, []

    def spy(matrix, name):
        out = rule(matrix, name)
        if name == role:
            seen.append((matrix, out))
        return out

    for module in (gausschain.models, gausschain.orbitals, gausschain.manybody):
        monkeypatch.setattr(module, "_hermitian", spy)
    got = call(m)
    arg, out = seen[0]
    if case == "exact":
        assert out is arg
        assert entry != "SourceMatrix" or np.array_equal(got[0], m)
        assert entry != "inverse_design" or got[3] is True
    else:
        # accepted and symmetrized: the same bits as the symmetrized input gives
        symmetric = 0.5 * (m + m.conj().T)
        assert out is not arg and np.array_equal(out, symmetric)
        assert all(np.array_equal(a, b) for a, b in zip(got, call(symmetric), strict=True))
