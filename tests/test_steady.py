"""Steady-state solvers, transient propagation, and their cross-checks.

The quadrature oracle and the closed-form chain kernel live in
conftest.py and never touch the library solvers.
"""

import copy
import hashlib
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gausschain import (DarkSourceError, DensityMatrix, EnvelopeOverflowError,
                        HatanoNelsonParams, ParameterError, SiteIndexError, SolveError,
                        SshParams, StabilityError, biorthogonal_decompose, build_diagonal_pump,
                        build_hatano_nelson, build_local_pump, build_ssh,
                        closed_form_correlator, correlator_of, euclidean_normalize,
                        evolve_master, hn_analytic_spectrum, hn_jump_decomposition,
                        hn_source_scan,
                        inverse_design, natural_orbitals, propagate_correlator,
                        single_mode_approximation, solve_lyapunov_direct,
                        solve_lyapunov_spectral)
from gausschain.models import matrix_entries
from gausschain.spectral import CONDITION_TRUST_LIMIT, _gauge_symmetrize
from gausschain.steady import (EPS, DirectSolver, _doubling_powers, _thin_widths,
                               lyapunov_residual, solve_schur)
from tests.conftest import (HN_REFERENCE, SSH_REFERENCE, banded_m_matrix_inverse,
                            hn_closed_form_steady, hn_sine_steady_mp, loading_reference,
                            lyapunov_quadrature, mode_sum_steady_reference,
                            mode_sum_transient_reference, smith_steady_mp, solve_vectorized,
                            tridiagonal_steady_mp)


def hn_reference_system(n_sites, pump_site=1):
    params = HatanoNelsonParams(n_sites, HN_REFERENCE["t_right"], HN_REFERENCE["t_left"],
                                HN_REFERENCE["kappa"])
    x = build_hatano_nelson(params)
    y = build_local_pump(n_sites, pump_site, HN_REFERENCE["pump_strength"])
    return params, x, y


def random_stable_pair(rng, dim):
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    shift = float(np.abs(np.linalg.eigvals(x).real).max()) + 1.0
    x = x + shift * np.eye(dim)
    b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return x, b @ b.conj().T


def test_single_site_steady_is_pump_over_twice_damping():
    c = solve_lyapunov_direct(np.array([[0.91]]), np.array([[0.03]]))
    assert_allclose(c.entries, [[0.03 / 1.82]], rtol=1e-15)
    assert c.method == "direct"
    assert c.residual <= 1e-14
    spec = biorthogonal_decompose(np.array([[0.91]]))
    c2 = solve_lyapunov_spectral(spec, np.array([[0.03]]))
    assert_allclose(c2.entries, [[0.03 / 1.82]], rtol=1e-14)
    assert c2.method == "spectral"


@pytest.mark.parametrize("n_sites", [2, 3])
def test_direct_solve_matches_quadrature_oracle(n_sites):
    _, x, y = hn_reference_system(n_sites)
    c = solve_lyapunov_direct(x, y)
    oracle = lyapunov_quadrature(x.entries, y.entries)
    assert np.abs(c.entries - oracle).max() <= 1e-8


def test_hermitian_relaxation_uniform_pump_is_half_inverse():
    params = HatanoNelsonParams(5, 0.7, 0.7, 2.0)
    x = build_hatano_nelson(params)
    gamma = 0.4
    y = gamma * np.eye(5)
    c = solve_lyapunov_direct(x, y)
    expected = 0.5 * gamma * np.linalg.inv(x.entries)
    assert np.abs(c.entries - expected).max() <= 1e-12


def test_dispatched_solve_matches_kronecker_oracle_and_schur():
    # The 12-site chain takes the M-matrix path, also with real and
    # complex pumps of mixed sign; the complex pairs take the Schur path.
    # Both must agree with the Kronecker oracle and with Schur.
    rng = np.random.default_rng(3)
    _, x12, y12 = hn_reference_system(12)
    b = rng.standard_normal((12, 12))
    cases = [(x12, y12), (x12, b @ b.T), (x12, random_stable_pair(rng, 12)[1])]
    cases += [random_stable_pair(rng, 7) for _ in range(4)]
    for x, y in cases:
        x, y = matrix_entries(x), matrix_entries(y)
        c = solve_lyapunov_direct(x, y)
        for other in (solve_vectorized(x, y), solve_schur(x, y)):
            diff = np.linalg.norm(c.entries - other)
            assert diff <= 1e-10 * max(1.0, np.linalg.norm(other))
        assert c.residual <= 1e-10


def test_dispatch_is_chosen_from_the_matrix():
    # A complex X of any size goes to Schur unchanged (Y with unit peak
    # makes the pump scaling exact); a chain of the same size takes the
    # M-matrix path and agrees with Schur and the oracle.
    rng = np.random.default_rng(11)
    x, y = random_stable_pair(rng, 20)
    y = y / np.abs(y).max()
    schur = solve_schur(x, y)
    assert np.array_equal(solve_lyapunov_direct(x, y).entries,
                          0.5 * (schur + schur.conj().T))
    _, x, y = hn_reference_system(20)
    x, y = matrix_entries(x), matrix_entries(y)
    chain = solve_lyapunov_direct(x, y).entries
    assert not np.array_equal(chain, solve_schur(x, y))
    for other in (solve_vectorized(x, y), solve_schur(x, y)):
        assert np.linalg.norm(chain - other) <= 1e-10 * np.linalg.norm(other)
    with pytest.raises(ParameterError):
        solve_lyapunov_direct(x, y[:3, :3])


def chain_relaxations():
    """Reference-parameter chains of both models, from one site up."""
    for n in (1, 2, 7, 40, 120):
        yield matrix_entries(build_hatano_nelson(HatanoNelsonParams(
            n, HN_REFERENCE["t_right"], HN_REFERENCE["t_left"], HN_REFERENCE["kappa"])))
    for cells in (1, 3, 20, 60):
        yield matrix_entries(build_ssh(SshParams(
            cells, SSH_REFERENCE["t1"], SSH_REFERENCE["t2"], SSH_REFERENCE["g_edge"],
            SSH_REFERENCE["kappa"])))


def test_chain_route_equals_the_banded_reference_bit_for_bit():
    # The tridiagonal elimination is the banded Gauss-Jordan at bandwidth
    # 1: the inverse, the powers built from it and C of local, uniform and
    # dense pumps must be the same bits.
    rng = np.random.default_rng(7)
    for x in chain_relaxations():
        n = x.shape[0]
        solver = DirectSolver(x)
        shifted = solver._shift * np.eye(n)
        reference = copy.copy(solver)
        reference._inverse = banded_m_matrix_inverse(shifted + x.real)
        reference._powers = _doubling_powers(reference._inverse @ (shifted - x.real))
        assert solver._inverse.tobytes() == reference._inverse.tobytes()
        assert len(solver._powers) == len(reference._powers)
        for a, b in zip(solver._powers, reference._powers):
            assert a.tobytes() == b.tobytes()
        b = rng.standard_normal((n, n))
        pumps = np.stack([build_local_pump(n, 1 + n // 3, 0.03).entries.real,
                          0.1 * np.eye(n), b @ b.T])
        for ours, theirs in zip(solver.solve_many(pumps), reference.solve_many(pumps)):
            assert ours.tobytes() == theirs.tobytes()


def test_dense_z_matrix_takes_the_schur_route():
    # Only tridiagonal Z-matrices take the M-matrix route; a dense real
    # Z-matrix is screened by its eigenvalues and solved by Schur, in real
    # arithmetic for a real pump.
    rng = np.random.default_rng(13)
    off = rng.uniform(0.0, 1.0, (6, 6))
    np.fill_diagonal(off, 0.0)
    x = np.diag(off.sum(axis=1) + 0.5) - off
    y = build_local_pump(6, 2, 1.0).entries.real
    solver = DirectSolver(x)
    assert solver._powers is None
    schur = solve_schur(x, y)
    c = solver.solve(y)
    assert not c.entries.imag.any()
    assert np.array_equal(c.entries, 0.5 * (schur + schur.T))
    oracle = solve_vectorized(x, y)
    assert np.linalg.norm(c.entries - oracle) <= 1e-12 * np.linalg.norm(oracle)
    with pytest.raises(StabilityError, match="min Re beta"):
        DirectSolver(x - 2.0 * np.eye(6))


def test_one_way_bond_stays_on_the_chain_route():
    # A bond with X[j+1, j] = 0 has no imaginary gauge, but the chain is
    # still a tridiagonal Z-matrix: Smith doubling keeps every entry of C
    # to 12 digits against an mpmath doubling.
    _, x, _ = hn_reference_system(12)
    x = matrix_entries(x).real.copy()
    x[6, 5] = 0.0
    assert _gauge_symmetrize(x) is None
    solver = DirectSolver(x)
    assert solver._powers is not None
    y = build_local_pump(12, 12, 1.0).entries.real
    c = solver.solve(y).entries.real
    truth = smith_steady_mp(x, y)
    assert truth.min() > 0
    assert (np.abs(c - truth) / truth).max() <= 1e-12


def test_solve_many_matches_per_pump_solve():
    # Local pumps of mixed strengths, a dense pump, an all-zero pump and a
    # two-site pump, stacked: starting widths 1 and 2 (thin) and 0 (dense)
    # in one stack, bit for bit the per-pump solve on the M-matrix route,
    # to rounding on the Schur route (complex X; one complex pump makes
    # the whole stack complex).
    rng = np.random.default_rng(5)
    _, x, _ = hn_reference_system(30)
    pumps = np.zeros((6, 30, 30))
    for k, (site, strength) in enumerate([(1, 0.03), (30, 7.5), (12, 1e-9)]):
        pumps[k, site - 1, site - 1] = strength
    b = rng.standard_normal((30, 30))
    pumps[3] = b @ b.T
    pumps[5, 4, 4], pumps[5, 21, 21] = 0.3, 0.011
    assert _thin_widths(pumps).tolist() == [1, 1, 1, 0, 0, 2]
    solver = DirectSolver(x)
    c, asym = solver.solve_many(pumps)
    assert c.shape == pumps.shape and asym.shape == (6,)
    for k, y in enumerate(pumps):
        one = solver.solve(y)
        assert np.array_equal(c[k], one.entries) and asym[k] == one.asymmetry
    assert not c[4].any() and asym[4] == 0.0

    xc, yc = random_stable_pair(rng, 8)
    pumps = np.zeros((4, 8, 8), dtype=complex)
    pumps[0, 2, 2] = 0.03
    pumps[1, 5, 5] = 40.0
    pumps[2] = yc
    solver = DirectSolver(xc)
    c, asym = solver.solve_many(pumps)
    for k, y in enumerate(pumps):
        one = solver.solve(y).entries
        assert np.abs(c[k] - one).max() <= 1e-13 * np.abs(one).max()
    assert not c[3].any() and asym[3] == 0.0
    with pytest.raises(ParameterError):
        solver.solve_many(pumps[0])


def test_solve_many_of_an_empty_stack_is_empty_on_both_routes():
    # The Schur route once raised a bare ValueError from np.stack.
    _, chain, _ = hn_reference_system(6)
    for x in (matrix_entries(chain), random_stable_pair(np.random.default_rng(2), 6)[0]):
        c, asym = DirectSolver(x).solve_many(np.zeros((0, 6, 6)))
        assert c.shape == (0, 6, 6) and asym.shape == (0,)


def dense_start_smith(solver, y):
    """DirectSolver's doubling from the dense C_0 for a unit-peak real Y, hermitized."""
    c = (2.0 * solver._shift) * (solver._inverse @ y @ solver._inverse.T)
    for a in solver._powers:
        c += a @ c @ a.T
    return 0.5 * (c + c.T)


def scan_lattice_chains():
    """The eight 40-site chains of the pump-scan benchmark lattice
    (perfbench/workloads.py): two (t_left, margin) draws in each of four
    t_left strata, kappa the margin above the stability edge."""
    rng = np.random.default_rng(int(hashlib.sha256(b"pump-scan").hexdigest()[:8], 16))
    for lo in (0.1, 0.225, 0.35, 0.475):
        for _ in range(2):
            t_left, margin = float(rng.uniform(lo, lo + 0.125)), float(rng.uniform(0.1, 0.4))
            kappa = 2.0 * math.sqrt(t_left) * math.cos(math.pi / 41) + margin
            yield HatanoNelsonParams(40, 1.0, t_left, kappa)


def test_thin_start_agrees_with_the_dense_start_entrywise():
    # Every pump of the pump-scan lattice, and pumps at both ends and
    # inside a 200-site single-band and a 100-cell two-band chain.  Both
    # starts sum the same nonnegative terms in another order, so every
    # entry, the smallest included, agrees to a few ulps.
    cases = [(build_hatano_nelson(params), range(40)) for params in scan_lattice_chains()]
    cases.append((build_hatano_nelson(HatanoNelsonParams(200, 1.0, 0.17, 0.91)), [0, 76, 199]))
    cases.append((build_ssh(SshParams(100, SSH_REFERENCE["t1"], SSH_REFERENCE["t2"],
                                      SSH_REFERENCE["g_edge"], SSH_REFERENCE["kappa"])),
                  [0, 101, 199]))
    for x, sites in cases:
        solver = DirectSolver(x)
        n = solver.x.shape[0]
        pumps = np.zeros((len(sites), n, n))
        pumps[np.arange(len(sites)), sites, sites] = 1.0
        assert (_thin_widths(pumps) == 1).all()
        stack, _ = solver.solve_many(pumps)
        for c, y in zip(stack, pumps):
            reference = dense_start_smith(solver, y)
            assert (np.abs(c - reference) / reference).max() <= 16 * EPS


def test_thin_start_is_entrywise_accurate_against_mpmath_smith():
    # Weakly locked 12-site chain (nu_2 / nu_1 up to ~0.7): unit pumps at
    # both ends and the middle and a two-site pump, each against Smith
    # doubling at 50 digits.
    x = matrix_entries(build_hatano_nelson(HatanoNelsonParams(12, 1.0, 0.6, 1.6))).real
    pumps = np.zeros((4, 12, 12))
    pumps[[0, 1, 2], [0, 5, 11], [0, 5, 11]] = 1.0
    pumps[3, 2, 2], pumps[3, 8, 8] = 1.0, 0.37
    assert _thin_widths(pumps).tolist() == [1, 1, 1, 2]
    stack, _ = DirectSolver(x).solve_many(pumps)
    for c, y in zip(stack, pumps):
        truth = smith_steady_mp(x, y)
        assert (np.abs(c - truth) / truth).max() <= 16 * EPS


def test_pumps_on_more_than_half_the_sites_keep_the_dense_start():
    # 20 of 40 sites start thin; 21 sites, a full-width diagonal pump, a
    # two-site diagonal pump with a negative entry (no real square root)
    # and a two-site pump with a coupling start dense and give the
    # dense-start doubling bit for bit.
    _, x, _ = hn_reference_system(40)
    solver = DirectSolver(x)
    half, past_half, signed, coupled = np.zeros((4, 40, 40))
    half[np.arange(20), np.arange(20)] = 1.0
    past_half[np.arange(21), np.arange(21)] = 1.0
    signed[3, 3], signed[30, 30] = -1.0, 0.5
    coupled[3, 3] = coupled[30, 30] = 1.0
    coupled[3, 30] = coupled[30, 3] = 0.5
    full = np.diag(np.linspace(0.2, 1.0, 40))
    stack = np.stack([half, past_half, signed, coupled, full])
    assert _thin_widths(stack).tolist() == [20, 0, 0, 0, 0]
    for y in stack[1:]:
        assert np.array_equal(solver.solve(y).entries, dense_start_smith(solver, y))


def test_direct_solver_rejects_non_finite_input():
    # NaN in Y once came back as an all-NaN "direct" correlator, NaN on
    # the diagonal of X as StabilityError, inf off it as LinAlgError.
    _, x, _ = hn_reference_system(4)
    x = matrix_entries(x)
    with pytest.raises(ParameterError, match="source matrix contains non-finite"):
        solve_lyapunov_direct(x, np.diag([np.nan, 0.1, 0.1, 0.1]))
    stack = np.zeros((2, 4, 4), dtype=complex)
    stack[1, 2, 3] = complex(0.0, np.inf)
    with pytest.raises(ParameterError, match="source matrix contains non-finite"):
        DirectSolver(x).solve_many(stack)
    for row, col, bad in [(1, 1, np.nan), (0, 1, np.inf)]:
        broken = x.copy()
        broken[row, col] = bad
        with pytest.raises(ParameterError, match="relaxation matrix contains non-finite"):
            DirectSolver(broken)
        with pytest.raises(ParameterError, match="relaxation matrix contains non-finite"):
            solve_lyapunov_direct(broken, np.eye(4))


def test_overflowing_correlator_is_an_error_not_a_result():
    # C = 1e304 times the unit-pump correlator overflows; it once came back
    # non-finite with residual 0.0 and method "direct"
    _, x, _ = hn_reference_system(40)
    with pytest.raises(EnvelopeOverflowError, match="pump 1 of the stack is not finite"):
        solve_lyapunov_direct(x, build_local_pump(40, 15, 1e304))
    pumps = np.zeros((3, 40, 40))
    pumps[:, 14, 14] = [0.03, 1e304, 1e304]
    with pytest.raises(EnvelopeOverflowError, match="pump 2 of the stack"):
        DirectSolver(x).solve_many(pumps)
    with pytest.raises(EnvelopeOverflowError, match="pump sites 3..5: .* pump 1 of"):
        hn_source_scan(HatanoNelsonParams(40, 1.0, 0.17, 0.91), 1e304, sites=[3, 4, 5])
    with pytest.raises(ParameterError, match="correlator contains non-finite"):
        natural_orbitals(np.diag([1.0, np.inf]))


def test_overflowing_solve_raises_without_numpy_warnings():
    # At r = 1e-12 the unit-peak doubling itself overflows; it once printed
    # six RuntimeWarnings before the error.
    x = build_hatano_nelson(HatanoNelsonParams(60, 1.0, 1e-12, 1e-3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EnvelopeOverflowError, match="pump 1 of the stack is not finite"):
            solve_lyapunov_direct(x, build_local_pump(60, 1, 1.0))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_residual_of_non_finite_input_is_an_error(bad):
    # It once returned 0.0, a perfect score, for a C holding inf or nan.
    _, x, y = hn_reference_system(4)
    x, y = matrix_entries(x), matrix_entries(y)
    c = solve_lyapunov_direct(x, y).entries
    assert lyapunov_residual(x, c, y) <= 1e-15
    for k in range(3):
        args = [x.copy(), c.copy(), y.copy()]
        args[k][1, 2] = bad
        with pytest.raises(ParameterError, match="non-finite"):
            lyapunov_residual(*args)


@pytest.mark.parametrize("n_sites, pump_site", [(60, 31), (80, 80)])
def test_chain_solve_is_entrywise_accurate_against_mpmath(n_sites, pump_site):
    # The smallest entries reach 1e-94 at 80 sites; every one must hold
    # 12 digits against the 30 + n digit sine-basis sum.
    params, x, _ = hn_reference_system(n_sites)
    c = solve_lyapunov_direct(x, build_local_pump(n_sites, pump_site, 1.0)).entries
    truth = hn_sine_steady_mp(n_sites, params.t_right, params.t_left, params.kappa,
                              pump_site)
    assert np.abs(c.imag).max() == 0.0
    assert (np.abs(c.real - truth) / truth).max() <= 1e-12


def test_two_band_solve_is_entrywise_accurate_against_mpmath():
    params = SshParams(12, SSH_REFERENCE["t1"], SSH_REFERENCE["t2"],
                       SSH_REFERENCE["g_edge"], SSH_REFERENCE["kappa"])
    x = matrix_entries(build_ssh(params))
    c = solve_lyapunov_direct(x, build_local_pump(24, 1, 1.0)).entries.real
    truth = tridiagonal_steady_mp(x, 1)
    assert (np.abs(c - truth) / truth).max() <= 1e-12


@pytest.mark.parametrize("model", ["hn", "ssh"])
def test_power_of_two_relaxation_scaling_is_exact(model):
    # C(2^k X, s Y) = s 2^-k C(X, Y) bit for bit for a unit-peak pump, here
    # a local one on the thin start.
    if model == "hn":
        x = build_hatano_nelson(HatanoNelsonParams(40, 1.0, 0.17, 0.91))
    else:
        x = build_ssh(SshParams(20, SSH_REFERENCE["t1"], SSH_REFERENCE["t2"],
                                SSH_REFERENCE["g_bulk"], SSH_REFERENCE["kappa"]))
    x = matrix_entries(x)
    y = matrix_entries(build_local_pump(x.shape[0], 7, 1.0))
    assert _thin_widths(y.real[None]).tolist() == [1]
    base = solve_lyapunov_direct(x, y).entries
    for k in (-3, -2, -1, 2, 5):
        for s in (0.037, 0.5, 1e-9):
            scaled = solve_lyapunov_direct(2.0 ** k * x, s * y).entries
            assert np.array_equal(scaled, s * 2.0 ** -k * base)


@pytest.mark.parametrize("n_sites", [150, 400])
def test_long_stable_chains_solve(n_sites):
    # The eigenvalue screen called these chains unstable (at 150 sites it
    # saw min Re beta = -0.09; the true value is +0.0855).  Each entry of
    # the defect must sit at rounding level of the terms that form it.
    params, x, _ = hn_reference_system(n_sites)
    assert params.kappa > params.stability_threshold()
    x = matrix_entries(x)
    y = matrix_entries(build_local_pump(n_sites, 15, 1.0))
    corr = solve_lyapunov_direct(x, y)
    c = corr.entries
    assert np.all(np.isfinite(c)) and np.all(c.real > 0)
    # ||R|| / ||Y|| once read 3e34 at 150 sites and 2e128 at 400
    assert corr.residual <= 1e-15
    defect = np.abs(x @ c + c @ x.T - y)
    terms = np.abs(x) @ np.abs(c) + np.abs(c) @ np.abs(x).T + np.abs(y)
    assert (defect / terms).max() <= 1e-13


def test_import_leaves_scipy_unloaded():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    # the many-body oracle's exponential and solve must stay numpy-only too
    code = ("import sys, numpy as np, gausschain as gc; "
            "gc.biorthogonal_decompose(gc.build_ssh(gc.SshParams(20, 0.5, 1.0, -0.25, 1.5))); "
            "p = gc.HatanoNelsonParams(2, 1.0, 0.17, 1.5); "
            "j = gc.hn_jump_decomposition(p, 0.1); "
            "h = gc.inverse_design(gc.models.matrix_entries(gc.build_hatano_nelson(p)), "
            "0.1 * np.eye(2)).hamiltonian; "
            "gc.steady_state_oracle(h, j); "
            "gc.evolve_master(gc.DensityMatrix.vacuum(2), h, j, 0.25, 0.1); "
            "sys.exit('scipy' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def test_spectral_solver_matches_direct_at_moderate_conditioning():
    _, x, y = hn_reference_system(12)
    direct = solve_lyapunov_direct(x, y)
    spec = biorthogonal_decompose(x)
    assert spec.condition_estimate < 1e10
    spectral = solve_lyapunov_spectral(spec, y)
    rel = (np.linalg.norm(spectral.entries - direct.entries)
           / np.linalg.norm(direct.entries))
    assert rel <= 1e-6


def test_spectral_solver_reduces_to_local_pump_mode_sum():
    n, s, gamma = 6, 3, 0.03
    params = HatanoNelsonParams(n, HN_REFERENCE["t_right"], HN_REFERENCE["t_left"], HN_REFERENCE["kappa"])
    spec = hn_analytic_spectrum(params)
    y = build_local_pump(n, s, gamma)
    c = solve_lyapunov_spectral(spec, y)
    denom = spec.betas[:, None] + spec.betas[None, :].conj()
    coeff = gamma * (spec.left[s - 1, :].conj()[:, None]
                     * spec.left[s - 1, :][None, :]) / denom
    manual = spec.right @ coeff @ spec.right.conj().T
    assert np.abs(c.entries - manual).max() <= 1e-12 * np.abs(manual).max()


def test_steady_state_is_linear_in_pump():
    rng = np.random.default_rng(5)
    for _ in range(5):
        x, y = random_stable_pair(rng, 6)
        base = solve_lyapunov_direct(x, y)
        scaled = solve_lyapunov_direct(x, 7.3 * y)
        assert_allclose(scaled.entries, 7.3 * base.entries, rtol=1e-12)


def test_direct_solve_matches_exact_chain_kernel():
    n, s = 10, 4
    params, x, _ = hn_reference_system(n)
    y = build_local_pump(n, s, HN_REFERENCE["pump_strength"])
    c = solve_lyapunov_direct(x, y)
    kernel = hn_closed_form_steady(n, params.t_right, params.t_left,
                                   params.kappa, HN_REFERENCE["pump_strength"], s)
    assert_allclose(c.entries.real, kernel, rtol=1e-9, atol=1e-15)
    assert np.abs(c.entries.imag).max() <= 1e-12 * np.abs(kernel).max()


def test_unstable_relaxation_is_rejected():
    params = HatanoNelsonParams(8, 1.0, 0.17, 0.1)
    assert params.kappa < params.stability_threshold()
    x = build_hatano_nelson(params)
    y = build_local_pump(8, 1, 0.03)
    pivot = "pivot {} of its unpivoted LU factorization is {} <= 0"
    with pytest.raises(StabilityError, match=re.escape(pivot.format(2, "-1.600000e+00"))):
        solve_lyapunov_direct(x, y)
    with pytest.raises(StabilityError, match=re.escape(pivot.format(2, "-1.050000e+00"))):
        DirectSolver(build_ssh(SshParams(6, 0.5, 1.0, 0.3, 0.2)))
    with pytest.raises(StabilityError):
        solve_lyapunov_spectral(hn_analytic_spectrum(params), y)
    with pytest.raises(StabilityError):
        single_mode_approximation(hn_analytic_spectrum(params), 1, 0.03)


def test_marginal_relaxation_makes_vectorized_system_singular():
    with pytest.raises(SolveError):
        solve_vectorized(np.diag([1.0, -1.0]).astype(complex), np.eye(2, dtype=complex))


def test_residuals_stay_small_on_the_chain_grid():
    for n in (2, 8, 20, 40):
        _, x, y = hn_reference_system(n, pump_site=n)
        c = solve_lyapunov_direct(x, y)
        assert c.residual <= 1e-10
        assert c.asymmetry <= 1e-10
        assert np.abs(c.entries - c.entries.conj().T).max() == 0.0


def test_physical_pair_keeps_occupations_in_unit_interval():
    # kappa I with a uniform pump below saturation admits a loss Gram
    # 2 kappa - gamma >= 0, so the correlator is a genuine occupation matrix.
    kappa, gamma = 1.5, 0.8
    c = solve_lyapunov_direct(kappa * np.eye(4), gamma * np.eye(4))
    occ = np.linalg.eigvalsh(c.entries)
    assert occ.min() >= -1e-10 and occ.max() <= 1 + 1e-10
    assert_allclose(occ, np.full(4, gamma / (2 * kappa)), rtol=1e-14)


def test_single_mode_tracks_dominant_orbital_at_reference_point():
    params, x, y = hn_reference_system(40, pump_site=15)
    spec = hn_analytic_spectrum(params)
    result = single_mode_approximation(spec, 15, HN_REFERENCE["pump_strength"])
    full = solve_lyapunov_direct(x, y)
    occ, vecs = np.linalg.eigh(full.entries)
    phi_max = vecs[:, -1]
    r0 = euclidean_normalize(result.rank_one.entries[:, 0]).amplitudes
    overlap = abs(np.vdot(r0, phi_max)) ** 2
    assert overlap >= 0.95
    assert occ[-1] > 0
    # The loading follows the slow-mode formula exactly.
    pos = int(np.argmin(spec.betas.real))
    expected = (HN_REFERENCE["pump_strength"] * abs(spec.left[14, pos]) ** 2
                / (2.0 * spec.betas[pos].real))
    assert result.loading == pytest.approx(expected, rel=1e-12)
    assert result.predicted_occupation == pytest.approx(
        result.loading * np.vdot(spec.right[:, pos], spec.right[:, pos]).real,
        rel=1e-12)


def test_single_mode_occupation_is_accurate_when_gapped():
    # Orthogonal modes plus a wide rate gap: the rank-one weight must
    # reproduce the true top occupation to the perturbative correction.
    sites = np.arange(1, 5)
    phi = np.sqrt(2.0 / 5.0) * np.sin(np.outer(sites, sites) * np.pi / 5.0)
    x = phi @ np.diag([0.01, 1.0, 1.2, 1.5]) @ phi.T
    spec = biorthogonal_decompose(x)
    y = build_local_pump(4, 2, 0.005)
    result = single_mode_approximation(spec, 2, 0.005)
    full = solve_lyapunov_direct(x, y)
    nu_max = float(np.linalg.eigvalsh(full.entries)[-1])
    assert result.predicted_occupation == pytest.approx(nu_max, rel=1e-2)


def test_single_mode_is_exact_for_one_site():
    spec = biorthogonal_decompose(np.array([[0.91]]))
    result = single_mode_approximation(spec, 1, 0.03)
    assert_allclose(result.rank_one.entries, [[0.03 / 1.82]], rtol=1e-14)
    assert result.predicted_occupation == pytest.approx(0.03 / 1.82, rel=1e-14)


def test_pump_on_slow_mode_node_is_dark():
    # Hermitian X built so the slowest mode is the second sine harmonic,
    # whose node sits exactly on the middle site of a three-site chain.
    sites = np.arange(1, 4)
    phi = np.sqrt(0.5) * np.sin(np.outer(sites, sites) * np.pi / 4.0)
    x = phi @ np.diag([0.5, 0.1, 0.5]) @ phi.T
    spec = biorthogonal_decompose(x)
    assert spec.betas[0].real == pytest.approx(0.1, abs=1e-12)
    with pytest.raises(DarkSourceError):
        single_mode_approximation(spec, 2, 0.03)
    # Off the node the approximation exists.
    result = single_mode_approximation(spec, 1, 0.03)
    assert result.loading > 0


def test_single_mode_input_validation():
    spec = biorthogonal_decompose(np.diag([0.2, 1.0]))
    with pytest.raises(SiteIndexError):
        single_mode_approximation(spec, 3, 0.03)
    with pytest.raises(ParameterError):
        single_mode_approximation(spec, 1, 0.0)


def test_steady_state_is_a_fixed_point_of_propagation():
    _, x, y = hn_reference_system(6)
    steady = solve_lyapunov_direct(x, y)
    traj = propagate_correlator(x, y, steady.entries, t_final=5.0, dt=0.1)
    for snap in traj.states:
        assert np.abs(snap.entries - steady.entries).max() <= 1e-10
        assert snap.residual <= 1e-10
        assert snap.method == "integrated"


def test_transient_from_empty_state_matches_closed_form():
    params, x, y = hn_reference_system(8)
    spec = hn_analytic_spectrum(params)
    traj = propagate_correlator(x, y, np.zeros((8, 8)), t_final=10.0,
                                dt=0.005, stride=200)
    assert_allclose(traj.times, np.arange(11.0), rtol=0, atol=1e-12)
    for t in (1, 5, 10):
        exact = closed_form_correlator(spec, y, np.zeros((8, 8)), float(t))
        assert np.abs(traj.states[t].entries - exact).max() <= 1e-8


def test_unpumped_state_decays_at_the_spectral_rate():
    params, x, _ = hn_reference_system(5)
    spec = hn_analytic_spectrum(params)
    rng = np.random.default_rng(9)
    a = rng.standard_normal((5, 5))
    c0 = a @ a.T
    beta1 = spec.betas.real.min()
    t0, t1 = 6.0 / beta1, 9.0 / beta1
    zero = np.zeros((5, 5))
    n0 = np.linalg.norm(closed_form_correlator(spec, zero, c0, t0))
    n1 = np.linalg.norm(closed_form_correlator(spec, zero, c0, t1))
    assert n1 < n0
    assert n1 <= 10.0 * n0 * math.exp(-2.0 * beta1 * (t1 - t0))


def test_unpumped_trace_decreases_with_strong_damping():
    params = HatanoNelsonParams(5, 1.0, 0.17, 3.0)
    x = build_hatano_nelson(params)
    rng = np.random.default_rng(13)
    a = rng.standard_normal((5, 5))
    traj = propagate_correlator(x, np.zeros((5, 5)), a @ a.T,
                                t_final=2.0, dt=0.01, stride=10)
    traces = [float(np.trace(s.entries).real) for s in traj.states]
    assert all(b < a for a, b in zip(traces, traces[1:]))
    assert traces[-1] < 1e-3 * traces[0]


def test_stiff_step_decays_exactly():
    # exp(-X h) with ||X|| h = 10: the step is exact whatever its size.  Each
    # interval is checked on its own, because rounding of the exponent makes
    # any evaluation of e^(-200 t) uncertain by about 200 t ulps.
    traj = propagate_correlator(np.array([[100.0]]), np.array([[0.0]]),
                                np.array([[1.0]]), t_final=3.0, dt=0.1)
    c = np.array([s.entries[0, 0] for s in traj.states])
    assert traj.times.size == 31 and np.all(c.imag == 0)
    assert_allclose(c.real[1:] / c.real[:-1], math.exp(-20.0), rtol=1e-14, atol=0)


def test_one_long_interval_matches_ten_short_ones():
    # unscaled, the block exponential over h = 20 is off by 0.43 relative here
    _, x, y = hn_reference_system(100, pump_site=15)
    zero = np.zeros((100, 100))
    one = propagate_correlator(x, y, zero, t_final=20.0, dt=20.0).states[-1].entries
    ten = propagate_correlator(x, y, zero, t_final=20.0, dt=2.0).states[-1].entries
    assert np.linalg.norm(one - ten) <= 1e-13 * np.linalg.norm(ten)


def test_propagation_samples_like_the_master_equation():
    params = HatanoNelsonParams(2, 1.0, 0.17, 1.5)
    x = build_hatano_nelson(params)
    y = build_diagonal_pump([0.1, 0.1])
    h = inverse_design(x, y).hamiltonian
    master = evolve_master(DensityMatrix.vacuum(2), h, hn_jump_decomposition(params, 0.1),
                           t_final=1.0005, dt=0.002, stride=50)
    traj = propagate_correlator(x, y, np.zeros((2, 2)), t_final=1.0005, dt=0.002, stride=50)
    assert traj.times.tobytes() == master.times.tobytes()
    assert traj.times[-1] == 1.0005 and traj.times.size == 12
    for state, sample in zip(master.states, traj.states):
        assert np.abs(correlator_of(state) - sample.entries).max() <= 1e-12


def test_unstable_relaxation_overflow_raises_solve_error():
    with pytest.raises(SolveError, match="t = 355"):
        propagate_correlator(np.array([[-1.0]]), np.array([[0.0]]),
                             np.array([[1.0]]), t_final=1000.0, dt=1.0)


def test_closed_form_boundary_values():
    params, x, y = hn_reference_system(4)
    spec = hn_analytic_spectrum(params)
    rng = np.random.default_rng(17)
    a = rng.standard_normal((4, 4))
    c0 = a @ a.T
    at_zero = closed_form_correlator(spec, y, c0, 0.0)
    assert np.abs(at_zero - c0).max() <= 1e-12
    beta1 = spec.betas.real.min()
    late = closed_form_correlator(spec, y, c0, 500.0 / beta1)
    steady = solve_lyapunov_spectral(spec, y)
    assert np.abs(late - steady.entries).max() <= 1e-12
    with pytest.raises(ParameterError):
        closed_form_correlator(spec, y, c0, -1.0)


def hn_spectra(n_sites):
    """Gauge-route and closed-form spectra of the reference chain."""
    params, x, _ = hn_reference_system(n_sites)
    return {"gauge": biorthogonal_decompose(x), "closed": hn_analytic_spectrum(params)}


def test_mode_sums_equal_their_references_bit_for_bit():
    rng = np.random.default_rng(23)
    for n in range(4, 33, 4):
        a = rng.standard_normal((n, n))
        c0 = matrix_entries(a @ a.T)
        for spec in hn_spectra(n).values():
            for s in (1, n // 2, n):
                y = matrix_entries(build_local_pump(n, s, HN_REFERENCE["pump_strength"]))
                assert np.array_equal(solve_lyapunov_spectral(spec, y).entries,
                                      mode_sum_steady_reference(spec, y))
                for t in (0.0, 0.7, 5.0):
                    assert np.array_equal(closed_form_correlator(spec, y, c0, t),
                                          mode_sum_transient_reference(spec, y, c0, t))


def test_single_mode_loading_equals_the_formula_bit_for_bit():
    gamma = HN_REFERENCE["pump_strength"]
    for n in range(4, 33, 4):
        for spec in hn_spectra(n).values():
            pos = int(np.argmin(spec.betas.real))
            for s in (1, n // 2, n):
                result = single_mode_approximation(spec, s, gamma)
                assert result.loading == loading_reference(spec, s, gamma)[pos]
                scalar = gamma * abs(spec.left[s - 1, pos]) ** 2 / (2.0 * spec.betas[pos].real)
                assert result.loading == float(scalar)


def test_mode_sums_refuse_spectra_above_the_trust_limit():
    # The 100-site reference chain: the mode sum's top eigenvalue read 1.8e46
    # against 1.8e29 from the direct solve, with a residual of 4.5e-22.
    _, _, y = hn_reference_system(100, pump_site=15)
    for spec in hn_spectra(100).values():
        assert spec.condition_estimate > CONDITION_TRUST_LIMIT
        names = re.escape(f"{spec.condition_estimate:.3e}") + ".*" + re.escape(
            f"{CONDITION_TRUST_LIMIT:.0e}")
        with pytest.raises(SolveError, match=names):
            solve_lyapunov_spectral(spec, y)
        with pytest.raises(SolveError, match=names):
            closed_form_correlator(spec, y, np.zeros((100, 100)), 1.0)


def test_mode_sums_match_direct_just_below_the_trust_limit():
    _, x, y = hn_reference_system(32, pump_site=15)
    direct = solve_lyapunov_direct(x, y).entries
    scale = np.linalg.norm(direct)
    for spec in hn_spectra(32).values():
        assert 1e11 < spec.condition_estimate <= CONDITION_TRUST_LIMIT
        steady = solve_lyapunov_spectral(spec, y).entries
        late = closed_form_correlator(spec, y, np.zeros((32, 32)), 1e4)
        assert np.linalg.norm(steady - direct) <= 1e-10 * scale
        assert np.linalg.norm(late - direct) <= 1e-10 * scale


@pytest.mark.parametrize("case", ["nan_source", "inf_initial", "nan_time", "inf_time"])
def test_mode_sums_reject_non_finite_input(case):
    # each once came back as NaN with a clean exit; t = inf is the steady
    # state of solve_lyapunov_spectral, not of the transient formula
    spec = hn_spectra(6)["closed"]
    _, _, y = hn_reference_system(6, pump_site=2)
    y, c0, t = np.array(matrix_entries(y)), np.zeros((6, 6)), 1.0
    if case == "nan_source":
        y[0, 0] = np.nan
        with pytest.raises(ParameterError, match="non-finite"):
            solve_lyapunov_spectral(spec, y)
    elif case == "inf_initial":
        c0[:] = np.inf
    else:
        t = np.nan if case == "nan_time" else np.inf
    with pytest.raises(ParameterError, match="non-finite" if "time" not in case else "time"):
        closed_form_correlator(spec, y, c0, t)


@pytest.mark.parametrize("n_sites,site", [(40, 40), (60, 60), (100, 50)])
def test_single_mode_sees_no_node_where_the_sine_mode_has_none(n_sites, site):
    # |L_0(s)| reads 6.9e-18 at site 40 of 40, far below any absolute bound,
    # but the site's share |L_0(s) R_0(s)| = phi_0(s)^2 of <L_0|R_0> is not
    params, _, _ = hn_reference_system(n_sites)
    spec = hn_analytic_spectrum(params)
    assert spec.condition_estimate > CONDITION_TRUST_LIMIT  # a single term is exempt
    result = single_mode_approximation(spec, site, HN_REFERENCE["pump_strength"])
    phi0 = math.sqrt(2.0 / (n_sites + 1)) * math.sin(math.pi * site / (n_sites + 1))
    pos = int(np.argmin(spec.betas.real))
    assert abs(spec.left[site - 1, pos] * spec.right[site - 1, pos]) == pytest.approx(
        phi0 ** 2, rel=1e-12)
    assert 0 < result.loading and np.isfinite(result.predicted_occupation)


def test_single_mode_refuses_an_overflowing_prediction():
    # R_0 peaks near r^500 = e^443, so |R_0|^2 and the rank-one term overflow
    params, _, _ = hn_reference_system(500)
    with pytest.raises(EnvelopeOverflowError):
        single_mode_approximation(hn_analytic_spectrum(params), 5,
                                  HN_REFERENCE["pump_strength"])


def test_propagation_input_validation():
    _, x, y = hn_reference_system(3)
    c0 = np.zeros((3, 3))
    with pytest.raises(ParameterError):
        propagate_correlator(x, y, c0, t_final=-1.0, dt=0.1)
    with pytest.raises(ParameterError):
        propagate_correlator(x, y, c0, t_final=1.0, dt=0.0)
    with pytest.raises(ParameterError):
        propagate_correlator(x, y, c0, t_final=1.0, dt=0.1, stride=0)
    with pytest.raises(ParameterError):
        propagate_correlator(x, y, np.zeros((4, 4)), t_final=1.0, dt=0.1)


def test_correlator_entries_are_frozen():
    c = solve_lyapunov_direct(np.array([[1.0]]), np.array([[0.5]]))
    with pytest.raises(ValueError):
        c.entries[0, 0] = 0.0
