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
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gausschain import (BiorthogonalSpectrum, DarkSourceError, DensityMatrix,
                        EnvelopeOverflowError, HatanoNelsonParams, ParameterError, SiteIndexError, SolveError,
                        SshParams, StabilityError, biorthogonal_decompose, build_diagonal_pump,
                        build_hatano_nelson, build_local_pump, build_ssh,
                        closed_form_correlator, correlator_of,
                        evolve_master, hn_analytic_spectrum, hn_jump_decomposition,
                        hn_source_scan,
                        inverse_design, natural_orbitals, propagate_correlator,
                        single_mode_approximation, solve_lyapunov_direct,
                        solve_lyapunov_spectral)
from gausschain.models import matrix_entries
from gausschain.spectral import CONDITION_TRUST_LIMIT, _gauge_symmetrize, _tridiagonal_bands
from gausschain.steady import (EPS, DirectSolver, _backward_error, _doubling_powers,
                               _thin_sites, solve_schur)
from tests.conftest import (HN_REFERENCE, SSH_REFERENCE, banded_cayley_reference,
                            banded_m_matrix_inverse, dense_residual_reference,
                            doubling_powers_reference, hn_closed_form_steady,
                            hn_sine_steady_mp, loading_reference, lyapunov_quadrature,
                            mode_sum_steady_reference, mode_sum_transient_reference,
                            smith_steady_mp, solve_vectorized, tridiagonal_steady_mp,
                            unit_gauge)


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
    # 1, and A is three scaled columns of the inverse: the inverse, the
    # powers built from it and C of local, uniform and dense pumps and of a
    # stack of local pumps by site must be the same bits.  The banded A
    # rounds as the dense product does to within 2 ulps.
    rng = np.random.default_rng(7)
    for x in chain_relaxations():
        n = x.shape[0]
        solver = DirectSolver(x)
        shifted = solver._shift * np.eye(n)
        unit = solver._unit * x.real  # the solver works on X at unit scale
        reference = copy.copy(solver)
        reference._inverse = banded_m_matrix_inverse(shifted + unit)
        cayley = banded_cayley_reference(reference._inverse, unit, solver._shift)
        reference._powers = doubling_powers_reference(cayley)
        assert solver._inverse.tobytes() == reference._inverse.tobytes()
        dense = reference._inverse @ (shifted - unit)
        assert np.all(np.abs(cayley - dense) <= 2 * np.spacing(dense))
        assert len(solver._powers) == len(reference._powers)
        for a, b in zip(solver._powers, reference._powers):
            assert a.tobytes() == b.tobytes()
        b = rng.standard_normal((n, n))
        for y in (build_local_pump(n, 1 + n // 3, 0.03), 0.1 * np.eye(n), b @ b.T):
            ours, theirs = solver.solve(y), reference.solve(y)
            assert ours.entries.tobytes() == theirs.entries.tobytes()
            assert ours.asymmetry == theirs.asymmetry
        sites = sorted({1, 1 + n // 3, n})
        for ours, theirs in zip(solver.solve_local(sites, 0.03),
                                reference.solve_local(sites, 0.03)):
            assert ours.tobytes() == theirs.tobytes()


def one_way_bond_relaxation():
    # X[j+1, j] = 0 on one bond: X is block upper triangular, so every
    # power of its Cayley transform keeps a block of zeros.
    _, x, _ = hn_reference_system(12)
    x = matrix_entries(x).real.copy()
    x[6, 5] = 0.0
    return x


def test_stopping_test_keeps_the_guarded_powers_bit_for_bit():
    # The library drops the guard of the ratio d when A^(2^k) has no zero;
    # the powers list must stay the bits of the always-guarded test.
    hn_long = build_hatano_nelson(HatanoNelsonParams(
        200, HN_REFERENCE["t_right"], HN_REFERENCE["t_left"], HN_REFERENCE["kappa"]))
    ssh_long = build_ssh(SshParams(100, SSH_REFERENCE["t1"], SSH_REFERENCE["t2"],
                                   SSH_REFERENCE["g_edge"], SSH_REFERENCE["kappa"]))
    chains = list(chain_relaxations()) + [matrix_entries(m) for m in (hn_long, ssh_long)]
    one_way = DirectSolver(one_way_bond_relaxation())._powers[0]
    # a power whose zeros its square fills: d is infinite and squaring goes on
    filled = np.array([[0.5, 0.25], [0.25, 0.0]])
    starts = [DirectSolver(x)._powers[0] for x in chains if x.shape[0] > 1]
    for a in starts + [one_way, filled]:
        powers = _doubling_powers(a)
        reference = doubling_powers_reference(a)
        assert [p.tobytes() for p in powers] == [p.tobytes() for p in reference]
    # both chain models take the unguarded test on every power, the others do not
    assert all(p.all() for a in starts for p in _doubling_powers(a))
    assert not any(p.all() for p in _doubling_powers(one_way))
    powers = _doubling_powers(filled)
    assert not powers[0].all() and powers[1].all()


@pytest.mark.parametrize("model, size", [("hn", 1), ("hn", 2), ("hn", 7), ("hn", 40),
                                         ("hn", 200), ("ssh", 2), ("ssh", 40), ("ssh", 200)])
def test_banded_residual_matches_the_dense_formula(model, size):
    # C is perturbed by 1e-8 of its peak, Hermitian and not, so the defect
    # is far above rounding.  Both residuals are normalized by the same
    # bound and differ only by the rounding of the defect's terms, which
    # is below the unit roundoff of that bound, so they must agree to eps
    # absolute (a relative bound would be 1e-8 at best: two roundings of a
    # defect 1e-8 of the terms).
    if model == "hn":
        x = build_hatano_nelson(HatanoNelsonParams(
            size, HN_REFERENCE["t_right"], HN_REFERENCE["t_left"], HN_REFERENCE["kappa"]))
    else:
        x = build_ssh(SshParams(size // 2, SSH_REFERENCE["t1"], SSH_REFERENCE["t2"],
                                SSH_REFERENCE["g_edge"], SSH_REFERENCE["kappa"]))
    x = matrix_entries(x)
    assert DirectSolver(x)._bands is not None
    rng = np.random.default_rng(size)
    b = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    for y in (build_local_pump(size, 1 + size // 3, 0.03), 0.01 * b @ b.conj().T):
        y = matrix_entries(y)  # real unless an entry is complex, as every solver holds it
        c = solve_lyapunov_direct(x, y).entries
        assert c.imag.any() == y.imag.any()
        noise = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        noise = noise if y.imag.any() else noise.real
        for e in (noise + noise.conj().T, noise):
            perturbed = c + 1e-8 * np.abs(c).max() * e
            theirs = dense_residual_reference(x, perturbed, y)
            assert theirs > 1e-10
            assert abs(_backward_error(x, _tridiagonal_bands(x), perturbed, y) - theirs) <= EPS


def test_reference_solves_keep_a_backward_error_below_1e_16():
    hn = HatanoNelsonParams(HN_REFERENCE["n_sites"], HN_REFERENCE["t_right"],
                            HN_REFERENCE["t_left"], HN_REFERENCE["kappa"])
    ssh = SshParams(SSH_REFERENCE["n_cells"], SSH_REFERENCE["t1"], SSH_REFERENCE["t2"],
                    SSH_REFERENCE["g_edge"], SSH_REFERENCE["kappa"])
    for x, site, strength in ((build_hatano_nelson(hn), HN_REFERENCE["pump_site"],
                               HN_REFERENCE["pump_strength"]),
                              (build_ssh(ssh), 1, SSH_REFERENCE["pump_strength"])):
        y = build_local_pump(x.dim, site, strength)
        assert solve_lyapunov_direct(x, y).residual <= 1e-16


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
    x = one_way_bond_relaxation()
    assert _gauge_symmetrize(x) is None
    solver = DirectSolver(x)
    assert solver._powers is not None
    y = build_local_pump(12, 12, 1.0).entries.real
    c = solver.solve(y).entries.real
    truth = smith_steady_mp(x, y)
    assert truth.min() > 0
    assert (np.abs(c - truth) / truth).max() <= 1e-12


def staggered_twin(n_sites, kappa):
    """(X, S X S, S S^T) of the reference single-band chain with s_j = (-1)^j: the
    same physics under c_j -> (-1)^j c_j, with every hopping of the twin > 0."""
    x = matrix_entries(build_hatano_nelson(HatanoNelsonParams(
        n_sites, HN_REFERENCE["t_right"], HN_REFERENCE["t_left"], kappa))).real
    s = (-1.0) ** np.arange(n_sites)
    return x, s[:, None] * x * s[None, :], np.outer(s, s)


@pytest.mark.parametrize("n_sites, kappa", [(150, 0.91), (300, 1.3)])
def test_staggered_twin_is_the_sign_flipped_chain_bit_for_bit(n_sites, kappa):
    # The twin's Z-matrix form S (S X S) S is the chain itself, so C is S C S
    # of the chain's.  On the twin, eigvals once reported min Re beta -0.0918
    # (150 sites) and Schur returned 58 negative densities (300 sites).
    x, twin, signs = staggered_twin(n_sites, kappa)
    y = build_local_pump(n_sites, HN_REFERENCE["pump_site"], HN_REFERENCE["pump_strength"])
    assert DirectSolver(twin)._powers is not None
    plain, twisted = solve_lyapunov_direct(x, y), solve_lyapunov_direct(twin, y)
    assert np.array_equal(twisted.entries, signs * plain.entries)
    assert twisted.residual == plain.residual and twisted.residual <= 1e-16


def test_random_bond_signs_keep_the_two_band_magnitudes_bit_for_bit():
    x = matrix_entries(build_ssh(SshParams(100, SSH_REFERENCE["t1"], SSH_REFERENCE["t2"],
                                           SSH_REFERENCE["g_edge"], SSH_REFERENCE["kappa"])))
    x = x.real
    y = build_local_pump(200, 1, SSH_REFERENCE["pump_strength"])
    flips = np.random.default_rng(5).choice([-1.0, 1.0], size=199)
    twisted, bond = x.copy(), np.arange(199)
    twisted[bond + 1, bond] *= flips
    twisted[bond, bond + 1] *= flips
    assert (twisted > 0).any() and DirectSolver(twisted)._powers is not None
    plain, ours = solve_lyapunov_direct(x, y), solve_lyapunov_direct(twisted, y)
    assert np.array_equal(np.abs(ours.entries), np.abs(plain.entries))
    assert ours.residual <= 1e-16


def test_sign_gauge_keeps_the_pivot_certificate_and_the_schur_split():
    # An unstable twin fails the pivots of its Z-matrix form, and a bond
    # whose two entries differ in sign has no such form: eigvals and Schur.
    with pytest.raises(StabilityError, match="pivot 3"):
        DirectSolver(staggered_twin(150, 0.5)[1])
    _, x, _ = hn_reference_system(12)
    x, y = matrix_entries(x).real.copy(), build_local_pump(12, 4, 1.0).entries.real
    x[6, 5] = -x[6, 5]
    solver = DirectSolver(x)
    assert solver._powers is None
    schur = solve_schur(x, y)
    assert np.array_equal(solver.solve(y).entries, 0.5 * (schur + schur.T))
    with pytest.raises(StabilityError, match="min Re beta"):
        DirectSolver(x - 0.2 * np.eye(12))


def test_solve_local_matches_per_pump_solve():
    # Local pumps stacked by site, a site repeated, are bit for bit the
    # per-pump solve on the M-matrix route; the Schur route (complex X)
    # takes no stacks, and solves its local pumps one by one to rounding.
    # solve starts one- and two-site pumps thin and a dense or all-zero
    # pump dense; the zero pump gives zero C and zero asymmetry on both
    # routes, and a complex pump is solved by Schur to rounding.
    rng = np.random.default_rng(5)
    _, x, _ = hn_reference_system(30)
    solver = DirectSolver(x)
    sites = [1, 30, 12, 12]
    c, asym = solver.solve_local(sites, 7.5)
    assert c.shape == (4, 30, 30) and asym.shape == (4,)
    for k, site in enumerate(sites):
        one = solver.solve(build_local_pump(30, site, 7.5))
        assert np.array_equal(c[k], one.entries) and asym[k] == one.asymmetry
    two_site = np.zeros((30, 30))
    two_site[4, 4], two_site[21, 21] = 0.3, 0.011
    b = rng.standard_normal((30, 30))
    assert _thin_sites(two_site).tolist() == [4, 21]
    assert _thin_sites(b @ b.T) is None and _thin_sites(np.zeros((30, 30))) is None
    with pytest.raises(ParameterError, match="does not match"):
        solver.solve(np.eye(29))
    with pytest.raises(SiteIndexError, match="pump site 31 outside 1..30"):
        solver.solve_local([3, 31], 0.03)
    with pytest.raises(SiteIndexError, match="pump site 0 outside 1..30"):
        solver.solve_local([0, 3], 0.03)

    xc, yc = random_stable_pair(rng, 8)
    solver = DirectSolver(xc)
    assert solver._powers is None
    with pytest.raises(ParameterError, match=r"chains only: real tridiagonal X"):
        solver.solve_local([3, 6], 40.0)
    for site in (3, 6):
        pump = build_local_pump(8, site, 40.0)
        one = solver.solve(pump)
        oracle = solve_vectorized(xc, matrix_entries(pump))
        assert np.abs(one.entries - oracle).max() <= 1e-12 * np.abs(oracle).max()
        assert one.asymmetry <= 1e-12 * np.abs(oracle).max()
    one = solver.solve(yc).entries
    oracle = solve_vectorized(xc, yc)
    assert np.abs(one - oracle).max() <= 1e-12 * np.abs(oracle).max()
    for solver in (DirectSolver(x), DirectSolver(xc)):
        zero = solver.solve(np.zeros(solver.x.shape))
        assert not zero.entries.any() and zero.asymmetry == 0.0


def test_scan_sized_stacks_match_per_pump_solves_bit_for_bit():
    # The stack shapes whose products _smith runs on C-order copies of the
    # transposed operands up to _SMALL_PRODUCT_SITES: full 40-pump stacks
    # of the 40-site and 20-cell chains, a full 60-site stack (60 is no
    # multiple of 8, where BLAS rounds the copy and the view differently),
    # and a 3-pump chunk of the 200-site chain, which multiplies by the
    # views.
    ssh = SshParams(20, SSH_REFERENCE["t1"], SSH_REFERENCE["t2"], SSH_REFERENCE["g_edge"],
                    SSH_REFERENCE["kappa"])
    hn40, hn60, hn200 = (hn_reference_system(n)[1] for n in (40, 60, 200))
    for x, sites in [(hn40, range(1, 41)), (build_ssh(ssh), range(1, 41)), (hn60, range(1, 61)),
                     (hn200, [1, 100, 200])]:
        solver = DirectSolver(x)
        n = solver.x.shape[0]
        stack, asym = solver.solve_local(np.asarray(sites), 0.037)
        for c, a, site in zip(stack, asym, sites):
            one = solver.solve(build_local_pump(n, site, 0.037))
            assert np.array_equal(c, one.entries) and a == one.asymmetry


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
    cases = [(build_hatano_nelson(params), range(1, 41)) for params in scan_lattice_chains()]
    cases.append((build_hatano_nelson(HatanoNelsonParams(200, 1.0, 0.17, 0.91)), [1, 77, 200]))
    cases.append((build_ssh(SshParams(100, SSH_REFERENCE["t1"], SSH_REFERENCE["t2"],
                                      SSH_REFERENCE["g_edge"], SSH_REFERENCE["kappa"])),
                  [1, 102, 200]))
    for x, sites in cases:
        solver = DirectSolver(x)
        n = solver.x.shape[0]
        stack, _ = solver.solve_local(np.asarray(sites), 1.0)
        for c, site in zip(stack, sites):
            y = np.zeros((n, n))
            y[site - 1, site - 1] = 1.0
            assert _thin_sites(y).tolist() == [site - 1]
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
    assert _thin_sites(pumps[3]).tolist() == [2, 8]
    solver = DirectSolver(x)
    stack = list(solver.solve_local([1, 6, 12], 1.0)[0]) + [solver.solve(pumps[3]).entries]
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
    assert _thin_sites(half).tolist() == list(range(20))
    for y in (past_half, signed, coupled, full):
        assert _thin_sites(y) is None
        assert np.array_equal(solver.solve(y).entries, dense_start_smith(solver, y))


def test_direct_solver_rejects_non_finite_input():
    # NaN in Y once came back as an all-NaN "direct" correlator, NaN on
    # the diagonal of X as StabilityError, inf off it as LinAlgError.
    _, x, _ = hn_reference_system(4)
    x = matrix_entries(x)
    with pytest.raises(ParameterError, match="source matrix contains non-finite"):
        solve_lyapunov_direct(x, np.diag([np.nan, 0.1, 0.1, 0.1]))
    y = np.zeros((4, 4), dtype=complex)
    y[2, 3] = complex(0.0, np.inf)
    with pytest.raises(ParameterError, match="source matrix contains non-finite"):
        DirectSolver(x).solve(y)
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
    # one pump is named by nothing but the solve itself, a stack by its sites
    with pytest.raises(EnvelopeOverflowError, match="^steady correlator is not finite"):
        solve_lyapunov_direct(x, build_local_pump(40, 15, 1e304))
    # a pump at site 40 peaks at 0.63 per unit strength, at site 15 at 9.8e7
    with pytest.raises(EnvelopeOverflowError,
                       match="^steady correlator of pump site 15 is not finite"):
        DirectSolver(x).solve_local([40, 15, 40], 1e304)
    with pytest.raises(EnvelopeOverflowError,
                       match="^steady correlator of pump site 3 is not finite"):
        hn_source_scan(HatanoNelsonParams(40, 1.0, 0.17, 0.91), 1e304, sites=[3, 4, 5])
    with pytest.raises(ParameterError, match="correlator contains non-finite"):
        natural_orbitals(np.diag([1.0, np.inf]))


def test_overflowing_solve_raises_without_numpy_warnings():
    # At r = 1e-12 the unit-peak doubling itself overflows; it once printed
    # six RuntimeWarnings before the error.
    x = build_hatano_nelson(HatanoNelsonParams(60, 1.0, 1e-12, 1e-3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EnvelopeOverflowError, match="^steady correlator is not finite"):
            solve_lyapunov_direct(x, build_local_pump(60, 1, 1.0))


def test_subnormal_correlator_is_an_error_not_a_result():
    # C is linear in the pump, yet a C peaking below the smallest normal
    # double came back with overlaps and occupations moved by subnormal rounding
    _, x, _ = hn_reference_system(40)
    # normal pumps on X 1e300 faster: C peaks at 1.4e-312 (dense start), at
    # 9.5e-313 by the Schur route of a dense X, and is complex for a complex Y
    fast = 1e300 * matrix_entries(x)
    dense = fast.copy()
    dense[0, 3], dense[4, 1] = 0.05, -0.03
    hermitian = np.eye(40) + 0.1j * (np.eye(40, k=1) - np.eye(40, k=-1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for relaxation, pump in ((x, build_local_pump(40, 15, 1e-320)),
                                 (fast, 1e-25 * np.eye(40)), (dense, 1e-25 * np.eye(40)),
                                 (fast, 1e-25 * hermitian)):
            with pytest.raises(EnvelopeOverflowError, match="^steady correlator peaks below "
                               "the smallest normal double: it underflows double precision"):
                solve_lyapunov_direct(relaxation, pump)
        # per unit strength a pump at site 40 peaks at 0.63, at site 15 at 9.8e7
        with pytest.raises(EnvelopeOverflowError,
                           match="^steady correlator of pump site 40 peaks below"):
            DirectSolver(x).solve_local([15, 40, 15], 1e-310)
        c, _ = DirectSolver(x).solve_local([15], 1e-310)
        assert np.abs(c).max() >= np.finfo(float).tiny
    # no pump, no correlator: C = 0 is exact, not an underflow
    assert not solve_lyapunov_direct(x, np.zeros((40, 40))).entries.any()


def test_subnormal_complex_pump_solves_like_its_lifted_copy():
    # numpy divides a complex Y by its real subnormal peak through the
    # reciprocal, which overflowed: this Y, whose C peaks at 1.44e-307,
    # was refused as overflowing with a RuntimeWarning
    _, x, _ = hn_reference_system(40)
    y = 1e-320 * (np.eye(40) + 0.1j * (np.eye(40, k=1) - np.eye(40, k=-1)))

    def ldexp(z, k):
        return np.ldexp(z.real, k) + 1j * np.ldexp(z.imag, k)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = solve_lyapunov_direct(x, y).entries
        lifted = solve_lyapunov_direct(x, ldexp(y, 1070)).entries
    assert np.abs(c).max() == pytest.approx(1.44e-307, rel=1e-3)
    want = ldexp(lifted, -1070)
    normal = np.abs(want) >= np.finfo(float).tiny
    assert normal.any() and np.array_equal(np.abs(c) >= np.finfo(float).tiny, normal)
    assert np.all(np.abs(c - want)[normal] <= 2 * EPS * np.abs(want)[normal])


def test_banded_residual_peaks_below_four_and_a_half_n_squared_arrays():
    # it held 5.44 N^2 float64 arrays while uY was formed before the products
    _, x, y = hn_reference_system(200, pump_site=HN_REFERENCE["pump_site"])
    solver = DirectSolver(x)
    c, y = solver.solve(y).entries, matrix_entries(y)
    residual = _backward_error(solver.x, solver._bands, c, y)
    tracemalloc.start()
    try:
        assert _backward_error(solver.x, solver._bands, c, y) == residual
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * c.nbytes


def test_overflowing_powers_are_named_without_numpy_warnings():
    # 231 sites 5% above the stability edge: A^(2^7) peaks at 2.4e302 and
    # A^(2^8) overflows.  The build once printed three RuntimeWarnings and
    # then blamed a numerically singular X.  At t_L = 1e-12 the inverse
    # (pI + X)^-1 itself overflows, so A = A^(2^0) is named.
    long_chain = HatanoNelsonParams(231, 2.1139725255515978, 0.0017818522520433315,
                                    0.12934881571526421)
    edge = 2.0 * math.sqrt(1e-12) * math.cos(math.pi / 61) * (1 + 1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EnvelopeOverflowError, match=r"power A\^\(2\^8\) is not finite"):
            DirectSolver(build_hatano_nelson(long_chain))
        with pytest.raises(EnvelopeOverflowError, match=r"power A\^\(2\^0\) is not finite"):
            DirectSolver(build_hatano_nelson(HatanoNelsonParams(60, 1.0, 1e-12, edge)))


def test_numerically_singular_relaxation_still_exhausts_the_doublings():
    # 1 - 1e-20 rounds to 1, so A = diag(1, 0) and its powers never decay
    with pytest.raises(SolveError, match="did not converge in 64 steps"):
        DirectSolver(np.diag([1e-20, 1.0]))


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
    # a local one on the thin start, and the residual does not see 2^k.  At
    # k = 520 the pivot recurrence once formed sub * sup = inf and called the
    # chain unstable, and at -520 C_0 = (pI + X)^-1 Y (pI + X)^-T overflowed;
    # X is now solved at unit scale.  The closed-form betas scale with it.
    if model == "hn":
        params = HatanoNelsonParams(40, 1.0, 0.17, 0.91)
        x = build_hatano_nelson(params)
    else:
        x = build_ssh(SshParams(20, SSH_REFERENCE["t1"], SSH_REFERENCE["t2"],
                                SSH_REFERENCE["g_bulk"], SSH_REFERENCE["kappa"]))
    x = matrix_entries(x)
    y = matrix_entries(build_local_pump(x.shape[0], 7, 1.0))
    assert _thin_sites(y).tolist() == [6]
    base = solve_lyapunov_direct(x, y).entries
    for s in (0.037, 0.5, 1e-9):
        residual = solve_lyapunov_direct(x, s * y).residual
        for k in (-520, -3, -2, -1, 2, 5, 520):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                scaled = solve_lyapunov_direct(2.0 ** k * x, s * y)
            assert np.array_equal(scaled.entries, s * 2.0 ** -k * base)
            assert scaled.residual == residual
    if model == "hn":
        betas = hn_analytic_spectrum(params).betas
        for k in (-520, 520):
            scaled = HatanoNelsonParams(40, 2.0 ** k, 2.0 ** k * 0.17, 2.0 ** k * 0.91)
            assert np.array_equal(hn_analytic_spectrum(scaled).betas, 2.0 ** k * betas)


@pytest.mark.parametrize("n_sites", [150, 400])
def test_long_stable_chains_solve(n_sites):
    # The eigenvalue screen called these chains unstable (at 150 sites it
    # saw min Re beta = -0.09; the true value is +0.0855).  Each entry of
    # the defect must sit at rounding level of the terms that form it.
    params, x, _ = hn_reference_system(n_sites)
    assert params.kappa > 2.0 * math.sqrt(params.t_right * params.t_left)
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
    assert spec.log10_condition < 10
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
    assert params.kappa < 2.0 * math.sqrt(params.t_right * params.t_left)
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
    r0 = unit_gauge(result.rank_one.entries[:, 0])
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
    rates = [0.01, 1.0, 1.2, 1.5]
    x = phi @ np.diag(rates) @ phi.T
    spec = BiorthogonalSpectrum(rates, phi, np.zeros(4))
    y = build_local_pump(4, 2, 0.005)
    result = single_mode_approximation(spec, 2, 0.005)
    full = solve_lyapunov_direct(x, y)
    nu_max = float(np.linalg.eigvalsh(full.entries)[-1])
    assert result.predicted_occupation == pytest.approx(nu_max, rel=1e-2)


def single_mode_against_nu1(params, site):
    """(predicted_occupation, nu_1) at a pump of strength 0.03 on ``site``."""
    result = single_mode_approximation(hn_analytic_spectrum(params), site, 0.03)
    full = solve_lyapunov_direct(build_hatano_nelson(params),
                                 build_local_pump(params.n_sites, site, 0.03))
    return result.predicted_occupation, natural_orbitals(full).occupations[0]


def test_single_mode_occupation_estimates_nu1_on_a_near_normal_chain():
    # reciprocal chain just above its stability edge: one slow mode dominates
    # and the modes are orthogonal, so A_0 <R_0|R_0> is within 1.8e-4 of nu_1
    params = HatanoNelsonParams(21, 1.0, 1.0, 2.0 * math.cos(math.pi / 22) + 1e-3)
    predicted, nu_1 = single_mode_against_nu1(params, 11)
    assert predicted == pytest.approx(nu_1, rel=1e-3)


def test_single_mode_occupation_is_no_estimate_on_a_nonnormal_chain():
    # the same margin above the edge at t_left / t_right = 0.17: the mode sum
    # cancels in C, and A_0 <R_0|R_0> is about 70 times nu_1
    params = HatanoNelsonParams(40, 1.0, 0.17, 2.0 * math.sqrt(0.17) + 0.01)
    predicted, nu_1 = single_mode_against_nu1(params, 15)
    assert predicted > 10.0 * nu_1


def test_single_mode_is_exact_for_one_site():
    spec = biorthogonal_decompose(np.array([[0.91]]))
    result = single_mode_approximation(spec, 1, 0.03)
    assert_allclose(result.rank_one.entries, [[0.03 / 1.82]], rtol=1e-14)
    assert result.predicted_occupation == pytest.approx(0.03 / 1.82, rel=1e-14)


def test_pump_on_slow_mode_node_is_dark():
    # The slowest mode is the second sine harmonic, whose node sits exactly
    # on the middle site of a three-site chain.
    sites = np.arange(1, 4)
    phi = np.sqrt(0.5) * np.sin(np.outer(sites, sites) * np.pi / 4.0)
    spec = BiorthogonalSpectrum([0.1, 0.5, 0.5], phi[:, [1, 0, 2]], np.zeros(3))
    with pytest.raises(DarkSourceError):
        single_mode_approximation(spec, 2, 0.03)
    # Off the node the approximation exists.
    result = single_mode_approximation(spec, 1, 0.03)
    assert result.loading > 0


def test_single_mode_input_validation():
    spec = BiorthogonalSpectrum([0.2, 1.0], np.eye(2), np.zeros(2))
    with pytest.raises(SiteIndexError):
        single_mode_approximation(spec, 3, 0.03)
    with pytest.raises(ParameterError):
        single_mode_approximation(spec, 1, 0.0)


def test_steady_state_is_a_fixed_point_of_propagation():
    _, x, y = hn_reference_system(6)
    steady = solve_lyapunov_direct(x, y)
    traj = propagate_correlator(x, y, steady.entries, t_final=5.0, dt=0.1)
    for sample in traj.states:
        assert np.abs(sample - steady.entries).max() <= 1e-10
        assert dense_residual_reference(x.entries, sample, y.entries) <= 1e-10


def test_transient_from_empty_state_matches_closed_form():
    params, x, y = hn_reference_system(8)
    spec = hn_analytic_spectrum(params)
    traj = propagate_correlator(x, y, np.zeros((8, 8)), t_final=10.0,
                                dt=0.005, stride=200)
    assert_allclose(traj.times, np.arange(11.0), rtol=0, atol=1e-12)
    for t in (1, 5, 10):
        exact = closed_form_correlator(spec, y, np.zeros((8, 8)), float(t))
        assert np.abs(traj.states[t] - exact).max() <= 1e-8


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
    traces = np.trace(traj.states, axis1=1, axis2=2).real
    assert all(b < a for a, b in zip(traces, traces[1:]))
    assert traces[-1] < 1e-3 * traces[0]


def test_stiff_step_decays_exactly():
    # exp(-X h) with ||X|| h = 10: the step is exact whatever its size.  Each
    # interval is checked on its own, because rounding of the exponent makes
    # any evaluation of e^(-200 t) uncertain by about 200 t ulps.
    traj = propagate_correlator(np.array([[100.0]]), np.array([[0.0]]),
                                np.array([[1.0]]), t_final=3.0, dt=0.1)
    c = traj.states[:, 0, 0]
    assert traj.times.size == 31 and np.all(c.imag == 0)
    assert_allclose(c.real[1:] / c.real[:-1], math.exp(-20.0), rtol=1e-14, atol=0)


def test_one_long_interval_matches_ten_short_ones():
    # unscaled, the block exponential over h = 20 is off by 0.43 relative here
    _, x, y = hn_reference_system(100, pump_site=15)
    zero = np.zeros((100, 100))
    one = propagate_correlator(x, y, zero, t_final=20.0, dt=20.0).states[-1]
    ten = propagate_correlator(x, y, zero, t_final=20.0, dt=2.0).states[-1]
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
        assert np.abs(correlator_of(state) - sample).max() <= 1e-12


def test_trajectory_states_are_one_read_only_hermitian_array():
    _, x, y = hn_reference_system(4)
    c0 = np.diag([0.1, 0.2, 0.3, 0.4]) + 5e-4j * (np.eye(4, k=1) - np.eye(4, k=-1))
    traj = propagate_correlator(x, y, c0, t_final=2.0, dt=0.1, stride=5)
    assert isinstance(traj.states, np.ndarray) and traj.states.shape == (5, 4, 4)
    assert not traj.states.flags.writeable
    assert np.array_equal(traj.states, traj.states.conj().transpose(0, 2, 1))
    assert np.array_equal(traj.states[0], c0)


def hermitian_rule_calls(scale):
    """Entry -> (role, exactly Hermitian matrix at ``scale``, call returning what it computed)
    for the pump of DirectSolver.solve and the pump and initial state of
    propagate_correlator, on the 3-site chain (t_left 0.17, kappa 1.5)."""
    x = build_hatano_nelson(HatanoNelsonParams(3, 1.0, 0.17, 1.5))
    y = scale * np.array([[0.1, 0.05, 0.02], [0.05, 0.1, 0.05], [0.02, 0.05, 0.1]])
    c0 = scale * np.array([[0.3, 0.1j, 0.0], [-0.1j, 0.2, 0.05], [0.0, 0.05, 0.1]])

    def solve(m):
        return (DirectSolver(x).solve(m).entries,)

    def propagate(source, initial):
        return (propagate_correlator(x, source, initial, t_final=1.0, dt=0.1, stride=5).states,)

    return {
        "DirectSolver.solve": ("source matrix", y, solve),
        "solve_lyapunov_direct": ("source matrix", y,
                                  lambda m: (solve_lyapunov_direct(x, m).entries,)),
        "propagate Y": ("source Y", y, lambda m: propagate(m, c0)),
        "propagate C0": ("initial state C0", c0, lambda m: propagate(y, m)),
    }


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e8])
@pytest.mark.parametrize("case", ["exact", "few ulps", "1e-6 of peak"])
@pytest.mark.parametrize("entry", ["DirectSolver.solve", "solve_lyapunov_direct",
                                   "propagate Y", "propagate C0"])
def test_pump_and_initial_state_pass_the_hermitian_rule(monkeypatch, entry, case, scale):
    # a pump or C0 more than rounding of its peak from Hermitian is no physical
    # source or correlator: it is refused, not solved or silently symmetrized
    import gausschain.steady

    role, m, call = hermitian_rule_calls(scale)[entry]
    m = np.array(m)
    peak = np.abs(m).max()
    m[0, 1] += {"exact": 0.0, "few ulps": 3 * np.spacing(peak), "1e-6 of peak": 1e-6 * peak}[case]
    if case == "1e-6 of peak":
        defect = np.abs(m - m.conj().T).max()
        message = f"{role} not Hermitian: max |M - M^dag| = {defect:.3e} at peak"
        with pytest.raises(ParameterError, match="^" + re.escape(message)):
            call(m)
        return
    rule, seen = gausschain.steady._hermitian, []

    def spy(matrix, name):
        out = rule(matrix, name)
        if name == role:
            seen.append((matrix, out))
        return out

    monkeypatch.setattr(gausschain.steady, "_hermitian", spy)
    got = call(m)
    (arg, out), = seen
    if case == "exact":
        assert out is arg  # the input itself is solved, so no bit moves
    else:
        symmetric = 0.5 * (m + m.conj().T)
        assert np.array_equal(out, symmetric)
        assert all(np.array_equal(a, b) for a, b in zip(got, call(symmetric), strict=True))


def test_non_hermitian_pump_and_initial_state_are_refused():
    x = build_hatano_nelson(HatanoNelsonParams(3, 1.0, 0.17, 1.5))
    y = 0.1 * np.eye(3)
    y[0, 1] = 0.5
    with pytest.raises(ParameterError, match="^source matrix not Hermitian"):
        DirectSolver(x).solve(y)
    with pytest.raises(ParameterError, match="^source Y not Hermitian"):
        propagate_correlator(x, y, np.zeros((3, 3)), t_final=1.0, dt=0.1)
    with pytest.raises(ParameterError, match="^initial state C0 not Hermitian"):
        propagate_correlator(x, 0.1 * np.eye(3), np.eye(3, k=1), t_final=1.0, dt=0.1)


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
        assert spec.log10_condition > math.log10(CONDITION_TRUST_LIMIT)
        names = re.escape(f"10^{spec.log10_condition:.3f}") + ".*" + re.escape(
            f"{CONDITION_TRUST_LIMIT:.0e}")
        with pytest.raises(SolveError, match=names):
            solve_lyapunov_spectral(spec, y)
        with pytest.raises(SolveError, match=names):
            closed_form_correlator(spec, y, np.zeros((100, 100)), 1.0)


def test_mode_sums_match_direct_just_below_the_trust_limit():
    # The mode sum R W R^T cancels terms up to cond_2(R) times the size of C,
    # so its relative error is first order in eps cond_2(R), and its
    # length-N inner products add about sqrt(N) rounding units (Higham &
    # Mary, SIAM J. Sci. Comput. 41, 2019).  Bound: sqrt(N) eps cond_2(R)
    # ||C||_F, 1.1e-3 here, at every pump.  Measured: at most 1.17 eps
    # cond_2(R) (closed form, pump 1) and 0.86 (chain route, pump 1; eigh
    # of the whole H read 0.28), with medians of 2.5e-11 to 3.5e-11.
    n = 32
    spectra = hn_spectra(n)
    for s in range(1, n + 1):
        _, x, y = hn_reference_system(n, pump_site=s)
        direct = solve_lyapunov_direct(x, y).entries
        for spec in spectra.values():
            assert 11 < spec.log10_condition <= math.log10(CONDITION_TRUST_LIMIT)
            bound = math.sqrt(n) * EPS * 10 ** spec.log10_condition * np.linalg.norm(direct)
            steady = solve_lyapunov_spectral(spec, y).entries
            late = closed_form_correlator(spec, y, np.zeros((n, n)), 1e4)
            assert np.linalg.norm(steady - direct) <= bound, s
            assert np.linalg.norm(late - direct) <= bound, s


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
    assert spec.log10_condition > math.log10(CONDITION_TRUST_LIMIT)  # a single term is exempt
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


@pytest.mark.parametrize("slot, name", [(0, "relaxation X"), (1, "source Y"),
                                        (2, "initial state C0")])
def test_propagation_rejects_non_finite_inputs_by_name(slot, name):
    # an inf in C0 once reached the symmetrization, warned, and was then
    # blamed on the residual
    _, x, y = hn_reference_system(3)
    args = [np.array(matrix_entries(m)) for m in (x, y, np.zeros((3, 3)))]
    args[slot][1, 1] = np.inf
    with pytest.raises(ParameterError, match=f"{name} contains non-finite"):
        propagate_correlator(*args, t_final=1.0, dt=0.1)


def test_correlator_entries_are_frozen():
    c = solve_lyapunov_direct(np.array([[1.0]]), np.array([[0.5]]))
    with pytest.raises(ValueError):
        c.entries[0, 0] = 0.0


@pytest.mark.parametrize("model", ["hn", "ssh"])
def test_real_data_gives_the_same_float64_bits_as_zero_imaginary_complex(model):
    # matrix_entries narrows a complex array with no nonzero imaginary part
    # to float64, so each entry point sees the same array either way.
    if model == "hn":
        x = build_hatano_nelson(HatanoNelsonParams(12, 1.0, 0.17, 0.91)).entries
    else:
        x = build_ssh(SshParams(6, 0.5, 1.0, -0.25, 1.5)).entries
    y = build_local_pump(12, 4, 0.03).entries
    xc, yc = x.astype(complex), y.astype(complex)
    c, cc = solve_lyapunov_direct(x, y), solve_lyapunov_direct(xc, yc)
    assert c.entries.dtype == cc.entries.dtype == np.float64
    assert np.array_equal(c.entries, cc.entries) and c.residual == cc.residual
    solver = DirectSolver(xc)
    for pump in (2.0 * y, np.eye(12)):
        one, one_c = solver.solve(pump), solver.solve(pump.astype(complex))
        assert one.entries.dtype == one_c.entries.dtype == np.float64
        assert np.array_equal(one.entries, one_c.entries) and one.residual == one_c.residual
    (many, asym), (many_c, asym_c) = (DirectSolver(x).solve_local([4, 8], 0.03),
                                      solver.solve_local([4, 8], 0.03))
    assert many.dtype == many_c.dtype == np.float64
    assert np.array_equal(many, many_c) and np.array_equal(asym, asym_c)
    start = np.zeros((12, 12))
    states = propagate_correlator(x, y, start, 2.0, 0.5).states
    states_c = propagate_correlator(xc, yc, start.astype(complex), 2.0, 0.5).states
    assert states.dtype == states_c.dtype == np.float64
    assert np.array_equal(states, states_c)
    orbs, orbs_c = natural_orbitals(c.entries), natural_orbitals(cc.entries.astype(complex))
    assert np.array_equal(orbs.occupations, orbs_c.occupations)
    assert np.array_equal(orbs.orbitals, orbs_c.orbitals)


def test_one_imaginary_entry_keeps_x_complex_and_on_the_schur_route():
    _, x, y = hn_reference_system(12, pump_site=4)
    x = x.entries.astype(complex)
    x[3, 4] += 0.05j
    solver = DirectSolver(x)
    assert solver.x.dtype == np.complex128 and solver._powers is None
    c = solver.solve(y)
    assert c.entries.dtype == np.complex128 and c.entries.imag.any()
    oracle = solve_vectorized(x, y.entries)
    assert np.linalg.norm(c.entries - oracle) <= 1e-12 * np.linalg.norm(oracle)


def test_real_x_with_a_complex_pump_takes_complex_schur_arithmetic():
    # scipy's Bartels-Stewart would pair the quasi-triangular real Schur
    # form of X with the triangular complex solver of Y; X with complex
    # eigenvalues then gets a wrong C unless it goes complex first.
    rng = np.random.default_rng(5)
    x = rng.standard_normal((6, 6))
    x += (float(np.abs(np.linalg.eigvals(x).real).max()) + 1.0) * np.eye(6)
    assert np.iscomplex(np.linalg.eigvals(x)).any()
    _, y = random_stable_pair(rng, 6)
    solver = DirectSolver(x)
    assert solver.x.dtype == np.float64 and solver._powers is None
    oracle = solve_vectorized(x, y)
    for c in (solver.solve(y).entries, solve_schur(x, y)):
        assert np.linalg.norm(c - oracle) <= 1e-12 * np.linalg.norm(oracle)
