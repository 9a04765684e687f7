"""Natural orbitals, locking diagnostics, and the two production scans."""

import json
import math
import os
import tracemalloc
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from gausschain import (BiorthogonalSpectrum, EnvelopeOverflowError, HatanoNelsonParams,
                        NormalizationError, ParameterError, SiteIndexError, SshParams,
                        StabilityError, biorthogonal_decompose, build_hatano_nelson,
                        build_local_pump, build_ssh, closed_form_correlator,
                        diagnostics_report, hn_analytic_spectrum,
                        hn_source_scan, identify_edge_candidate,
                        identify_slow_mode, loading_factors, natural_orbitals,
                        normalized_density, overlap, single_mode_approximation,
                        slow_mode_position, solve_lyapunov_direct, solve_lyapunov_spectral,
                        ssh_crossover_scan, ssh_index)
from gausschain import orbitals
from gausschain.cli import profile_rows
from gausschain.orbitals import SCAN_CHUNK_ENTRIES, EdgeCandidate, _top_occupations, density
from gausschain.spectral import _pump_loadings
from gausschain.steady import EPS, DirectSolver
from tests.conftest import (HN_REFERENCE, SSH_REFERENCE, crossover_grid, even_edge_mode_mp,
                            loading_reference, unit_gauge)

SSH_PUMP = (SSH_REFERENCE["pump_cell"], SSH_REFERENCE["pump_sublattice"],
            SSH_REFERENCE["pump_strength"])


def sine_basis(n):
    sites = np.arange(1, n + 1)
    return np.sqrt(2.0 / (n + 1)) * np.sin(np.outer(sites, sites) * np.pi / (n + 1))


def hn_reference_params(n_sites):
    return HatanoNelsonParams(n_sites, HN_REFERENCE["t_right"], HN_REFERENCE["t_left"],
                              HN_REFERENCE["kappa"])


def random_correlator(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return a @ a.conj().T


def orbital_reconstruction(orbs):
    """sum_a nu_a |phi_a><phi_a|, the correlator the natural orbitals rebuild."""
    return (orbs.orbitals * orbs.occupations[None, :]) @ orbs.orbitals.conj().T


def test_rank_one_correlator_has_single_occupation():
    # the three zero occupations come out as rounding noise below the floor,
    # so the set holds the one resolved occupation
    v = unit_gauge([1.0, 2.0, -1.0, 0.5])
    orbs = natural_orbitals(4.2 * np.outer(v, v.conj()))
    assert_allclose(orbs.occupations, [4.2], atol=1e-12)
    assert orbs.resolved_count == 1 and orbs.orbitals.shape == (4, 1) and orbs.dim == 4
    assert orbs.occupation_floor == pytest.approx(4 * 4 * EPS * 4.2, rel=1e-12, abs=0)
    assert overlap(orbs.top_orbital(), v) == pytest.approx(1.0, abs=1e-12)


def test_zero_correlator_has_zero_occupations():
    # nothing exceeds the zero floor; the top pair is kept for its orbital
    for n in (3, 70):
        orbs = natural_orbitals(np.zeros((n, n)))
        assert_allclose(orbs.occupations, [0.0], rtol=0, atol=0)
        assert orbs.occupation_floor == 0.0 and orbs.orbitals.shape == (n, 1)
        with pytest.raises(NormalizationError):
            orbs.occupations_normalized()


def test_orbitals_orthonormal_and_trace_preserving():
    rng = np.random.default_rng(41)
    for _ in range(10):
        dim = int(rng.integers(2, 9))
        c = random_correlator(rng, dim)
        orbs = natural_orbitals(c)
        gram = orbs.orbitals.conj().T @ orbs.orbitals
        assert np.abs(gram - np.eye(dim)).max() <= 1e-10
        assert orbs.occupations.sum() == pytest.approx(
            float(np.trace(c).real), abs=1e-10 * max(1.0, abs(np.trace(c))))
        assert np.all(np.diff(orbs.occupations) <= 0)
        assert np.abs(orbital_reconstruction(orbs) - c).max() <= 1e-10 * np.abs(c).max()


def test_non_hermitian_correlator_is_refused():
    with pytest.raises(ParameterError):
        natural_orbitals(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_density_reconstruction_identity():
    rng = np.random.default_rng(43)
    for _ in range(10):
        dim = int(rng.integers(2, 10))
        c = random_correlator(rng, dim)
        orbs = natural_orbitals(c)
        rebuilt = (orbs.occupations[None, :] * np.abs(orbs.orbitals) ** 2).sum(axis=1)
        assert np.abs(rebuilt - density(c)).max() <= 1e-12 * max(1.0, np.abs(c).max())


def test_rank_one_density_and_normalization():
    v = unit_gauge([3.0, 0.0, 4.0])
    c = 0.7 * np.outer(v, v.conj())
    assert_allclose(density(c), 0.7 * np.abs(v) ** 2, atol=1e-15)
    norm = normalized_density(c)
    assert norm.sum() == pytest.approx(1.0, abs=1e-12)
    assert_allclose(norm, np.abs(v) ** 2, atol=1e-14)
    with pytest.raises(NormalizationError):
        normalized_density(np.zeros((2, 2)))


def test_loading_factors_single_site():
    spec = biorthogonal_decompose(np.array([[0.91]]))
    lf = loading_factors(spec, 1, 0.03)
    assert_allclose(lf, [0.03 / 1.82], rtol=1e-14)


def test_slow_loading_matches_closed_form():
    n, gamma = 12, 0.03
    params = hn_reference_params(n)
    spec = hn_analytic_spectrum(params)
    r = math.sqrt(params.t_right / params.t_left)
    beta1 = spec.betas.real.min()
    for s in range(1, n + 1):
        a1 = loading_factors(spec, s, gamma)[0]
        expected = (gamma * r ** (-2 * s) / (2 * beta1)) * (2.0 / (n + 1)) \
            * math.sin(math.pi * s / (n + 1)) ** 2
        assert a1 == pytest.approx(expected, rel=1e-12)


def test_loading_vanishes_on_sine_node():
    spec = hn_analytic_spectrum(HatanoNelsonParams(3, 1.0, 0.17, 1.5))
    # Mode 2 of a three-site chain has its node exactly on the middle site.
    lf = loading_factors(spec, 2, 0.03)
    assert lf[1] <= 1e-30
    assert lf[0] > 0 and lf[2] > 0


def test_loading_requires_valid_site_strength_stability():
    spec = hn_analytic_spectrum(hn_reference_params(4))
    with pytest.raises(SiteIndexError):
        loading_factors(spec, 5, 0.03)
    with pytest.raises(ParameterError):
        loading_factors(spec, 1, -0.1)
    unstable = hn_analytic_spectrum(HatanoNelsonParams(4, 1.0, 0.17, 0.1))
    with pytest.raises(StabilityError):
        loading_factors(unstable, 1, 0.03)


def test_overflowing_loadings_raise_instead_of_inf():
    # t_right < t_left: the left modes grow as r^-j and |L_n(s)|^2 overflows
    spec = hn_analytic_spectrum(HatanoNelsonParams(500, 0.17, 1.0, 0.91))
    with pytest.raises(EnvelopeOverflowError, match="site 500"):
        loading_factors(spec, 500, 0.03)
    with pytest.raises(EnvelopeOverflowError, match="site 120"):
        hn_source_scan(HatanoNelsonParams(120, 1e-3, 1.0, 0.91), 0.03, sites=[1, 2, 120])


@pytest.mark.parametrize("n", [3, 40])
def test_overflowing_occupations_raise_instead_of_inf(n):
    # C is finite, but its one occupation, n 1e308, is not: by plain eigh at 3
    # sites and by the Rayleigh-Ritz block at 40
    with pytest.raises(EnvelopeOverflowError, match="orbital occupations are not representable"):
        natural_orbitals(1e308 * np.ones((n, n)))


def test_underflowing_scan_column_raises_instead_of_nan():
    # at strength 1e-320 every A1 underflows to 0 while nu_max stays normal
    with pytest.raises(NormalizationError, match="scan column A1 vanishes"):
        hn_source_scan(hn_reference_params(40), 1e-320)


def test_loadings_equal_the_formula_bit_for_bit():
    # every mode from loading_factors, the slow one from the scan's column
    gamma = HN_REFERENCE["pump_strength"]
    for n in range(4, 33, 4):
        params = hn_reference_params(n)
        for spec in (biorthogonal_decompose(build_hatano_nelson(params)),
                     hn_analytic_spectrum(params)):
            for s in range(1, n + 1):
                assert np.array_equal(loading_factors(spec, s, gamma),
                                      loading_reference(spec, s, gamma))
        closed = hn_analytic_spectrum(params)
        slow = identify_slow_mode(closed) - 1
        column = [loading_reference(closed, s, gamma)[slow] for s in range(1, n + 1)]
        assert np.array_equal(hn_source_scan(params, gamma).loading, column)


def test_overlap_trivials_and_gauge_invariance():
    v = unit_gauge([1.0, 1.0j, -2.0])
    assert overlap(v, v) == pytest.approx(1.0, abs=1e-14)
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    assert overlap(e1, e2) == 0.0
    theta = 0.7321
    assert overlap(np.exp(1j * theta) * v, v) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(NormalizationError):
        overlap([1.0, 1.0], e1)
    for bad in (np.nan, np.inf):  # a NaN norm once passed and returned nan
        with pytest.raises(ParameterError, match="^overlap input contains non-finite"):
            overlap([bad, 0.0], e1)
    with pytest.raises(ParameterError):
        overlap(e1, np.array([1.0, 0.0, 0.0]))


def test_identify_slow_mode_cases():
    spec = hn_analytic_spectrum(hn_reference_params(8))
    assert identify_slow_mode(spec) == 1
    single = biorthogonal_decompose(np.array([[2.0]]))
    assert identify_slow_mode(single) == 1
    # Conjugate pair: equal real parts resolve to the first listed, whatever
    # the imaginary parts.
    assert slow_mode_position(np.array([0.5 + 0.3j, 0.5 - 0.3j, 2.0])) == 0
    assert slow_mode_position(np.array([2.0, 0.5 + 0.3j, 0.5 - 0.3j])) == 1


def test_edge_candidate_topological_point_sits_in_window():
    params = SshParams(SSH_REFERENCE["n_cells"], SSH_REFERENCE["t1"], SSH_REFERENCE["t2"],
                       SSH_REFERENCE["g_edge"], SSH_REFERENCE["kappa"])
    spec = biorthogonal_decompose(build_ssh(params))
    cand = identify_edge_candidate(spec, params.kappa)
    assert cand.in_window_count >= 1
    diameter = float(np.abs(spec.betas[:, None] - spec.betas[None, :]).max())
    assert abs(spec.betas[cand.index - 1] - params.kappa) < 0.1 * diameter


def test_edge_candidate_trivial_regime_uses_fallback():
    params = SshParams(8, 1.0, 0.5, 0.0, 1.5)
    spec = biorthogonal_decompose(build_ssh(params))
    cand = identify_edge_candidate(spec, params.kappa)
    assert cand.in_window_count == 0
    dist = np.abs(spec.betas - params.kappa)
    assert cand.index - 1 == int(np.argmin(dist))


def test_edge_candidate_single_mode():
    # one mode takes the general rule: the window around kappa is 0.1 of a
    # zero diameter wide, so the lone rate is in it only at kappa = beta and
    # is the fallback anywhere else
    spec = biorthogonal_decompose(np.array([[1.5]]))
    assert identify_edge_candidate(spec, 1.5) == EdgeCandidate(1, 1, (1,))
    assert identify_edge_candidate(spec, 0.7) == EdgeCandidate(1, 0, (1,))


@pytest.mark.parametrize("n_cells", [100, 200, 350])
def test_reciprocal_edge_overlap_is_that_of_the_even_combination(n_cells):
    # From 100 cells the edge pair ties to rounding.  eigh of the whole H
    # returned the two decoupled boundary states and rounding picked the one
    # at the pump, whose overlap is twice the even combination's: O_edge read
    # 0.616845 here against 0.308423 at 20 and 50 cells.
    params = SshParams(n_cells, SSH_REFERENCE["t1"], SSH_REFERENCE["t2"], 0.0,
                       SSH_REFERENCE["kappa"])
    site = ssh_index(SSH_REFERENCE["pump_cell"], SSH_REFERENCE["pump_sublattice"], n_cells)
    spec, _, report = orbitals._pumped_chain(params, site, SSH_REFERENCE["pump_strength"])
    assert len(report.edge.tied) == 2 and report.edge.index in report.edge.tied
    # the even mode in mpmath, at the digits the recurrence's growth 2^n_cells needs
    even = even_edge_mode_mp(build_ssh(params).entries, params.kappa,
                             40 + math.ceil(n_cells * math.log10(2.0)))
    top = report.orbitals.top_orbital().amplitudes.real
    with mpmath.workdps(30):
        truth = float(mpmath.fdot([mpmath.mpf(a) for a in top], [mpmath.mpf(b) for b in even]) ** 2)
    assert abs(report.overlaps["edge"] - truth) <= 1e-12
    assert report.overlaps["edge"] == pytest.approx(0.3084226, abs=1e-7)


@pytest.mark.parametrize("n_cells,g", [(20, SSH_REFERENCE["g_bulk"]), (100, 0.0), (100, 0.5)])
def test_edge_pick_is_blind_to_the_order_and_last_bits_of_the_tied_rates(n_cells, g):
    params = SshParams(n_cells, SSH_REFERENCE["t1"], SSH_REFERENCE["t2"], g,
                       SSH_REFERENCE["kappa"])
    spec = biorthogonal_decompose(build_ssh(params))
    edge = identify_edge_candidate(spec, params.kappa)
    assert len(edge.tied) == 2
    mode = spec.right_mode_unit(edge.index).amplitudes
    first, second = (k - 1 for k in edge.tied)
    # the pick is the even member, u = Ju
    assert np.array_equal(spec.u[:, edge.index - 1], spec.u[::-1, edge.index - 1])
    for moves in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        betas = spec.betas.copy()
        for k, move in zip((first, second), moves):
            betas[k] = np.nextafter(betas[k], move * np.inf)
        nudged = BiorthogonalSpectrum(betas, spec.u, spec.log_d)
        assert identify_edge_candidate(nudged, params.kappa) == edge
        # with the two members in the other order, the pick follows the even one
        swap = np.arange(spec.dim)
        swap[[first, second]] = swap[[second, first]]
        swapped = BiorthogonalSpectrum(betas[swap], spec.u[:, swap], spec.log_d)
        pick = identify_edge_candidate(swapped, params.kappa)
        assert pick.index - 1 == swap[edge.index - 1] and pick.tied == edge.tied
        assert np.array_equal(swapped.right_mode_unit(pick.index).amplitudes, mode)


def test_source_scan_reference_grid_agrees_with_loading_shape(golden):
    scan = hn_source_scan(hn_reference_params(40), HN_REFERENCE["pump_strength"])
    assert scan.sites.tolist() == list(range(1, 41))
    nu_norm, a1_norm = scan.nu_max / scan.nu_max.max(), scan.loading / scan.loading.max()
    deviation = np.abs(nu_norm - a1_norm)
    assert float(deviation.max()) == pytest.approx(
        golden["hn_locking"]["scan_max_deviation"], abs=1e-9)
    assert int(np.argmax(nu_norm)) == int(np.argmax(a1_norm))


def test_source_scan_reciprocal_symmetry():
    scan = hn_source_scan(HatanoNelsonParams(7, 0.8, 0.8, 2.0), 0.05)
    assert np.abs(scan.nu_max - scan.nu_max[::-1]).max() <= 1e-10
    assert np.abs(scan.loading - scan.loading[::-1]).max() <= 1e-10


def test_source_scan_single_site_is_unity():
    scan = hn_source_scan(HatanoNelsonParams(1, 1.0, 0.17, 0.91), 0.03)
    assert_allclose(scan.nu_max / scan.nu_max.max(), [1.0], rtol=0, atol=0)
    assert_allclose(scan.loading / scan.loading.max(), [1.0], rtol=0, atol=0)


def test_source_scan_across_stack_chunks_matches_per_pump_solves():
    # 120 sites: 9 pumps per stack, so these 21 pump sites (out of order,
    # some repeated) take three stacks, the last one partial.
    params = hn_reference_params(120)
    assert SCAN_CHUNK_ENTRIES // 120 ** 2 == 9
    sites = [120, 3, 60, 3, 1, 77, 119, 2, 45, 60, 90, 10, 11, 12, 13, 14, 15, 16, 17, 100, 1]
    strength = HN_REFERENCE["pump_strength"]
    scan = hn_source_scan(params, strength, sites=sites)
    assert scan.sites.tolist() == sites
    x = build_hatano_nelson(params)
    spectrum = hn_analytic_spectrum(params)
    slow = identify_slow_mode(spectrum) - 1
    eps = np.finfo(float).eps
    for k, site in enumerate(sites):
        c = np.asarray(solve_lyapunov_direct(x, build_local_pump(120, site, strength)).entries)
        assert not c.imag.any()
        nu = scan.nu_max[k]
        # chunking does not reach nu_max: a stack of one pump gives the same
        # bits (BLAS rounds by memory layout, so the real part is made
        # contiguous like the scan's stack) ...
        assert nu == _top_occupations(np.ascontiguousarray(c.real)[None])[0]
        # ... within the dense eigensolver's N eps nu rounding of eigvalsh
        assert abs(np.linalg.eigvalsh(c.real).max() - nu) <= 120 * eps * nu
        assert abs(np.linalg.eigvalsh(c).max() - nu) <= 120 * eps * nu
        assert scan.loading[k] == loading_factors(spectrum, site, strength)[slow]


def test_top_occupations_agree_with_mpmath_on_every_pump():
    # Weakly locked chain (nu_2 / nu_1 up to ~0.7), so the iteration runs
    # longest.  The certificate puts nu_max within eps nu of the Rayleigh
    # quotient; forming C v, the unit v and v'C v from nonnegative data
    # rounds by at most (3 N + 10) eps nu more.
    n = 12
    x = build_hatano_nelson(HatanoNelsonParams(n, 1.0, 0.6, 1.6))
    stack, _ = DirectSolver(x).solve_local(np.arange(1, n + 1), 0.03)
    nu = _top_occupations(stack)
    bound = (1 + 3 * n + 10) * np.finfo(float).eps * nu
    with mpmath.workdps(30):
        truth = [max(mpmath.eigsy(mpmath.matrix(c.tolist()), eigvals_only=True)) for c in stack]
    error = np.array([float(abs(mpmath.mpf(float(a)) - t)) for a, t in zip(nu, truth)])
    assert (error <= bound).all(), (error / nu).max()


def test_top_occupations_fall_back_to_eigvalsh_without_a_certificate(monkeypatch):
    # eye(3) and diag(1, 1, 0.5) have 2 rho <= tr C at every step, so no
    # Kato-Temple bound exists; the chain correlator beside them certifies.
    x = build_hatano_nelson(HatanoNelsonParams(3, 1.0, 0.17, 1.5))
    chain = np.asarray(solve_lyapunov_direct(x, build_local_pump(3, 2, 0.1)).entries).real
    flat = np.diag([1.0, 1.0, 0.5])
    stack = np.stack([chain, np.eye(3), flat])
    seen = []
    dense = np.linalg.eigvalsh

    def recording(a):
        seen.append(a.copy())
        return dense(a)

    monkeypatch.setattr(orbitals.np.linalg, "eigvalsh", recording)
    top = _top_occupations(stack)
    assert len(seen) == 1 and np.array_equal(seen[0], stack[1:])
    assert top[1] == dense(np.eye(3))[-1]
    assert top[2] == dense(flat)[-1]
    assert top[0] == _top_occupations(stack[:1])[0]
    # a NaN never certifies, so it meets eigvalsh's own refusal
    with pytest.raises(np.linalg.LinAlgError):
        _top_occupations(np.stack([chain, np.full((3, 3), np.nan)]))


def test_reference_scan_certifies_every_pump(monkeypatch):
    def refuse(a):
        raise AssertionError("eigvalsh fallback taken")

    monkeypatch.setattr(orbitals.np.linalg, "eigvalsh", refuse)
    scan = hn_source_scan(hn_reference_params(40), HN_REFERENCE["pump_strength"])
    assert scan.nu_max.size == 40


def test_source_scan_memory_is_bounded_by_the_stack_budget():
    # Unchunked, 40 pumps at 200 sites would stack 12.8 MB per array and
    # hold several such arrays at once.
    params = hn_reference_params(200)
    unchunked = 40 * 200 ** 2 * 8
    tracemalloc.start()
    try:
        hn_source_scan(params, HN_REFERENCE["pump_strength"], sites=range(1, 41))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < unchunked


def test_source_scan_validates_sites_and_reports_failures():
    params = hn_reference_params(6)
    with pytest.raises(SiteIndexError):
        hn_source_scan(params, 0.03, sites=[1, 9])
    with pytest.raises(ParameterError):
        hn_source_scan(params, 0.03, sites=[])
    unstable = HatanoNelsonParams(4, 1.0, 0.17, 0.1)
    with pytest.raises(StabilityError, match="pump site 1"):
        hn_source_scan(unstable, 0.03)


def test_source_scan_rejects_non_integer_sites():
    # int() would truncate 2.5 to 2 and solve a pump nobody asked for
    params = HatanoNelsonParams(10, 1.0, 0.17, 0.91)
    with pytest.raises(SiteIndexError, match="pump site 2.5 outside 1..10"):
        build_local_pump(10, 2.5, 0.03)
    with pytest.raises(SiteIndexError, match="pump site 2.5 outside 1..10"):
        hn_source_scan(params, 0.03, sites=[2.5, 3.0])
    scan = hn_source_scan(params, 0.03, sites=[2.0, 3])
    assert scan.sites.tolist() == [2, 3]


def test_crossover_representative_points_order():
    params = SshParams(SSH_REFERENCE["n_cells"], SSH_REFERENCE["t1"], SSH_REFERENCE["t2"], 0.0,
                       SSH_REFERENCE["kappa"])
    scan = ssh_crossover_scan(params, *SSH_PUMP,
                              g_values=[SSH_REFERENCE["g_edge"], 0.0, SSH_REFERENCE["g_bulk"]])
    assert scan.failures == ()
    o_edge, o_slow = scan.o_edge, scan.o_slow
    assert o_edge[0] > o_slow[0]
    assert o_slow[2] > o_edge[2]
    for col in (o_edge, o_slow):
        assert np.all(col >= 0.0) and np.all(col <= 1.0 + 1e-12)
        assert np.all(np.isfinite(col))


@pytest.mark.parametrize("n_cells", [50, 100])
def test_crossover_scan_on_long_chains(n_cells):
    # Every point of the default grid decomposes; the eig route failed on
    # 10 (50 cells) and 14 (100 cells) of the 24.  The edge-to-bulk crossing
    # sits one grid step lower than at 20 cells, in [0.00, 0.05].
    grid = crossover_grid()
    params = SshParams(n_cells, SSH_REFERENCE["t1"], SSH_REFERENCE["t2"], 0.0,
                       SSH_REFERENCE["kappa"])
    scan = ssh_crossover_scan(params, *SSH_PUMP, g_values=grid)
    assert scan.failures == ()
    margin = scan.o_edge - scan.o_slow
    flips = [k for k in range(margin.size - 1) if margin[k] * margin[k + 1] < 0]
    assert len(flips) == 1
    assert_allclose(grid[flips[0]:flips[0] + 2], [0.0, 0.05], atol=1e-12)


def test_crossover_single_point_scan():
    params = SshParams(4, 0.5, 1.0, 0.0, 1.5)
    scan = ssh_crossover_scan(params, 1, "A", 1e-8, g_values=[0.1])
    assert scan.g_values.tolist() == [0.1]
    assert scan.o_edge.size == 1 and scan.o_slow.size == 1


def test_crossover_records_a_g_past_the_double_range_as_a_failure():
    # math.exp(1000) once leaked OverflowError out of the scan, which catches
    # only GausschainError; SshParams now refuses that g by name
    params = SshParams(4, 0.5, 1.0, 0.0, 1.5)
    scan = ssh_crossover_scan(params, 1, "A", 1e-8, g_values=[0.1, 1000.0])
    assert scan.g_values.tolist() == [0.1]
    (g, reason), = scan.failures
    assert g == 1000.0 and reason.startswith("ParameterError: g must keep ")


def test_crossover_keeps_only_points_whose_correlator_is_normal():
    # C is linear in the pump: at 1e-320 all 24 points once came back with
    # overlaps moved by subnormal rounding.  Only the two whose C stays normal
    # remain, equal to the default pump's; the rest name the underflow.
    params = SshParams(SSH_REFERENCE["n_cells"], SSH_REFERENCE["t1"], SSH_REFERENCE["t2"], 0.0,
                       SSH_REFERENCE["kappa"])
    grid = crossover_grid()
    tiny = ssh_crossover_scan(params, *SSH_PUMP[:2], 1e-320, g_values=grid)
    reference = ssh_crossover_scan(params, *SSH_PUMP, g_values=grid)
    assert tiny.g_values.tolist() == reference.g_values[-2:].tolist()
    assert_allclose(tiny.o_edge, reference.o_edge[-2:], rtol=1e-12)
    assert_allclose(tiny.o_slow, reference.o_slow[-2:], rtol=1e-12)
    assert [g for g, _ in tiny.failures] == grid[:-2].tolist()
    assert {reason for _, reason in tiny.failures} == {
        "EnvelopeOverflowError: steady correlator peaks below the smallest normal double: "
        "it underflows double precision"}


def test_crossover_grid_matches_documented_default():
    grid = crossover_grid()
    assert grid.size == 24
    assert grid[0] == pytest.approx(-0.55) and grid[-1] == pytest.approx(0.60)


def test_crossover_rejects_empty_grid_and_bad_pump():
    params = SshParams(4, 0.5, 1.0, 0.0, 1.5)
    with pytest.raises(ParameterError):
        ssh_crossover_scan(params, 1, "A", 1e-8, g_values=[])
    with pytest.raises(SiteIndexError):
        ssh_crossover_scan(params, 9, "A", 1e-8, g_values=[0.0])


def test_pump_scale_invariance_of_diagnostics():
    # C, and with it every occupation, is linear in the pump strength, so
    # the normalized diagnostics and the lock verdict must not move with it
    # on either model.  An absolute tie tolerance once called every orbital
    # dominant, and the state unlocked, at strengths of 1e-11 and below.
    hn = hn_reference_params(10)
    ssh = SshParams(5, SSH_REFERENCE["t1"], SSH_REFERENCE["t2"], SSH_REFERENCE["g_edge"],
                    SSH_REFERENCE["kappa"])
    x_ssh = build_ssh(ssh)
    for params, x, spec, s in [(hn, build_hatano_nelson(hn), hn_analytic_spectrum(hn), 3),
                               (ssh, x_ssh, biorthogonal_decompose(x_ssh), 1)]:
        n = spec.dim

        def run(strength):
            c = solve_lyapunov_direct(x, build_local_pump(n, s, strength))
            return diagnostics_report(spec, c, kappa=params.kappa), \
                loading_factors(spec, s, strength)

        base, base_loadings = run(0.03)
        assert base.orbitals.dominant_indices() == (1,) and base.orbitals.locked
        for strength in 10.0 ** np.arange(-12, 4):
            scaled, scaled_loadings = run(strength)
            assert scaled.orbitals.dominant_indices() == base.orbitals.dominant_indices()
            assert scaled.orbitals.locked == base.orbitals.locked
            assert np.abs(base.density_normalized
                          - scaled.density_normalized).max() <= 1e-10
            # an occupation at the floor (2.255e-15 nu_max on the 5-cell
            # chain, floor 2.265e-15) may fall on either side of it
            k = min(base.orbitals.resolved_count, scaled.orbitals.resolved_count)
            for orbs in (base.orbitals, scaled.orbitals):
                assert np.all(np.abs(orbs.occupations[k:]) <= 2 * orbs.occupation_floor)
            assert np.abs(base.orbitals.occupations_normalized()[:k]
                          - scaled.orbitals.occupations_normalized()[:k]).max() <= 1e-10
            for key in ("slow", "edge"):
                assert abs(base.overlaps[key] - scaled.overlaps[key]) <= 1e-10
            assert overlap(base.orbitals.top_orbital(),
                           scaled.orbitals.top_orbital()) == pytest.approx(1.0, abs=1e-10)
            assert np.abs(base_loadings / base_loadings.max()
                          - scaled_loadings / scaled_loadings.max()).max() <= 1e-10


def test_diagnostics_report_shapes_and_flags():
    n, s = 6, 2
    params = hn_reference_params(n)
    c = solve_lyapunov_direct(build_hatano_nelson(params),
                              build_local_pump(n, s, 0.03))
    spec = hn_analytic_spectrum(params)
    report = diagnostics_report(spec, c, kappa=params.kappa)
    assert report.density_normalized.shape == (n,)
    assert report.density_normalized.sum() == pytest.approx(1.0, abs=1e-12)
    assert report.orbitals.occupations_normalized()[0] == 1.0
    assert set(report.overlaps) == {"slow", "edge"}
    for value in report.overlaps.values():
        assert 0.0 <= value <= 1.0 + 1e-12
    assert report.orbitals.dominant_indices() == (1,)
    assert report.orbitals.locked
    assert report.slow == identify_slow_mode(spec)
    assert np.array_equal(report.slow_mode.amplitudes,
                          spec.right_mode_unit(report.slow).amplitudes)
    assert report.edge == identify_edge_candidate(spec, params.kappa)
    assert report.overlaps["slow"] == overlap(report.slow_mode,
                                              report.orbitals.top_orbital())
    without_kappa = diagnostics_report(spec, c)
    assert without_kappa.edge is None and set(without_kappa.overlaps) == {"slow"}


def sign_blind_outputs(spec, corr, y, site, kappa, phases=None):
    """Every output that reads modes or orbitals, as bytes: the loadings at every
    site, |unit mode|^2, the edge pick, the three mode sums, the overlaps and the
    profile rows; ``phases`` multiply the natural orbitals' columns first."""
    n = spec.dim
    report = diagnostics_report(spec, corr, kappa)
    if phases is not None:
        orbs = report.orbitals
        report = replace(report, orbitals=replace(orbs, orbitals=orbs.orbitals * phases))
    rows = list(profile_rows([str(j) for j in range(n)], report))
    units = [np.abs(spec.right_mode_unit(k).amplitudes) ** 2 for k in range(1, n + 1)]
    sums = (solve_lyapunov_spectral(spec, y).entries,
            closed_form_correlator(spec, y, 0.02 * np.eye(n), 1.3),
            single_mode_approximation(spec, site, 0.03).entries)
    arrays = [_pump_loadings(spec, np.arange(n), 0.03), *units, *sums,
              np.array([row[2:] for row in rows], dtype=float)]
    return ([a.tobytes() for a in arrays], identify_edge_candidate(spec, kappa),
            report.overlaps)


@pytest.mark.parametrize("route", ["closed form", "single-band chain", "two-band chain"])
def test_outputs_are_blind_to_mode_signs_and_orbital_phases(route):
    # the sign of each mode and the phase of each orbital are the
    # eigensolver's; on real inputs a flip of either moves no output bit
    rng = np.random.default_rng(44)
    params = (SshParams(6, 0.5, 1.0, -0.25, 1.5) if route == "two-band chain"
              else hn_reference_params(12))
    x = build_ssh(params) if route == "two-band chain" else build_hatano_nelson(params)
    spec = hn_analytic_spectrum(params) if route == "closed form" else biorthogonal_decompose(x)
    kappa = params.kappa
    n, site = spec.dim, 3
    y = np.asarray(build_local_pump(n, site, 0.03).entries) + 0.01 * np.eye(n)
    corr = solve_lyapunov_direct(x, y)
    signs = rng.choice([-1.0, 1.0], n)
    signs[0] = -1.0  # the slow mode flips
    flipped = BiorthogonalSpectrum(spec.betas, spec.u * signs, spec.log_d)
    width = natural_orbitals(corr).resolved_count
    want = sign_blind_outputs(spec, corr, y, site, kappa)
    assert sign_blind_outputs(flipped, corr, y, site, kappa,
                              rng.choice([-1.0, 1.0], width)) == want
    # complex phases move the orbitals' last bits, so overlaps and profiles
    # agree to rounding
    turned = sign_blind_outputs(flipped, corr, y, site, kappa,
                                np.exp(2j * np.pi * rng.random(width)))
    assert turned[0][:-1] == want[0][:-1] and turned[1] == want[1]
    profiles = [np.frombuffer(out[0][-1]) for out in (turned, want)]
    assert_allclose(*profiles, rtol=8 * EPS, atol=0)
    for key, value in want[2].items():
        assert turned[2][key] == pytest.approx(value, rel=8 * EPS)


def test_dominant_tie_is_flagged_not_resolved():
    c = np.diag([0.5, 0.5, 0.1])
    orbs = natural_orbitals(c)
    assert orbs.dominant_indices() == (1, 2)
    spec = BiorthogonalSpectrum([0.2, 0.9, 1.1], np.eye(3), np.zeros(3))
    report = diagnostics_report(spec, c)
    assert report.orbitals.dominant_indices() == (1, 2)
    assert not report.orbitals.locked


def test_a_gap_above_the_certified_floor_is_locked():
    # two occupations 1e-11 apart lie far outside each other's floor
    orbs = natural_orbitals(np.diag([1.0, 1.0 - 1e-11, 0.1]))
    assert 2 * orbs.occupation_floor < 1e-11
    assert orbs.dominant_indices() == (1,)
    assert orbs.locked


def test_locking_improves_monotonically_with_gap():
    phi = sine_basis(4)
    pump = build_local_pump(4, 2, 0.01)
    previous = -1.0
    for gap in (0.1, 0.3, 0.6, 1.0, 2.0, 4.0):
        rates = [0.1, 0.1 * (1 + gap), 0.6, 1.0]
        x = phi @ np.diag(rates) @ phi.T
        spec = BiorthogonalSpectrum(rates, phi, np.zeros(4))
        lf = loading_factors(spec, 2, 0.01)
        assert int(np.argmax(lf)) == identify_slow_mode(spec) - 1
        c = solve_lyapunov_direct(x, pump)
        o_slow = overlap(spec.right_mode_unit(identify_slow_mode(spec)),
                         natural_orbitals(c).top_orbital())
        assert o_slow >= previous - 1e-12
        previous = o_slow
    assert previous > 0.85


def test_predicted_occupation_error_bounded_by_subleading_loadings():
    # The rank-one prediction is only controlled by the subleading
    # loading weight; the bound is computed first, then asserted.
    params = hn_reference_params(40)
    spec = hn_analytic_spectrum(params)
    lf = loading_factors(spec, HN_REFERENCE["pump_site"], HN_REFERENCE["pump_strength"])
    order = np.argsort(lf)[::-1]
    bound = float((lf / lf.max())[order[1:]].sum())
    c = solve_lyapunov_direct(
        build_hatano_nelson(params),
        build_local_pump(40, HN_REFERENCE["pump_site"], HN_REFERENCE["pump_strength"]))
    exact = float(np.linalg.eigvalsh(c.entries).max())
    pred = np.trace(single_mode_approximation(spec, HN_REFERENCE["pump_site"],
                                              HN_REFERENCE["pump_strength"]).entries)
    assert abs(pred - exact) <= bound * max(pred, exact)
    # With near-orthogonal modes and a wide gap the same bound is sharp.
    phi = sine_basis(4)
    rates = [0.01, 1.0, 1.2, 1.5]
    x = phi @ np.diag(rates) @ phi.T
    gapped = BiorthogonalSpectrum(rates, phi, np.zeros(4))
    lf2 = loading_factors(gapped, 2, 0.005)
    order2 = np.argsort(lf2)[::-1]
    bound2 = float((lf2 / lf2.max())[order2[1:]].sum())
    c2 = solve_lyapunov_direct(x, build_local_pump(4, 2, 0.005))
    exact2 = float(np.linalg.eigvalsh(c2.entries).max())
    pred2 = np.trace(single_mode_approximation(gapped, 2, 0.005).entries)
    assert bound2 < 0.05
    assert abs(pred2 - exact2) <= bound2 * exact2


def test_occupation_separation_at_reference_point(golden):
    params = hn_reference_params(40)
    c = solve_lyapunov_direct(
        build_hatano_nelson(params),
        build_local_pump(40, HN_REFERENCE["pump_site"], HN_REFERENCE["pump_strength"]))
    orbs = natural_orbitals(c)
    tilde = orbs.occupations_normalized()
    assert tilde[1] < 0.5
    assert tilde[1] == pytest.approx(
        golden["hn_locking"]["occupation_second_normalized"], abs=1e-9)
    # Right-edge accumulation of the normalized density.
    assert int(np.argmax(normalized_density(c.entries))) + 1 >= 35


# The long-chain benchmark lattice (perfbench/workloads.py long_lattice),
# rounded to six digits: single-band (t_left, kappa, pump site at 200
# sites) and two-band (g, kappa), pumped at the first site.
LONG_HN = [(0.120247, 0.950819, 39), (0.220350, 1.06711, 156), (0.252701, 1.33857, 114),
           (0.310082, 1.37478, 54), (0.439506, 1.51161, 196), (0.424805, 1.52612, 83),
           (0.568899, 1.74580, 169), (0.587642, 1.84113, 115)]
LONG_SSH = [(0.0117012, 1.71652), (-0.546136, 1.62572), (0.201020, 1.75202),
            (0.185591, 1.86419)]


def long_lattice_correlators(n_sites):
    for t_left, kappa, pump in LONG_HN:
        x = build_hatano_nelson(HatanoNelsonParams(n_sites, 1.0, t_left, kappa))
        yield solve_lyapunov_direct(x, build_local_pump(n_sites, pump * n_sites // 200, 1.0))
    for g, kappa in LONG_SSH:
        x = build_ssh(SshParams(n_sites // 2, SSH_REFERENCE["t1"], SSH_REFERENCE["t2"], g, kappa))
        yield solve_lyapunov_direct(x, build_local_pump(n_sites, 1, 1.0))


def assert_matches_full_eigh(orbs, c):
    """Resolved pairs of ``orbs`` against eigh of all of ``c``, within the floor."""
    w, v = np.linalg.eigh(c)
    w, v = w[::-1], v[:, ::-1]
    floor, k = orbs.occupation_floor, orbs.resolved_count
    # eigh resolves the same occupations: the ones above the floor, and the top
    assert k == max(1, int(np.count_nonzero(np.abs(w) > floor)))
    assert np.abs(orbs.occupations - w[:k]).max() <= floor
    assert abs(np.vdot(orbs.orbitals[:, 0], v[:, 0])) ** 2 >= 1.0 - 1e-14
    gram = orbs.orbitals.conj().T @ orbs.orbitals
    assert np.abs(gram - np.eye(k)).max() <= 1e-13


def test_resolved_occupations_match_the_mpmath_truth_at_40_sites():
    # tools/make_occupation_truth.py: eigsy at 50 digits of the mpmath C
    with open(os.path.join(os.path.dirname(__file__), "data", "occupations_40.json"),
              encoding="utf-8") as fh:
        truth = json.load(fh)
    c = solve_lyapunov_direct(
        build_hatano_nelson(hn_reference_params(40)),
        build_local_pump(40, HN_REFERENCE["pump_site"], HN_REFERENCE["pump_strength"]))
    orbs = natural_orbitals(c)
    assert truth["pump_site"] == HN_REFERENCE["pump_site"]
    assert truth["abs_accuracy"] <= 0.05 * orbs.occupation_floor
    assert orbs.occupation_floor == pytest.approx(
        (c.residual + 4 * 40 * EPS) * orbs.occupations[0], rel=1e-15, abs=0)
    expected = np.asarray(truth["occupations"])
    k = orbs.resolved_count
    # nu_15 = 4.7e-7 is resolved, nu_16 = 4.3e-8 lies below the floor 2.7e-7
    assert k == 15 and orbs.block_width == 32
    assert np.abs(orbs.occupations - expected[:k]).max() <= orbs.occupation_floor
    assert np.all(np.abs(expected[k:]) <= orbs.occupation_floor)


@pytest.mark.parametrize("n_sites", [200, 400])
def test_long_lattice_resolved_pairs_match_full_eigh(n_sites):
    widths = set()
    for corr in long_lattice_correlators(n_sites):
        orbs = natural_orbitals(corr)
        assert orbs.dim == n_sites and 7 <= orbs.resolved_count <= 40
        assert np.all(orbs.occupations > orbs.occupation_floor)
        assert_matches_full_eigh(orbs, np.asarray(corr.entries))
        widths.add(orbs.block_width)
    assert widths == {32, 48}  # the lattice takes the partial solve at both widths


def test_full_rank_correlator_grows_the_block_to_every_pair():
    # the 12-site validate pair, Y = 0.1 I: every occupation is data
    x = build_hatano_nelson(HatanoNelsonParams(12, 1.0, 0.17, 1.5))
    c = solve_lyapunov_direct(x, 0.1 * np.eye(12))
    orbs = natural_orbitals(c)
    assert orbs.resolved_count == orbs.block_width == 12
    assert_matches_full_eigh(orbs, np.asarray(c.entries))
    # a dense random PSD matrix: 32 -> 48 -> 72 -> 108 columns, so all of C
    rng = np.random.default_rng(5)
    a = rng.standard_normal((100, 100))
    orbs = natural_orbitals(a @ a.T)
    assert orbs.resolved_count == orbs.block_width == 100
    assert_matches_full_eigh(orbs, a @ a.T)


def test_block_grows_until_the_trace_is_accounted_for():
    # The 32 start columns of this diagonal C are exact eigenvectors with
    # zero residual; only the trace test sees the 8 occupations outside them.
    c = np.diag(np.concatenate([np.linspace(1.0, 0.5, 40), np.zeros(60)]))
    orbs = natural_orbitals(c)
    assert orbs.block_width == 48 and orbs.resolved_count == 40
    assert_allclose(orbs.occupations, np.linspace(1.0, 0.5, 40), rtol=0, atol=1e-15)


def test_complex_hermitian_correlator_takes_the_partial_solve():
    rng = np.random.default_rng(9)
    z = rng.standard_normal((90, 6)) + 1j * rng.standard_normal((90, 6))
    c = (z * np.logspace(0, -5, 6)) @ z.conj().T
    orbs = natural_orbitals(c)
    assert orbs.block_width == 32 and orbs.resolved_count == 6
    assert orbs.orbitals.dtype == np.complex128 and np.iscomplexobj(c)
    assert_matches_full_eigh(orbs, c)


def test_natural_orbitals_are_bit_reproducible():
    corr = next(long_lattice_correlators(200))
    first, second = natural_orbitals(corr), natural_orbitals(corr)
    assert first.occupations.tobytes() == second.occupations.tobytes()
    assert first.orbitals.tobytes() == second.orbitals.tobytes()
    assert first.occupation_floor == second.occupation_floor
