"""Natural orbitals, locking diagnostics, and the two production scans."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from gausschain import (EnvelopeOverflowError, HatanoNelsonParams, NormalizationError,
                        ParameterError, SiteIndexError, SshParams, StabilityError,
                        biorthogonal_decompose, build_hatano_nelson,
                        build_local_pump, build_ssh, diagnostics_report,
                        hn_analytic_spectrum,
                        hn_source_scan, identify_edge_candidate,
                        identify_slow_mode, loading_factors, natural_orbitals,
                        normalized_density, overlap, single_mode_approximation,
                        solve_lyapunov_direct, ssh_crossover_scan)
from gausschain import orbitals
from gausschain.orbitals import SCAN_CHUNK_ENTRIES, _top_occupations, density
from gausschain.steady import DirectSolver
from tests.conftest import (HN_REFERENCE, SSH_REFERENCE, crossover_grid, loading_reference,
                            unit_gauge)

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
    v = unit_gauge([1.0, 2.0, -1.0, 0.5])
    orbs = natural_orbitals(4.2 * np.outer(v, v.conj()))
    assert_allclose(orbs.occupations, [4.2, 0.0, 0.0, 0.0], atol=1e-12)
    assert overlap(orbs.top_orbital(), v) == pytest.approx(1.0, abs=1e-12)


def test_zero_correlator_has_zero_occupations():
    orbs = natural_orbitals(np.zeros((3, 3)))
    assert_allclose(orbs.occupations, np.zeros(3), rtol=0, atol=0)
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
    assert_allclose(lf.values, [0.03 / 1.82], rtol=1e-14)
    assert_allclose(lf.normalized, [1.0], rtol=0, atol=0)


def test_slow_loading_matches_closed_form():
    n, gamma = 12, 0.03
    params = hn_reference_params(n)
    spec = hn_analytic_spectrum(params)
    r = math.sqrt(params.t_right / params.t_left)
    beta1 = spec.betas.real.min()
    for s in range(1, n + 1):
        a1 = loading_factors(spec, s, gamma).values[0]
        expected = (gamma * r ** (-2 * s) / (2 * beta1)) * (2.0 / (n + 1)) \
            * math.sin(math.pi * s / (n + 1)) ** 2
        assert a1 == pytest.approx(expected, rel=1e-12)


def test_loading_vanishes_on_sine_node():
    spec = hn_analytic_spectrum(HatanoNelsonParams(3, 1.0, 0.17, 1.5))
    # Mode 2 of a three-site chain has its node exactly on the middle site.
    lf = loading_factors(spec, 2, 0.03)
    assert lf.values[1] <= 1e-30
    assert lf.values[0] > 0 and lf.values[2] > 0


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


def test_loadings_equal_the_formula_bit_for_bit():
    # every mode from loading_factors, the slow one from the scan's column
    gamma = HN_REFERENCE["pump_strength"]
    for n in range(4, 33, 4):
        params = hn_reference_params(n)
        for spec in (biorthogonal_decompose(build_hatano_nelson(params)),
                     hn_analytic_spectrum(params)):
            for s in range(1, n + 1):
                assert np.array_equal(loading_factors(spec, s, gamma).values,
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
        with pytest.raises(NormalizationError, match="unit-normalized"):
            overlap([bad, 0.0], e1)
    with pytest.raises(ParameterError):
        overlap(e1, np.array([1.0, 0.0, 0.0]))


def test_identify_slow_mode_cases():
    spec = hn_analytic_spectrum(hn_reference_params(8))
    assert identify_slow_mode(spec) == 1
    single = biorthogonal_decompose(np.array([[2.0]]))
    assert identify_slow_mode(single) == 1
    # Conjugate pair: equal real parts resolve by the smaller imaginary part.
    x = np.zeros((3, 3))
    x[:2, :2] = [[0.5, -0.3], [0.3, 0.5]]
    x[2, 2] = 2.0
    assert identify_slow_mode(biorthogonal_decompose(x)) == 1


def test_edge_candidate_topological_point_sits_in_window():
    params = SshParams(SSH_REFERENCE["n_cells"], SSH_REFERENCE["t1"], SSH_REFERENCE["t2"],
                       SSH_REFERENCE["g_edge"], SSH_REFERENCE["kappa"])
    spec = biorthogonal_decompose(build_ssh(params))
    cand = identify_edge_candidate(spec, params.kappa)
    assert not cand.used_fallback
    assert cand.in_window_count >= 1
    diameter = float(np.abs(spec.betas[:, None] - spec.betas[None, :]).max())
    assert abs(spec.betas[cand.index - 1] - params.kappa) < 0.1 * diameter


def test_edge_candidate_trivial_regime_uses_fallback():
    params = SshParams(8, 1.0, 0.5, 0.0, 1.5)
    spec = biorthogonal_decompose(build_ssh(params))
    cand = identify_edge_candidate(spec, params.kappa)
    assert cand.used_fallback
    assert cand.in_window_count == 0
    dist = np.abs(spec.betas - params.kappa)
    assert cand.index - 1 == int(np.argmin(dist))


def test_edge_candidate_single_mode():
    spec = biorthogonal_decompose(np.array([[1.5]]))
    cand = identify_edge_candidate(spec, 1.5)
    assert cand.index == 1
    assert not cand.used_fallback


def test_source_scan_reference_grid_agrees_with_loading_shape(golden):
    scan = hn_source_scan(hn_reference_params(40), HN_REFERENCE["pump_strength"])
    assert scan.sites.tolist() == list(range(1, 41))
    deviation = np.abs(scan.nu_max_normalized - scan.loading_normalized)
    assert float(deviation.max()) == pytest.approx(
        golden["hn_locking"]["scan_max_deviation"], abs=1e-9)
    assert int(np.argmax(scan.nu_max_normalized)) == int(
        np.argmax(scan.loading_normalized))


def test_source_scan_reciprocal_symmetry():
    scan = hn_source_scan(HatanoNelsonParams(7, 0.8, 0.8, 2.0), 0.05)
    assert np.abs(scan.nu_max - scan.nu_max[::-1]).max() <= 1e-10
    assert np.abs(scan.loading - scan.loading[::-1]).max() <= 1e-10


def test_source_scan_single_site_is_unity():
    scan = hn_source_scan(HatanoNelsonParams(1, 1.0, 0.17, 0.91), 0.03)
    assert_allclose(scan.nu_max_normalized, [1.0], rtol=0, atol=0)
    assert_allclose(scan.loading_normalized, [1.0], rtol=0, atol=0)


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
        assert scan.loading[k] == loading_factors(spectrum, site, strength).values[slow]


def test_top_occupations_agree_with_mpmath_on_every_pump():
    # Weakly locked chain (nu_2 / nu_1 up to ~0.7), so the iteration runs
    # longest.  The certificate puts nu_max within eps nu of the Rayleigh
    # quotient; forming C v, the unit v and v'C v from nonnegative data
    # rounds by at most (3 N + 10) eps nu more.
    n = 12
    x = build_hatano_nelson(HatanoNelsonParams(n, 1.0, 0.6, 1.6))
    pumps = np.zeros((n, n, n))
    pumps[np.arange(n), np.arange(n), np.arange(n)] = 0.03
    stack, _ = DirectSolver(x).solve_many(pumps)
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
            assert np.abs(base.orbitals.occupations_normalized()
                          - scaled.orbitals.occupations_normalized()).max() <= 1e-10
            for key in ("slow", "edge"):
                assert abs(base.overlaps[key] - scaled.overlaps[key]) <= 1e-10
            assert overlap(base.orbitals.top_orbital(),
                           scaled.orbitals.top_orbital()) == pytest.approx(1.0, abs=1e-10)
            assert np.abs(base_loadings.normalized
                          - scaled_loadings.normalized).max() <= 1e-10


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


def test_dominant_tie_is_flagged_not_resolved():
    c = np.diag([0.5, 0.5, 0.1])
    orbs = natural_orbitals(c)
    assert orbs.dominant_indices() == (1, 2)
    spec = biorthogonal_decompose(np.diag([0.2, 0.9, 1.1]))
    report = diagnostics_report(spec, c)
    assert report.orbitals.dominant_indices() == (1, 2)
    assert not report.orbitals.locked


def test_locking_improves_monotonically_with_gap():
    phi = sine_basis(4)
    pump = build_local_pump(4, 2, 0.01)
    previous = -1.0
    for gap in (0.1, 0.3, 0.6, 1.0, 2.0, 4.0):
        x = phi @ np.diag([0.1, 0.1 * (1 + gap), 0.6, 1.0]) @ phi.T
        spec = biorthogonal_decompose(x)
        lf = loading_factors(spec, 2, 0.01)
        assert int(np.argmax(lf.values)) == identify_slow_mode(spec) - 1
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
    order = np.argsort(lf.values)[::-1]
    bound = float(lf.normalized[order[1:]].sum())
    c = solve_lyapunov_direct(
        build_hatano_nelson(params),
        build_local_pump(40, HN_REFERENCE["pump_site"], HN_REFERENCE["pump_strength"]))
    exact = float(np.linalg.eigvalsh(c.entries).max())
    pred = single_mode_approximation(spec, HN_REFERENCE["pump_site"],
                                     HN_REFERENCE["pump_strength"]).predicted_occupation
    assert abs(pred - exact) <= bound * max(pred, exact)
    # With near-orthogonal modes and a wide gap the same bound is sharp.
    phi = sine_basis(4)
    x = phi @ np.diag([0.01, 1.0, 1.2, 1.5]) @ phi.T
    gapped = biorthogonal_decompose(x)
    lf2 = loading_factors(gapped, 2, 0.005)
    order2 = np.argsort(lf2.values)[::-1]
    bound2 = float(lf2.normalized[order2[1:]].sum())
    c2 = solve_lyapunov_direct(x, build_local_pump(4, 2, 0.005))
    exact2 = float(np.linalg.eigvalsh(c2.entries).max())
    pred2 = single_mode_approximation(gapped, 2, 0.005).predicted_occupation
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
