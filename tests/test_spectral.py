"""Biorthogonal spectra: closed forms, chain decomposition, envelopes."""

import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from gausschain import (EnvelopeOverflowError,
                        HatanoNelsonParams, ParameterError, RegimeError,
                        SiteIndexError, SshParams,
                        biorthogonal_decompose, build_hatano_nelson, build_ssh,
                        hn_analytic_spectrum, hn_normalized_modes, hn_similarity_residual,
                        slow_mode_position, ssh_edge_envelopes)
from gausschain.orbitals import (identify_edge_candidate, identify_slow_mode,
                                 loading_factors)
from gausschain.spectral import _gauge_symmetrize, _mirror_eigh
from tests.conftest import (HN_REFERENCE, SSH_REFERENCE, crossover_grid,
                            dense_hn_spectrum_reference, gauge_eigh_reference, gauge_h_mp,
                            hn_closed_form_betas, similarity_residual_reference, sorted_order,
                            unit_gauge)

EPS = np.finfo(float).eps


def hn_params(n_sites, **overrides):
    cfg = dict(HN_REFERENCE)
    cfg.update(overrides)
    return HatanoNelsonParams(n_sites, cfg["t_right"], cfg["t_left"], cfg["kappa"])


def ssh_params(n_cells, g):
    return SshParams(n_cells, SSH_REFERENCE["t1"], SSH_REFERENCE["t2"], g,
                     SSH_REFERENCE["kappa"])


def eigenpair_residuals(x, spec):
    """||X r_k - beta_k r_k|| / (||X||_2 ||r_k||) for every right mode."""
    r = spec.right
    defect = np.linalg.norm(x @ r - r * spec.betas[None, :], axis=0)
    return defect / (np.linalg.norm(x, 2) * np.linalg.norm(r, axis=0))


def test_single_site_decomposition_is_trivial():
    spec = biorthogonal_decompose(np.array([[0.91]]))
    assert_allclose(spec.betas, [0.91], rtol=0, atol=0)
    assert_allclose(spec.right, [[1.0]], rtol=0, atol=0)
    assert_allclose(spec.left, [[1.0]], rtol=0, atol=0)
    assert spec.log10_condition == 0.0


def test_hermitian_input_gives_real_betas_and_equal_mode_families():
    x = build_hatano_nelson(HatanoNelsonParams(6, 0.6, 0.6, 2.0))
    spec = biorthogonal_decompose(x)
    assert np.all(spec.betas.imag == 0.0)
    assert_allclose(spec.left, spec.right, rtol=0, atol=0)
    expected = np.sort(hn_closed_form_betas(6, 0.6, 0.6, 2.0))
    assert_allclose(spec.betas.real, expected, atol=1e-13)
    assert spec.log10_condition == pytest.approx(0.0, abs=1e-12)


def test_numeric_betas_match_closed_form_n8():
    x = build_hatano_nelson(hn_params(8))
    spec = biorthogonal_decompose(x)
    expected = np.sort(hn_closed_form_betas(8, HN_REFERENCE["t_right"], HN_REFERENCE["t_left"],
                                            HN_REFERENCE["kappa"]))
    assert np.abs(spec.betas.imag).max() <= 1e-10
    assert_allclose(spec.betas.real, expected, atol=1e-10)


def test_dense_long_chain_gets_exact_rates():
    # A plain dense array, no model object: eig on this X returns
    # pseudospectrum (min rate -0.134 against +0.0855).
    x = np.asarray(build_hatano_nelson(hn_params(200)).entries)
    spec = biorthogonal_decompose(x)
    expected = np.sort(hn_closed_form_betas(200, HN_REFERENCE["t_right"],
                                            HN_REFERENCE["t_left"], HN_REFERENCE["kappa"]))
    assert np.all(spec.betas.imag == 0.0)
    assert_allclose(spec.betas.real, expected, rtol=0, atol=1e-13)


def test_slowest_rate_at_reference_parameters():
    # kappa - 2 sqrt(t_R t_L) cos(pi/41) = 0.0878 to the quoted precision.
    spec = hn_analytic_spectrum(hn_params(40))
    beta1 = spec.betas[slow_mode_position(spec.betas)]
    assert beta1.imag == 0.0
    assert beta1.real == pytest.approx(0.0878, abs=5e-5)
    formula = 0.91 - 2.0 * math.sqrt(0.17) * math.cos(math.pi / 41.0)
    assert beta1.real == pytest.approx(formula, abs=1e-15)


def test_two_site_betas_are_kappa_plus_minus_root():
    root = math.sqrt(HN_REFERENCE["t_right"] * HN_REFERENCE["t_left"])
    expected = np.array([HN_REFERENCE["kappa"] - root, HN_REFERENCE["kappa"] + root])
    analytic = hn_analytic_spectrum(hn_params(2))
    assert_allclose(analytic.betas.real, expected, atol=1e-14)
    # Independent route: eigensolve the explicit 2x2 matrix.
    numeric = np.sort(np.linalg.eigvals(
        np.asarray(build_hatano_nelson(hn_params(2)).entries)).real)
    assert_allclose(numeric, expected, atol=1e-12)


def test_eigenvector_residuals_are_small():
    cases = [np.asarray(build_hatano_nelson(hn_params(n)).entries)
             for n in (2, 5, 12)]
    for x in cases:
        spec = biorthogonal_decompose(x)
        assert eigenpair_residuals(x, spec).max() <= 1e-8


@pytest.mark.parametrize("g", [-0.55, 0.19, 0.20, 0.6])
def test_long_two_band_chain_takes_the_gauge_route(g):
    # 100 cells: a dense eig of X finds near-defective modes at three of these points.
    x = np.asarray(build_ssh(ssh_params(100, g)).entries)
    spec = biorthogonal_decompose(x)
    assert np.all(spec.betas.imag == 0.0)
    assert np.abs(spec.left.conj().T @ spec.right - np.eye(spec.dim)).max() <= 1e-12
    # The two edge modes are split by about (t1/t2)^100, far below rounding.
    # eigh of the whole H returned them as the two decoupled boundary states,
    # and D times one of them was no eigenvector of X (residual 0.31-0.37).
    # The mirror sectors return their exact even and odd combinations, one
    # per sector, so every mode meets the bound.
    assert eigenpair_residuals(x, spec).max() <= 1e-8
    rates = spec.betas.real
    tied = np.flatnonzero(np.diff(rates) <= 4 * EPS * np.abs(rates).max())
    assert tied.size == 1
    pair = [int(tied[0]), int(tied[0]) + 1]
    assert_allclose(rates[pair], SSH_REFERENCE["kappa"], rtol=0, atol=1e-13)
    parity = np.sum(spec.u[:, pair] * spec.u[::-1, pair], axis=0)
    assert sorted(parity.round(12)) == [-1.0, 1.0]
    edge = identify_edge_candidate(spec, SSH_REFERENCE["kappa"])
    assert sorted(edge.tied) == [k + 1 for k in pair]
    assert parity[pair.index(edge.index - 1)] > 0  # the even member


def test_every_same_sign_chain_takes_the_gauge_route():
    # linspace leaves g = -1.1e-16 on the default crossover grid, where X is
    # Hermitian to rounding; it and the exactly reciprocal g = 0 chain take
    # the gauge route like their neighbours, not complex eigh and an SVD
    grid = crossover_grid()
    assert 0 < abs(grid[11]) < 1e-15
    for g in list(grid) + [0.0]:
        x = np.asarray(build_ssh(ssh_params(SSH_REFERENCE["n_cells"], g)).entries)
        log_d = _gauge_symmetrize(x)[0]
        spec = biorthogonal_decompose(x)
        # the mirror sectors' rates hold to a few ulps of the largest against
        # eigh of the whole H
        reference = gauge_eigh_reference(x).betas
        assert np.abs(spec.betas - reference).max() <= 8 * EPS * np.abs(reference).max(), g
        assert np.array_equal(spec.log_d, log_d)
        assert spec.log10_condition == (log_d.max() - log_d.min()) / math.log(10.0)
        if g == 0.0:
            assert spec.log10_condition == 0.0  # U is orthogonal and D = I
    # and against 40-digit mpmath
    for g in (grid[11], 0.0):
        x = np.asarray(build_ssh(ssh_params(SSH_REFERENCE["n_cells"], g)).entries).real
        with mpmath.workdps(40):
            truth = np.array(sorted(float(b) for b in mpmath.eigsy(gauge_h_mp(x),
                                                                    eigvals_only=True)))
        rates = biorthogonal_decompose(x).betas.real
        assert np.abs(rates - truth).max() <= 8 * EPS * np.abs(truth).max()


def short_chains():
    """X of the chains of one to four sites, both models, by label."""
    chains = {f"hn {n}": build_hatano_nelson(hn_params(n)) for n in (1, 2, 3, 4)}
    chains["hn reciprocal 3"] = build_hatano_nelson(HatanoNelsonParams(3, 0.6, 0.6, 2.0))
    chains.update({f"ssh {cells} g={g}": build_ssh(ssh_params(cells, g))
                   for cells in (1, 2) for g in (SSH_REFERENCE["g_edge"], 0.0)})
    return {label: np.asarray(x.entries) for label, x in chains.items()}


@pytest.mark.parametrize("label", list(short_chains()))
def test_short_chains_match_mpmath(label):
    # the oracle decomposes 2 to 4 sites; one site is the eigh of a 1 x 1 H,
    # odd orders have a middle site of their own, even orders a middle bond
    x = short_chains()[label]
    n = x.shape[0]
    assert (_mirror_eigh(*_gauge_symmetrize(x)[1:]) is None) == (n == 1)
    spec = biorthogonal_decompose(x)
    with mpmath.workdps(40):
        rates, modes = mpmath.eigsy(gauge_h_mp(x))
        truth = np.array([float(b) for b in rates])
        u = np.array(modes.tolist(), dtype=float)
    order = np.argsort(truth)
    truth, u = truth[order], u[:, order]
    assert np.abs(spec.betas - truth).max() <= 8 * EPS * np.abs(truth).max()
    assert np.abs(aligned(spec.u, u) - u).max() <= 8 * EPS
    assert eigenpair_residuals(x, spec).max() <= 8 * EPS


@pytest.mark.parametrize("n_sites", [2, 6, 12])
def test_analytic_and_numeric_modes_span_same_directions(n_sites):
    params = hn_params(n_sites)
    analytic = hn_analytic_spectrum(params)
    numeric = biorthogonal_decompose(build_hatano_nelson(params))
    assert_allclose(numeric.betas.real, analytic.betas.real, atol=1e-10)
    for k in range(n_sites):
        a = unit_gauge(analytic.right[:, k])
        b = unit_gauge(numeric.right[:, k])
        overlap = abs(np.vdot(a, b)) ** 2
        assert overlap >= 1.0 - 1e-8


def test_analytic_modes_are_exactly_biorthonormal():
    spec = hn_analytic_spectrum(hn_params(9))
    gram = spec.left.conj().T @ spec.right
    assert np.abs(gram - np.eye(9)).max() <= 1e-12


def test_mode_ordering_is_real_then_imaginary_ascending():
    # The order of the dense eig route, kept in tests/conftest.py for the
    # slow-mode rule.  Conjugate pairs of a real matrix share their real
    # part to rounding, so the imaginary-part tiebreak is exercised on every run.
    blocks = [np.array([[2.0, -1.0], [1.0, 2.0]]),
              np.array([[1.0, -2.0], [2.0, 1.0]]),
              np.array([[3.0]])]
    x = np.zeros((5, 5))
    pos = 0
    for b in blocks:
        x[pos:pos + b.shape[0], pos:pos + b.shape[0]] = b
        pos += b.shape[0]
    eigvals = np.linalg.eigvals(x)
    betas = eigvals[sorted_order(eigvals)]
    expected = np.array([1 - 2j, 1 + 2j, 2 - 1j, 2 + 1j, 3 + 0j])
    assert_allclose(betas, expected, atol=1e-12)
    for k in (0, 2):
        assert abs(betas[k].real - betas[k + 1].real) <= 1e-13
        assert betas[k].imag < betas[k + 1].imag
    # Re-running the eigensolve and the sort reproduces the order bit for bit.
    again = np.linalg.eigvals(x)
    assert np.array_equal(again[sorted_order(again)], betas)


def test_all_rates_positive_above_stability_threshold():
    rng = np.random.default_rng(23)
    for _ in range(25):
        tr = float(rng.uniform(0.05, 2.0))
        tl = float(rng.uniform(0.05, 2.0))
        n = int(rng.integers(2, 11))
        kappa = 2.0 * math.sqrt(tr * tl) * float(rng.uniform(1.001, 3.0))
        params = HatanoNelsonParams(n, tr, tl, kappa)
        analytic = hn_analytic_spectrum(params)
        assert analytic.betas.real.min() > 0.0
        numeric = biorthogonal_decompose(build_hatano_nelson(params))
        assert numeric.betas.real.min() > 0.0
        assert_allclose(np.sort(numeric.betas.real),
                        np.sort(analytic.betas.real), atol=1e-10)


NOT_A_CHAIN = re.escape("relaxation matrix is not a chain: biorthogonal_decompose takes real "
                        "tridiagonal X with X[j+1, j] X[j, j+1] > 0 on every bond") + "$"


def refused_matrices():
    """One X of each class the chain route refuses, by label."""
    chain = np.asarray(build_hatano_nelson(hn_params(5)).entries)
    one_way, mixed = chain.copy(), chain.copy()
    one_way[2, 3] = 0.0  # sub != 0, sup = 0 on bond 3
    mixed[2, 3] = -mixed[2, 3]  # sub and sup of opposite signs on bond 3
    rng = np.random.default_rng(41)
    return {
        "dense real": rng.standard_normal((4, 4)) + 4.0 * np.eye(4),
        "complex tridiagonal": chain + 0.05j * np.eye(5),
        "one-way bond": one_way,
        "mixed-sign bond": mixed,
        "Jordan block": np.array([[2.0, 1.0], [0.0, 2.0]]),
        "diagonal": np.diag([0.2, 0.9, 1.1]),
        "diagonal 2x2": np.diag([0.2, 1.0]),
    }


@pytest.mark.parametrize("label", list(refused_matrices()))
def test_decompose_refuses_every_non_chain_by_its_rule(label):
    # a chain is all that is decomposed, and the refusal says what a chain is
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way to the refusal
        with pytest.raises(ParameterError, match=f"^{NOT_A_CHAIN}"):
            biorthogonal_decompose(refused_matrices()[label])


def test_decompose_takes_one_site_and_both_chain_models():
    for x in (np.array([[0.91]]), np.array([[-3.0]]), build_hatano_nelson(hn_params(5)),
              build_hatano_nelson(HatanoNelsonParams(4, 0.6, 0.6, 2.0)),
              build_ssh(ssh_params(3, -0.25)), build_ssh(ssh_params(3, 0.0))):
        spec = biorthogonal_decompose(x)
        assert spec.betas.dtype == spec.u.dtype == spec.log_d.dtype == np.float64
        assert np.all(np.diff(spec.betas) >= 0)
        assert np.abs(spec.u.T @ spec.u - np.eye(spec.dim)).max() <= 1e-14


def test_condition_is_envelope_power():
    for tr, tl in [(1.0, 0.17), (0.17, 1.0)]:
        params = HatanoNelsonParams(6, tr, tl, 0.91)
        spec = hn_analytic_spectrum(params)
        r = max(tr / tl, tl / tr) ** 0.5
        assert 10 ** spec.log10_condition == pytest.approx(r ** 5, rel=1e-12)
        assert 10 ** spec.log10_condition == pytest.approx(
            np.linalg.cond(spec.right), rel=1e-10)
    # The gauge route reports exp(span of log d) = cond_2(D U) without an SVD.
    for g in (SSH_REFERENCE["g_edge"], SSH_REFERENCE["g_bulk"]):
        spec = biorthogonal_decompose(build_ssh(ssh_params(20, g)))
        assert 10 ** spec.log10_condition == pytest.approx(
            np.linalg.cond(spec.right), rel=1e-10)


def test_envelope_overflow_guard_and_normalized_fallback():
    # The guard sits on the dense modes: every spectrum builds, but R = D U
    # and L = D^-1 V are formed only while each d_j, 1/d_j and d_j/d_k is a
    # normal double.  At 800 sites the closed form needs r^-800 = e^-708.8,
    # below the normal range; the centred gauge spans e^+-354.
    params = hn_params(800)
    assert 400 * math.log(params.t_right / params.t_left) > -math.log(np.finfo(float).tiny)
    closed = hn_analytic_spectrum(params)
    for side in ("right", "left"):
        with pytest.raises(EnvelopeOverflowError, match=side):
            getattr(closed, side)
    gauge = biorthogonal_decompose(build_hatano_nelson(params))
    assert np.abs(gauge.left.conj().T @ gauge.right - np.eye(800)).max() <= 1e-12
    for spec in (hn_analytic_spectrum(hn_params(1000)),
                 biorthogonal_decompose(build_hatano_nelson(hn_params(1000)))):
        for side in ("right", "left"):
            with pytest.raises(EnvelopeOverflowError, match=side):
                getattr(spec, side)
    betas, right, left = hn_normalized_modes(params)
    assert np.all(np.isfinite(right)) and np.all(np.isfinite(left))
    assert_allclose(np.linalg.norm(right, axis=0), np.ones(800), atol=1e-12)
    assert_allclose(np.linalg.norm(left, axis=0), np.ones(800), atol=1e-12)
    expected = hn_closed_form_betas(800, params.t_right, params.t_left, params.kappa)
    assert_allclose(betas, expected, rtol=0, atol=0)


@pytest.fixture(scope="module")
def long_spectra():
    """The chains whose spectra raised EnvelopeOverflowError before the
    scale-free representation: 1000 reference sites by both single-band
    routes, and 500 two-band cells at g = 0.75 (gauge span about 749)."""
    params = hn_params(1000)
    return {"closed": hn_analytic_spectrum(params),
            "gauge": biorthogonal_decompose(build_hatano_nelson(params)),
            "ssh": biorthogonal_decompose(build_ssh(ssh_params(500, 0.75)))}


def test_long_chain_spectra_build_without_dense_modes(long_spectra):
    closed, gauge, ssh = long_spectra["closed"], long_spectra["gauge"], long_spectra["ssh"]
    assert np.array_equal(closed.betas.real, hn_closed_form_betas(
        1000, HN_REFERENCE["t_right"], HN_REFERENCE["t_left"], HN_REFERENCE["kappa"]))
    assert_allclose(gauge.betas.real, np.sort(closed.betas.real), rtol=0, atol=1e-13)
    assert 745 < ssh.log_d.max() - ssh.log_d.min() < 755
    for spec in long_spectra.values():
        assert np.all(spec.betas.imag == 0.0)
        assert spec.log10_condition > math.log10(np.finfo(float).max)
        for side in ("right", "left"):
            with pytest.raises(EnvelopeOverflowError, match=side):
                getattr(spec, side)
        for n in (identify_slow_mode(spec), spec.dim):
            unit = spec.right_mode_unit(n).amplitudes
            assert np.isfinite(unit).all()
            assert np.linalg.norm(unit) == pytest.approx(1.0, abs=1e-14)
    edge = identify_edge_candidate(ssh, SSH_REFERENCE["kappa"])
    assert edge.in_window_count > 0 and not edge.used_fallback


def test_long_chain_slow_mode_matches_mpmath(long_spectra):
    # R_1(j) = r^j sin(pi j / (N+1)), normalized in mpmath at 30 digits
    n = 1000
    with mpmath.workdps(30):
        r = mpmath.sqrt(mpmath.mpf(HN_REFERENCE["t_right"]) / HN_REFERENCE["t_left"])
        profile = [r ** j * mpmath.sin(mpmath.pi * j / (n + 1)) for j in range(1, n + 1)]
        norm = mpmath.sqrt(mpmath.fsum(v * v for v in profile))
        truth = np.array([float(v / norm) for v in profile])
    for route in ("closed", "gauge"):
        spec = long_spectra[route]
        unit = spec.right_mode_unit(identify_slow_mode(spec)).amplitudes
        assert np.abs(unit - truth).max() <= 1e-12


@pytest.mark.parametrize("n", [200, 1000])
def test_sine_basis_is_within_a_few_ulps_of_mpmath(n):
    # sin(pi j m / (N+1)) at arguments up to N pi was off by about N ulps
    # (440 units at 200 sites, 2254 at 1000); 1000 sampled entries and the
    # far 10 x 10 corner, where j m is largest, against 40-digit mpmath
    u = hn_analytic_spectrum(hn_params(n)).u
    rng = np.random.default_rng(n)
    corner = np.arange(n - 10, n)
    rows = np.concatenate([rng.integers(0, n, 1000), np.repeat(corner, 10)])
    cols = np.concatenate([rng.integers(0, n, 1000), np.tile(corner, 10)])
    with mpmath.workdps(40):
        norm = mpmath.sqrt(mpmath.mpf(2) / (n + 1))
        truth = np.array([float(norm * mpmath.sin(mpmath.pi * int(j + 1) * int(m + 1) / (n + 1)))
                          for j, m in zip(rows, cols)])
    # phi_m(1) > 0 for every mode, so row 1 carries each column's sign gauge
    got = u[rows, cols] * np.sign(u[0, cols])
    assert np.abs(got - truth).max() <= 8 * EPS * math.sqrt(2.0 / (n + 1))


def test_long_chain_loadings_are_finite(long_spectra):
    closed = long_spectra["closed"]
    gamma, s = HN_REFERENCE["pump_strength"], HN_REFERENCE["pump_site"]
    values = loading_factors(closed, s, gamma).values
    assert np.isfinite(values).all() and values.min() >= 0
    r = math.sqrt(HN_REFERENCE["t_right"] / HN_REFERENCE["t_left"])
    phi = math.sqrt(2.0 / 1001) * math.sin(math.pi * s / 1001)
    beta1 = closed.betas.real.min()
    assert values[0] == pytest.approx(gamma * (r ** -s * phi) ** 2 / (2 * beta1), rel=1e-12)


def rounding_cases():
    """(label, spectrum, reference rates, dense (R, L)) over the closed form and the chain
    route, 4 to 40 sites.

    The closed form's references are its dense formulas.  The chain route's
    rates are eigh's of the whole H, and its dense R = D U and L = U / D are
    formed from its own (U, log d): eigh gives U only to eps ||H|| over each
    mode's gap, which the 11-cell edge pair (gap 5e-4) makes 1800 ulps.
    """
    for n, cells in ((4, 2), (9, 5), (21, 11), (40, 20)):
        params = hn_params(n)
        betas, right, left = dense_hn_spectrum_reference(params)
        yield f"closed {n}", hn_analytic_spectrum(params), betas, (right, left)
        chains = {f"hn {n}": build_hatano_nelson(params),
                  f"hn reciprocal {n}": build_hatano_nelson(HatanoNelsonParams(n, 0.6, 0.6, 2.0))}
        chains.update({f"ssh {cells} g={g}": build_ssh(ssh_params(cells, g))
                       for g in (SSH_REFERENCE["g_edge"], 0.0, SSH_REFERENCE["g_bulk"])})
        for label, x in chains.items():
            x = np.asarray(x.entries)
            spec = biorthogonal_decompose(x)
            d = np.exp(spec.log_d)[:, None]
            yield label, spec, gauge_eigh_reference(x).betas, (d * spec.u, spec.u / d)


def assert_within_ulps(got, want, ulps=4):
    """|got - want| <= ulps eps |want| entrywise, per real and imaginary part.

    eps |x| is the largest ulp at the magnitude of x.  The gauge route's L
    entries differ from the dense formula's by up to two ulps, because it
    divided by exp(log d), and a loading squares that difference.
    """
    for part in (np.real, np.imag):
        g, w = part(got), part(want)
        assert np.all(np.abs(g - w) <= ulps * EPS * np.abs(w))


def aligned(got, want):
    """got with each column (or the one vector) negated where it points against
    want: spectra and unit modes are defined up to the sign of each mode."""
    return got * np.where(np.sum(want.conj() * got, axis=0).real < 0, -1.0, 1.0)


def test_scale_free_spectra_agree_with_the_dense_formulas():
    gamma = HN_REFERENCE["pump_strength"]
    routes = set()
    for label, spec, betas, (right, left) in rounding_cases():
        routes.add("closed" if label.startswith("closed") else "gauge")
        if label.startswith("closed"):
            assert np.array_equal(spec.betas, betas), label
        else:
            assert np.abs(spec.betas - betas).max() <= 8 * EPS * np.abs(betas).max(), label
        assert_within_ulps(aligned(spec.right, right), right)
        # each L column has the sign of its R partner
        assert_within_ulps(aligned(spec.left, right), left)
        rates = 2.0 * spec.betas
        for s in range(1, spec.dim + 1):
            assert_within_ulps(loading_factors(spec, s, gamma).values,
                               gamma * np.abs(left[s - 1]) ** 2 / rates)
        for k in range(spec.dim):
            want = unit_gauge(right[:, k])
            got = spec.right_mode_unit(k + 1).amplitudes
            assert np.abs(aligned(got, want) - want).max() <= 1e-14, label
    assert routes == {"closed", "gauge"}


def test_normalized_modes_match_analytic_where_both_exist():
    params = hn_params(10)
    spec = hn_analytic_spectrum(params)
    betas, right, left = hn_normalized_modes(params)
    assert_allclose(betas, spec.betas.real, atol=1e-14)
    for k in range(10):
        want_right = unit_gauge(spec.right[:, k]).real
        want_left = unit_gauge(spec.left[:, k]).real
        assert_allclose(aligned(right[:, k], want_right), want_right, atol=1e-13)
        assert_allclose(aligned(left[:, k], want_left), want_left, atol=1e-13)


def test_similarity_residual_small_in_range():
    assert hn_similarity_residual(hn_params(12)) <= 1e-9
    assert hn_similarity_residual(HatanoNelsonParams(8, 0.7, 0.7, 2.0)) == 0.0
    assert hn_similarity_residual(hn_params(1)) == 0.0


def test_similarity_residual_at_any_chain_length():
    # S = diag(r^j) spans 1e261 at 680 sites and overflows at 900; the
    # defect is read off the bands of S^-1 X S, which never form it
    for n in (680, 900):
        assert hn_similarity_residual(hn_params(n)) <= 2.3e-16


def test_similarity_residual_of_the_bonds_is_that_of_the_dense_x_bit_for_bit():
    # the defect was read off the bands of a dense N x N X; it reads the bond table
    rng = np.random.default_rng(40)
    for _ in range(600):
        n = int(rng.integers(1, 301))
        t_right, t_left = 10.0 ** rng.uniform(-150, 150, 2)
        params = HatanoNelsonParams(n, t_right, t_left, 1.0)
        assert hn_similarity_residual(params) == similarity_residual_reference(params)


@pytest.mark.parametrize("power", [-1000, -520, -2, 2, 520, 1000])
def test_closed_form_of_a_chain_times_a_power_of_two_is_its_own(power):
    # log r was log t_right - log t_left, which rounds the two logs of a
    # scaled chain apart: at 2^520 it read ...267 against ...376 unscaled
    base = hn_params(12)
    factor = 2.0 ** power
    scaled = HatanoNelsonParams(12, base.t_right * factor, base.t_left * factor,
                                base.kappa * factor)
    assert np.array_equal(hn_analytic_spectrum(scaled).log_d, hn_analytic_spectrum(base).log_d)
    # t_right in [1, 2) keeps log t_right - log t_left, the correctly rounded log r here
    assert hn_analytic_spectrum(base).log_d[0] == 0.5 * (math.log(base.t_right)
                                                        - math.log(base.t_left))


def test_log_ratio_of_hoppings_at_the_ends_of_the_double_range():
    # t_right / t_left overflows or underflows here; log r is read off the exponents
    for t_right, t_left in ((1e300, 1e-300), (1e-300, 1e300), (1.7e308, 5e-324)):
        log_d = hn_analytic_spectrum(HatanoNelsonParams(2, t_right, t_left, 1.0)).log_d
        want = float(mpmath.log(mpmath.mpf(t_right) / mpmath.mpf(t_left)) / 2)
        assert log_d[0] == pytest.approx(want, rel=4 * np.finfo(float).eps)


def test_closed_forms_require_strict_hoppings():
    # the parameter set refuses a zero hopping, so no closed form sees one
    with pytest.raises(ParameterError, match="^t_right must be positive, got 0.0$"):
        HatanoNelsonParams(3, 0.0, 1.0, 2.0)


def test_ssh_edge_envelope_ratios_reciprocal_point():
    right, left = ssh_edge_envelopes(SshParams(6, 0.5, 1.0, 0.0, 1.5))
    assert_allclose(right.amplitudes, left.amplitudes, rtol=0, atol=0)
    a = right.amplitudes[0::2].real
    assert_allclose(a[1:] / a[:-1], np.full(5, -0.5), atol=1e-14)
    assert np.all(right.amplitudes[1::2] == 0.0)
    assert np.linalg.norm(right.amplitudes) == pytest.approx(1.0, abs=1e-14)


def test_ssh_edge_envelope_ratios_nonreciprocal_point():
    right, left = ssh_edge_envelopes(SshParams(6, 0.5, 1.0, 0.2, 1.5))
    a_r = right.amplitudes[0::2].real
    a_l = left.amplitudes[0::2].real
    assert_allclose(a_r[1:] / a_r[:-1], np.full(5, -0.5 * math.exp(0.4)),
                    atol=1e-13)
    assert_allclose(a_l[1:] / a_l[:-1], np.full(5, -0.5 * math.exp(-0.4)),
                    atol=1e-13)


def test_ssh_edge_envelope_single_cell():
    right, left = ssh_edge_envelopes(SshParams(1, 0.5, 1.0, 0.3, 1.5))
    assert_allclose(right.amplitudes, [1.0, 0.0], rtol=0, atol=0)
    assert_allclose(left.amplitudes, [1.0, 0.0], rtol=0, atol=0)


def test_ssh_edge_envelope_extreme_g_stays_finite():
    right, left = ssh_edge_envelopes(SshParams(400, 0.5, 1.0, 3.0, 1.5))
    for mv in (right, left):
        assert np.all(np.isfinite(mv.amplitudes.real))
        assert np.linalg.norm(mv.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_ssh_edge_envelope_regime_and_parameter_errors():
    with pytest.raises(RegimeError):
        ssh_edge_envelopes(SshParams(4, 1.0, 1.0, 0.0, 1.5))
    with pytest.raises(RegimeError):
        ssh_edge_envelopes(SshParams(4, 2.0, 1.0, 0.0, 1.5))
    with pytest.raises(ParameterError):
        ssh_edge_envelopes(SshParams(4, 0.0, 1.0, 0.0, 1.5))


def test_slow_mode_position_breaks_ties_deterministically():
    # the least real part, the first of exact ties whatever the imaginary parts
    assert slow_mode_position(np.array([3.0, 1.0, 2.0])) == 1
    assert slow_mode_position(np.array([0.5 + 1j, 0.5 - 1j, 0.5 - 1j, 2.0])) == 0
    assert slow_mode_position(np.array([2.0, 0.5 - 1j, 0.5 + 1j])) == 1
    assert slow_mode_position(np.array([2.0, 0.5, 0.5])) == 1
    # one ulp is no tie: the lesser rate wins wherever it sits
    assert slow_mode_position(np.array([np.nextafter(0.5, 1.0), 0.5])) == 1
    # every spectrum built here ascends, so its slow mode is the first, also
    # as the complex copy of its rates
    for spec in (hn_analytic_spectrum(hn_params(40)),
                 biorthogonal_decompose(build_hatano_nelson(hn_params(40))),
                 biorthogonal_decompose(build_hatano_nelson(HatanoNelsonParams(7, 0.6, 0.6, 2.0))),
                 *(biorthogonal_decompose(build_ssh(ssh_params(20, g)))
                   for g in (SSH_REFERENCE["g_edge"], 0.0, SSH_REFERENCE["g_bulk"]))):
        assert slow_mode_position(spec.betas) == 0
        assert slow_mode_position(spec.betas.astype(complex)) == 0


def test_mode_accessors_and_index_errors():
    spec = hn_analytic_spectrum(hn_params(4))
    for n in range(1, 5):
        pair = np.vdot(spec.left[:, n - 1], spec.right[:, n - 1])
        assert pair == pytest.approx(1.0, abs=1e-12)
        unit = spec.right_mode_unit(n)
        assert np.linalg.norm(unit.amplitudes) == pytest.approx(1.0, abs=1e-14)
        assert unit.normalization == "euclidean"
    for bad in (0, 5, -1, 2.5):
        with pytest.raises(SiteIndexError):
            spec.right_mode_unit(bad)


def test_decompose_rejects_nonsquare_input():
    with pytest.raises(ParameterError):
        biorthogonal_decompose(np.ones((2, 3)))
