"""Biorthogonal spectra: closed forms, numeric decomposition, envelopes."""

import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from gausschain import (DegeneracyError, EnvelopeOverflowError,
                        HatanoNelsonParams, ParameterError, RegimeError,
                        RelaxationMatrix, SiteIndexError, SshParams,
                        biorthogonal_decompose, build_hatano_nelson, build_ssh,
                        hn_analytic_spectrum, hn_normalized_modes, hn_similarity_residual,
                        slow_mode_position, ssh_edge_envelopes)
from gausschain.orbitals import (identify_edge_candidate, identify_slow_mode,
                                 loading_factors)
from gausschain.spectral import _gauge_columns, _gauge_symmetrize
from tests.conftest import (HN_REFERENCE, SSH_REFERENCE, crossover_grid,
                            dense_decompose_reference, dense_hn_spectrum_reference,
                            hn_closed_form_betas, unit_gauge)

EPS = np.finfo(float).eps


def pairing_tolerance(spec):
    """Accuracy bound for <L|R> = 1 and completeness, scaled by conditioning."""
    return 1e-8 * max(1.0, spec.condition_estimate * EPS * spec.dim)


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
    assert spec.condition_estimate == pytest.approx(1.0)


def test_hermitian_input_gives_real_betas_and_equal_mode_families():
    x = build_hatano_nelson(HatanoNelsonParams(6, 0.6, 0.6, 2.0))
    spec = biorthogonal_decompose(x)
    assert np.all(spec.betas.imag == 0.0)
    assert_allclose(spec.left, spec.right, rtol=0, atol=0)
    expected = np.sort(hn_closed_form_betas(6, 0.6, 0.6, 2.0))
    assert_allclose(spec.betas.real, expected, atol=1e-13)
    assert spec.condition_estimate == pytest.approx(1.0, abs=1e-12)


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


def test_biorthonormality_and_completeness_random_matrices():
    rng = np.random.default_rng(7)
    for _ in range(20):
        dim = int(rng.integers(2, 10))
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        spec = biorthogonal_decompose(x)
        tol = pairing_tolerance(spec)
        eye = np.eye(dim)
        assert np.abs(spec.left.conj().T @ spec.right - eye).max() <= tol
        assert np.abs(spec.right @ spec.left.conj().T - eye).max() <= tol
        scale = max(1.0, float(np.abs(x).max()))
        assert np.abs(spec.reconstruct() - x).max() <= tol * scale


def test_eigenvector_residuals_are_small():
    rng = np.random.default_rng(11)
    cases = [np.asarray(build_hatano_nelson(hn_params(n)).entries)
             for n in (2, 5, 12)]
    cases += [rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
              for _ in range(5)]
    for x in cases:
        spec = biorthogonal_decompose(x)
        assert eigenpair_residuals(x, spec).max() <= 1e-8


@pytest.mark.parametrize("g", [-0.55, 0.19, 0.20, 0.6])
def test_long_two_band_chain_takes_the_gauge_route(g):
    # 100 cells: eig on X raises DegeneracyError at three of these points.
    x = np.asarray(build_ssh(ssh_params(100, g)).entries)
    spec = biorthogonal_decompose(x)
    assert np.all(spec.betas.imag == 0.0)
    assert np.abs(spec.left.conj().T @ spec.right - np.eye(spec.dim)).max() <= 1e-12
    resid = eigenpair_residuals(x, spec)
    # The two edge modes are split by about (t1/t2)^100, far below rounding,
    # so eigh returns them with equal rates as the two decoupled boundary
    # states.  D times the one D amplifies more is the right mode to
    # rounding; D times the other is no eigenvector of X, because D
    # magnifies the far-end part that a pure boundary state lacks.  Every
    # other mode, and the edge candidate the diagnostics use, meets the
    # residual bound.
    rates = spec.betas.real
    tied = np.flatnonzero(np.diff(rates) <= 4 * EPS * np.abs(rates).max())
    assert tied.size == 1
    pair = [int(tied[0]), int(tied[0]) + 1]
    assert_allclose(rates[pair], SSH_REFERENCE["kappa"], rtol=0, atol=1e-13)
    assert np.delete(resid, pair).max() <= 1e-8
    edge = identify_edge_candidate(spec, SSH_REFERENCE["kappa"])
    assert edge.index - 1 in pair
    assert resid[edge.index - 1] <= 1e-8


def test_every_same_sign_chain_takes_the_gauge_route():
    # linspace leaves g = -1.1e-16 on the default crossover grid, where X is
    # Hermitian to rounding; it and the exactly reciprocal g = 0 chain take
    # the gauge route like their neighbours, not complex eigh and an SVD
    grid = crossover_grid()
    assert 0 < abs(grid[11]) < 1e-15
    for g in list(grid) + [0.0]:
        x = np.asarray(build_ssh(ssh_params(SSH_REFERENCE["n_cells"], g)).entries)
        log_d, h = _gauge_symmetrize(x)
        spec = biorthogonal_decompose(x)
        assert np.array_equal(spec.betas, np.linalg.eigh(h)[0].astype(complex)), g
        assert np.array_equal(spec.log_d, log_d)
        assert spec.log10_condition == (log_d.max() - log_d.min()) / math.log(10.0)
        if g == 0.0:
            assert spec.log10_condition == 0.0  # U is orthogonal and D = I
    # the rates hold to a few ulps of the largest against 40-digit mpmath
    for g in (grid[11], 0.0):
        x = np.asarray(build_ssh(ssh_params(SSH_REFERENCE["n_cells"], g)).entries).real
        with mpmath.workdps(40):
            h = mpmath.matrix(x.shape[0])
            for j in range(x.shape[0]):
                h[j, j] = x[j, j]
                if j + 1 < x.shape[0]:
                    h[j, j + 1] = h[j + 1, j] = -mpmath.sqrt(
                        mpmath.mpf(x[j + 1, j]) * x[j, j + 1])
            truth = np.array(sorted(float(b) for b in mpmath.eigsy(h, eigvals_only=True)))
        rates = biorthogonal_decompose(x).betas.real
        assert np.abs(rates - truth).max() <= 8 * EPS * np.abs(truth).max()


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
    # Conjugate pairs of a real matrix share their real part to rounding,
    # so the imaginary-part tiebreak is exercised on every run.
    blocks = [np.array([[2.0, -1.0], [1.0, 2.0]]),
              np.array([[1.0, -2.0], [2.0, 1.0]]),
              np.array([[3.0]])]
    x = np.zeros((5, 5))
    pos = 0
    for b in blocks:
        x[pos:pos + b.shape[0], pos:pos + b.shape[0]] = b
        pos += b.shape[0]
    spec = biorthogonal_decompose(x)
    expected = np.array([1 - 2j, 1 + 2j, 2 - 1j, 2 + 1j, 3 + 0j])
    assert_allclose(spec.betas, expected, atol=1e-12)
    for k in (0, 2):
        assert abs(spec.betas[k].real - spec.betas[k + 1].real) <= 1e-13
        assert spec.betas[k].imag < spec.betas[k + 1].imag
    # Re-running the decomposition reproduces the order bit for bit.
    again = biorthogonal_decompose(x)
    assert np.array_equal(again.betas, spec.betas)


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


def test_right_columns_gauge_largest_entry_real_positive():
    rng = np.random.default_rng(31)
    mats = [rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)),
            np.diag([2.0, 1.0, 3.0]) + 0.1j * np.diag([1.0, 1.0, 1.0])]
    herm = rng.standard_normal((4, 4))
    mats.append(herm + herm.T)
    mats.append(build_ssh(ssh_params(5, 0.3)))
    for x in mats:
        spec = biorthogonal_decompose(x)
        for k in range(spec.dim):
            pivot = spec.right[int(np.argmax(np.abs(spec.right[:, k]))), k]
            assert abs(pivot.imag) <= 1e-12 * abs(pivot)
            assert pivot.real > 0


@pytest.mark.parametrize("n", [12, 40, 200])
def test_column_gauge_matches_the_per_column_loop(n):
    # the loop the natural orbitals and the eig route once ran, column by column
    def loop_gauge(m):
        out = m.copy()
        for k in range(m.shape[1]):
            col = m[:, k]
            pivot = col[int(np.argmax(np.abs(col)))]
            out[:, k] = col * (pivot.conjugate() / abs(pivot))
        return out

    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    for m in (np.linalg.eigh(a + a.conj().T)[1][:, ::-1], np.linalg.eig(a)[1],
              np.linalg.eigh(a.real + a.real.T)[1].astype(complex)):
        got, want = _gauge_columns(m), loop_gauge(m)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_near_defective_matrix_raises_degeneracy_error():
    x = np.array([[1.0, 1e6, 0.0],
                  [0.0, 1.0 + 1e-12, 0.0],
                  [0.0, 0.0, 5.0]])
    with pytest.raises(DegeneracyError, match="1 and 2"):
        biorthogonal_decompose(x)


def test_jordan_block_raises_degeneracy_error():
    with pytest.raises(DegeneracyError):
        biorthogonal_decompose(np.array([[2.0, 1.0], [0.0, 2.0]]))


def test_close_rates_with_good_conditioning_are_accepted():
    # Clustered eigenvalues alone are fine; only the ill-conditioned
    # mode matrix turns them into an error.
    x = np.array([[1.0, 0.0, 0.1],
                  [0.0, 1.0 + 1e-12, 0.0],
                  [0.0, 0.0, 5.0]])
    spec = biorthogonal_decompose(x)
    assert spec.condition_estimate < 10.0
    assert np.abs(spec.left.conj().T @ spec.right - np.eye(3)).max() <= 1e-10


def test_condition_estimate_is_envelope_power():
    for tr, tl in [(1.0, 0.17), (0.17, 1.0)]:
        params = HatanoNelsonParams(6, tr, tl, 0.91)
        spec = hn_analytic_spectrum(params)
        r = max(tr / tl, tl / tr) ** 0.5
        assert spec.condition_estimate == pytest.approx(r ** 5, rel=1e-12)
        assert spec.condition_estimate == pytest.approx(
            np.linalg.cond(spec.right), rel=1e-10)
    # The gauge route reports exp(span of log d) = cond_2(D U) without an SVD.
    for g in (SSH_REFERENCE["g_edge"], SSH_REFERENCE["g_bulk"]):
        spec = biorthogonal_decompose(build_ssh(ssh_params(20, g)))
        assert spec.condition_estimate == pytest.approx(
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
        assert spec.condition_estimate == math.inf
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
    """(label, spectrum, dense reference) over the closed form and both routes, 4 to 40 sites."""
    shift = 0.05j  # a uniform imaginary rate shift sends a chain to eig
    for n, cells in ((4, 2), (9, 5), (21, 11), (40, 20)):
        params = hn_params(n)
        yield f"closed {n}", hn_analytic_spectrum(params), dense_hn_spectrum_reference(params)
        # complex Hermitian hoppings have no imaginary gauge, so they take
        # eig; a graded diagonal keeps the mode peaks from tying
        hop = 0.6 * np.exp(0.3j) * np.eye(n, k=-1)
        graded = np.diag(2.0 + 0.05 * np.arange(n))
        chains = {f"hn {n}": build_hatano_nelson(params),
                  f"hn reciprocal {n}": build_hatano_nelson(HatanoNelsonParams(n, 0.6, 0.6, 2.0)),
                  f"hermitian {n}": RelaxationMatrix(graded - hop - hop.conj().T)}
        chains.update({f"ssh {cells} g={g}": build_ssh(ssh_params(cells, g))
                       for g in (SSH_REFERENCE["g_edge"], 0.0, SSH_REFERENCE["g_bulk"])})
        for label, x in chains.items():
            x = np.asarray(x.entries)
            for tag, m in (("", x), (" shifted", x + shift * np.eye(x.shape[0]))):
                yield label + tag, biorthogonal_decompose(m), dense_decompose_reference(m)


def assert_within_ulps(got, want, ulps=4):
    """|got - want| <= ulps eps |want| entrywise, per real and imaginary part.

    eps |x| is the largest ulp at the magnitude of x.  The gauge route's L
    entries differ from the dense formula's by up to two ulps, because it
    divided by exp(log d), and a loading squares that difference.
    """
    for part in (np.real, np.imag):
        g, w = part(got), part(want)
        assert np.all(np.abs(g - w) <= ulps * EPS * np.abs(w))


def tied_peak_flips(got, want):
    """-1 for each column of got (or the one vector) that points against want
    where want's peak is tied to rounding, else +1.

    Where the two largest |entries| of a mode tie (mirror-symmetric
    reciprocal chains), which one gauges the sign is decided by rounding,
    in the dense formulas as in the log domain.
    """
    top = np.sort(np.abs(want), axis=0)[-2:]
    tied = top[1] - top[0] <= 4 * EPS * top[1]
    return np.where(tied & (np.sum(want.conj() * got, axis=0).real < 0), -1.0, 1.0)


def test_scale_free_spectra_agree_with_the_dense_formulas():
    gamma = HN_REFERENCE["pump_strength"]
    routes = set()
    for label, spec, (betas, right, left) in rounding_cases():
        routes.add(("closed" if label.startswith("closed") else
                    "eig" if "shifted" in label or label.startswith("hermitian") else
                    "gauge"))
        assert np.array_equal(spec.betas, betas), label
        flips = tied_peak_flips(spec.right, right)  # each L column flips with its R partner
        assert_within_ulps(spec.right * flips, right)
        assert_within_ulps(spec.left * flips, left)
        rates = 2.0 * betas.real
        for s in range(1, spec.dim + 1):
            assert_within_ulps(loading_factors(spec, s, gamma).values,
                               gamma * np.abs(left[s - 1]) ** 2 / rates)
        for k in range(spec.dim):
            want = unit_gauge(right[:, k])
            got = spec.right_mode_unit(k + 1).amplitudes
            assert np.abs(got * tied_peak_flips(got, want) - want).max() <= 1e-14, label
    assert routes == {"closed", "gauge", "eig"}


def test_normalized_modes_match_analytic_where_both_exist():
    params = hn_params(10)
    spec = hn_analytic_spectrum(params)
    betas, right, left = hn_normalized_modes(params)
    assert_allclose(betas, spec.betas.real, atol=1e-14)
    for k in range(10):
        assert_allclose(right[:, k],
                        unit_gauge(spec.right[:, k]).real,
                        atol=1e-13)
        assert_allclose(left[:, k],
                        unit_gauge(spec.left[:, k]).real,
                        atol=1e-13)


def test_similarity_residual_small_in_range():
    assert hn_similarity_residual(hn_params(12)) <= 1e-9
    assert hn_similarity_residual(HatanoNelsonParams(8, 0.7, 0.7, 2.0)) == 0.0
    assert hn_similarity_residual(hn_params(1)) == 0.0


def test_similarity_residual_envelope_guard():
    params = hn_params(680)
    assert 340 * math.log(params.t_right / params.t_left) > 600
    with pytest.raises(EnvelopeOverflowError):
        hn_similarity_residual(params)


def test_closed_forms_require_strict_hoppings():
    degenerate = HatanoNelsonParams(3, 0.0, 1.0, 2.0)
    for fn in (hn_analytic_spectrum, hn_normalized_modes, hn_similarity_residual):
        with pytest.raises(ParameterError):
            fn(degenerate)


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
    assert slow_mode_position(np.array([3.0, 1.0, 2.0])) == 1
    betas = np.array([0.5 + 1j, 0.5 - 1j, 0.5 - 1j, 2.0])
    assert slow_mode_position(betas) == 1
    # eig can round Re of 0.1 - 0.316j above its conjugate's (by 7e-17 with
    # OpenBLAS); the spectrum lists it first, and so does the slow-mode rule
    spec = biorthogonal_decompose(np.array([[0.1, 0.1], [-1.0, 0.1]]))
    assert spec.betas[0].imag < 0 < spec.betas[1].imag
    assert slow_mode_position(spec.betas) == 0
    assert identify_slow_mode(spec) == 1
    rng = np.random.default_rng(1)
    for dim in rng.integers(2, 7, size=300):
        betas = biorthogonal_decompose(rng.standard_normal((dim, dim))).betas
        assert slow_mode_position(betas) == 0


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
