"""Builders for the chain matrices and pump terms."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from gausschain import (DensityMatrix, HatanoNelsonParams, ParameterError, RelaxationMatrix,
                        SiteIndexError, SourceMatrix, SshParams, SteadyCorrelator,
                        biorthogonal_decompose, build_diagonal_pump, build_hatano_nelson,
                        build_local_pump, build_ssh, density, evolve_master,
                        hn_jump_decomposition, inverse_design, lyapunov_residual,
                        natural_orbitals, normalized_density, propagate_correlator,
                        solve_lyapunov_direct, ssh_index, ssh_labels, steady_state_oracle)
from gausschain.models import PSD_TOL, matrix_entries
from gausschain.steady import DirectSolver


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
    with pytest.raises(ParameterError):
        build_hatano_nelson(HatanoNelsonParams(3, 0.0, 0.17, 1.0))
    with pytest.raises(ParameterError):
        build_hatano_nelson(HatanoNelsonParams(3, 1.0, -0.1, 1.0))


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
    # zero hoppings are a valid parameter point (pure onsite dynamics),
    # but the tight-binding builder insists on actual bonds
    with pytest.raises(ParameterError):
        build_ssh(SshParams(2, 0.0, 1.0, 0.1, 1.0))
    with pytest.raises(ParameterError):
        SshParams(2, 0.5, -1.0, 0.1, 1.0)


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
    # within HERMITICITY_TOL is stored as (Y + Y^dag) / 2.
    y = np.array([[1.0, 0.25 - 0.5j], [0.25 + 0.5j, 2.0]])
    src = SourceMatrix(y)
    assert np.array_equal(src.entries, y) and not src.entries.flags.writeable
    y[0, 0] = 5.0
    assert src.entries[0, 0] == 1.0
    noisy = y.copy()
    noisy[0, 1] += 4e-13
    assert np.array_equal(SourceMatrix(noisy).entries, 0.5 * (noisy + noisy.conj().T))
    noisy[0, 1] += 2e-12
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
    h = inverse_design(x, y).hamiltonian
    jumps = hn_jump_decomposition(params, 0.1)
    zero = np.zeros((3, 3))
    return {
        "RelaxationMatrix": ("relaxation matrix", x, RelaxationMatrix),
        "SourceMatrix": ("source matrix", y, SourceMatrix),
        "SteadyCorrelator": ("correlator", c, lambda m: SteadyCorrelator(m, "direct", 0.0, 0.0)),
        "DirectSolver": ("relaxation matrix", x, DirectSolver),
        "DirectSolver.solve": ("source matrix", y, lambda m: DirectSolver(x).solve(m)),
        "solve_lyapunov_direct": ("source matrix", y, lambda m: solve_lyapunov_direct(x, m)),
        "lyapunov_residual X": ("relaxation matrix", x, lambda m: lyapunov_residual(m, c, y)),
        "lyapunov_residual C": ("correlator", c, lambda m: lyapunov_residual(x, m, y)),
        "lyapunov_residual Y": ("source matrix", y, lambda m: lyapunov_residual(x, c, m)),
        "propagate_correlator X": ("relaxation X", x,
                                   lambda m: propagate_correlator(m, y, zero, 1.0, 0.1)),
        "propagate_correlator Y": ("source Y", y,
                                   lambda m: propagate_correlator(x, m, zero, 1.0, 0.1)),
        "propagate_correlator C0": ("initial state C0", zero,
                                    lambda m: propagate_correlator(x, y, m, 1.0, 0.1)),
        "natural_orbitals": ("correlator", c, natural_orbitals),
        "density": ("correlator", c, density),
        "normalized_density": ("correlator", c, normalized_density),
        "biorthogonal_decompose": ("relaxation matrix", x, biorthogonal_decompose),
        "inverse_design X": ("relaxation matrix", x, lambda m: inverse_design(m, y)),
        "inverse_design Y": ("source matrix", y, lambda m: inverse_design(x, m)),
        "evolve_master": ("one-body Hamiltonian", h,
                          lambda m: evolve_master(DensityMatrix.vacuum(3), m, jumps, 1.0, 0.1)),
        "steady_state_oracle": ("one-body Hamiltonian", h,
                                lambda m: steady_state_oracle(m, jumps)),
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
    with pytest.raises(ParameterError, match=f"^{role} contains non-finite entries$"):
        call(broken)
