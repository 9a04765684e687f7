"""Tests for the dense many-body master-equation oracle."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gausschain import (
    DensityMatrix,
    HatanoNelsonParams,
    JumpSet,
    JumpVector,
    ParameterError,
    ScaleError,
    SshParams,
    StabilityError,
    build_hatano_nelson,
    build_ssh,
    correlator_of,
    evolve_master,
    hn_jump_decomposition,
    inverse_design,
    propagate_correlator,
    solve_lyapunov_direct,
    ssh_jump_decomposition,
    steady_state_oracle,
)
from gausschain import manybody
from gausschain.manybody import (MAX_ORACLE_SITES, FockOperatorSet, _block_generator,
                                 _checked_states, _liouvillian_parts, operator_set)
from gausschain.models import matrix_entries
from gausschain.steady import _sample_grid
from tests.conftest import (block_generator_reference, complex_steady_state_reference,
                            correlator_reference, least_eigenvalue_reference, pure_state)

# (matrix, error match) pairs that DensityMatrix must reject
BAD_MATRICES = [
    (np.zeros((2, 3)), "square"),
    (np.eye(3) / 3.0, "2\\^N"),
    (np.array([[0.5, 0.1], [0.0, 0.5]]), "Hermitian"),
    (0.6 * np.eye(2), "trace"),
    (np.diag([1.5, -0.5]), "eigenvalue"),
    (np.diag([np.nan, 1.0]), "non-finite"),
]


def random_jump_set(rng, n, n_loss=2, n_gain=1, gain_scale=0.5):
    losses = tuple(
        JumpVector(f"l{k}", "loss", rng.normal(size=n) + 1j * rng.normal(size=n))
        for k in range(n_loss))
    gains = tuple(
        JumpVector(f"g{k}", "gain",
                   gain_scale * (rng.normal(size=n) + 1j * rng.normal(size=n)))
        for k in range(n_gain))
    return JumpSet(n, losses, gains)


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (a + a.conj().T)


def trace_loop_correlator(rho):
    """Reference C_ij = Tr(rho c_j^dag c_i): one dense product and trace per pair."""
    ops = operator_set(rho.n_sites)
    n = ops.n_sites
    c = np.empty((n, n), dtype=complex)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            c[i - 1, j - 1] = np.trace(rho.entries @ ops._pairs[j - 1][i - 1])
    return 0.5 * (c + c.conj().T)


def random_mixed_state(rng, n, rank):
    a = rng.normal(size=(2 ** n, rank)) + 1j * rng.normal(size=(2 ** n, rank))
    rho = a @ a.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


def hn_system(n, gamma=0.1, kappa=1.5):
    """Feasible chain: relaxation matrix, uniform source, jumps, Hamiltonian."""
    params = HatanoNelsonParams(n_sites=n, t_right=1.0, t_left=0.17, kappa=kappa)
    x = matrix_entries(build_hatano_nelson(params))
    y = gamma * np.eye(n)
    jumps = hn_jump_decomposition(params, gamma)
    h = inverse_design(x, y).hamiltonian
    return x, y, jumps, h


def ssh_system(n_cells, g, gamma=0.1, kappa=2.0):
    """Feasible two-band chain: relaxation matrix, uniform source, jumps, Hamiltonian."""
    params = SshParams(n_cells, 0.5, 1.0, g, kappa)
    x = matrix_entries(build_ssh(params))
    y = gamma * np.eye(params.n_sites)
    jumps = ssh_jump_decomposition(params, gamma)
    h = inverse_design(x, y).hamiltonian
    return x, y, jumps, h


def phased(jumps, phase=np.exp(0.7j)):
    """``jumps`` with every vector times ``phase``: the same Lindbladian, complex operators."""
    def turn(vectors):
        return tuple(JumpVector(v.label, v.kind, phase * v.vector) for v in vectors)
    return JumpSet(jumps.dim, turn(jumps.loss_vectors), turn(jumps.gain_vectors))


# (model, size) of the chains the oracle commands build: 2 to 4 sites
SMALL_CHAINS = [("hn", 2), ("hn", 3), ("hn", 4), ("ssh", 1), ("ssh", 2)]


def small_chain(model, size):
    return hn_system(size) if model == "hn" else ssh_system(size, -0.25)


def steady_deviation(x, y, jumps, h):
    """Largest entry of C(oracle steady state) - C(direct solve)."""
    rho = steady_state_oracle(h, jumps)
    return float(np.abs(correlator_of(rho) - solve_lyapunov_direct(x, y).entries).max())


def trajectory_deviation(x, y, jumps, h):
    """Largest entry of C(master equation) - C(propagate_correlator) from the
    vacuum, on the oracle-check grid: t in [0, 10], 101 samples."""
    n = x.shape[0]
    traj = evolve_master(DensityMatrix.vacuum(n), h, jumps, t_final=10.0, dt=0.002, stride=50)
    ref = propagate_correlator(x, y, np.zeros((n, n)), t_final=10.0, dt=0.002, stride=50)
    assert np.array_equal(traj.times, ref.times) and traj.times.size == 101
    return max(float(np.abs(correlator_of(state) - sample).max())
               for state, sample in zip(traj.states, ref.states))


class TestFockOperators:

    def test_operator_set_is_cached(self):
        assert operator_set(2) is operator_set(2)
        assert operator_set(2) is not operator_set(3)

    @pytest.mark.parametrize("n_sites", range(1, MAX_ORACLE_SITES + 1))
    def test_anticommutation_relations(self, n_sites):
        # Jordan-Wigner operators hold only 0 and +-1, so CAR hold exactly
        ops = FockOperatorSet(n_sites)
        eye = np.eye(ops.dim)
        for i in range(1, n_sites + 1):
            ci = ops._annihilation[i - 1]
            for j in range(1, n_sites + 1):
                cj = ops._annihilation[j - 1]
                mixed = ci @ cj.conj().T + cj.conj().T @ ci
                assert np.array_equal(mixed, eye if i == j else np.zeros_like(eye))
                assert not (ci @ cj + cj @ ci).any()

    def test_number_operator_diagonals_at_two_sites(self):
        # site 1 is the leftmost tensor factor, so n_1 toggles the slow index
        ops = operator_set(2)
        assert_allclose(ops._pairs[0][0], np.diag([0.0, 0.0, 1.0, 1.0]), atol=0)
        assert_allclose(ops._pairs[1][1], np.diag([0.0, 1.0, 0.0, 1.0]), atol=0)

    def test_pair_products_are_creation_times_annihilation(self):
        ops = operator_set(3)
        assert_allclose(ops._pairs[1][2],
                        ops._annihilation[1].conj().T @ ops._annihilation[2], atol=0)

    def test_one_body_operator_matches_explicit_sum(self):
        ops = operator_set(3)
        rng = np.random.default_rng(5)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        explicit = sum(m[i, j] * ops._pairs[i][j] for i in range(3) for j in range(3))
        assert_allclose(ops.one_body_operator(m), explicit, atol=1e-15)
        with pytest.raises(ParameterError, match="3x3"):
            ops.one_body_operator(np.eye(2))

    def test_gain_operator_is_adjoint_of_conjugate_loss(self):
        ops = operator_set(2)
        v = np.array([0.3 + 0.4j, -1.1j])
        assert_allclose(ops.gain_operator(v),
                        ops.loss_operator(v.conj()).conj().T, atol=0)
        with pytest.raises(ParameterError, match="length"):
            ops.loss_operator([1.0])
        with pytest.raises(ParameterError, match="length"):
            ops.gain_operator([1.0, 2.0, 3.0])

    def test_site_count_limits(self):
        assert FockOperatorSet(6).dim == 64
        with pytest.raises(ScaleError, match="at most 6 sites, got 7"):
            FockOperatorSet(7)
        with pytest.raises(ParameterError):
            FockOperatorSet(0)


class TestDensityMatrix:

    def test_vacuum_and_pure_state_constructors(self):
        vac = DensityMatrix.vacuum(2)
        assert vac.n_sites == 2
        want = np.zeros((4, 4))
        want[0, 0] = 1.0
        assert_allclose(vac.entries, want, atol=0)

        rho = pure_state([3.0, 4.0])
        assert rho.n_sites == 1
        assert_allclose(np.diag(rho.entries).real, [9 / 25, 16 / 25], atol=1e-15)

    @pytest.mark.parametrize("bad, match", BAD_MATRICES)
    def test_validation_rejects_bad_matrices(self, bad, match):
        with pytest.raises(ParameterError, match=match) as info:
            DensityMatrix(bad)
        assert "sample" not in str(info.value)

    @pytest.mark.parametrize("bad, match", BAD_MATRICES)
    def test_stacked_validation_names_the_bad_sample(self, bad, match):
        if bad.shape != (2, 2):
            # a shape fault is the whole stack's, so no sample is named; a
            # non-square one never reaches a stack, as DensityMatrix refuses it
            with pytest.raises(ParameterError, match=match):
                if bad.shape[0] == bad.shape[1]:
                    _checked_states(np.array([bad] * 3))
                else:
                    DensityMatrix(bad)
            return
        good = pure_state([0.6, 0.8]).entries
        for k in range(3):
            stack = np.array([good] * 3)
            stack[k] = bad
            with pytest.raises(ParameterError, match=match) as info:
                _checked_states(stack)
            assert f"sample {k} " in str(info.value)

    def test_stacked_validation_returns_what_single_states_hold(self):
        rng = np.random.default_rng(11)
        states = [random_mixed_state(rng, 2, rank) for rank in (1, 2, 4)]
        # symmetrized but not yet exactly Hermitian, as a propagated sample is
        raw = np.array([s.entries + 1e-14j * rng.normal(size=(4, 4)) for s in states])
        checked, trace_err = _checked_states(raw)
        assert not checked.flags.writeable
        for k, rho in enumerate(raw):
            single = DensityMatrix(rho)
            assert np.array_equal(checked[k], single.entries)
            assert trace_err[k] == abs(float(np.trace(single.entries).real) - 1.0)

    def test_entries_are_frozen(self):
        rho = DensityMatrix.vacuum(1)
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 0.5


class TestCorrelatorOf:

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_signed_gather_equals_the_trace_loop(self, n):
        _, _, jumps, h = hn_system(n)
        traj = evolve_master(DensityMatrix.vacuum(n), h, jumps,
                             t_final=10.0, dt=0.002, stride=50)
        states = list(traj.states) + [steady_state_oracle(h, jumps)]
        rng = np.random.default_rng(n)
        states += [random_mixed_state(rng, n, rank) for rank in (1, 2, 2 ** n)]
        for state in states:
            assert np.array_equal(correlator_of(state), trace_loop_correlator(state))

    @pytest.mark.parametrize("n", range(1, MAX_ORACLE_SITES + 1))
    def test_every_pair_product_column_is_at_most_one_signed_unit(self, n):
        # the signed gather of correlator_of reads one entry per column, so
        # the Jordan-Wigner construction must leave no second one to drop
        ops = FockOperatorSet(n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                p = ops._pairs[i - 1][j - 1]
                nonzero = p != 0
                assert nonzero.sum(axis=0).max() <= 1
                assert np.isin(p[nonzero], (-1, 1)).all()
                # rho.flat[index[a]] pairs with column a's nonzero, p.T.flat[index[a]]
                index = ops._trace_index[j - 1, i - 1]
                signs = ops._trace_signs[j - 1, i - 1]
                assert np.array_equal(index // ops.dim, np.arange(ops.dim))
                assert np.array_equal(signs, p.T.take(index).real)
                assert np.array_equal(signs != 0, nonzero.any(axis=0))

    def test_trivial_states(self):
        assert_allclose(correlator_of(DensityMatrix.vacuum(2)),
                        np.zeros((2, 2)), atol=0)

        filled = np.zeros(4)
        filled[3] = 1.0
        assert_allclose(correlator_of(pure_state(filled)),
                        np.eye(2), atol=1e-15)

        one_left = np.zeros(4)
        one_left[2] = 1.0
        assert_allclose(correlator_of(pure_state(one_left)),
                        np.diag([1.0, 0.0]), atol=1e-15)

    def test_hopping_superposition_has_coherence(self):
        psi = np.zeros(4)
        psi[2] = psi[1] = 1.0
        c = correlator_of(pure_state(psi))
        assert_allclose(c, 0.5 * np.ones((2, 2)), atol=1e-15)
        assert_allclose(c, c.conj().T, atol=0)


class TestEvolveMaster:

    def test_free_evolution_is_constant(self):
        rho0 = pure_state([1.0, 1.0])
        traj = evolve_master(rho0, [[0.0]], JumpSet(1, (), ()),
                             t_final=1.0, dt=0.01)
        assert_allclose(traj.states[-1].entries, rho0.entries, atol=1e-14)
        assert traj.max_trace_drift <= 1e-14

    def test_single_excitation_hops_coherently(self):
        # |10> under nearest-neighbour hopping: n_1(t) = cos^2 t
        psi = np.zeros(4)
        psi[2] = 1.0
        h = np.array([[0.0, 1.0], [1.0, 0.0]])
        traj = evolve_master(pure_state(psi), h, JumpSet(2, (), ()),
                             t_final=np.pi / 2, dt=np.pi / 2 / 2000, stride=1000)
        for t, state in zip(traj.times, traj.states):
            c = correlator_of(state)
            assert_allclose(c[0, 0].real, np.cos(t) ** 2, atol=1e-9)
            assert_allclose(c[1, 1].real, np.sin(t) ** 2, atol=1e-9)
        assert traj.max_trace_drift <= 1e-12

    def test_single_site_decay_is_exponential(self):
        lam = 0.8
        jumps = JumpSet(1, (JumpVector("onsite(1)", "loss", [np.sqrt(lam)]),), ())
        # 2.03 and 1.9995 end on a shorter last interval with a propagator of its own
        for t_final in (2.0, 2.03, 1.9995):
            traj = evolve_master(pure_state([0.0, 1.0]), [[0.0]], jumps,
                                 t_final=t_final, dt=1e-3, stride=500)
            assert traj.times[-1] == t_final
            for t, state in zip(traj.times, traj.states):
                n = correlator_of(state)[0, 0].real
                assert_allclose(n, np.exp(-lam * t), atol=1e-10)
            assert traj.max_trace_drift <= 1e-12

    def test_snapshot_grid_respects_stride(self):
        traj = evolve_master(DensityMatrix.vacuum(1), [[0.0]], JumpSet(1, (), ()),
                             t_final=1.0, dt=0.1, stride=3)
        assert_allclose(traj.times, [0.0, 0.3, 0.6, 0.9, 1.0], atol=1e-12)
        assert len(traj.states) == len(traj.times)

    def test_samples_match_one_interval_at_a_time(self):
        # each sample is the previous validated state propagated on its own
        _, _, jumps, h = hn_system(3)
        traj = evolve_master(DensityMatrix.vacuum(3), h, jumps,
                             t_final=10.0, dt=0.002, stride=50)
        _, intervals = _sample_grid(10.0, 0.002, 50)
        assert len(intervals) == len(traj.states) - 1
        for before, after, interval in zip(traj.states, traj.states[1:], intervals):
            step = evolve_master(before, h, jumps, t_final=interval, dt=interval)
            assert np.array_equal(step.states[-1].entries, after.entries)
            assert np.array_equal(DensityMatrix(after.entries).entries, after.entries)
            assert not after.entries.flags.writeable
        assert traj.max_trace_drift == max(abs(float(np.trace(s.entries).real) - 1.0)
                                           for s in traj.states)

    def test_zero_time_returns_initial_only(self):
        rho0 = DensityMatrix.vacuum(2)
        traj = evolve_master(rho0, np.zeros((2, 2)), JumpSet(2, (), ()),
                             t_final=0.0, dt=0.1)
        assert traj.times.tolist() == [0.0]
        assert traj.states[-1] is rho0

    def test_rejects_bad_arguments(self):
        rho0 = DensityMatrix.vacuum(2)
        empty = JumpSet(2, (), ())
        h = np.zeros((2, 2))
        with pytest.raises(ParameterError, match="dt"):
            evolve_master(rho0, h, empty, t_final=1.0, dt=0.0)
        with pytest.raises(ParameterError, match="dt"):
            evolve_master(rho0, h, empty, t_final=1.0, dt=np.inf)
        with pytest.raises(ParameterError, match="t_final"):
            evolve_master(rho0, h, empty, t_final=-1.0, dt=0.1)
        with pytest.raises(ParameterError, match="stride"):
            evolve_master(rho0, h, empty, t_final=1.0, dt=0.1, stride=0)
        with pytest.raises(ParameterError, match="Hermitian"):
            evolve_master(rho0, [[0.0, 1.0], [0.0, 0.0]], empty, t_final=1.0, dt=0.1)
        with pytest.raises(ParameterError, match="2x2"):
            evolve_master(rho0, np.zeros((3, 3)), empty, t_final=1.0, dt=0.1)
        with pytest.raises(ParameterError, match="dim"):
            evolve_master(rho0, h, JumpSet(3, (), ()), t_final=1.0, dt=0.1)
        # NaN slips through every comparison, so only the finiteness check stops it
        with pytest.raises(ParameterError, match="non-finite"):
            evolve_master(rho0, np.diag([np.nan, 0.0]), empty, t_final=1.0, dt=0.1)

    def test_stiff_loss_follows_the_exponential(self):
        # rate 100 at dt = 0.1: far outside any explicit step's stability region
        filled = pure_state([0.0, 1.0])
        jumps = JumpSet(1, (JumpVector("onsite(1)", "loss", [10.0]),), ())
        for stride in (1, 50):
            traj = evolve_master(filled, [[0.0]], jumps,
                                 t_final=10.0, dt=0.1, stride=stride)
            for t, state in zip(traj.times, traj.states):
                assert abs(correlator_of(state)[0, 0].real - np.exp(-100.0 * t)) <= 1e-15


class TestCorrelatorReduction:

    @pytest.mark.parametrize("seed", [3, 17, 29])
    def test_one_body_reduction_closes_for_random_jump_sets(self, seed):
        # central-difference derivative of the exact trajectory must obey
        # dC/dt = -X C - C X^dag + Y with X, Y read off the jump grams
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 4))
        h = random_hermitian(rng, n)
        jumps = random_jump_set(rng, n)
        x = 1j * h + 0.5 * (jumps.loss_gram() + jumps.gain_gram())
        y = jumps.gain_gram()

        rho0 = pure_state(rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n))
        dt = 2e-5
        traj = evolve_master(rho0, h, jumps, t_final=0.002, dt=dt, stride=1)
        for k in (20, 50, 80):
            c_prev = correlator_of(traj.states[k - 1])
            c_mid = correlator_of(traj.states[k])
            c_next = correlator_of(traj.states[k + 1])
            derivative = (c_next - c_prev) / (2.0 * dt)
            rhs = -(x @ c_mid) - (c_mid @ x.conj().T) + y
            # truncation of the central difference grows with the rate scale
            tol = 1e-7 * max(1.0, float(np.abs(rhs).max()))
            assert np.abs(derivative - rhs).max() <= tol

    def test_master_equation_matches_correlator_propagator(self):
        x, y, jumps, h = hn_system(2)
        traj = evolve_master(DensityMatrix.vacuum(2), h, jumps,
                             t_final=2.0, dt=1e-3, stride=500)
        ctraj = propagate_correlator(x, y, np.zeros((2, 2)),
                                     t_final=2.0, dt=1e-3, stride=500)
        assert_allclose(traj.times, ctraj.times, atol=0)
        for state, sample in zip(traj.states, ctraj.states):
            assert np.abs(correlator_of(state) - sample).max() <= 1e-10


class TestBothChainModels:
    """The oracle against the correlator stack at the criterion 03 bounds:
    1e-7 on trajectories, 1e-8 on steady states.  A 6-site trajectory
    needs one 924-wide block exponential (about 0.5 s in float64), so
    only the single-band chain runs one."""

    @pytest.mark.parametrize("n", [5, 6])
    def test_single_band_trajectory_at_five_and_six_sites(self, n):
        assert trajectory_deviation(*hn_system(n)) <= 1e-7

    @pytest.mark.parametrize("g", [-0.25, 0.0, 0.3])
    def test_two_band_chain_at_two_and_three_cells(self, g):
        two_cells = ssh_system(2, g)
        assert trajectory_deviation(*two_cells) <= 1e-7
        assert steady_deviation(*two_cells) <= 1e-8
        assert steady_deviation(*ssh_system(3, g)) <= 1e-8


class TestRealArithmeticAndSharedBuild:
    """Real chains run the oracle in float64, and one check builds one Liouvillian."""

    @pytest.mark.parametrize("model, size", SMALL_CHAINS)
    def test_complex_phases_reproduce_the_real_path(self, model, size):
        _, _, jumps, h = small_chain(model, size)
        turned = phased(jumps)
        ops = operator_set(jumps.dim)
        assert _liouvillian_parts(ops, h, jumps)[0].dtype == np.float64
        assert _liouvillian_parts(ops, h, turned)[0].dtype == np.complex128
        vacuum = DensityMatrix.vacuum(jumps.dim)
        real, cplx = (evolve_master(vacuum, h, j, t_final=10.0, dt=0.002, stride=50)
                      for j in (jumps, turned))
        for a, b in zip(real.states, cplx.states):
            assert np.abs(a.entries - b.entries).max() <= 1e-14
            assert a.entries.dtype == b.entries.dtype == np.complex128
        assert abs(real.max_trace_drift - cplx.max_trace_drift) <= 1e-14
        difference = steady_state_oracle(h, jumps).entries - steady_state_oracle(h, turned).entries
        assert np.abs(difference).max() <= 1e-14

    @pytest.mark.parametrize("model, size", SMALL_CHAINS + [("hn", 5), ("hn", 6), ("ssh", 3)])
    def test_steady_state_keeps_the_bits_of_the_complex_build(self, model, size):
        _, _, jumps, h = small_chain(model, size)
        for j in (jumps, phased(jumps)):
            assert np.array_equal(steady_state_oracle(h, j).entries,
                                  complex_steady_state_reference(h, j).entries)

    def test_one_check_builds_one_liouvillian_and_a_new_h_another(self, monkeypatch):
        builds, block_generator = [], manybody._block_generator

        def counted(*args):
            builds.append(args[2].size)
            return block_generator(*args)

        monkeypatch.setattr(manybody, "_block_generator", counted)
        monkeypatch.setattr(manybody, "_LIOUVILLIAN_CACHE", {})
        _, _, jumps, h = hn_system(3)
        h = np.array(h)
        evolve_master(DensityMatrix.vacuum(3), h, jumps, t_final=10.0, dt=0.002, stride=50)
        rho = steady_state_oracle(h, jumps)
        assert builds == [20]
        assert np.array_equal(rho.entries, complex_steady_state_reference(h, jumps).entries)
        # the solve changes no cached array: a second solve has the same bits
        assert np.array_equal(steady_state_oracle(h, jumps).entries, rho.entries)
        assert builds == [20]

        h[0, 1] += 0.1j
        h[1, 0] -= 0.1j
        rho = steady_state_oracle(h, jumps)
        assert builds == [20, 20]
        assert np.array_equal(rho.entries, complex_steady_state_reference(h, jumps).entries)
        # an equal jump set is another object, so it builds its own
        steady_state_oracle(h, phased(jumps, 1.0))
        assert builds == [20, 20, 20]


class TestTablesAndCholeskyKeepTheBits:
    """The row-then-column block gathers, the flat trace index and the
    Cholesky positivity certificate against the np.ix_ block build, the
    fancy-index correlator gather and the eigvalsh check they replaced
    (tests/conftest.py), at 2 to 6 sites on the real path and on the
    complex one (jump vectors times e^0.7i)."""

    @pytest.mark.parametrize("n", range(2, MAX_ORACLE_SITES + 1))
    @pytest.mark.parametrize("path", ["real", "complex", "dense"])
    def test_every_charge_block_has_the_bits_of_the_ix_gather(self, n, path):
        _, _, jumps, h = hn_system(n)
        ops = operator_set(n)
        if path == "complex":
            jumps = phased(jumps)
        if path == "dense":
            # K has no entry where a jump term has one, and a + b = b + a, so
            # only three or more dense jumps of one kind show a reordered sum
            rng = np.random.default_rng(n)
            h, jumps = random_hermitian(rng, n), random_jump_set(rng, n, n_loss=3, n_gain=3)
        k, ls, generator, _ = _liouvillian_parts(ops, h, jumps)
        assert k.dtype == (np.float64 if path == "real" else np.complex128)
        for q, (rows, cols) in ops._blocks.items():
            want = block_generator_reference(k, ls, rows, cols)
            got = generator if q == 0 else _block_generator(k, ls, rows, cols)
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("n", range(2, MAX_ORACLE_SITES + 1))
    @pytest.mark.parametrize("path", ["real", "complex"])
    def test_correlators_and_positivity_verdicts_of_the_oracle_states(self, n, path):
        _, _, jumps, h = hn_system(n)
        if path == "complex":
            jumps = phased(jumps)
        traj = evolve_master(DensityMatrix.vacuum(n), h, jumps, t_final=1.0, dt=0.5)
        states = list(traj.states) + [steady_state_oracle(h, jumps)]
        rng = np.random.default_rng(n)
        states += [random_mixed_state(rng, n, rank) for rank in (1, 2, 2 ** n)]
        for state in states:
            assert np.array_equal(correlator_of(state), correlator_reference(state))
        # every state the Cholesky certificate passed, eigvalsh passes too
        least = least_eigenvalue_reference(np.array([s.entries for s in states]))
        assert least.min() >= -1e-8

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("least", [-2e-8, -5e-9])
    def test_the_threshold_verdict_and_message_are_eigvalsh_s(self, dtype, least):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(4, 4)) + (1j * rng.normal(size=(4, 4)) if dtype is complex else 0)
        u = np.linalg.qr(a)[0]
        bad = (u * np.array([0.5, 0.3, 0.2 - least, least])) @ u.conj().T
        bad = 0.5 * (bad + bad.conj().T)
        good = np.outer([0.6, 0.0, 0.0, 0.8], [0.6, 0.0, 0.0, 0.8]).astype(dtype)
        for stack in (np.array([good, bad, good]), bad[None]):
            if least > -1e-8:
                least_eigenvalue_reference(stack)
                checked, _ = _checked_states(stack)
                assert np.array_equal(checked, 0.5 * (stack + stack.conj().swapaxes(1, 2)))
                continue
            with pytest.raises(ParameterError) as want:
                least_eigenvalue_reference(stack)
            with pytest.raises(ParameterError) as got:
                _checked_states(stack)
            assert str(got.value) == str(want.value)
            name = "density matrix sample 1" if len(stack) == 3 else "density matrix"
            assert str(got.value) == f"{name} has eigenvalue -2.000e-08 < -1e-8"


class TestSteadyStateOracle:

    def test_single_site_pump_balance(self):
        kappa, strength = 0.7, 0.6
        jumps = JumpSet(
            1,
            (JumpVector("onsite(1)", "loss", [np.sqrt(2 * kappa - strength)]),),
            (JumpVector("pump(1)", "gain", [np.sqrt(strength)]),))
        rho = steady_state_oracle([[0.0]], jumps)
        assert_allclose(correlator_of(rho)[0, 0].real,
                        strength / (2 * kappa), atol=1e-10)

    def test_pure_gain_fills_the_site(self):
        jumps = JumpSet(1, (), (JumpVector("pump(1)", "gain", [1.0]),))
        rho = steady_state_oracle([[0.0]], jumps)
        assert_allclose(correlator_of(rho), [[1.0]], atol=1e-10)

    def test_pure_loss_returns_vacuum_unchanged(self):
        jumps = JumpSet(1, (JumpVector("onsite(1)", "loss", [1.0]),), ())
        rho = steady_state_oracle([[0.0]], jumps)
        assert_allclose(rho.entries, DensityMatrix.vacuum(1).entries, atol=0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_oracle_matches_direct_solver(self, n):
        assert steady_deviation(*hn_system(n)) <= 1e-8

    def test_four_sites_need_no_time_budget(self):
        jumps = JumpSet(
            4,
            tuple(JumpVector(f"onsite({j})", "loss",
                             np.sqrt(1.6) * np.eye(4)[j - 1]) for j in range(1, 5)),
            tuple(JumpVector(f"pump({j})", "gain",
                             np.sqrt(0.4) * np.eye(4)[j - 1]) for j in range(1, 5)))
        rho = steady_state_oracle(np.zeros((4, 4)), jumps)
        assert np.abs(correlator_of(rho) - 0.2 * np.eye(4)).max() <= 1e-14

    def test_seven_sites_exceed_the_oracle_cap(self):
        jumps = JumpSet(7, tuple(JumpVector(f"onsite({j})", "loss", np.eye(7)[j - 1])
                                 for j in range(1, 8)), ())
        with pytest.raises(ScaleError, match="at most 6"):
            steady_state_oracle(np.zeros((7, 7)), jumps, t_max=1.0)
        with pytest.raises(ScaleError, match="at most 6"):
            evolve_master(DensityMatrix.vacuum(7), np.zeros((7, 7)), jumps,
                          t_final=0.1, dt=0.01)

    def test_vacuum_above_the_oracle_cap_is_a_scale_error(self):
        # vacuum(40) once leaked numpy's raw ValueError after trying a 2^40 x 2^40 matrix
        for n in (MAX_ORACLE_SITES + 1, 40):
            with pytest.raises(ScaleError, match=f"at most 6 sites, got {n};"):
                DensityMatrix.vacuum(n)

    def test_hamiltonian_is_checked_against_the_jump_set_first(self):
        # a 2x2 h for three sites once reached eigvals as a raw numpy ValueError
        _, _, jumps, _ = hn_system(3)
        with pytest.raises(ParameterError, match="must be 3x3, got \\(2, 2\\)"):
            steady_state_oracle(np.zeros((2, 2)), jumps)

    def test_hamiltonian_only_dynamics_has_no_steady_state(self):
        with pytest.raises(StabilityError, match="no steady state"):
            steady_state_oracle([[1.0]], JumpSet(1, (), ()))

    def test_slow_relaxation_ignores_the_time_budget(self):
        # relaxation time 200, far beyond t_max, which is accepted and ignored
        jumps = JumpSet(
            1,
            (JumpVector("onsite(1)", "loss", [np.sqrt(0.009)]),),
            (JumpVector("pump(1)", "gain", [np.sqrt(0.001)]),))
        rho = steady_state_oracle([[0.0]], jumps, t_max=1.0)
        assert abs(correlator_of(rho)[0, 0] - 0.1) <= 1e-14

    def test_stiff_pump_loss_pair_is_solved_exactly(self):
        jumps = JumpSet(
            1,
            (JumpVector("onsite(1)", "loss", [np.sqrt(140.0)]),),
            (JumpVector("pump(1)", "gain", [np.sqrt(100.0)]),))
        rho = steady_state_oracle([[0.0]], jumps, t_max=5.0)
        assert abs(correlator_of(rho)[0, 0] - 100.0 / 240.0) <= 1e-14
