"""Brute-force many-body master-equation oracle for tiny chains.

Everything here works in the full 2^N-dimensional Fock space with dense
matrices and Jordan-Wigner fermion operators.  It exists to validate
the one-body correlator reduction against the exact Lindblad dynamics
of either chain model, up to MAX_ORACLE_SITES sites; use the correlator
stack for anything larger.

Nothing is time-stepped: the Liouvillian conserves the charge
N_ket - N_bra of |i><j| (Prosen, NJP 10, 043026 (2008)), so it is built
per charge block, the widest C(2N, N).  Trajectories apply exact
propagators exp(L t); the steady state is one linear solve.  Numpy only.

Per-sample work is vectorized.  Every column of a Jordan-Wigner pair
product c_j^dag c_i holds at most one nonzero, and it is +-1, so
Tr(rho c_j^dag c_i) is a signed sum of D = 2^N entries of rho:
correlator_of is one signed gather over index and sign tables that each
FockOperatorSet builds once.  A trajectory's samples are validated as
one (S, D, D) stack by the same check a single DensityMatrix runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import JumpSet
from .errors import ParameterError, ScaleError, StabilityError
from .models import matrix_entries
from .steady import _expm, _sample_grid

# widest charge block C(2N, N) is 924 here (seconds); 3432 at 7 sites (2 min, 1.2 GB)
MAX_ORACLE_SITES = 6

_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
# Lowering operator |0><1| in the (empty, occupied) = (index 0, index 1) basis.
_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
_EYE2 = np.eye(2, dtype=complex)


class FockOperatorSet:
    """Dense Jordan-Wigner fermion operators for up to MAX_ORACLE_SITES sites.

    Site 1 is the leftmost tensor factor; the sign string of Z factors
    precedes each lowering operator.  Operator matrices depend on this
    ordering, but every number-conserving expectation value computed
    from them does not.
    """

    def __init__(self, n_sites: int):
        if n_sites < 1:
            raise ParameterError(f"n_sites must be >= 1, got {n_sites}")
        if n_sites > MAX_ORACLE_SITES:
            raise ScaleError(
                f"oracle supports at most {MAX_ORACLE_SITES} sites, got {n_sites}; "
                "use the correlator stack for larger systems")
        self.n_sites = int(n_sites)
        self.dim = 2 ** self.n_sites
        self._annihilation = tuple(self._jordan_wigner(j) for j in range(self.n_sites))
        self._pair_cache: dict[tuple[int, int], np.ndarray] = {}
        self._trace_cols, self._trace_signs = self._trace_tables()

    def _jordan_wigner(self, position: int) -> np.ndarray:
        factors = [_PAULI_Z] * position + [_LOWER] + [_EYE2] * (self.n_sites - position - 1)
        op = factors[0]
        for f in factors[1:]:
            op = np.kron(op, f)
        return op

    def _trace_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Index and sign tables of shape (n, n, D) for Tr(rho c_j^dag c_i).

        Entry [i, j, a] names the one nonzero of column a of c_j^dag c_i
        (0-based i, j): Tr(rho P) = sum_a rho[a, cols[a]] * signs[a], with
        sign 0 where the column is empty.  The Jordan-Wigner construction
        puts at most one +-1 in each column; a test asserts it.
        """
        n, dim = self.n_sites, self.dim
        cols = np.zeros((n, n, dim), dtype=np.intp)
        signs = np.zeros((n, n, dim))
        for i in range(n):
            for j in range(n):
                p = self.pair_product(j + 1, i + 1)
                cols[i, j] = (p != 0).argmax(axis=0)
                signs[i, j] = p[cols[i, j], np.arange(dim)].real
        cols.flags.writeable = signs.flags.writeable = False
        return cols, signs

    def annihilation(self, site: int) -> np.ndarray:
        """c_site, 1-based."""
        return self._annihilation[site - 1]

    def creation(self, site: int) -> np.ndarray:
        """c_site^dag, 1-based."""
        return self._annihilation[site - 1].conj().T

    def pair_product(self, i: int, j: int) -> np.ndarray:
        """c_i^dag c_j, 1-based, cached."""
        key = (i, j)
        if key not in self._pair_cache:
            self._pair_cache[key] = self.creation(i) @ self.annihilation(j)
        return self._pair_cache[key]

    def one_body_operator(self, coefficients) -> np.ndarray:
        """sum_ij M_ij c_i^dag c_j as a full Fock-space matrix."""
        m = np.asarray(coefficients, dtype=complex)
        if m.shape != (self.n_sites, self.n_sites):
            raise ParameterError(
                f"coefficient matrix must be {self.n_sites}x{self.n_sites}, got {m.shape}")
        op = np.zeros((self.dim, self.dim), dtype=complex)
        for i in range(1, self.n_sites + 1):
            for j in range(1, self.n_sites + 1):
                if m[i - 1, j - 1] != 0:
                    op += m[i - 1, j - 1] * self.pair_product(i, j)
        return op

    def loss_operator(self, vector) -> np.ndarray:
        """sum_j u_j c_j."""
        v = np.asarray(vector, dtype=complex).reshape(-1)
        if v.size != self.n_sites:
            raise ParameterError(f"jump vector length {v.size} != n_sites {self.n_sites}")
        op = np.zeros((self.dim, self.dim), dtype=complex)
        for j in range(self.n_sites):
            if v[j] != 0:
                op += v[j] * self._annihilation[j]
        return op

    def gain_operator(self, vector) -> np.ndarray:
        """sum_j v_j c_j^dag, the adjoint of loss_operator(conj v)."""
        return self.loss_operator(np.conj(vector)).conj().T


_OPERATOR_CACHE: dict[int, FockOperatorSet] = {}


def operator_set(n_sites: int) -> FockOperatorSet:
    """Shared per-size operator set."""
    if n_sites not in _OPERATOR_CACHE:
        _OPERATOR_CACHE[n_sites] = FockOperatorSet(n_sites)
    return _OPERATOR_CACHE[n_sites]


def _checked_states(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validate a (S, D, D) stack of density matrices.

    Each sample must be finite, Hermitian to 1e-12 and, once symmetrized,
    of unit trace to 1e-10 with no eigenvalue below -1e-8.  Returns the
    symmetrized samples, read-only, and each one's |Tr rho - 1|.  A stack
    of one is a single state; in a longer stack errors name the sample.
    """
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ParameterError(f"density matrix must be square, got {stack.shape[1:]}")
    dim = stack.shape[1]
    n = dim.bit_length() - 1
    if 2 ** n != dim:
        raise ParameterError(f"density matrix dimension {dim} is not 2^N")

    def reject(flags, problem):
        if flags.any():
            k = int(np.argmax(flags))
            name = "density matrix" if len(stack) == 1 else f"density matrix sample {k}"
            raise ParameterError(f"{name} {problem(k)}")

    reject(~np.isfinite(stack).all(axis=(1, 2)), lambda k: "has non-finite entries")
    adjoint = stack.conj().swapaxes(1, 2)
    herm = np.abs(stack - adjoint).max(axis=(1, 2))
    reject(herm > 1e-12, lambda k: f"not Hermitian: max deviation {herm[k]:.3e}")
    rho = 0.5 * (stack + adjoint)
    trace_err = np.abs(np.trace(rho, axis1=1, axis2=2).real - 1.0)
    reject(trace_err > 1e-10, lambda k: f"trace off by {trace_err[k]:.3e}")
    wmin = np.linalg.eigvalsh(rho).min(axis=1)
    reject(wmin < -1e-8, lambda k: f"has eigenvalue {wmin[k]:.3e} < -1e-8")
    rho.flags.writeable = False
    return rho, trace_err


@dataclass(frozen=True)
class DensityMatrix:
    """Validated many-body state: Hermitian, unit trace, nonnegative."""

    entries: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.entries, dtype=complex)
        object.__setattr__(self, "entries", _checked_states(rho[None])[0][0])

    @classmethod
    def _trusted(cls, entries: np.ndarray) -> "DensityMatrix":
        """Wrap one sample that _checked_states already returned."""
        state = object.__new__(cls)
        object.__setattr__(state, "entries", entries)
        return state

    @property
    def n_sites(self) -> int:
        return self.entries.shape[0].bit_length() - 1

    @classmethod
    def vacuum(cls, n_sites: int) -> "DensityMatrix":
        dim = 2 ** n_sites
        rho = np.zeros((dim, dim), dtype=complex)
        rho[0, 0] = 1.0
        return cls(rho)


@dataclass(frozen=True)
class MasterTrajectory:
    """Exact master-equation samples, ``dt * stride`` apart except a shorter
    last one, with the largest |Tr rho - 1| over them as the drift log."""

    times: np.ndarray
    states: tuple[DensityMatrix, ...]
    dt: float
    max_trace_drift: float


def _liouvillian_parts(ops: FockOperatorSet, h, jumps: JumpSet):
    """(K, jump operators) with K = -iH - (1/2) sum L^dag L; h passes models.matrix_entries."""
    hmat = matrix_entries(h, "one-body Hamiltonian")
    if hmat.shape != (ops.n_sites, ops.n_sites):
        raise ParameterError(
            f"one-body Hamiltonian must be {ops.n_sites}x{ops.n_sites}, got {hmat.shape}")
    herm = float(np.abs(hmat - hmat.conj().T).max())
    if herm > 1e-12:
        raise ParameterError(f"Hamiltonian must be Hermitian: max deviation {herm:.3e}")
    if jumps.dim != ops.n_sites:
        raise ParameterError(f"jump set dim {jumps.dim} != n_sites {ops.n_sites}")
    big_h = ops.one_body_operator(hmat)
    ls = [ops.loss_operator(v.vector) for v in jumps.loss_vectors]
    ls += [ops.gain_operator(v.vector) for v in jumps.gain_vectors]
    k = -1j * big_h
    for op in ls:
        k -= 0.5 * (op.conj().T @ op)
    return k, ls


def _charge_blocks(ops: FockOperatorSet) -> dict:
    """Basis matrices |i><j| grouped by their charge N_i - N_j.

    Each value is the (rows, cols) index pair of one block, in row-major
    order, so the q = 0 block starts with the vacuum projector |0><0|.
    """
    filled = np.array([bin(i).count("1") for i in range(ops.dim)])
    charge = filled[:, None] - filled[None, :]
    return {q: np.nonzero(charge == q) for q in range(-ops.n_sites, ops.n_sites + 1)}


def _block_generator(k: np.ndarray, ls, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The Liouvillian on one charge block, one column per basis matrix.

    Every term of K rho + rho K^dag + sum_L L rho L^dag conserves
    N_ket - N_bra, so the image of |i><j| stays inside its block; its
    |r><c| entry is K_ri d_cj + d_ri conj(K_cj) + sum_L L_ri conj(L_cj).
    Only block-sized arrays are formed.
    """
    ket, bra = np.ix_(rows, rows), np.ix_(cols, cols)
    out = k[ket] * (cols[:, None] == cols) + (rows[:, None] == rows) * k[bra].conj()
    for op in ls:
        out += op[ket] * op[bra].conj()
    return out


def evolve_master(rho0: DensityMatrix, h, jumps: JumpSet, t_final: float,
                  dt: float, stride: int = 1) -> MasterTrajectory:
    """Sample the full Lindblad equation with its exact propagator.

    ``h`` is the one-body Hamiltonian matrix (n_sites x n_sites); jump
    vectors are promoted to Fock-space operators internally.  Samples
    are ``dt * stride`` apart, each the previous one times
    exp(L dt stride), plus the state at ``t_final`` after a shorter
    last interval (_sample_grid).  Each step propagates the symmetrized
    previous sample; all samples are then validated as one stack.  Trace
    drift is logged, never corrected.
    """
    times, intervals = _sample_grid(t_final, dt, stride)
    ops = operator_set(rho0.n_sites)
    k, ls = _liouvillian_parts(ops, h, jumps)

    # blocks that rho0 leaves empty stay empty
    blocks = [b for b in _charge_blocks(ops).values() if rho0.entries[b].any()]
    generators = [_block_generator(k, ls, *b) for b in blocks]
    propagators = {h: [_expm(g * h) for g in generators] for h in set(intervals)}

    samples = np.zeros((times.size, ops.dim, ops.dim), dtype=complex)
    samples[0] = previous = rho0.entries
    for rho, h in zip(samples[1:], intervals):
        for b, p in zip(blocks, propagators[h]):
            rho[b] = p @ previous[b]
        previous = 0.5 * (rho + rho.conj().T)
    # rho0 rides along so that its drift comes from the same stacked trace;
    # it is symmetrized already, so its entries pass through bit for bit
    checked, trace_err = _checked_states(samples)
    return MasterTrajectory(
        times=times,
        states=(rho0,) + tuple(DensityMatrix._trusted(rho) for rho in checked[1:]),
        dt=float(dt),
        max_trace_drift=float(trace_err.max()),
    )


def correlator_of(rho: DensityMatrix) -> np.ndarray:
    """One-body correlator C_ij = Tr(rho c_j^dag c_i), symmetrized."""
    ops = operator_set(rho.n_sites)
    c = (rho.entries[np.arange(ops.dim), ops._trace_cols] * ops._trace_signs).sum(-1)
    return 0.5 * (c + c.conj().T)


def steady_state_oracle(h, jumps: JumpSet, t_max: float | None = None) -> DensityMatrix:
    """The unique steady state of the master equation, solved exactly.

    L preserves the trace, so its diagonal rows are dependent: in the
    charge-0 block the vacuum row is replaced by Tr rho = 1 and the block
    is solved.  ``h`` is checked against the jump set (_liouvillian_parts)
    before the oracle's own eigvals screen, which keeps it independent of
    the solver it checks.  ``t_max`` is ignored.
    """
    ops = operator_set(jumps.dim)
    k, ls = _liouvillian_parts(ops, h, jumps)
    hmat = np.asarray(h, dtype=complex)
    x = 1j * hmat + 0.5 * (np.asarray(jumps.loss_gram()) + np.asarray(jumps.gain_gram()))
    min_rate = float(np.linalg.eigvals(x).real.min())
    if min_rate <= 0:
        raise StabilityError(
            f"relaxation spectrum has min real part {min_rate:.6g} <= 0; "
            "no steady state to converge to")

    rows, cols = _charge_blocks(ops)[0]
    system = _block_generator(k, ls, rows, cols)
    system[0] = rows == cols
    rho = np.zeros((ops.dim, ops.dim), dtype=complex)
    rho[rows, cols] = np.linalg.solve(system, np.eye(rows.size)[0])
    return DensityMatrix(rho)
