"""Brute-force many-body master-equation oracle for tiny chains.

Everything here works in the full 2^N-dimensional Fock space with dense
matrices and Jordan-Wigner fermion operators.  It exists to validate
the one-body correlator reduction against the exact Lindblad dynamics
of either chain model, up to MAX_ORACLE_SITES sites; use the correlator
stack for anything larger.

Nothing is time-stepped: the Liouvillian conserves the charge
N_ket - N_bra of |i><j| (Prosen, NJP 10, 043026 (2008)), so it is built
per charge block, the widest C(2N, N).  Trajectories apply exact
propagators exp(L t) to the vector of a sample's entries in the blocks
it occupies; the steady state is one linear solve.  Numpy only.

The Liouvillian is real whenever -iH and every jump operator are, as
for every chain the commands build (H imaginary, jump vectors real);
it is then built, exponentiated and validated in float64, otherwise in
complex128.  States are complex128 either way, and the steady state
solves the charge-0 block cast to complex, so its bits do not depend
on the path.  An oracle check builds its Liouvillian once: the last
build is kept for the same jump set and h (_liouvillian_parts).

Per-sample work is vectorized.  Every column of a Jordan-Wigner pair
product c_j^dag c_i holds at most one nonzero, and it is +-1, so
Tr(rho c_j^dag c_i) is a signed sum of D = 2^N entries of rho:
correlator_of is one 1-d take over flat index and sign tables that
each FockOperatorSet builds once, with its charge blocks.  A
trajectory's samples are validated as one (S, D, D) stack by the same
check a single DensityMatrix runs; a stacked Cholesky factorization
certifies them positive, and an eigensolve runs only when it fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import JumpSet
from .errors import ParameterError, ScaleError, StabilityError
from .models import _count, _hermitian, _hermitian_part, _vector, matrix_entries
from .steady import _expm, _sample_grid

# widest charge block C(2N, N) is 924 here: tools/oracle_scaling.py, 2-core Xeon, BLAS on one
# thread, times its trajectory at 0.39 s and steady solve at 0.09 s in 81 MB; 3432 at 7, untimed
MAX_ORACLE_SITES = 6

_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
# Lowering operator |0><1| in the (empty, occupied) = (index 0, index 1) basis.
_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
_EYE2 = np.eye(2, dtype=complex)


def _oracle_sites(n_sites) -> int:
    """``n_sites`` through the count gate; ScaleError above MAX_ORACLE_SITES, whose
    2^N x 2^N operators the oracle could not hold."""
    n = _count("n_sites", n_sites)
    if n > MAX_ORACLE_SITES:
        raise ScaleError(f"oracle supports at most {MAX_ORACLE_SITES} sites, got {n}; "
                         "use the correlator stack for larger systems")
    return n


class FockOperatorSet:
    """Dense Jordan-Wigner fermion operators for up to MAX_ORACLE_SITES sites.

    Site 1 is the leftmost tensor factor; the sign string of Z factors
    precedes each lowering operator.  Operator matrices depend on this
    ordering, but every number-conserving expectation value computed
    from them does not.
    """

    def __init__(self, n_sites: int):
        self.n_sites = _oracle_sites(n_sites)
        self.dim = 2 ** self.n_sites
        self._annihilation = tuple(self._jordan_wigner(j) for j in range(self.n_sites))
        # [i][j] is c_i^dag c_j (0-based), built at once since the trace tables read each
        self._pairs = tuple(tuple(a.conj().T @ b for b in self._annihilation)
                            for a in self._annihilation)
        self._trace_index, self._trace_signs = self._trace_tables()
        self._blocks = self._block_tables()

    def _jordan_wigner(self, position: int) -> np.ndarray:
        factors = [_PAULI_Z] * position + [_LOWER] + [_EYE2] * (self.n_sites - position - 1)
        op = factors[0]
        for f in factors[1:]:
            op = np.kron(op, f)
        return op

    def _trace_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat index and sign tables of shape (n, n, D) for Tr(rho c_j^dag c_i).

        Entry [i, j, a] is a D + col, where col names the one nonzero of
        column a of c_j^dag c_i (0-based i, j): Tr(rho P) = sum_a
        rho.flat[index[a]] * signs[a], with sign 0 where the column is
        empty.  The Jordan-Wigner construction puts at most one +-1 in
        each column; a test asserts it.
        """
        n, dim = self.n_sites, self.dim
        index = np.zeros((n, n, dim), dtype=np.intp)
        signs = np.zeros((n, n, dim))
        for i in range(n):
            for j in range(n):
                p = self._pairs[j][i]
                cols = (p != 0).argmax(axis=0)
                index[i, j] = np.arange(dim) * dim + cols
                signs[i, j] = p[cols, np.arange(dim)].real
        index.flags.writeable = signs.flags.writeable = False
        return index, signs

    def _block_tables(self) -> dict:
        """Basis matrices |i><j| grouped by their charge N_i - N_j.

        Each value is the read-only (rows, cols) index pair of one block,
        in row-major order, so the q = 0 block starts with the vacuum
        projector |0><0|.
        """
        filled = np.array([bin(i).count("1") for i in range(self.dim)])
        charge = filled[:, None] - filled[None, :]
        blocks = {q: np.nonzero(charge == q) for q in range(-self.n_sites, self.n_sites + 1)}
        for rows, cols in blocks.values():
            rows.flags.writeable = cols.flags.writeable = False
        return blocks

    def one_body_operator(self, coefficients) -> np.ndarray:
        """sum_ij M_ij c_i^dag c_j as a full Fock-space matrix."""
        m = matrix_entries(coefficients, "coefficient matrix")
        if m.shape != (self.n_sites, self.n_sites):
            raise ParameterError(
                f"coefficient matrix must be {self.n_sites}x{self.n_sites}, got {m.shape}")
        op = np.zeros((self.dim, self.dim), dtype=complex)
        for i in range(self.n_sites):
            for j in range(self.n_sites):
                if m[i, j] != 0:
                    op += m[i, j] * self._pairs[i][j]
        return op

    def loss_operator(self, vector) -> np.ndarray:
        """sum_j u_j c_j."""
        v = _vector("loss vector", vector, "iufc")
        if v.size != self.n_sites:
            raise ParameterError(f"jump vector length {v.size} != n_sites {self.n_sites}")
        op = np.zeros((self.dim, self.dim), dtype=complex)
        for j in range(self.n_sites):
            if v[j] != 0:
                op += v[j] * self._annihilation[j]
        return op

    def gain_operator(self, vector) -> np.ndarray:
        """sum_j v_j c_j^dag, the adjoint of loss_operator(conj v)."""
        return self.loss_operator(np.conj(_vector("gain vector", vector, "iufc"))).conj().T


_OPERATOR_CACHE: dict[int, FockOperatorSet] = {}


def operator_set(n_sites: int) -> FockOperatorSet:
    """Shared per-size operator set."""
    if n_sites not in _OPERATOR_CACHE:
        _OPERATOR_CACHE[n_sites] = FockOperatorSet(n_sites)
    return _OPERATOR_CACHE[n_sites]


def _checked_states(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validate a (S, D, D) stack of density matrices, each square already.

    Each sample must be finite, Hermitian to 1e-12 and, as its Hermitian
    part (models._hermitian_part), of unit trace to 1e-10 with no eigenvalue
    below -1e-8.  Returns those parts, read-only complex128, and each one's
    |Tr rho - 1|, read off those.  A real stack is checked in real
    arithmetic.  A stack of one is a single state; in a longer stack errors
    name the sample.

    One stacked Cholesky factorization of rho + 1e-8 I certifies the
    eigenvalue bound at a fraction of an eigensolve's cost; only when it
    fails does eigvalsh decide, so every rejection and its least
    eigenvalue come from eigvalsh.
    """
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
    rho, herm = _hermitian_part(stack)
    reject(herm > 1e-12, lambda k: f"not Hermitian: max deviation {herm[k]:.3e}")
    states = rho.astype(complex, copy=False)
    trace_err = np.abs(np.trace(states, axis1=1, axis2=2).real - 1.0)
    reject(trace_err > 1e-10, lambda k: f"trace off by {trace_err[k]:.3e}")
    try:
        np.linalg.cholesky(rho + 1e-8 * np.eye(dim))
    except np.linalg.LinAlgError:
        wmin = np.linalg.eigvalsh(rho).min(axis=1)
        reject(wmin < -1e-8, lambda k: f"has eigenvalue {wmin[k]:.3e} < -1e-8")
    states.flags.writeable = False
    return states, trace_err


@dataclass(frozen=True)
class DensityMatrix:
    """Validated many-body state (matrix_entries, _checked_states): Hermitian, unit trace, PSD."""

    entries: np.ndarray

    def __post_init__(self):
        rho = np.asarray(matrix_entries(self.entries, "density matrix"), dtype=complex)
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
        dim = 2 ** _oracle_sites(n_sites)
        rho = np.zeros((dim, dim), dtype=complex)
        rho[0, 0] = 1.0
        return cls(rho)


@dataclass(frozen=True)
class MasterTrajectory:
    """Exact master-equation samples, ``dt * stride`` apart except a shorter
    last one, with the largest |Tr rho - 1| over them as the drift log."""

    times: np.ndarray
    states: tuple[DensityMatrix, ...]
    max_trace_drift: float


# The last Liouvillian built: (id of the jump set, h's dtype, h's bytes) ->
# (jump set, K, jump operators, charge-0 generator).  Holding the jump set
# keeps its id from being reused while the entry lives.
_LIOUVILLIAN_CACHE: dict[tuple, tuple] = {}


def _liouvillian_parts(ops: FockOperatorSet, h, jumps: JumpSet):
    """(K, jump operators, charge-0 block generator, h), K = -iH - (1/2) sum L^dag L.

    h passes _hermitian (HERMITIAN_RTOL) and is checked against the jump
    set on every call.  K and the operators are float64 when -iH and every
    L are real, as for every chain the commands build (H imaginary, jump
    vectors real), and complex128 otherwise.  The last build is kept for
    the same frozen jump set and the same bytes of h, read-only, so one
    oracle check builds its Liouvillian once.
    """
    hmat = matrix_entries(h, "one-body Hamiltonian")
    if hmat.shape != (ops.n_sites, ops.n_sites):
        raise ParameterError(
            f"one-body Hamiltonian must be {ops.n_sites}x{ops.n_sites}, got {hmat.shape}")
    hmat = _hermitian(hmat, "one-body Hamiltonian")
    if jumps.dim != ops.n_sites:
        raise ParameterError(f"jump set dim {jumps.dim} != n_sites {ops.n_sites}")
    key = (id(jumps), hmat.dtype.str, hmat.tobytes())
    entry = _LIOUVILLIAN_CACHE.get(key)
    if entry is None:
        k = -1j * ops.one_body_operator(hmat)
        ls = [ops.loss_operator(v.vector) for v in jumps.loss_vectors]
        ls += [ops.gain_operator(v.vector) for v in jumps.gain_vectors]
        if not k.imag.any() and not any(op.imag.any() for op in ls):
            k, ls = k.real.copy(), [op.real.copy() for op in ls]
        for op in ls:
            k -= 0.5 * (op.conj().T @ op)
        generator = _block_generator(k, ls, *ops._blocks[0])
        for a in (k, generator, *ls):
            a.flags.writeable = False
        entry = (jumps, k, tuple(ls), generator)
        _LIOUVILLIAN_CACHE.clear()
        _LIOUVILLIAN_CACHE[key] = entry
    _, k, ls, generator = entry
    return k, ls, generator, hmat


def _block_generator(k: np.ndarray, ls, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The Liouvillian on one charge block, one column per basis matrix.

    Every term of K rho + rho K^dag + sum_L L rho L^dag conserves
    N_ket - N_bra, so the image of |i><j| stays inside its block; its
    |r><c| entry is K_ri d_cj + d_ri conj(K_cj) + sum_L L_ri conj(L_cj).
    Only block-sized arrays are formed, in the dtype of K and the L; each
    block of an operator is gathered by two 1-d takes, rows then columns.
    """
    def block(op, index):
        return op.take(index, axis=0).take(index, axis=1)

    out = block(k, rows) * (cols[:, None] == cols)
    out += (rows[:, None] == rows) * block(k, cols).conj()
    for op in ls:
        out += block(op, rows) * block(op, cols).conj()
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

    A sample is held as the vector of its entries in the charge blocks
    that rho0 occupies, in the dtype of the Liouvillian and rho0 (float64
    for a real pair), and propagated block by block.  A Hermitian rho0
    occupies blocks q and -q together, so a sample is symmetrized through
    the index map |r><c| <-> |c><r| of the vector.
    """
    times, intervals = _sample_grid(t_final, dt, stride)
    ops = operator_set(rho0.n_sites)
    k, ls, generator, _ = _liouvillian_parts(ops, h, jumps)

    # blocks that rho0 leaves empty stay empty
    blocks = {q: b for q, b in ops._blocks.items() if rho0.entries[b].any()}
    generators = [generator if q == 0 else _block_generator(k, ls, *b) for q, b in blocks.items()]
    rows = np.concatenate([r for r, _ in blocks.values()])
    cols = np.concatenate([c for _, c in blocks.values()])
    bounds = np.cumsum([0] + [r.size for r, _ in blocks.values()])
    spans = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
    # adjoint[i] is where the vector holds the adjoint partner of entry i
    where = np.zeros(ops.dim * ops.dim, dtype=np.intp)
    where[rows * ops.dim + cols] = np.arange(rows.size)
    adjoint = where[cols * ops.dim + rows]

    start = rho0.entries[rows, cols]
    if not start.imag.any():
        start = np.ascontiguousarray(start.real)
    dtype = np.result_type(generator, start)
    propagators = {t: [_expm(g * t).astype(dtype, copy=False) for g in generators]
                   for t in set(intervals)}

    samples = np.empty((times.size, rows.size), dtype=dtype)
    samples[0] = previous = start
    for vector, t in zip(samples[1:], intervals):
        for span, p in zip(spans, propagators[t]):
            np.matmul(p, previous[span], out=vector[span])
        previous = 0.5 * (vector + vector[adjoint].conj())
    stack = np.zeros((times.size, ops.dim, ops.dim), dtype=dtype)
    stack[:, rows, cols] = samples
    # rho0 rides along so that its drift comes from the same stacked trace;
    # it is symmetrized already, so its entries pass through bit for bit
    checked, trace_err = _checked_states(stack)
    return MasterTrajectory(
        times=times,
        states=(rho0,) + tuple(DensityMatrix._trusted(rho) for rho in checked[1:]),
        max_trace_drift=float(trace_err.max()),
    )


def correlator_of(rho: DensityMatrix) -> np.ndarray:
    """Hermitian part (models._hermitian_part) of the one-body correlator
    C_ij = Tr(rho c_j^dag c_i)."""
    ops = operator_set(rho.n_sites)
    return _hermitian_part((rho.entries.take(ops._trace_index) * ops._trace_signs).sum(-1))[0]


def steady_state_oracle(h, jumps: JumpSet, t_max: float | None = None) -> DensityMatrix:
    """The unique steady state of the master equation, solved exactly.

    L preserves the trace, so its diagonal rows are dependent: in the
    charge-0 block the vacuum row is replaced by Tr rho = 1 and the block
    is solved.  ``h`` is checked against the jump set (_liouvillian_parts)
    before the oracle's own eigvals screen, which keeps it independent of
    the solver it checks.  ``t_max`` is ignored.
    """
    ops = operator_set(jumps.dim)
    _, _, generator, hmat = _liouvillian_parts(ops, h, jumps)
    x = 1j * hmat + 0.5 * (np.asarray(jumps.loss_gram()) + np.asarray(jumps.gain_gram()))
    min_rate = float(np.linalg.eigvals(x).real.min())
    if min_rate <= 0:
        raise StabilityError(
            f"relaxation spectrum has min real part {min_rate:.6g} <= 0; "
            "no steady state to converge to")

    rows, cols = ops._blocks[0]
    system = generator.astype(complex)
    system[0] = rows == cols
    unit = np.zeros(rows.size)
    unit[0] = 1.0
    rho = np.zeros((ops.dim, ops.dim), dtype=complex)
    rho[rows, cols] = np.linalg.solve(system, unit)
    return DensityMatrix(rho)
