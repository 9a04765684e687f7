"""Steady-state and transient solutions of the one-body correlator equation.

The correlator C obeys dC/dt = -X C - C X^dag + Y.  When every
eigenvalue of X has positive real part the dynamics relax to the unique
fixed point of the continuous Lyapunov equation

    X C + C X^dag = Y.

The direct solver (DirectSolver, solve_lyapunov_direct) picks its
algorithm from X.  A real tridiagonal X whose bonds each keep one sign,
X[k+1,k] X[k,k+1] >= 0 for every k, is one class in any sign convention:
the exact sign gauge S = diag(+-1), flipping the sign at each bond with a
positive entry, makes S X S a Z-matrix (S = I for both chain models), and
C = S C' S with C' the solution for S X S and S Y S.  S X S is stable
exactly when it is a nonsingular M-matrix.  That is certified by the
positive pivots of its unpivoted LU factorization, not by eigenvalues,
which on long nonnormal chains return pseudospectrum.  It is solved by
Smith doubling on a Cayley transform whose terms are all nonnegative for
S Y S >= 0, so every entry of C is accurate, down to the smallest at the
far edge.  Its
pump-independent part is built once per X and reused for every pump of
a scan; apart from the squarings of the doubling it costs O(N^2), with
the inverse, the Cayley transform and the residual formed from the bands
of X.  A local pump (real, diagonal, >= 0, on at most half the sites)
starts the doubling as a thin nonnegative factor Z of C = 2p Z Z^T,
which costs N^2 per column instead of N^3 per step until Z is N columns
wide; its terms stay nonnegative too.  Every other X, a bond of mixed
sign included, takes an eigenvalue screen and the Schur method.

The spectral route sums over biorthogonal mode pairs

    C = sum_mn  <L_m|Y|L_n> / (beta_m + conj(beta_n))  |R_m><R_n|,

the paper's formula, with its transient in closed form; both run through
one kernel that refuses spectra above CONDITION_TRUST_LIMIT, where the sum
cancels to noise.  The one-term slow-mode approximation cancels nothing.

Transients are exact: each sample interval is one affine map read off a
block exponential (_affine_step), and the many-body oracle shares the
exponential and the sampling rule (_expm, _sample_grid).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DarkSourceError, EnvelopeOverflowError, ParameterError, SolveError,
                     StabilityError)
from .models import _frozen_array, _narrowed, matrix_entries
from .spectral import (CONDITION_TRUST_LIMIT, BiorthogonalSpectrum, _check_beta_stability,
                       _pump_loadings, _tridiagonal_bands, slow_mode_position)

EPS = float(np.finfo(float).eps)

# Powers A^(2^k) that still matter after this many squarings need a
# spectral radius equal to 1 in double precision: X is numerically singular.
MAX_DOUBLINGS = 64


@dataclass(frozen=True)
class SteadyCorrelator:
    """Hermitian one-body correlator with solver provenance; real C is float64.

    ``method`` is "direct" or "spectral"; ``residual`` is the normwise
    backward error of C as a solution of X C + C X^dag = Y (see
    lyapunov_residual); ``asymmetry`` records max |C - C^dag| before the
    Hermitian symmetrization that every producer applies.
    """

    entries: np.ndarray
    method: str
    residual: float
    asymmetry: float

    def __post_init__(self):
        m = _frozen_array(matrix_entries(self.entries, "correlator"))
        if self.method not in ("direct", "spectral"):
            raise ParameterError(f"unknown solver method {self.method!r}")
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class SingleModeResult:
    """Rank-one slow-mode approximation of a steady correlator.

    ``loading`` is A_0 = strength |L_0(s)|^2 / (2 Re beta_0) and
    ``predicted_occupation`` is A_0 <R_0|R_0>, which estimates the top
    natural-orbital occupation nu_1 only where one slow mode dominates a
    near-normal chain; on nonnormal chains it can exceed nu_1 manyfold.
    """

    rank_one: SteadyCorrelator
    loading: float
    predicted_occupation: float


@dataclass(frozen=True)
class CorrelatorTrajectory:
    """Exact correlator samples on the grid of _sample_grid.

    ``states`` is one read-only (S, N, N) array of Hermitian samples, and
    states[k] is the sample at times[k].
    """

    times: np.ndarray
    states: np.ndarray
    dt: float


def lyapunov_residual(x, c, y) -> float:
    """Normwise backward error ||X C + C X^dag - Y||_F / (2 ||X||_F ||C||_F + ||Y||_F).

    Higham, BIT 33, 124 (1993); 0 when the denominator vanishes.  C and Y
    are divided by the larger of their peaks first, so no norm overflows
    on long chains, and real inputs stay in real arithmetic.  A real
    tridiagonal X (both chain models) is applied from its bands in N^2
    operations (_backward_error); every other X takes dense products.
    Non-finite X, C or Y raises ParameterError (models.matrix_entries).
    """
    x = matrix_entries(x, "relaxation matrix")
    return _backward_error(x, _tridiagonal_bands(x), matrix_entries(c, "correlator"),
                           matrix_entries(y, "source matrix"))


def _backward_error(x: np.ndarray, bands, c: np.ndarray, y: np.ndarray) -> float:
    """lyapunov_residual of X, C and Y, with X applied from ``bands`` unless they are None.

    The banded defect is P + C X^T - Y with P = X C = (C^T X^T)^T, three
    scaled rows of C (_times_tridiagonal).  C X^T is P^dag when C is
    exactly Hermitian, as _hermitize makes every correlator the library
    returns, and three scaled columns of C otherwise.  X, C and Y are
    finite (models.matrix_entries, and solve_many's output check).
    """
    scale = max(float(np.abs(c).max(initial=0.0)), float(np.abs(y).max(initial=0.0)))
    if scale > 0:
        c, y = c / scale, y / scale
    if bands is None:
        defect = x @ c + c @ x.conj().T - y
        x_norm = float(np.linalg.norm(x))
    else:
        diag, sub, sup = bands  # the bands of X^T are (diag, sup, sub)
        xc = _times_tridiagonal(c.T, diag, sup, sub).T
        hermitian = np.array_equal(c, c.conj().T)
        defect = xc + (xc.conj().T if hermitian else _times_tridiagonal(c, diag, sup, sub))
        defect -= y
        x_norm = float(np.linalg.norm(np.concatenate(bands)))
    bound = 2.0 * x_norm * float(np.linalg.norm(c)) + float(np.linalg.norm(y))
    return float(np.linalg.norm(defect)) / bound if bound > 0 else 0.0


def _times_tridiagonal(m: np.ndarray, diag: np.ndarray, sub: np.ndarray,
                       sup: np.ndarray) -> np.ndarray:
    """m T for the tridiagonal T with T[k, k] = diag_k, T[k+1, k] = sub_k, T[k, k+1] = sup_k.

    Column j is m_j-1 sup_j-1 + m_j diag_j + m_j+1 sub_j, so the product
    costs N^2 and each term keeps the sign of m times its band.
    """
    out = m * diag
    out[..., 1:] += m[..., :-1] * sup
    out[..., :-1] += m[..., 1:] * sub
    return out


def _hermitize_stack(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(C + C^dag) / 2 and max |C - C^dag| of each matrix of a (P, N, N) stack."""
    adjoint = np.swapaxes(c, 1, 2).conj()
    herm = c - adjoint
    asym = np.abs(herm).max(axis=(1, 2), initial=0.0)
    np.add(c, adjoint, out=herm)
    herm *= 0.5
    return herm, asym


def _hermitize(c: np.ndarray) -> tuple[np.ndarray, float]:
    c, asym = _hermitize_stack(c[None])
    return c[0], float(asym[0])


def solve_schur(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Schur-factorization route (order N^3) for every X but a tridiagonal Z-matrix."""
    import scipy.linalg  # only this fallback needs scipy; keeps it out of import

    # scipy pairs a real X's quasi-triangular Schur form with the complex
    # triangular solver of a complex Y, so such an X goes complex first
    x = x.astype(np.result_type(x, y), copy=False)
    try:
        return scipy.linalg.solve_sylvester(x, x.conj().T, y)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise SolveError(f"Schur Lyapunov solve failed: {exc}") from exc


def _certify_m_matrix(diag: np.ndarray, sub: np.ndarray, sup: np.ndarray) -> float:
    """Smallest LU pivot of the Z-matrix with these bands; StabilityError unless
    it is a nonsingular M-matrix.

    For a Z-matrix this is the same as every eigenvalue having positive
    real part, and the same as every pivot of its unpivoted LU
    factorization being positive; the pivots see a bond only through
    sub_k sup_k, so they are also those of every sign gauge S X S of it.
    They are used because eigenvalue routines return pseudospectrum on
    long nonnormal chains and report stable chains as unstable.  They
    follow the O(N) recurrence u_k = x_kk - x_k,k-1 x_k-1,k / u_k-1.
    """
    coupling = [0.0] + (sub * sup).tolist()
    pivot, smallest = 1.0, np.inf
    for k, (d, t) in enumerate(zip(diag.tolist(), coupling)):
        pivot = d - t / pivot
        if not pivot > 0:
            raise StabilityError(
                f"relaxation matrix is not strictly stable: pivot {k + 1} of its "
                f"unpivoted LU factorization is {pivot:.6e} <= 0")
        smallest = min(smallest, pivot)
    return smallest


def _m_matrix_inverse(diag: np.ndarray, sub: np.ndarray, sup: np.ndarray) -> np.ndarray:
    """Inverse of a tridiagonal nonsingular M-matrix by unpivoted Gauss-Jordan elimination.

    One multiplier per row going down, m_k = sub_k / u_k, and one going up,
    sup_k.  The down pass leaves L^-1, whose column j below the diagonal
    is the running product of -m_j, -m_j+1, ..., so it is one cumulative
    product down the columns.  Multipliers and off-diagonal entries keep
    their signs, so every update outside the pivots u_k adds numbers of
    one sign and each entry of the (nonnegative) inverse is accurate to a
    few ulps times the accuracy of the pivots.  Pivoting would swap rows
    and bring back cancellation.  No pivot is checked: those of pI + X are
    at least p plus those of certified X.
    """
    n, sup = diag.size, sup.tolist()
    pivots, ratios = diag.tolist(), [1.0] * n
    for k, (low, up) in enumerate(zip(sub.tolist(), sup)):
        multiplier = low / pivots[k]
        pivots[k + 1] -= multiplier * up
        ratios[k + 1] = abs(multiplier)  # -m_k, and +0.0 (not -0.0) for a one-way bond
    lower = np.tri(n, k=-1, dtype=bool)
    inverse = np.where(lower, np.array(ratios)[:, None], 1.0)
    np.cumprod(inverse, axis=0, out=inverse)
    inverse[lower.T] = 0.0
    inverse[n - 1] /= pivots[n - 1]
    for k in range(n - 2, -1, -1):
        row = inverse[k]
        row -= sup[k] * inverse[k + 1]
        row /= pivots[k]
    return inverse


class DirectSolver:
    """Exact steady-state solver for one relaxation matrix, reusable across pumps.

    Construction checks X and its stability and does every
    pump-independent step; ``solve(source)`` then costs a few matrix
    products per pump, and ``solve_many(sources)`` does the same products
    on a whole stack of pumps at once.  ``solve`` is ``solve_many`` on a
    stack of one, so both share one solve path.  The algorithm is chosen
    from X:

    - real tridiagonal X with X[k+1,k] X[k,k+1] >= 0 on every bond: X and
      Y stand below for S X S and S Y S, and C = S C' S exactly, where the
      sign gauge S = diag(+-1) flips the sign at each bond with a positive
      entry (S = I for both chain models, at no cost).  The stability
      certificate of _certify_m_matrix, then Smith doubling on the Cayley
      transform with shift p = max diag X,

          A = (pI + X)^-1 (pI - X) >= 0,   C_0 = 2p (pI + X)^-1 Y (pI + X)^-T,
          C <- C + A_k C A_k^T,   A_k+1 = A_k^2,

      kept here as (pI + X)^-1 and the powers A_k.  Everything here but
      the squarings A_k^2 costs O(N^2): the inverse is a cumulative
      product and a row recurrence (_m_matrix_inverse), and A is three
      nonnegative scaled columns of it (_times_tridiagonal).  The number
      of powers is fixed here by a bound that holds for every pump (see
      _doubling_powers).  For Y >= 0 every term is nonnegative, so even
      the smallest entries of C are accurate.  A real diagonal pump
      Y >= 0 on w <= N/2 sites has C_0 = 2p Z_0 Z_0^T with the
      nonnegative N x w factor Z_0 = (pI + X)^-1[:, sites] diag(sqrt y),
      and the first steps double the factor instead, Z <- [Z, A_k Z],
      while it stays at most N columns wide (_smith).  That sums the same
      nonnegative terms as the dense steps, so accuracy is kept, at
      N^2 w 2^k operations per step instead of N^3: a local pump on
      200 sites takes 7 such steps to 128 columns and 2 dense ones.
      Every product broadcasts over a stack of pumps.  The residual of
      ``solve`` applies X from its bands, in N^2 operations;
    - anything else, dense real Z-matrices and bonds of mixed sign
      included: the eigenvalue screen and the Schur method, one pump at a time.

    Raises ParameterError for non-finite X (here) or Y (when solving).
    ``_certificate`` names what certified X stable and its margin: the
    smallest LU pivot, or min Re beta of the eigenvalue screen.
    """

    def __init__(self, relaxation):
        x = matrix_entries(relaxation, "relaxation matrix")
        self.x = x
        self._powers = self._signs = None
        self._bands = bands = _tridiagonal_bands(x)
        if bands is None or (np.sign(bands[1]) * np.sign(bands[2]) < 0).any():
            self._certificate = ("min Re beta of the eigenvalue screen",
                                 _check_beta_stability(np.linalg.eigvals(x)))
            return
        diag, sub, sup = bands
        flips = (sub > 0) | (sup > 0)
        if flips.any():  # the sign gauge S: solve for S X S and S Y S, and C = S C' S
            s = np.cumprod(np.concatenate(([1.0], np.where(flips, -1.0, 1.0))))
            self._signs = np.outer(s, s)  # S M S = M * s s^T, exactly
            sub, sup = -np.abs(sub), -np.abs(sup)
        self._certificate = ("smallest LU pivot", _certify_m_matrix(diag, sub, sup))
        self._shift = float(diag.max())
        self._inverse = _m_matrix_inverse(self._shift + diag, sub, sup)
        # A = (pI + X)^-1 (pI - X), every term of the banded product >= 0
        self._powers = _doubling_powers(
            _times_tridiagonal(self._inverse, self._shift - diag, -sub, -sup))

    def solve(self, source) -> SteadyCorrelator:
        """Steady correlator for pump Y; Y is trusted to be Hermitian.

        The solve of ``solve_many`` on a stack of one, plus the residual.
        """
        y = matrix_entries(source, "source matrix")
        c, asym = self.solve_many(y[None])
        return SteadyCorrelator(c[0], "direct", _backward_error(self.x, self._bands, c[0], y),
                                float(asym[0]))

    def solve_many(self, sources) -> tuple[np.ndarray, np.ndarray]:
        """Hermitized steady correlators of a (P, N, N) stack of pumps.

        Returns the stack of correlators and the max |C - C^dag| of each
        before symmetrization; every Y is trusted to be Hermitian.  Each
        Y is scaled to unit largest entry for the solve and its scale is
        restored after, so C(2^k X, s Y) = s 2^-k C(X, Y) holds bit for
        bit for real Y with largest entry 1.  A stack with no nonzero
        imaginary part is float64 (models._narrowed), and with a real X it
        gives float64 correlators, each bit for bit the one ``solve`` gives
        for that pump; one complex pump makes the stack complex.  On the
        M-matrix route the pumps of a real stack are grouped by starting width
        (_thin_widths: w for a diagonal pump >= 0 on w <= N/2 sites, which
        starts thin, 0 for every other pump, which starts dense) and each
        group is doubled as one stack, so mixed stacks keep that bit
        identity.  The stacked products hold a few arrays the size of the
        stack, so callers bound P*N*N.  An empty stack gives empty arrays.
        EnvelopeOverflowError names the first pump whose C is not finite.
        """
        y = _narrowed(sources)
        if y.ndim != 3 or y.shape[1:] != self.x.shape:
            raise ParameterError(
                f"source stack shape {y.shape} does not match relaxation {self.x.shape}")
        if not np.isfinite(y).all():
            raise ParameterError("source matrix contains non-finite entries")
        real = not np.iscomplexobj(y)
        scale = np.abs(y).max(axis=(1, 2), initial=0.0)
        scale[scale == 0] = 1.0
        unit = y / scale[:, None, None]
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            if self._powers is None:
                c = np.empty(unit.shape, np.result_type(self.x, unit))
                for k, u in enumerate(unit):
                    c[k] = solve_schur(self.x, u)
            else:
                if self._signs is not None:
                    unit = unit * self._signs
                widths = _thin_widths(unit) if real else np.zeros(len(unit), dtype=int)
                groups = [np.flatnonzero(widths == w) for w in set(widths.tolist())]
                if len(groups) == 1:  # every scan: no stack-sized copy in or out
                    c = self._smith(unit, int(widths[0]))
                else:
                    c = np.empty_like(unit)
                    for group in groups:
                        c[group] = self._smith(unit[group], int(widths[group[0]]))
                if self._signs is not None:
                    c *= self._signs
            c, asym = _hermitize_stack(c)
            c *= scale[:, None, None]
        if not np.isfinite(c).all():
            bad = int(np.argmin(np.isfinite(c).all(axis=(1, 2)))) + 1
            raise EnvelopeOverflowError(f"steady correlator of pump {bad} of the stack is "
                                        "not finite: it overflows double precision")
        return c, scale * asym

    def _smith(self, unit: np.ndarray, width: int) -> np.ndarray:
        """Smith doubling of a stack of unit-peak pumps that share a starting width.

        Width 0 starts dense from C_0.  Width w > 0 (real diagonal pumps
        >= 0 on w sites) starts from the factor Z_0 = (pI + X)^-1[:, sites]
        diag(sqrt y) of C_0 = 2p Z_0 Z_0^T and doubles it as [Z, A_k Z]
        while it stays at most N columns wide; C = 2p Z Z^T then takes the
        dense steps of the powers that are left.
        """
        powers = self._powers
        if width == 0:
            c = self._inverse @ unit @ self._inverse.T
        else:
            steps = _thin_doublings(width, unit.shape[1], len(powers))
            diag = np.diagonal(unit, axis1=1, axis2=2)
            sites = np.nonzero(diag)[1].reshape(-1, width)
            z = np.empty((len(unit), unit.shape[1], width << steps))
            z[:, :, :width] = self._inverse.T[sites].transpose(0, 2, 1)
            z[:, :, :width] *= np.sqrt(np.take_along_axis(diag, sites, axis=1))[:, None, :]
            for k, a in enumerate(powers[:steps]):
                cols = width << k
                np.matmul(a, z[:, :, :cols], out=z[:, :, cols:2 * cols])
            c = z @ z.transpose(0, 2, 1)
            del z  # freed before the dense steps, so peak memory stays the dense start's
            powers = powers[steps:]
        c *= 2.0 * self._shift
        # two buffers serve every step: fresh stack-sized temporaries page-fault
        # on every step and cost more than the products of a 40-site stack
        work, term = np.empty_like(c), np.empty_like(c)
        for a in powers:
            np.matmul(a, c, out=work)
            np.matmul(work, a.T, out=term)
            c += term
        return c


def _thin_widths(unit: np.ndarray) -> np.ndarray:
    """Starting width of each pump of a real (P, N, N) stack for DirectSolver._smith.

    The number of sites of a diagonal pump >= 0 on at most N/2 sites,
    and 0 (dense start) for every other pump, the all-zero one included.
    """
    diag = np.diagonal(unit, axis1=1, axis2=2)
    width = np.count_nonzero(diag, axis=1)
    thin = ((diag >= 0).all(axis=1) & (2 * width <= unit.shape[1])
            & (np.count_nonzero(unit, axis=(1, 2)) == width))
    return np.where(thin, width, 0)


def _thin_doublings(width: int, n: int, available: int) -> int:
    """Doublings a width-column factor takes before it would pass n columns."""
    return min(available, (n // width).bit_length() - 1)


def _doubling_powers(a: np.ndarray) -> list[np.ndarray]:
    """A, A^2, A^4, ... for a nonnegative A, as far as any pump needs them.

    If A^(2^(k+1)) <= d A^(2^k) entrywise, the terms the doubling would
    add after A^(2^k) sum to at most d^2 C for every Y >= 0 (for other Y,
    to d^2 times the solution for |C_0|), so the list stops once d^2 is
    below the unit roundoff.  Where A^(2^k) has zeros that its square
    fills, d is infinite and squaring goes on.  Only a power with zeros
    (one-way bonds) needs that guard; both chain models have none.
    """
    powers = []
    while a.any():
        if len(powers) == MAX_DOUBLINGS:
            raise SolveError(
                f"Smith doubling did not converge in {MAX_DOUBLINGS} steps; "
                "the relaxation matrix is numerically singular")
        powers.append(a)
        square = a @ a
        if a.all():
            ratio = np.divide(square, a)
        else:
            ratio = np.divide(square, a, out=np.where(square > 0, np.inf, 0.0), where=a > 0)
        if float(ratio.max()) ** 2 <= EPS / 2:
            break
        a = square
    return powers


def solve_lyapunov_direct(relaxation, source) -> SteadyCorrelator:
    """Exact steady correlator by dense linear algebra.

    Real tridiagonal X whose bonds each keep one sign, X[k+1,k] X[k,k+1]
    >= 0 in any sign convention, takes the M-matrix path of DirectSolver
    through the exact sign gauge S X S: stability certified by LU pivots,
    Smith doubling with entrywise accuracy for S Y S >= 0.  Every other X,
    dense real Z-matrices and bonds of mixed sign included, is screened
    by its eigenvalues and solved by the Schur method.  To solve many
    pumps for one X, build one DirectSolver and call its ``solve`` per pump.

    Parameters
    ----------
    relaxation, source : matrix wrappers or arrays
        X and Y of the Lyapunov equation; Y is trusted to be Hermitian.

    Raises
    ------
    StabilityError
        X is not strictly stable, so no steady state exists.
    SolveError
        The backing linear system could not be solved.
    EnvelopeOverflowError
        C has entries beyond double precision.
    """
    return DirectSolver(relaxation).solve(source)


def _mode_sum(spectrum: BiorthogonalSpectrum, source, initial=None,
              t: float | None = None) -> tuple[np.ndarray, float]:
    """_hermitize of the biorthogonal mode sum: the steady state for t = None,
    else C(t) from C0 = initial.  The one place mode sums check their input,
    and the one that enforces CONDITION_TRUST_LIMIT (SolveError)."""
    y = matrix_entries(source, "source matrix")
    c0 = y if t is None else matrix_entries(initial, "initial state C0")
    if y.shape[0] != spectrum.dim or c0.shape[0] != spectrum.dim:
        raise ParameterError("source or initial state dimension does not match spectrum")
    if t is not None and not 0 <= t < np.inf:
        raise ParameterError(f"time must be finite and >= 0, got {t}")
    betas = spectrum.betas
    _check_beta_stability(betas)
    if spectrum.condition_estimate > CONDITION_TRUST_LIMIT:
        raise SolveError(
            f"spectrum condition estimate {spectrum.condition_estimate:.3e} exceeds the "
            f"trust limit {CONDITION_TRUST_LIMIT:.0e}; use solve_lyapunov_direct")
    right, left = spectrum.right, spectrum.left
    denom = betas[:, None] + betas[None, :].conj()
    loads = left.conj().T @ y @ left
    if t is None:
        return _hermitize(right @ (loads / denom) @ right.conj().T)
    decay = right * np.exp(-betas * t)[None, :]
    propagated = decay @ (left.conj().T @ c0 @ left) @ decay.conj().T
    driven = right @ (loads * (-np.expm1(-denom * t) / denom)) @ right.conj().T
    return _hermitize(propagated + driven)


def solve_lyapunov_spectral(spectrum: BiorthogonalSpectrum, source) -> SteadyCorrelator:
    """Steady correlator from the biorthogonal mode sum.

    The residual is evaluated against the matrix the spectrum actually
    diagonalizes (R diag(beta) L^dag), so it measures the accuracy of
    the sum itself and cannot see the noise of a spectrum above
    CONDITION_TRUST_LIMIT; _mode_sum refuses those with SolveError.
    """
    c, asym = _mode_sum(spectrum, source)
    return SteadyCorrelator(c, "spectral",
                            lyapunov_residual(spectrum.reconstruct(), c, source), asym)


def single_mode_approximation(spectrum: BiorthogonalSpectrum, pump_site: int,
                              pump_strength: float) -> SingleModeResult:
    """Rank-one steady state kept by the slowest mode alone.

    For a single-site pump of the given strength at ``pump_site``, the
    slow-mode term of the mode sum is A_0 |R_0><R_0| with A_0 = strength
    |L_0(s)|^2 / (2 Re beta_0).  One term cancels nothing, so
    CONDITION_TRUST_LIMIT does not apply; but where the chain is
    nonnormal the full sum cancels, so A_0 <R_0|R_0> estimates nu_1 only
    where one slow mode dominates a near-normal chain.

    Raises DarkSourceError on a node of the slow mode: the site's share
    |L_0(s) R_0(s)| of <L_0|R_0> = 1, unchanged by how the pair is
    normalized, is at most N eps.  Raises EnvelopeOverflowError when the
    loading, the predicted occupation or the correlator is not representable.
    """
    pos = slow_mode_position(spectrum.betas)
    r0 = spectrum.right[:, pos]
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        loading = float(_pump_loadings(spectrum, pump_site, pump_strength)[pos])
        predicted = loading * float(np.vdot(r0, r0).real)
        c, asym = _hermitize(loading * np.outer(r0, r0.conj()))
    site = int(pump_site) - 1
    weight = abs(spectrum.left[site, pos] * r0[site])
    if weight <= spectrum.dim * EPS:
        raise DarkSourceError(f"pump site {pump_site} is a node of the slow mode "
                              f"(|L_0(s) R_0(s)| = {weight:.2e})")
    # off a node the true loading is > 0, so 0 means it underflowed
    if not (0 < loading and np.isfinite(predicted) and np.isfinite(c).all()):
        raise EnvelopeOverflowError(f"slow-mode loading {loading:.3e} or occupation "
                                    f"{predicted:.3e} is not representable")
    y = np.zeros((spectrum.dim, spectrum.dim))
    y[site, site] = pump_strength
    residual = lyapunov_residual(spectrum.reconstruct(), c, y)
    return SingleModeResult(SteadyCorrelator(c, "spectral", residual, asym), loading, predicted)


def _halvings(norm: float) -> int:
    """Least k >= 0 with norm / 2^k <= 1/2."""
    return max(0, int(np.ceil(np.log2(2.0 * norm)))) if norm > 0 else 0


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring a Taylor polynomial.

    Moler & Van Loan, SIAM Review 45, 3 (2003).  After scaling to
    ||a||_1 <= 1/2 the degree-14 remainder is below 2^-15 / 15! < 3e-17.
    """
    squarings = _halvings(float(np.abs(a).sum(axis=0).max()))
    b = a / 2.0 ** squarings
    eye = np.eye(a.shape[0], dtype=a.dtype)
    out = eye
    for order in range(14, 0, -1):
        out = b @ out
        out /= order
        out += eye
    for _ in range(squarings):
        out = out @ out
    return out


def _sample_grid(t_final: float, dt: float, stride: int) -> tuple[np.ndarray, list[float]]:
    """Sample times ``dt * stride`` apart from 0 and the last at ``t_final``,
    with the interval that ends at each sample after the first."""
    if dt <= 0 or not np.isfinite(dt):
        raise ParameterError(f"dt must be positive, got {dt}")
    if t_final < 0 or not np.isfinite(t_final):
        raise ParameterError(f"t_final must be >= 0, got {t_final}")
    if stride < 1 or int(stride) != stride:
        raise ParameterError(f"stride must be a positive integer, got {stride!r}")
    n_steps = int(np.ceil(t_final / dt - 1e-12)) if t_final > 0 else 0
    steps = list(range(stride, n_steps + 1, stride)) + ([n_steps] if n_steps % stride else [])
    times = [0.0] + [min(step * dt, t_final) for step in steps]
    # every sample is a full stride on from the last, except one that ends early at t_final
    n_full = sum(step % stride == 0 and step * dt <= t_final for step in steps)
    intervals = [stride * dt] * n_full
    if len(steps) > n_full:
        intervals.append(times[-1] - n_full * stride * dt)
    return np.asarray(times, dtype=float), intervals


def _affine_step(x: np.ndarray, y: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """F = e^{-X h} and Q = int_0^h e^{-X s} Y e^{-X^dag s} ds, so C <- F C F^dag + Q.

    At tau = h / 2^k with ||X||_1 tau <= 1/2, exp [[-X, Y], [0, X^dag]] tau
    holds F and Q F^-dag (Van Loan, IEEE TAC 23, 395 (1978)).  The pair is
    then doubled k times; over a long interval the block's growing
    e^{X^dag h} corner would swamp Q.
    """
    n = x.shape[0]
    doublings = _halvings(float(np.abs(x).sum(axis=0).max()) * h)
    tau = h / 2.0 ** doublings
    block = np.zeros((2 * n, 2 * n), dtype=np.result_type(x, y))
    block[:n, :n] = -tau * x
    block[:n, n:] = tau * y
    block[n:, n:] = tau * x.conj().T
    e = _expm(block)
    f = e[:n, :n]
    q = e[:n, n:] @ f.conj().T
    for _ in range(doublings):
        q = q + f @ q @ f.conj().T
        f = f @ f
    return f, q


def propagate_correlator(relaxation, source, initial, t_final: float,
                         dt: float, stride: int = 1) -> CorrelatorTrajectory:
    """Sample dC/dt = -X C - C X^dag + Y exactly, as evolve_master samples.

    Each sample is the last under C <- F C F^dag + Q (_affine_step), so
    ``dt`` only spaces the samples.  Samples are symmetrized and returned
    as one read-only (S, N, N) array.  SolveError names the first sample
    that is not finite, which only an unstable X gives.
    """
    x = matrix_entries(relaxation, "relaxation X")
    y = matrix_entries(source, "source Y")
    c0 = matrix_entries(initial, "initial state C0")
    if y.shape != x.shape or c0.shape != x.shape:
        raise ParameterError("relaxation, source, and initial state dimensions differ")
    times, intervals = _sample_grid(t_final, dt, stride)
    c = 0.5 * (c0 + c0.conj().T)
    samples = [c]
    with np.errstate(over="ignore", invalid="ignore"):  # unstable X; checked below
        maps = {h: _affine_step(x, y, h) for h in set(intervals)}
        for t, h in zip(times[1:], intervals):
            f, q = maps[h]
            c = f @ c @ f.conj().T + q
            c = 0.5 * (c + c.conj().T)
            if not np.isfinite(c).all():
                raise SolveError(f"correlator is not finite at t = {t:.6g}; "
                                 "the relaxation matrix is not stable")
            samples.append(c)
    states = np.array(samples)
    states.flags.writeable = False
    return CorrelatorTrajectory(times, states, float(dt))


def closed_form_correlator(spectrum: BiorthogonalSpectrum, source, initial,
                           t: float) -> np.ndarray:
    """Exact correlator at time t in the biorthogonal eigenbasis.

    C(t) = e^{-X t} C0 e^{-X^dag t}
           + sum_mn <L_m|Y|L_n> (1 - e^{-(beta_m + conj beta_n) t})
                    / (beta_m + conj beta_n) |R_m><R_n|.

    The paper's formula and criterion 10's reference; library transients
    run through propagate_correlator.  Needs a finite t >= 0 and a strictly
    stable spectrum within CONDITION_TRUST_LIMIT (see _mode_sum); C(0) = C0,
    and C(t) tends to solve_lyapunov_spectral's steady state as t -> inf.
    """
    return _mode_sum(spectrum, source, initial, t)[0]
