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
far edge.  Its pump-independent part is built once per X and reused for
every pump of a scan; apart from the squarings of the doubling it costs
O(N^2), with the inverse, the Cayley transform and the residual formed
from the bands of X.  A local pump (real, diagonal, >= 0, on at most half
the sites) starts the doubling as a thin nonnegative factor Z of
C = 2p Z Z^T, which costs N^2 per column instead of N^3 per step until Z
is N columns wide; its terms stay nonnegative too.  Past 100 sites the
factor doubles only to about N/2 columns and then grows by appended
blocks, N^2 per column, until a per-pump entrywise certificate bounds
what is left out by eps/2 C, so a local pump squares no power past A^64
at 200 sites; a pump not certified by about 2-4 N columns hands over to
the dense steps.  Powers are squared when a solve first needs them, so
construction costs O(N^2) and the doubling's own errors come from solves.
A scan names its one-site pumps by their 1-based sites alone
(DirectSolver.solve_local).
Every other X, a bond of mixed sign included, takes an eigenvalue screen
and the Schur method.

The spectral route sums over biorthogonal mode pairs

    C = sum_mn  <L_m|Y|L_n> / (beta_m + conj(beta_n))  |R_m><R_n|,

the paper's formula, with its transient in closed form; both run through
one kernel that refuses spectra above CONDITION_TRUST_LIMIT, where the sum
cancels to noise.  The one-term slow-mode approximation cancels nothing;
it is a SteadyCorrelator like the others, and its trace is its one occupation.

Transients are exact: each sample interval is one affine map read off a
block exponential (_affine_step), and the many-body oracle shares the
exponential and the sampling rule (_expm, _sample_grid).

Every route returns the Hermitian part of the C it computed, formed by
models._hermitian_part, which halves C and C^dag before their sum, so a C
whose entries are representable is never refused for that sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DarkSourceError, EnvelopeOverflowError, ParameterError, SolveError,
                     StabilityError)
from .models import (_GatedMatrix, _check_finite_scalar, _count, _hermitian,
                     _hermitian_part, _positions, _strength, matrix_entries)
from .spectral import (CONDITION_TRUST_LIMIT, BiorthogonalSpectrum, _check_beta_stability,
                       _pump_loadings, _tridiagonal_bands, slow_mode_position)

EPS = float(np.finfo(float).eps)
_SMALLEST_NORMAL = float(np.finfo(float).tiny)

# Powers A^(2^k) that still matter after this many squarings need a
# spectral radius equal to 1 in double precision: X is numerically singular.
MAX_DOUBLINGS = 64

# Up to this many sites (N^3 <= 10^6 multiply-adds) OpenBLAS multiplies
# by small-matrix kernels, and its kernel for a transposed right operand
# ran 1.2-2.4x slower there than the one for a C-order copy on stacks of
# pumps (2-core Xeon, OpenBLAS 0.3.31); on one pump the two took alike.
# Above it both ran alike, syrk ran Z Z^T in 0.6x gemm's time, and a copy
# only cost.  The kernels can round differently, so DirectSolver._smith
# picks the operand by N alone, and a stack keeps the bits of its pumps.
# Up to it the thin start also takes no appends (_thin_squarings), so the
# pump-scan and reference chains keep the doubling's bits.
_SMALL_PRODUCT_SITES = 100


@dataclass(frozen=True)
class SteadyCorrelator(_GatedMatrix):
    """Hermitian one-body correlator with solver provenance; real C is float64.

    ``method`` is "direct" or "spectral"; ``residual`` is the normwise
    backward error of C as a solution of X C + C X^dag = Y (see
    _backward_error); ``asymmetry`` records max |C - C^dag| of the matrix
    whose Hermitian part (models._hermitian_part) every producer returns.
    """

    entries: np.ndarray
    method: str
    residual: float
    asymmetry: float

    def __post_init__(self):
        self._hold(matrix_entries(self.entries, "correlator"))
        if self.method not in ("direct", "spectral"):
            raise ParameterError(f"unknown solver method {self.method!r}")


@dataclass(frozen=True)
class CorrelatorTrajectory:
    """Exact correlator samples on the grid of _sample_grid.

    ``states`` is one read-only (S, N, N) array of Hermitian samples, and
    states[k] is the sample at times[k].
    """

    times: np.ndarray
    states: np.ndarray


def _unit_scale(peak: float) -> float:
    """The power of two u with u peak in [1, 2), 1 for both reference chains; at most 2^1001."""
    return math.ldexp(1.0, 1 - max(math.frexp(peak)[1], -1000))


def _backward_error(x: np.ndarray, bands, c: np.ndarray, y: np.ndarray) -> float:
    """Normwise backward error ||X C + C X^dag - Y||_F / (2 ||X||_F ||C||_F + ||Y||_F).

    Higham, BIT 33, 124 (1993); 0 when the denominator vanishes.  X is
    applied from ``bands`` (_tridiagonal_bands) in N^2 operations unless
    they are None, and by dense products then.  It is the error of
    (uX, C, uY) with u of _unit_scale, and C and Y are divided by the
    larger of their peaks, so no norm overflows at any scale of X or on
    long chains; real inputs stay in real arithmetic.  The banded defect
    is X C + C X^T - Y with X C = (C^T X^T)^T, three scaled rows of C, and
    C X^T three scaled columns (_times_tridiagonal).  The defect is summed
    in place and uY, exact, is formed after the products, so the call peaks
    at about four N^2 arrays besides its inputs.  X, C and Y are finite
    (models.matrix_entries, and DirectSolver._settle's output check), and
    C is complex where Y is, as every solver returns it.
    """
    parts = x if bands is None else np.concatenate(bands)
    unit = _unit_scale(float(np.abs(parts).max()))
    scale = max(float(np.abs(c).max(initial=0.0)), unit * float(np.abs(y).max(initial=0.0)))
    if scale > 0:
        c = c / scale
    if bands is None:
        x = x * unit
        defect = x @ c
        defect += c @ x.conj().T
    else:
        diag, sub, sup = (b * unit for b in bands)  # the bands of X^T are (diag, sup, sub)
        defect = _times_tridiagonal(c, diag, sup, sub)
        defect += _times_tridiagonal(c.T, diag, sup, sub).T
    y = y * unit
    if scale > 0:
        y /= scale
    defect -= y
    x_norm = float(np.linalg.norm(parts * unit))
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
    """Smallest LU pivot of the Z-matrix with these bands (of X at unit scale, so
    sub * sup cannot overflow); StabilityError unless it is a nonsingular M-matrix.

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
    products per pump, and on chains ``solve_local(sites, strength)`` does
    the same products on a whole stack of one-site pumps at once, named by
    their 1-based sites.  Both share one doubling (_smith) and one epilogue (_settle),
    so each pump gets the same bits either way.  The algorithm is chosen
    from X:

    - real tridiagonal X with X[k+1,k] X[k,k+1] >= 0 on every bond: X and
      Y stand below for S X S and S Y S, and C = S C' S exactly, where the
      sign gauge S = diag(+-1) flips the sign at each bond with a positive
      entry (S = I for both chain models, at no cost).  The stability
      certificate of _certify_m_matrix, then Smith doubling on the Cayley
      transform with shift p = max diag X,

          A = (pI + X)^-1 (pI - X) >= 0,   C_0 = 2p (pI + X)^-1 Y (pI + X)^-T,
          C <- C + A_k C A_k^T,   A_k+1 = A_k^2,

      kept here as (pI + X)^-1 and A.  Construction costs O(N^2): the
      inverse is a cumulative product and a row recurrence
      (_m_matrix_inverse), and A is three nonnegative scaled columns of
      it (_times_tridiagonal).  The powers A_k are squared when a solve
      first needs one and kept for every later pump (_power), and the
      number of them the dense steps take is fixed by a bound that holds
      for every pump (_doubling_powers), so the doubling's SolveError and
      EnvelopeOverflowError come from solves.  For Y >= 0 every term is
      nonnegative, so even the smallest entries of C are accurate.  A
      real diagonal pump Y >= 0 on w <= N/2 sites has C_0 = 2p Z_0 Z_0^T
      with the nonnegative N x w factor Z_0 = (pI + X)^-1[:, sites]
      diag(sqrt y), and the first steps double the factor instead,
      Z <- [Z, A_k Z], at N^2 w 2^k operations per step instead of N^3
      (_smith).  Up to _SMALL_PRODUCT_SITES sites it doubles while it
      stays at most N columns wide, then takes the dense steps left.
      Above, it doubles to a block B of at most N/2 columns (64 columns,
      6 squarings, at 200 sites) and then appends blocks B <- A_k0 B,
      N^2 per column whatever the power, until the entrywise certificate
      of _appended bounds the terms left out by eps/2 C, the bound of the
      dense steps; a pump not certified by the cap, the first power of
      two at or past 2N columns, holds exactly the terms j < 2^k and
      takes the dense steps from A_k.  Every way sums the same
      nonnegative terms, so accuracy is kept: a local pump on 200 sites
      of the benchmark's chains takes 6 squarings and 2 to 7 appends,
      where the dense doubling took 8 to 10 squarings.  Every product
      but the appends broadcasts over a stack of pumps, and a pump stops
      appending once certified; up to _SMALL_PRODUCT_SITES sites the
      transposed right operands are copied to C order first, as BLAS's
      small-matrix kernel for a transposed operand is slower, and the
      choice depends on N alone, so a stack gives each pump the bits of
      its own solve.  The residual of
      ``solve`` applies X from its bands, in N^2 operations;
    - anything else, dense real Z-matrices and bonds of mixed sign
      included: the eigenvalue screen and the Schur method, one ``solve`` per pump.

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
        # X is solved at unit scale (_unit_scale), and C scaled back exactly in _smith
        u = self._unit = _unit_scale(float(np.abs(np.concatenate(bands)).max()))
        diag, sub, sup = diag * u, sub * u, sup * u
        self._certificate = ("smallest LU pivot", _certify_m_matrix(diag, sub, sup) / u)
        self._shift = float(diag.max())
        # entries past the double range are named by _square when a solve needs them
        with np.errstate(over="ignore", invalid="ignore"):
            self._inverse = _m_matrix_inverse(self._shift + diag, sub, sup)
            # A = (pI + X)^-1 (pI - X), every term of the banded product >= 0
            a = _times_tridiagonal(self._inverse, self._shift - diag, -sub, -sup)
        self._powers = [a] if a.any() else [None]

    def solve(self, source) -> SteadyCorrelator:
        """Steady correlator for pump Y, which passes the Hermitian rule (_hermitian).

        Y is solved at unit largest entry and its scale restored after, so
        C(2^k X, s Y) = s 2^-k C(X, Y) holds bit for bit for real Y with
        largest entry 1, and a subnormal largest entry is raised with Y by
        2^1001 first, exactly.  Real X and Y give a float64 C.
        """
        y = _hermitian(matrix_entries(source, "source matrix"), "source matrix")
        if y.shape != self.x.shape:
            raise ParameterError(f"source shape {y.shape} does not match X {self.x.shape}")
        scale = float(np.abs(y).max()) or 1.0
        # a complex y / scale multiplies by 1 / scale, which overflows for a
        # subnormal scale: then both are first raised by one power of two, exactly
        lift = _unit_scale(scale)
        unit = y / scale if scale >= _SMALLEST_NORMAL else (y * lift) / (scale * lift)
        with np.errstate(over="ignore", invalid="ignore"):  # checked in _settle
            if self._powers is None:
                c = solve_schur(self.x, unit)[None]
            else:
                if self._signs is not None:
                    unit = unit * self._signs
                sites = _thin_sites(unit)
                c = (self._smith(unit[None]) if sites is None
                     else self._smith(sites[None], np.sqrt(unit[sites, sites])[None]))
            c, asym = self._settle(c, scale)
        return SteadyCorrelator(c[0], "direct", _backward_error(self.x, self._bands, c[0], y),
                                float(asym[0]))

    def solve_local(self, sites, strength: float) -> tuple[np.ndarray, np.ndarray]:
        """Steady correlators of the pumps strength |s><s|, one per 1-based site s.

        Returns the (P, N, N) stack, each C bit for bit what ``solve`` gives,
        and each max |C - C^dag| before its Hermitian part was taken.  No
        pump matrix is built, but the doubling holds a few P N^2 arrays:
        callers bound P.
        EnvelopeOverflowError names the first pump site whose C is not finite,
        and ParameterError an X that is not a chain.
        """
        if self._powers is None:
            raise ParameterError("solve_local takes chains only: real tridiagonal X with "
                                 "X[k+1, k] X[k, k+1] >= 0 on every bond; use solve per pump")
        strength = _strength("pump strength", strength)
        positions = np.ravel(_positions("pump site", sites, self.x.shape[0]))
        with np.errstate(over="ignore", invalid="ignore"):  # checked in _settle
            c = self._smith(positions[:, None], np.ones((positions.size, 1)))
            return self._settle(c, strength, positions)

    def _smith(self, start: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
        """Smith doubling of a stack of unit-peak pumps in the sign gauge.

        ``start`` is a (P, N, N) stack of pumps Y, which start dense from
        C_0 = 2p (pI + X)^-1 Y (pI + X)^-T, or with ``weights`` a (P, w)
        stack of the sites of diagonal pumps >= 0, which start from the
        factor Z_0 = (pI + X)^-1[:, sites] diag(weights) of C_0 = 2p Z_0
        Z_0^T (weights = sqrt Y there).  Z doubles as [Z, A_k Z] to the
        block B of 2^k0 w columns (_thin_squarings), which holds A^j Z_0
        for j < 2^k0.  Past _SMALL_PRODUCT_SITES sites each pump then
        appends blocks B <- A_k0 B, summing C = 2p sum B B^T, until
        _appended certifies its tail or the blocks reach the cap of
        2^k_cap w columns; only the pumps not certified by then take dense
        steps, from A_k_cap, their C holding exactly the terms j < 2^k_cap.
        Up to _SMALL_PRODUCT_SITES sites no block is appended, every pump
        takes the dense steps from A_k0, and the transposed right operands
        (B^T, A_k^T) are C-order copies.  The powers come from _power, so
        a pump certified by its appends squares no power past A_k0.
        """
        n = self.x.shape[0]
        scale = 2.0 * self._shift * self._unit  # C(X, Y) = u C(uX, Y)
        if weights is None:
            c = self._inverse @ start @ self._inverse.T
            c *= scale
            self._dense_steps(c, 0)
            return c
        width = start.shape[1]
        k0, k_cap = _thin_squarings(width, n)
        # a second block for the appends, so each block is one C-order N x 2^k0 w matrix
        z = np.empty((len(start), 1 if k_cap == k0 else 2, n, width << k0))
        block = z[:, 0]
        block[:, :, :width] = self._inverse.T[start].transpose(0, 2, 1)
        block[:, :, :width] *= weights[:, None, :]
        k = 0
        while k < k0 and (a := self._power(k)) is not None:
            cols = width << k
            np.matmul(a, block[:, :, :cols], out=block[:, :, cols:2 * cols])
            k += 1
        block = block[:, :, :width << k]  # narrower where the list of powers ended first
        bt = block.transpose(0, 2, 1)
        c = block @ (bt.copy() if n <= _SMALL_PRODUCT_SITES else bt)
        handover = range(len(c))  # the pumps whose C holds the terms j < 2^k
        if k < k_cap and (a := self._power(k)) is not None:
            gram = np.empty((n, n))
            appends = (1 << k_cap - k) - 1
            handover = [p for p in handover if not _appended(a, z[p], c[p], gram, appends)]
            k = k_cap
        del z, block, bt  # freed before the dense steps, so peak memory stays the dense start's
        c *= scale
        # one stacked product per step when every pump hands over, as always
        # up to _SMALL_PRODUCT_SITES sites: per-pump calls cost more there
        if len(handover) == len(c):
            self._dense_steps(c, k)
        else:
            for p in handover:
                self._dense_steps(c[p:p + 1], k)
        return c

    def _dense_steps(self, c: np.ndarray, k: int) -> None:
        """C <- C + A_j C A_j^T in place on the (P, N, N) stack c, for j = k, k + 1, ...
        while the list of powers goes on (_power)."""
        ordered = c.shape[1] <= _SMALL_PRODUCT_SITES
        # two buffers serve every step: fresh stack-sized temporaries page-fault
        # on every step and cost more than the products of a 40-site stack
        work = term = None
        while (a := self._power(k)) is not None:
            if work is None:
                work, term = np.empty_like(c), np.empty_like(c)
            np.matmul(a, c, out=work)
            np.matmul(work, a.T.copy() if ordered else a.T, out=term)
            c += term
            k += 1

    def _power(self, k: int) -> np.ndarray | None:
        """A_k = A^(2^k), squared on first request (_square) and kept for
        every later pump; None where the doubling rule ended the list
        before k, which ``_powers`` then records with a closing None."""
        powers = self._powers
        while len(powers) <= k and powers[-1] is not None:
            powers.append(_square(powers[-1], len(powers) - 1))
        return powers[k] if k < len(powers) else None

    def _settle(self, c: np.ndarray, scale: float, positions=()) -> tuple[np.ndarray, np.ndarray]:
        """Unit-peak correlators out of the sign gauge, their Hermitian parts
        (models._hermitian_part) times ``scale``, with each max |C - C^dag|.
        EnvelopeOverflowError names the pump site of the first C that is not
        finite, then of the first nonzero C whose peak is below the smallest
        normal double, where subnormal rounding exceeds eps times the peak,
        given the pumps' 0-based ``positions``."""
        if self._signs is not None:
            c *= self._signs
        c, asym = _hermitian_part(c)
        c *= scale
        parts = c.reshape(len(c), -1).view(float)  # a complex C's re and im parts, not copied
        peak = np.maximum(parts.max(axis=1), -parts.min(axis=1))  # NaN stays NaN
        for bad, problem in ((~np.isfinite(peak), "is not finite: it overflows"),
                             ((peak > 0) & (peak < _SMALLEST_NORMAL),
                              "peaks below the smallest normal double: it underflows")):
            if bad.any():
                site = f" of pump site {positions[np.argmax(bad)] + 1}" if len(positions) else ""
                raise EnvelopeOverflowError(f"steady correlator{site} {problem} double precision")
        return c, scale * asym


def _thin_sites(unit: np.ndarray) -> np.ndarray | None:
    """Sites of a real diagonal pump >= 0 on 1 to N/2 sites, which starts thin; else None."""
    if np.iscomplexobj(unit):
        return None
    diag = np.diagonal(unit)
    sites = np.flatnonzero(diag)
    thin = (1 <= sites.size <= unit.shape[0] // 2 and (diag >= 0).all()
            and np.count_nonzero(unit) == sites.size)
    return sites if thin else None


def _thin_squarings(width: int, n: int) -> tuple[int, int]:
    """(k0, k_cap) of a width-column thin start on n sites (DirectSolver._smith).

    Its factor doubles to the block of 2^k0 width columns, the widest at
    most n (up to _SMALL_PRODUCT_SITES sites, where k_cap = k0 and no
    block is appended) or n/2 columns wide, and appends blocks up to
    2^k_cap width columns, the first power of two at or past 2n.
    """
    if n <= _SMALL_PRODUCT_SITES:
        k0 = (n // width).bit_length() - 1
        return k0, k0
    k0 = (n // 2 // width).bit_length() - 1
    return k0, k0 + (-(-2 * n // (width << k0)) - 1).bit_length()


def _appended(a: np.ndarray, z: np.ndarray, c: np.ndarray, gram: np.ndarray,
              appends: int) -> bool:
    """Appends to C = sum B B^T (unscaled, in place) up to ``appends`` blocks
    B' = A_k0 B, True at the first one that certifies the tail.

    ``z`` holds the last block B in z[0] and takes B' in z[1], alternately;
    ``gram`` is an N x N buffer, so no append allocates one.  B' certifies
    the tail when B' <= d B entrywise with d < 1, and d^2 q / (1 - d^2) <=
    eps / 2 with q = max B'B'^T / C over the entries where C > 0 (C holds
    B'B'^T).  Proof: A_k0 >= 0, so A_k0 B' <= d A_k0 B = d B', and by
    induction the m-th block after B' is at most d^m B' entrywise; so the
    terms left out sum to at most sum_m>=1 d^2m B'B'^T = d^2 / (1 - d^2)
    B'B'^T <= d^2 q / (1 - d^2) C <= eps / 2 C, entrywise, the bound the
    doubling rule keeps (_doubling_powers).  A zero of B under a nonzero
    entry of B' makes d infinite; entries where both vanish (0 / 0) bound
    nothing and are skipped by np.fmax.
    """
    old, new = z
    for _ in range(appends):
        np.matmul(a, old, out=new)
        np.matmul(new, new.T, out=gram)
        c += gram
        with np.errstate(divide="ignore", invalid="ignore"):
            d = float(np.fmax.reduce(np.divide(new, old, out=old), axis=None))
            if d < 1.0:
                q = float(np.fmax.reduce(np.divide(gram, c, out=gram), axis=None))
                if d * d * q <= EPS / 2 * (1.0 - d * d):
                    return True
        old, new = new, old
    return False


def _square(a: np.ndarray, k: int) -> np.ndarray | None:
    """A^(2^(k+1)) from a = A^(2^k), or None where the doubling rule
    (_doubling_powers) ends the list at a.

    The ratio pass costs N^2 and cannot pass where max A^2 > sqrt(eps / 2)
    max A, as its bound is at least max A^2 / max A; it is skipped there,
    with a factor 2 to spare for rounding.  A NaN square fails that test
    and takes the ratio pass, which names it.
    """
    square = a @ a
    if not float(square.max()) > 2.0 * math.sqrt(EPS / 2) * float(a.max()):
        if a.all():
            ratio = np.divide(square, a)
        else:
            ratio = np.divide(square, a, out=np.where(square > 0, np.inf, 0.0), where=a > 0)
        bound = float(ratio.max())
        if np.isnan(bound):
            raise EnvelopeOverflowError(
                f"Smith doubling power A^(2^{k}) is not finite: the "
                "Cayley transform's powers overflow double precision")
        if bound ** 2 <= EPS / 2:
            return None
    if k + 1 == MAX_DOUBLINGS:
        raise SolveError(
            f"Smith doubling did not converge in {MAX_DOUBLINGS} steps; "
            "the relaxation matrix is numerically singular")
    return square


def _doubling_powers(a: np.ndarray) -> list[np.ndarray]:
    """A, A^2, A^4, ... for a nonnegative A, as far as any pump needs them.

    If A^(2^(k+1)) <= d A^(2^k) entrywise, the terms the doubling would
    add after A^(2^k) sum to at most d^2 C for every Y >= 0 (for other Y,
    to d^2 times the solution for |C_0|), so the list stops once d^2 is
    below the unit roundoff.  Where A^(2^k) has zeros that its square
    fills, d is infinite and squaring goes on.  Zeros come from one-way
    bonds and from underflow far from the diagonal: the single-band
    reference chain's A has 3081 at 400 sites and 71631 at 700, none at 200.
    Each step is _square; DirectSolver takes the same steps one power at a
    time, on first request (DirectSolver._power).

    Powers of a strongly nonreciprocal chain can overflow, so DirectSolver
    squares under np.errstate.  A power with an infinite entry gives a NaN
    ratio (inf / inf, or 0 * inf in its square), so the ratio already
    computed finds the first power that is not finite, and
    EnvelopeOverflowError names it.  SolveError is kept for powers whose
    ratio never falls, which needs a numerically singular X.
    """
    powers = [a] if a.any() else []
    while powers and (square := _square(powers[-1], len(powers) - 1)) is not None:
        powers.append(square)
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
        X and Y of the Lyapunov equation; Y passes the Hermitian rule (_hermitian).

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
    """Hermitian part and max |C - C^dag| (models._hermitian_part) of the
    biorthogonal mode sum: the steady state for t = None, else C(t) from
    C0 = initial.  The one place mode sums check their input, and the one
    that enforces CONDITION_TRUST_LIMIT (SolveError)."""
    y = matrix_entries(source, "source matrix")
    c0 = y if t is None else matrix_entries(initial, "initial state C0")
    if y.shape[0] != spectrum.dim or c0.shape[0] != spectrum.dim:
        raise ParameterError("source or initial state dimension does not match spectrum")
    if t is not None and _check_finite_scalar("time", t) < 0:
        raise ParameterError(f"time must be >= 0, got {t}")
    betas = spectrum.betas
    _check_beta_stability(betas)
    if spectrum.log10_condition > math.log10(CONDITION_TRUST_LIMIT):
        raise SolveError(
            f"spectrum condition 10^{spectrum.log10_condition:.3f} exceeds the "
            f"trust limit {CONDITION_TRUST_LIMIT:.0e}; use solve_lyapunov_direct")
    right, left = spectrum.right, spectrum.left
    denom = betas[:, None] + betas[None, :]
    loads = left.conj().T @ y @ left
    if t is None:
        c = right @ (loads / denom) @ right.conj().T
    else:
        decay = right * np.exp(-betas * t)[None, :]
        propagated = decay @ (left.conj().T @ c0 @ left) @ decay.conj().T
        driven = right @ (loads * (-np.expm1(-denom * t) / denom)) @ right.conj().T
        c = propagated + driven
    c, asym = _hermitian_part(c)
    return c, float(asym)


def solve_lyapunov_spectral(spectrum: BiorthogonalSpectrum, source) -> SteadyCorrelator:
    """Steady correlator from the biorthogonal mode sum.

    The residual is evaluated against the matrix the spectrum actually
    diagonalizes (R diag(beta) L^dag), so it measures the accuracy of
    the sum itself and cannot see the noise of a spectrum above
    CONDITION_TRUST_LIMIT; _mode_sum refuses those with SolveError.
    """
    c, asym = _mode_sum(spectrum, source)
    residual = _backward_error(spectrum.reconstruct(), None, c,
                               matrix_entries(source, "source matrix"))
    return SteadyCorrelator(c, "spectral", residual, asym)


def single_mode_approximation(spectrum: BiorthogonalSpectrum, pump_site: int,
                              pump_strength: float) -> SteadyCorrelator:
    """Rank-one steady state kept by the slowest mode alone.

    For a single-site pump of the given strength at ``pump_site``, the
    slow-mode term of the mode sum is A_0 |R_0><R_0|, with the loading
    A_0 = strength |L_0(s)|^2 / (2 Re beta_0) of orbitals.loading_factors.
    The term's one nonzero occupation is its trace A_0 <R_0|R_0>, which
    estimates nu_1 only where one slow mode dominates a near-normal chain;
    where the chain is nonnormal the full sum cancels, and the trace can
    exceed nu_1 manyfold.  One term cancels nothing, so
    CONDITION_TRUST_LIMIT does not apply.

    Raises DarkSourceError on a node of the slow mode: the site's share
    |L_0(s) R_0(s)| of <L_0|R_0> = 1, unchanged by how the pair is
    normalized, is at most N eps.  Raises EnvelopeOverflowError when the
    loading or the term is not representable.
    """
    site = _positions("pump site", pump_site, spectrum.dim)
    strength = _strength("pump strength", pump_strength)
    pos = slow_mode_position(spectrum.betas)
    r0 = spectrum.right[:, pos]
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        loading = float(_pump_loadings(spectrum, site, strength)[pos])
        c, asym = _hermitian_part(loading * np.outer(r0, r0.conj()))
        finite = np.isfinite(c).all() and np.isfinite(np.trace(c))
    weight = abs(spectrum.left[site, pos] * r0[site])
    if weight <= spectrum.dim * EPS:
        raise DarkSourceError(f"pump site {site + 1} is a node of the slow mode "
                              f"(|L_0(s) R_0(s)| = {weight:.2e})")
    # off a node the true loading is > 0, so 0 means it underflowed
    if not (0 < loading and finite):
        raise EnvelopeOverflowError(f"slow-mode loading {loading:.3e} or its rank-one term "
                                    "is not representable")
    y = np.zeros((spectrum.dim, spectrum.dim))
    y[site, site] = strength
    residual = _backward_error(spectrum.reconstruct(), None, c, y)
    return SteadyCorrelator(c, "spectral", residual, float(asym))


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
    dt = _strength("dt", dt)
    stride = _count("stride", stride)
    t_final = _check_finite_scalar("t_final", t_final)
    if t_final < 0:
        raise ParameterError(f"t_final must be >= 0, got {t_final}")
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
    ``dt`` only spaces the samples.  Y and C0 pass the Hermitian rule
    (_hermitian), each sample is its Hermitian part (_hermitian_part), and
    they are returned as one read-only (S, N, N) array.  SolveError names
    the first sample that is not finite, which only an unstable X gives.
    """
    x = matrix_entries(relaxation, "relaxation X")
    y = _hermitian(matrix_entries(source, "source Y"), "source Y")
    c = _hermitian(matrix_entries(initial, "initial state C0"), "initial state C0")
    if y.shape != x.shape or c.shape != x.shape:
        raise ParameterError("relaxation, source, and initial state dimensions differ")
    times, intervals = _sample_grid(t_final, dt, stride)
    samples = [c]
    with np.errstate(over="ignore", invalid="ignore"):  # unstable X; checked below
        maps = {h: _affine_step(x, y, h) for h in set(intervals)}
        for t, h in zip(times[1:], intervals):
            f, q = maps[h]
            c = _hermitian_part(f @ c @ f.conj().T + q)[0]
            if not np.isfinite(c).all():
                raise SolveError(f"correlator is not finite at t = {t:.6g}; "
                                 "the relaxation matrix is not stable")
            samples.append(c)
    states = np.array(samples)
    states.flags.writeable = False
    return CorrelatorTrajectory(times, states)


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
