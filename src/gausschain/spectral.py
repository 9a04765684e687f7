"""Biorthogonal spectral analysis of nonreciprocal chain relaxation matrices.

A diagonalizable relaxation matrix X has right and left eigenvectors

    X |R_n> = beta_n |R_n>,      X^dag |L_n> = conj(beta_n) |L_n>,

normalized pairwise so that <L_m|R_n> = delta_mn.  Every X decomposed
here is a chain: real tridiagonal with X[j+1, j] X[j, j+1] > 0 on every
bond, as both chain models are, reciprocal ones included.  The imaginary
gauge of Hatano & Nelson (PRL 77, 570, 1996) makes such an X symmetric,
H = D^-1 X D, so its rates are real and exact where a nonsymmetric
eigensolver returns pseudospectrum, and its modes are R = D U and
L = D^-1 U with U real orthogonal.  On strongly nonreciprocal chains R
and L carry exponentially opposite envelopes, so every spectrum holds
them scale-free, as (betas, U, log d) (see :class:`BiorthogonalSpectrum`).
Both chain models have uniform kappa and palindromic bonds, so H commutes
with the reversal J and is solved as its even and odd mirror sectors
(:func:`_mirror_eigh`): half the eigensolver's work, and modes that tie to
rounding, such as the two-band edge pair on long chains, come out as their
exact even and odd combinations.

Mode indices, like site indices, are 1-based in the public interface.
Modes are ordered by ascending beta (slowest first).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EnvelopeOverflowError, ParameterError, RegimeError, StabilityError
from .models import (HatanoNelsonParams, SshParams, _bonds, _frozen_array, _positions,
                     _vector, matrix_entries)

# Mode sums over spectra with a worse right-mode condition than this cancel
# to noise, so steady._mode_sum refuses them; single products (loadings,
# the single-mode term) cancel nothing and are exempt.
CONDITION_TRUST_LIMIT = 1e12


@dataclass(frozen=True)
class ModeVector:
    """Single mode profile with its normalization convention.

    normalization is "biorthogonal" (paired with a left/right partner so
    <L|R> = 1) or "euclidean" (unit 2-norm).  Its sign or phase is arbitrary,
    and no output sees it.
    """

    amplitudes: np.ndarray
    normalization: str = "biorthogonal"

    def __post_init__(self):
        v = _vector("mode vector", self.amplitudes, "iufc")
        if self.normalization not in ("biorthogonal", "euclidean"):
            raise ParameterError(f"unknown normalization {self.normalization!r}")
        object.__setattr__(self, "amplitudes", _frozen_array(v))


def _unit_columns(m: np.ndarray, log_d: np.ndarray) -> np.ndarray:
    """Unit-norm columns of diag(exp(log d)) m, signs as in m.  Only ratios to the peak,
    found in the log domain, are exponentiated, so no column overflows at any length."""
    a = np.abs(m)
    with np.errstate(divide="ignore"):
        np.log(a, out=a)
    a += log_d[:, None]
    a -= a.max(axis=0)
    out = np.exp(a, out=a) * np.sign(m)  # m / |m|, and 0 where m is
    out /= np.linalg.norm(out, axis=0)
    return out


def _dense_modes(m: np.ndarray, log_d: np.ndarray, side: str) -> np.ndarray:
    """diag(exp(log d)) m, read-only and real like m.  EnvelopeOverflowError unless every
    d_j, 1/d_j and d_j/d_k is a normal double, for R and L alike."""
    reach = max(float(log_d.max()), 0.0) - min(float(log_d.min()), 0.0)
    if reach > -math.log(np.finfo(float).tiny):
        raise EnvelopeOverflowError(
            f"dense {side} modes are not representable: their envelope spans "
            f"e^{reach:.1f}; use right_mode_unit or loading_factors")
    out = np.exp(log_d)[:, None] * m
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class BiorthogonalSpectrum:
    """Ascending real rates with right modes R = D U and left modes L = D^-1 U.

    D = diag(exp(log_d)) and U is orthogonal, so <L_m|R_n> = delta_mn.
    The anchor of log d is the route's:

    * :func:`hn_analytic_spectrum`: U = the sine basis, log d_j = j log r;
    * :func:`biorthogonal_decompose`: U = eigenvectors of H = D^-1 X D,
      each even or odd under the reversal where H is mirror-symmetric,
      centred log d.

    Column signs of U are arbitrary, the eigensolver's or the sine basis's,
    and every output is invariant under them.  Unit
    modes, pump loadings and ``log10_condition`` = (max log d - min log d)
    / ln 10, the log10 of cond_2(R) exactly because U is orthogonal, come
    from (U, log d) at any chain length.  The dense ``right`` and ``left``
    are built on first request and raise EnvelopeOverflowError where they
    are not representable (:func:`_dense_modes`).  ``log10_condition``
    decides whether mode sums can be trusted (:data:`CONDITION_TRUST_LIMIT`).
    """

    betas: np.ndarray
    u: np.ndarray
    log_d: np.ndarray

    def __post_init__(self):
        b = _frozen_array(_vector("spectrum betas", self.betas))
        u = _frozen_array(matrix_entries(self.u, "spectrum u"))
        log_d = _frozen_array(_vector("spectrum log_d", self.log_d))
        if u.shape != (b.size, b.size) or log_d.shape != b.shape:
            raise ParameterError("spectrum arrays have inconsistent shapes")
        for name, arr in (("betas", b), ("u", u), ("log_d", log_d)):
            object.__setattr__(self, name, arr)

    @cached_property
    def log10_condition(self) -> float:
        return float((self.log_d.max() - self.log_d.min()) / math.log(10.0))

    @cached_property
    def right(self) -> np.ndarray:
        return _dense_modes(self.u, self.log_d, "right")

    @cached_property
    def left(self) -> np.ndarray:
        return _dense_modes(self.u, -self.log_d, "left")

    @property
    def dim(self) -> int:
        return self.betas.size

    def right_mode_unit(self, n: int) -> ModeVector:
        k = _positions("mode index", n, self.dim)
        return ModeVector(_unit_columns(self.u[:, k:k + 1], self.log_d)[:, 0], "euclidean")

    def reconstruct(self) -> np.ndarray:
        """R diag(beta) L^dag, the matrix this spectrum actually diagonalizes."""
        return (self.right * self.betas[None, :]) @ self.left.conj().T


def slow_mode_position(betas: np.ndarray) -> int:
    """0-based index of the least Re beta, the first of exact ties: 0 for every
    spectrum built here, whose rates ascend."""
    return int(np.argmin(np.real(betas)))


def _check_beta_stability(betas: np.ndarray) -> float:
    """min Re beta; StabilityError unless it is > 0."""
    worst = float(np.asarray(betas).real.min())
    if worst <= 0:
        raise StabilityError(f"spectrum is not strictly stable: min Re beta = {worst:.6e}")
    return worst


def _pump_loadings(spectrum: BiorthogonalSpectrum, positions, strength: float) -> np.ndarray:
    """A_n(s) = strength |L_n(s)|^2 / (2 beta_n) of every mode n, from the pump
    rows of L = D^-1 U only; one row per 0-based position if ``positions``, gated by
    the caller, is an array.  Raises EnvelopeOverflowError if any loading is not finite."""
    _check_beta_stability(spectrum.betas)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        amps = spectrum.u[positions] * np.exp(-spectrum.log_d)[positions, None]
        loadings = strength * np.abs(amps) ** 2 / (2.0 * spectrum.betas)
    if not np.isfinite(loadings).all():
        rows = np.broadcast_to(np.asarray(positions)[..., None], loadings.shape)
        raise EnvelopeOverflowError(f"pump loading at site {rows[~np.isfinite(loadings)][0] + 1} "
                                    "is not representable: |L_n(s)|^2 overflows")
    return loadings


def _tridiagonal_bands(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """(diag, sub, sup) of a real (float64, see matrix_entries) tridiagonal X, else None."""
    if np.iscomplexobj(x):
        return None
    bands = np.diagonal(x), np.diagonal(x, -1), np.diagonal(x, 1)
    # X is tridiagonal exactly when its nonzeros are those of its bands.
    if np.count_nonzero(x) != np.count_nonzero(np.concatenate(bands)):
        return None
    return bands


def _gauge_symmetrize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Imaginary-gauge form (log d, diag, off) of X, or None if X does not qualify.

    X qualifies when _tridiagonal_bands accepts it and X[j+1, j] X[j, j+1] > 0
    for every j.  Then H = D^-1 X D is real symmetric tridiagonal with
    diagonal ``diag`` = X_jj and off-diagonal ``off`` = sign(X[j+1, j])
    sqrt(X[j+1, j] X[j, j+1]).  The gauge exponents log d are centred so
    that max + min = 0.
    """
    bands = _tridiagonal_bands(x)
    if bands is None or not np.all(np.sign(bands[1]) * np.sign(bands[2]) > 0):
        return None
    diag, sub, sup = bands
    abs_sub, abs_sup = np.abs(sub), np.abs(sup)
    logd = np.concatenate(([0.0], np.cumsum(0.5 * (np.log(abs_sub) - np.log(abs_sup)))))
    logd -= 0.5 * (logd.max() + logd.min())
    return logd, diag, np.sign(sub) * np.sqrt(abs_sub) * np.sqrt(abs_sup)


def _symmetric_tridiagonal(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """The dense symmetric matrix with diagonal ``diag`` and off-diagonal ``off``."""
    return np.diag(diag) + np.diag(off, -1) + np.diag(off, 1)


def _mirror_eigh(diag: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Ascending (rates, U) of the symmetric tridiagonal H = (diag, off) from its mirror
    sectors, or None for one site or unless H commutes with the reversal J bit for bit.

    A symmetric centrosymmetric H splits into an even and an odd sector
    (Cantoni & Butler, Linear Algebra Appl. 13, 1976).  Let A be H's
    leading m x m block.  For order 2m with middle bond h the sectors are A
    with h added to, and taken from, its last diagonal entry, and the
    modes are (v, +-Jv) / sqrt 2.  For order 2m + 1 the even sector is the
    leading (m + 1) x (m + 1) block with its last coupling times sqrt 2,
    whose modes are (v / sqrt 2, c, Jv / sqrt 2), and the odd sector is A,
    whose modes are (v, 0, -Jv) / sqrt 2.  Each sector is solved by
    ``eigh`` and the modes are merged by ascending rate, the even member of
    an exact tie first.  Every column is even or odd under J bit for bit,
    so a pair that ties to rounding, as the two-band edge pair does on
    long chains, comes out as its exact even and odd combinations.
    """
    n = diag.size
    if n < 2 or not (np.array_equal(diag, diag[::-1]) and np.array_equal(off, off[::-1])):
        return None
    m, odd = divmod(n, 2)
    lead = _symmetric_tridiagonal(diag[:m + odd], off[:m + odd - 1])
    if odd:
        lead[m, m - 1] = lead[m - 1, m] = math.sqrt(2.0) * off[m - 1]
        even, rest = lead, lead[:m, :m]
    else:
        even, rest = lead.copy(), lead
        even[m - 1, m - 1] += off[m - 1]
        rest[m - 1, m - 1] -= off[m - 1]
    (w_even, v_even), (w_odd, v_odd) = np.linalg.eigh(even), np.linalg.eigh(rest)
    rates = np.concatenate([w_even, w_odd])
    order = np.argsort(rates, kind="stable")
    column = np.argsort(order)  # where each sector mode lands
    u = np.zeros((n, n))
    for v, cols, sign in ((v_even, column[:m + odd], 1.0), (v_odd, column[m + odd:], -1.0)):
        half = v[:m] * math.sqrt(0.5)
        u[:m, cols] = half
        half *= sign
        u[n - m:, cols] = half[::-1]
    if odd:
        u[m, column[:m + 1]] = v_even[m]
    return rates[order], u


def biorthogonal_decompose(matrix) -> BiorthogonalSpectrum:
    """Biorthogonal eigendecomposition of a chain relaxation matrix.

    X must be real tridiagonal with X[j+1, j] X[j, j+1] > 0 for every j,
    as both chain models are, reciprocal ones included.  The
    gauge-symmetrized H = D^-1 X D (_gauge_symmetrize) has real rates.
    When H commutes with the reversal J bit for bit, as for both chain
    models (uniform kappa, palindromic bonds), its even and odd mirror
    sectors are solved apart (_mirror_eigh): half the eigensolver's work,
    and a pair of modes that ties to rounding comes out as its exact
    even and odd combinations, each a true eigenvector.  A chain whose H
    is not mirror-symmetric takes ``eigh`` of H whole.  <L_m|R_n> = delta_mn holds to the
    orthogonality of U at any chain length.  Any other X raises
    ParameterError naming that rule, and X that is not square or not
    finite is refused by models.matrix_entries (ParameterError).
    """
    gauge = _gauge_symmetrize(matrix_entries(matrix, "relaxation matrix"))
    if gauge is None:
        raise ParameterError("relaxation matrix is not a chain: biorthogonal_decompose takes "
                             "real tridiagonal X with X[j+1, j] X[j, j+1] > 0 on every bond")
    logd, diag, off = gauge
    modes = _mirror_eigh(diag, off)
    if modes is None:
        modes = np.linalg.eigh(_symmetric_tridiagonal(diag, off))
    return BiorthogonalSpectrum(*modes, logd)


def _hn_log_ratio(params: HatanoNelsonParams) -> float:
    """log r = log(t_right / t_left) / 2 of the single-band chain, from the mantissas and
    exponents: both hoppings are scaled by the power of two that takes t_right into [1, 2),
    so nothing overflows, the chain times any power of two has the bits of the chain
    itself, and a t_right in [1, 2) keeps log t_right - log t_left.  An exponent gap past
    +-1000 is carried as a multiple of log 2."""
    (mr, er), (ml, el) = math.frexp(params.t_right), math.frexp(params.t_left)
    gap = min(max(el - er, -1000), 1000)
    return 0.5 * (math.log(2.0 * mr) - math.log(math.ldexp(ml, gap + 1))
                  - (el - er - gap) * math.log(2.0))


def _geometric_mean(a: float, b: float) -> float:
    """sqrt(a b) from the mantissas, so a b cannot overflow; math.sqrt(a * b) if a b is normal."""
    (ma, ea), (mb, eb) = math.frexp(a), math.frexp(b)
    return math.ldexp(math.sqrt(ma * mb * 2 ** ((ea + eb) % 2)), (ea + eb) // 2)


def hn_analytic_spectrum(params: HatanoNelsonParams) -> BiorthogonalSpectrum:
    """Closed-form spectrum of the nonreciprocal single-band chain.

    With r = sqrt(t_right/t_left) and the open-chain sine basis phi_n,

        beta_n  = kappa - 2 sqrt(t_right t_left) cos(n pi / (N+1)),
        R_n(j)  = r^j  phi_n(j),      L_n(j) = r^-j phi_n(j),

    already biorthonormal, held as U = phi and log d_j = j log r, so
    it builds at any chain length; cond(R) = r^(N-1) exactly.
    """
    n = params.n_sites
    modes = np.arange(1, n + 1)  # also the sites: phi[j-1, n-1] = phi_n(j)
    betas = params.kappa - 2.0 * _geometric_mean(params.t_right, params.t_left) * np.cos(
        modes * np.pi / (n + 1))
    # phi_n(j) = sqrt(2/(N+1)) sin(pi k/(N+1)) at k = j n mod 2(N+1): by the
    # sine's exact period every argument stays below 2 pi, where j n pi/(N+1)
    # would reach about N pi and lose about N ulps.  Folding k into the first
    # quadrant would also move the bits of the slow column, k = j.
    period = 2 * (n + 1)
    sines = math.sqrt(2.0 / (n + 1)) * np.sin(np.arange(period) * np.pi / (n + 1))
    phi = sines[np.outer(modes, modes) % period]
    return BiorthogonalSpectrum(betas, phi, modes * _hn_log_ratio(params))


def hn_normalized_modes(params: HatanoNelsonParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(betas, right_unit, left_unit) of :func:`hn_analytic_spectrum`, unit-norm columns."""
    spec = hn_analytic_spectrum(params)
    return spec.betas.copy(), _unit_columns(spec.u, spec.log_d), _unit_columns(
        spec.u, -spec.log_d)


def hn_similarity_residual(params: HatanoNelsonParams) -> float:
    """Hermiticity defect of S^-1 X S with S = diag(r^j).

    The similarity S maps the nonreciprocal chain onto its reciprocal
    reference; the returned max |M - M^dag| should vanish to rounding.  M
    has X's diagonal and, on each bond (models._bonds), the hoppings
    t_right / r and t_left r, so the defect is read off the bonds at any
    chain length.
    """
    r = math.exp(_hn_log_ratio(params))
    _, rightward, leftward = _bonds(params)
    return float(np.abs(rightward / r - leftward * r).max(initial=0.0))


def ssh_edge_envelopes(params: SshParams) -> tuple[ModeVector, ModeVector]:
    """Closed-form edge-mode envelope candidates of the two-band chain.

    In the topological regime t1 < t2 the boundary mode has support on
    the A sublattice with cell-to-cell ratios

        right: -(t1/t2) exp(+2g),      left: -(t1/t2) exp(-2g),

    for the right and left eigenvector respectively.  Both are returned
    unit-normalized (assembled in the log domain, so any g is safe).
    """
    if params.t1 >= params.t2:
        raise RegimeError(
            f"edge envelope undefined for t1 >= t2 (got t1={params.t1}, t2={params.t2})")
    cells = np.arange(params.n_cells, dtype=float)
    signs = np.zeros((2 * params.n_cells, 1))
    signs[0::2, 0] = (-1.0) ** cells
    out = []
    for sign_g in (+1.0, -1.0):
        logq = math.log(params.t1 / params.t2) + 2.0 * sign_g * params.g
        out.append(ModeVector(_unit_columns(signs, np.repeat(cells * logq, 2))[:, 0], "euclidean"))
    return out[0], out[1]

