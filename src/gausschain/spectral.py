"""Biorthogonal spectral analysis of non-Hermitian relaxation matrices.

A diagonalizable relaxation matrix X has right and left eigenvectors

    X |R_n> = beta_n |R_n>,      X^dag |L_n> = conj(beta_n) |L_n>,

normalized pairwise so that <L_m|R_n> = delta_mn.  For strongly
nonreciprocal chains the right/left modes carry exponentially opposite
envelopes, so every spectrum holds them scale-free, as (U, V, log d)
with R = D U and L = D^-1 V (see :class:`BiorthogonalSpectrum`).

:func:`biorthogonal_decompose` takes one of two routes: real tridiagonal
X with X[j+1, j] X[j, j+1] > 0 (both chain models, reciprocal ones
included), which the imaginary gauge of Hatano & Nelson (PRL 77, 570,
1996) makes symmetric, so its rates are exact where a nonsymmetric
eigensolver returns pseudospectrum; or ``eig`` for any other X, Hermitian
ones included.

Mode indices, like site indices, are 1-based in the public interface.
Modes are ordered by ascending real part of beta (slowest first), with
ties broken by ascending imaginary part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (DecompositionError, DegeneracyError, EnvelopeOverflowError,
                     ParameterError, RegimeError, SiteIndexError, StabilityError)
from .models import HatanoNelsonParams, SshParams, build_hatano_nelson, matrix_entries

SIMILARITY_LOG_LIMIT = 600.0

# Mode sums over spectra with a worse right-mode condition than this cancel
# to noise, so steady._mode_sum refuses them; single products (loadings,
# the single-mode term) cancel nothing and are exempt.
CONDITION_TRUST_LIMIT = 1e12


@dataclass(frozen=True)
class ModeVector:
    """Single mode profile with its normalization convention.

    normalization is "biorthogonal" (paired with a left/right partner so
    <L|R> = 1) or "euclidean" (unit 2-norm, phase-gauged).
    """

    amplitudes: np.ndarray
    normalization: str = "biorthogonal"

    def __post_init__(self):
        v = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if v.size == 0:
            raise ParameterError("mode vector must not be empty")
        if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
            raise ParameterError("mode vector contains non-finite amplitudes")
        if self.normalization not in ("biorthogonal", "euclidean"):
            raise ParameterError(f"unknown normalization {self.normalization!r}")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "amplitudes", v)

    @property
    def dim(self) -> int:
        return self.amplitudes.size


def _gauge_columns(m: np.ndarray) -> np.ndarray:
    """Copy of m with each (nonzero) column's largest-|entry| rotated real positive."""
    peaks = m[np.argmax(np.abs(m), axis=0), np.arange(m.shape[1])]
    # hypot, not np.abs: it rounds like the scalar abs() the gauge has
    # always used, so gauged columns keep their last bits
    return m * (peaks.conjugate() / np.hypot(peaks.real, peaks.imag))[None, :]


def _peak_rows(m: np.ndarray, log_d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log|m| + log d, row of each column's peak of diag(exp(log d)) m), in the log domain."""
    a = np.abs(m)
    with np.errstate(divide="ignore"):
        np.log(a, out=a)
    a += log_d[:, None]
    return a, np.argmax(a, axis=0)


def _unit_columns(m: np.ndarray, log_d: np.ndarray) -> np.ndarray:
    """Unit-norm columns of diag(exp(log d)) m with their peaks real positive.  Only
    ratios to the peak are exponentiated, so no column overflows at any length."""
    a, peak = _peak_rows(m, log_d)
    cols = np.arange(m.shape[1])
    a -= a[peak, cols]
    phase = np.sign(m)  # m / |m|, and 0 where m is
    out = np.exp(a, out=a) * phase
    out *= phase[peak, cols].conj()
    out /= np.linalg.norm(out, axis=0)
    return out


def _dense_modes(m: np.ndarray, log_d: np.ndarray, side: str) -> np.ndarray:
    """diag(exp(log d)) m, read-only complex.  EnvelopeOverflowError unless every
    d_j, 1/d_j and d_j/d_k is a normal double, for R and L alike."""
    reach = max(float(log_d.max()), 0.0) - min(float(log_d.min()), 0.0)
    if reach > -math.log(np.finfo(float).tiny):
        raise EnvelopeOverflowError(
            f"dense {side} modes are not representable: their envelope spans "
            f"e^{reach:.1f}; use right_mode_unit or loading_factors")
    out = np.asarray(np.exp(log_d)[:, None] * m, dtype=complex)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class BiorthogonalSpectrum:
    """Sorted eigenvalues with right modes R = D U and left modes L = D^-1 V.

    D = diag(exp(log_d)) and V^dag U = identity, so <L_m|R_n> = delta_mn.
    The anchor of log d is the route's:

    * :func:`hn_analytic_spectrum`: U = V = the sine basis, log d_j = j log r;
    * gauge route: U = V = eigenvectors of H = D^-1 X D, centred log d;
    * ``eig`` route: log d = 0, U the eigenvectors of X and V the inverse
      of U conjugate transposed.

    Each column of R has its peak real positive, found in the log domain
    for the two real routes.  Unit modes, pump loadings and
    ``log10_condition``, the log10 of the 2-norm condition of R, come from
    (U, V, log d) at any chain length.  The dense ``right`` and ``left``
    are built on first request and raise EnvelopeOverflowError where they
    are not representable (:func:`_dense_modes`).  ``condition_estimate``
    decides whether mode sums can be trusted (:data:`CONDITION_TRUST_LIMIT`);
    it is inf where 10^log10_condition overflows.
    """

    betas: np.ndarray
    u: np.ndarray
    v: np.ndarray
    log_d: np.ndarray
    log10_condition: float

    def __post_init__(self):
        b = np.asarray(self.betas, dtype=complex).reshape(-1)
        u, v = np.asarray(self.u), np.asarray(self.v)
        log_d = np.asarray(self.log_d, dtype=float)
        if u.shape != (b.size, b.size) or v.shape != u.shape or log_d.shape != b.shape:
            raise ParameterError("spectrum arrays have inconsistent shapes")
        for name, arr in (("betas", b), ("u", u), ("v", v), ("log_d", log_d)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "log10_condition", float(self.log10_condition))

    @cached_property
    def right(self) -> np.ndarray:
        return _dense_modes(self.u, self.log_d, "right")

    @cached_property
    def left(self) -> np.ndarray:
        return _dense_modes(self.v, -self.log_d, "left")

    @property
    def dim(self) -> int:
        return self.betas.size

    @property
    def condition_estimate(self) -> float:
        try:
            return 10.0 ** self.log10_condition
        except OverflowError:
            return math.inf

    def _check_mode(self, n: int) -> int:
        if int(n) != n or not 1 <= n <= self.dim:
            raise SiteIndexError(f"mode index {n} outside 1..{self.dim}")
        return int(n) - 1

    def right_mode_unit(self, n: int) -> ModeVector:
        k = self._check_mode(n)
        return ModeVector(_unit_columns(self.u[:, k:k + 1], self.log_d)[:, 0], "euclidean")

    def reconstruct(self) -> np.ndarray:
        """R diag(beta) L^dag, the matrix this spectrum actually diagonalizes."""
        return (self.right * self.betas[None, :]) @ self.left.conj().T


def slow_mode_position(betas: np.ndarray) -> int:
    """0-based index of the slowest mode, the one _sorted_order lists first: among
    the rates within _rate_tolerance of the least, least Im, then Re, then index."""
    b = np.asarray(betas)
    ties = np.flatnonzero(b.real <= b.real.min() + _rate_tolerance(b))
    return int(ties[np.lexsort((b.real[ties], b.imag[ties]))[0]])


def _rate_tolerance(betas: np.ndarray) -> float:
    """Rates closer than 64 eps times the spread of the betas are rounding apart; the
    spread is their bounding box's diagonal, within sqrt 2 of their diameter."""
    return 64.0 * np.finfo(float).eps * float(np.hypot(np.ptp(betas.real),
                                                       np.ptp(betas.imag)))


def _check_beta_stability(betas: np.ndarray) -> float:
    """min Re beta; StabilityError unless it is > 0."""
    worst = float(np.asarray(betas).real.min())
    if worst <= 0:
        raise StabilityError(f"spectrum is not strictly stable: min Re beta = {worst:.6e}")
    return worst


def _pump_loadings(spectrum: BiorthogonalSpectrum, pump_site,
                   pump_strength: float) -> np.ndarray:
    """A_n(s) = strength |L_n(s)|^2 / (2 Re beta_n) of every mode n, from the pump
    rows of L = D^-1 V only; one row per 1-based site if ``pump_site`` is an
    array of sites.  Raises EnvelopeOverflowError if any loading is not finite."""
    if pump_strength <= 0 or not np.isfinite(pump_strength):
        raise ParameterError(f"pump strength must be positive, got {pump_strength}")
    sites = np.asarray(pump_site)
    for s in sites.reshape(-1).tolist():
        if int(s) != s or not 1 <= s <= spectrum.dim:
            raise SiteIndexError(f"pump site {s} outside 1..{spectrum.dim}")
    _check_beta_stability(spectrum.betas)
    rows = sites.astype(int) - 1
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        amps = spectrum.v[rows] * np.exp(-spectrum.log_d)[rows, None]
        loadings = pump_strength * np.abs(amps) ** 2 / (2.0 * spectrum.betas.real)
    if not np.isfinite(loadings).all():
        bad = np.broadcast_to(sites[..., None], loadings.shape)[~np.isfinite(loadings)]
        raise EnvelopeOverflowError(f"pump loading at site {int(bad[0])} is not "
                                    "representable: |L_n(s)|^2 overflows")
    return loadings


def _sorted_order(betas: np.ndarray) -> np.ndarray:
    """Ascending (Re, Im), with rates that tie counted as one: each group runs from
    its least rate to _rate_tolerance above it and is ordered by (Im, Re)."""
    order = np.lexsort((betas.imag, betas.real))
    re = betas.real[order]
    ends = np.searchsorted(re, re + _rate_tolerance(betas), side="right").tolist()
    start = 0
    while start < betas.size:
        stop = ends[start]
        if stop - start > 1:
            sub = order[start:stop]
            order[start:stop] = sub[np.lexsort((betas[sub].real, betas[sub].imag))]
        start = stop
    return order


def _min_pairwise_gap(betas: np.ndarray) -> tuple[float, tuple[int, int]]:
    d = np.abs(betas[:, None] - betas[None, :])
    np.fill_diagonal(d, np.inf)
    flat = int(np.argmin(d))
    i, j = divmod(flat, betas.size)
    return float(d[i, j]), (min(i, j) + 1, max(i, j) + 1)


def _tridiagonal_bands(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """(diag, sub, sup) of a real (float64, see matrix_entries) tridiagonal X, else None."""
    if np.iscomplexobj(x):
        return None
    bands = np.diagonal(x), np.diagonal(x, -1), np.diagonal(x, 1)
    # X is tridiagonal exactly when its nonzeros are those of its bands.
    if np.count_nonzero(x) != np.count_nonzero(np.concatenate(bands)):
        return None
    return bands


def _gauge_symmetrize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Imaginary-gauge form (log d, H = D^-1 X D) of X, or None if X does not qualify.

    X qualifies when _tridiagonal_bands accepts it and X[j+1, j] X[j, j+1] > 0
    for every j.  Then H is real symmetric with diagonal X_jj and off-diagonal
    sign(X[j+1, j]) sqrt(X[j+1, j] X[j, j+1]).  The gauge exponents log d are
    centred so that max + min = 0.
    """
    bands = _tridiagonal_bands(x)
    if bands is None or not np.all(np.sign(bands[1]) * np.sign(bands[2]) > 0):
        return None
    diag, sub, sup = bands
    abs_sub, abs_sup = np.abs(sub), np.abs(sup)
    logd = np.concatenate(([0.0], np.cumsum(0.5 * (np.log(abs_sub) - np.log(abs_sup)))))
    logd -= 0.5 * (logd.max() + logd.min())
    off = np.sign(sub) * np.sqrt(abs_sub) * np.sqrt(abs_sup)
    h = np.diag(diag) + np.diag(off, -1) + np.diag(off, 1)
    return logd, h


def biorthogonal_decompose(matrix) -> BiorthogonalSpectrum:
    """Full biorthogonal eigendecomposition of a relaxation matrix.

    X that is not square or not finite is refused here, by
    models.matrix_entries (ParameterError).  The route is chosen from X:

    * Real tridiagonal X with X[j+1, j] X[j, j+1] > 0 for every j,
      Hermitian or not: ``eigh`` of the gauge-symmetrized H = D^-1 X D,
      so <L_m|R_n> = delta_mn holds to the orthogonality of U at any
      chain length.  All beta are real.  ``log10_condition`` is
      (max log d - min log d) / ln 10, the log10 of cond_2(D U) exactly
      because U is orthogonal.
    * Any other X, Hermitian X included: ``eig``; left modes come from
      the inverse of the right-eigenvector matrix, which enforces
      <L_m|R_n> = delta_mn to solver accuracy instead of pairing two
      independent eigensolves, and ``log10_condition`` is the log10 of
      the 2-norm condition of ``right``.  A degenerate Hermitian X gets
      a basis with L = R^-dag that is not orthonormal.

    Raises
    ------
    DegeneracyError
        ``eig`` route only: near-defective input, an eigenvalue pair
        closer than 1e-10 of the spectral diameter while the mode matrix
        condition exceeds 1e12.
    DecompositionError
        The eigensolver failed or the mode matrix is singular.
    """
    x = matrix_entries(matrix, "relaxation matrix")
    dim = x.shape[0]
    gauge = _gauge_symmetrize(x)
    if gauge is not None:
        logd, h = gauge
        return _orthogonal_spectrum(*np.linalg.eigh(h), logd)

    try:
        betas, r = np.linalg.eig(x)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"eigendecomposition failed: {exc}") from exc
    order = _sorted_order(betas)
    betas, r = betas[order], _gauge_columns(r[:, order])

    cond = float(np.linalg.cond(r))
    if dim > 1:
        gap, pair = _min_pairwise_gap(betas)
        diameter = float(np.abs(betas[:, None] - betas[None, :]).max())
        clustered = (gap < 1e-10 * diameter) if diameter > 0 else True
        if clustered and cond > CONDITION_TRUST_LIMIT:
            raise DegeneracyError(
                f"modes {pair[0]} and {pair[1]} are nearly degenerate "
                f"(gap {gap:.3e}) with mode-matrix condition {cond:.3e}")
    try:
        left = np.linalg.inv(r).conj().T
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"right-eigenvector matrix is singular: {exc}") from exc
    return BiorthogonalSpectrum(betas, r, left, np.zeros(dim), math.log10(cond))


def _require_hn_hoppings(params: HatanoNelsonParams) -> float:
    if params.t_right <= 0 or params.t_left <= 0:
        raise ParameterError("closed-form chain spectra require strictly positive hoppings")
    return 0.5 * (math.log(params.t_right) - math.log(params.t_left))


def _orthogonal_spectrum(betas: np.ndarray, u: np.ndarray,
                         log_d: np.ndarray) -> BiorthogonalSpectrum:
    """Spectrum with U = V = u, real orthogonal, each column of R = D u peaking positive."""
    _, peak = _peak_rows(u, log_d)
    u = u * np.where(u[peak, np.arange(u.shape[1])] >= 0, 1.0, -1.0)
    return BiorthogonalSpectrum(betas, u, u, log_d,
                                (log_d.max() - log_d.min()) / math.log(10.0))


def hn_analytic_spectrum(params: HatanoNelsonParams) -> BiorthogonalSpectrum:
    """Closed-form spectrum of the nonreciprocal single-band chain.

    With r = sqrt(t_right/t_left) and the open-chain sine basis phi_n,

        beta_n  = kappa - 2 sqrt(t_right t_left) cos(n pi / (N+1)),
        R_n(j)  = r^j  phi_n(j),      L_n(j) = r^-j phi_n(j),

    already biorthonormal, held as U = V = phi and log d_j = j log r, so
    it builds at any chain length; cond(R) = r^(N-1) exactly.
    """
    logr = _require_hn_hoppings(params)
    n = params.n_sites
    modes = np.arange(1, n + 1)  # also the sites: phi[j-1, n-1] = phi_n(j)
    betas = params.kappa - 2.0 * math.sqrt(params.t_right * params.t_left) * np.cos(
        modes * np.pi / (n + 1))
    phi = math.sqrt(2.0 / (n + 1)) * np.sin(np.outer(modes, modes) * np.pi / (n + 1))
    return _orthogonal_spectrum(betas, phi, modes * logr)


def hn_normalized_modes(params: HatanoNelsonParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(betas, right_unit, left_unit) of :func:`hn_analytic_spectrum`, unit-norm gauged columns."""
    spec = hn_analytic_spectrum(params)
    return spec.betas.real.copy(), _unit_columns(spec.u, spec.log_d), _unit_columns(
        spec.v, -spec.log_d)


def hn_similarity_residual(params: HatanoNelsonParams) -> float:
    """Hermiticity defect of S^-1 X S with S = diag(r^j).

    The similarity S maps the nonreciprocal chain onto its reciprocal
    reference; the returned max |M - M^dag| should vanish to rounding.
    Guarded so the r^N envelope stays representable.
    """
    logr = _require_hn_hoppings(params)
    n = params.n_sites
    if n * abs(logr) >= SIMILARITY_LOG_LIMIT:
        raise EnvelopeOverflowError(
            f"similarity envelope exponent N |log r| = {n * abs(logr):.1f} exceeds "
            f"{SIMILARITY_LOG_LIMIT:.0f}")
    x = build_hatano_nelson(params).entries
    env = np.exp(np.arange(1, n + 1, dtype=float) * logr)
    m = x * (env[None, :] / env[:, None])
    return float(np.abs(m - m.conj().T).max())


def ssh_edge_envelopes(params: SshParams) -> tuple[ModeVector, ModeVector]:
    """Closed-form edge-mode envelope candidates of the two-band chain.

    In the topological regime t1 < t2 the boundary mode has support on
    the A sublattice with cell-to-cell ratios

        right: -(t1/t2) exp(+2g),      left: -(t1/t2) exp(-2g),

    for the right and left eigenvector respectively.  Both are returned
    unit-normalized (assembled in the log domain, so any g is safe).
    """
    if params.t1 <= 0 or params.t2 <= 0:
        raise ParameterError("edge envelopes require strictly positive hoppings")
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


def _betas_payload(betas: np.ndarray) -> dict:
    """JSON payload for complex rates, as their real and imaginary parts."""
    return {"re": [float(v) for v in betas.real], "im": [float(v) for v in betas.imag]}

