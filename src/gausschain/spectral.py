"""Biorthogonal spectral analysis of non-Hermitian relaxation matrices.

A diagonalizable relaxation matrix X has right and left eigenvectors

    X |R_n> = beta_n |R_n>,      X^dag |L_n> = conj(beta_n) |L_n>,

normalized pairwise so that <L_m|R_n> = delta_mn.  For strongly
nonreciprocal chains the right/left modes carry exponentially opposite
envelopes, so the closed-form constructors below assemble amplitudes in
the log domain and refuse configurations whose envelopes cannot be
represented in double precision.

:func:`biorthogonal_decompose` picks one of three routes from its input:

* Hermitian X: the symmetric eigensolver; left and right modes coincide.
* Real tridiagonal X with X[j+1, j] X[j, j+1] > 0 for every j (both chain
  models): the imaginary gauge (Hatano & Nelson, PRL 77, 570, 1996).  The
  diagonal similarity D with log d_{j+1} - log d_j =
  1/2 log(X[j+1, j] / X[j, j+1]) makes H = D^-1 X D real symmetric, so
  the rates come from the symmetric eigensolver exactly, where a
  nonsymmetric eigensolver returns pseudospectrum on long chains.
* Any other X: the nonsymmetric eigensolver, with left modes from the
  inverse of the right-mode matrix.

Mode indices, like site indices, are 1-based in the public interface.
Modes are ordered by ascending real part of beta (slowest first), with
ties broken by ascending imaginary part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DecompositionError, DegeneracyError, EnvelopeOverflowError,
                     NormalizationError, ParameterError, RegimeError, SiteIndexError,
                     StabilityError)
from .matio import matrix_payload
from .models import (HatanoNelsonParams, SshParams, build_hatano_nelson,
                     default_labels, matrix_entries)

# Largest |log amplitude| we allow before exp() would overflow/underflow.
ENVELOPE_LOG_LIMIT = 700.0
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


def euclidean_normalize(vector) -> ModeVector:
    """Unit-norm copy with the largest-|entry| gauged real positive."""
    v = np.asarray(getattr(vector, "amplitudes", vector), dtype=complex).reshape(-1)
    if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
        raise NormalizationError("cannot normalize a non-finite vector")
    nrm = float(np.linalg.norm(v))
    if nrm == 0.0:
        raise NormalizationError("cannot normalize the zero vector")
    return ModeVector(_gauge_columns((v / nrm)[:, None])[:, 0], "euclidean")


@dataclass(frozen=True)
class BiorthogonalSpectrum:
    """Sorted eigenvalues with paired right/left mode matrices.

    ``right`` and ``left`` hold the modes as columns; columns satisfy
    left^dag @ right = identity up to the decomposition accuracy.
    ``condition_estimate`` is the 2-norm condition number of ``right``
    and is the figure of merit deciding whether numeric spectra can be
    trusted (see :data:`CONDITION_TRUST_LIMIT`).
    """

    betas: np.ndarray
    right: np.ndarray
    left: np.ndarray
    condition_estimate: float

    def __post_init__(self):
        b = np.asarray(self.betas, dtype=complex).reshape(-1)
        r = np.asarray(self.right, dtype=complex)
        l = np.asarray(self.left, dtype=complex)
        if r.shape != (b.size, b.size) or l.shape != r.shape:
            raise ParameterError("spectrum arrays have inconsistent shapes")
        for arr in (b, r, l):
            arr.flags.writeable = False
        object.__setattr__(self, "betas", b)
        object.__setattr__(self, "right", r)
        object.__setattr__(self, "left", l)
        object.__setattr__(self, "condition_estimate", float(self.condition_estimate))

    @property
    def dim(self) -> int:
        return self.betas.size

    def _check_mode(self, n: int) -> int:
        if int(n) != n or not 1 <= n <= self.dim:
            raise SiteIndexError(f"mode index {n} outside 1..{self.dim}")
        return int(n) - 1

    def right_mode(self, n: int) -> ModeVector:
        return ModeVector(self.right[:, self._check_mode(n)], "biorthogonal")

    def left_mode(self, n: int) -> ModeVector:
        return ModeVector(self.left[:, self._check_mode(n)], "biorthogonal")

    def right_mode_unit(self, n: int) -> ModeVector:
        return euclidean_normalize(self.right[:, self._check_mode(n)])

    def reconstruct(self) -> np.ndarray:
        """R diag(beta) L^dag, the matrix this spectrum actually diagonalizes."""
        return (self.right * self.betas[None, :]) @ self.left.conj().T


def slow_mode_position(betas: np.ndarray) -> int:
    """0-based index of the slowest mode: minimal Re beta, ties by Im, then index."""
    b = np.asarray(betas)
    order = np.lexsort((np.arange(b.size), b.imag, b.real))
    return int(order[0])


def _check_beta_stability(betas: np.ndarray) -> None:
    worst = float(np.asarray(betas).real.min())
    if worst <= 0:
        raise StabilityError(f"spectrum is not strictly stable: min Re beta = {worst:.6e}")


def _pump_loadings(spectrum: BiorthogonalSpectrum, pump_site,
                   pump_strength: float) -> np.ndarray:
    """A_n(s) = strength |L_n(s)|^2 / (2 Re beta_n) of every mode n, one row per
    1-based site if ``pump_site`` is an array of sites.  Raises
    EnvelopeOverflowError if any loading is not finite."""
    if pump_strength <= 0 or not np.isfinite(pump_strength):
        raise ParameterError(f"pump strength must be positive, got {pump_strength}")
    sites = np.asarray(pump_site)
    for s in sites.reshape(-1).tolist():
        if int(s) != s or not 1 <= s <= spectrum.dim:
            raise SiteIndexError(f"pump site {s} outside 1..{spectrum.dim}")
    _check_beta_stability(spectrum.betas)
    amps = spectrum.left[sites.astype(int) - 1, :]
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        loadings = pump_strength * np.abs(amps) ** 2 / (2.0 * spectrum.betas.real)
    if not np.isfinite(loadings).all():
        bad = np.broadcast_to(sites[..., None], loadings.shape)[~np.isfinite(loadings)]
        raise EnvelopeOverflowError(f"pump loading at site {int(bad[0])} is not "
                                    "representable: |L_n(s)|^2 overflows")
    return loadings


def gap_ratio(spectrum: BiorthogonalSpectrum) -> float:
    """Relative spectral gap (rate_second - rate_slow) / rate_slow.

    Only the number is reported; whether a given ratio makes the
    single-slow-mode picture valid is for the caller to decide.
    """
    rates = np.sort(spectrum.betas.real)
    if rates.size < 2:
        return math.inf
    if rates[0] == 0:
        return math.inf
    return float((rates[1] - rates[0]) / rates[0])


def _sorted_order(betas: np.ndarray) -> np.ndarray:
    """Ascending (Re, Im); real parts equal up to rounding noise count as ties."""
    order = np.lexsort((betas.imag, betas.real))
    if betas.size < 2:
        return order
    diameter = float(np.abs(betas[:, None] - betas[None, :]).max())
    tol = 64.0 * np.finfo(float).eps * diameter
    if tol == 0.0:
        return order
    re = betas[order].real
    start = 0
    for k in range(1, betas.size + 1):
        if k < betas.size and re[k] - re[k - 1] <= tol:
            continue
        if k - start > 1:
            sub = order[start:k]
            inner = np.lexsort((betas[sub].real, betas[sub].imag))
            order[start:k] = sub[inner]
        start = k
    return order


def _min_pairwise_gap(betas: np.ndarray) -> tuple[float, tuple[int, int]]:
    d = np.abs(betas[:, None] - betas[None, :])
    np.fill_diagonal(d, np.inf)
    flat = int(np.argmin(d))
    i, j = divmod(flat, betas.size)
    return float(d[i, j]), (min(i, j) + 1, max(i, j) + 1)


def _gauge_symmetrize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Imaginary-gauge form (log d, H = D^-1 X D) of X, or None if X does not qualify.

    X qualifies when it is real and tridiagonal with finite bands and
    X[j+1, j] X[j, j+1] > 0 for every j.  Then H is real symmetric with
    diagonal X_jj and off-diagonal sign(X[j+1, j]) sqrt(X[j+1, j] X[j, j+1]).
    The gauge exponents log d are centred so that max + min = 0.
    """
    if np.any(x.imag != 0):
        return None
    xr = x.real
    diag, sub, sup = np.diagonal(xr), np.diagonal(xr, -1), np.diagonal(xr, 1)
    if not np.all(np.sign(sub) * np.sign(sup) > 0):
        return None
    bands = np.concatenate((diag, sub, sup))
    # Every sub/superdiagonal entry is nonzero here, so X is tridiagonal
    # exactly when nothing else is.
    if not np.all(np.isfinite(bands)) or np.count_nonzero(xr) != np.count_nonzero(bands):
        return None
    abs_sub, abs_sup = np.abs(sub), np.abs(sup)
    logd = np.concatenate(([0.0], np.cumsum(0.5 * (np.log(abs_sub) - np.log(abs_sup)))))
    logd -= 0.5 * (logd.max() + logd.min())
    off = np.sign(sub) * np.sqrt(abs_sub) * np.sqrt(abs_sup)
    h = np.diag(diag) + np.diag(off, -1) + np.diag(off, 1)
    return logd, h


def biorthogonal_decompose(matrix) -> BiorthogonalSpectrum:
    """Full biorthogonal eigendecomposition of a relaxation matrix.

    The route is chosen from the input (see the module docstring):

    * Hermitian X: ``eigh``; left and right modes coincide, all beta are
      real, and ``condition_estimate`` is the 2-norm condition of the
      mode matrix.
    * Real tridiagonal X with X[j+1, j] X[j, j+1] > 0 for every j:
      ``eigh`` of the gauge-symmetrized H = D^-1 X D, then R = D U and
      L = D^-1 U, so <L_m|R_n> = delta_mn holds to the orthogonality of
      U.  All beta are real.  ``condition_estimate`` is
      exp(max log d - min log d), which equals cond_2(D U) exactly
      because U is orthogonal; no SVD is needed.
    * Any other X: ``eig``; left modes come from the inverse of the
      right-eigenvector matrix, which enforces <L_m|R_n> = delta_mn to
      solver accuracy instead of pairing two independent eigensolves,
      and ``condition_estimate`` is the 2-norm condition of ``right``.

    Raises
    ------
    EnvelopeOverflowError
        Gauge route only: the gauge exponents span more than
        :data:`ENVELOPE_LOG_LIMIT`, so D cannot be formed in double
        precision.
    DegeneracyError
        ``eig`` route only: near-defective input, an eigenvalue pair
        closer than 1e-10 of the spectral diameter while the mode matrix
        condition exceeds 1e12.
    DecompositionError
        The eigensolver failed or the mode matrix is singular.
    """
    x = matrix_entries(matrix)
    dim = x.shape[0]
    scale = max(1.0, float(np.abs(x).max()))
    if np.abs(x - x.conj().T).max() <= 1e-13 * scale:
        w, r = np.linalg.eigh(0.5 * (x + x.conj().T))
        r = _gauge_columns(r)
        return BiorthogonalSpectrum(w.astype(complex), r, r.copy(), float(np.linalg.cond(r)))

    gauge = _gauge_symmetrize(x)
    if gauge is not None:
        logd, h = gauge
        span = float(logd.max() - logd.min())
        if span > ENVELOPE_LOG_LIMIT:
            raise EnvelopeOverflowError(
                f"gauge exponent span {span:.1f} exceeds {ENVELOPE_LOG_LIMIT:.0f}")
        w, u = np.linalg.eigh(h)
        d = np.exp(logd)[:, None]
        right, left = _sign_gauge_pair(d * u, u / d)
        return BiorthogonalSpectrum(w.astype(complex), right, left, math.exp(span))

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
    return BiorthogonalSpectrum(betas, r, left, cond)


def _hn_sine_basis(params: HatanoNelsonParams) -> tuple[np.ndarray, np.ndarray]:
    """(betas, phi) of the reciprocal reference chain; phi[j-1, n-1] = phi_n(j)."""
    n = params.n_sites
    modes = np.arange(1, n + 1)
    betas = params.kappa - 2.0 * math.sqrt(params.t_right * params.t_left) * np.cos(
        modes * np.pi / (n + 1))
    sites = np.arange(1, n + 1)
    phi = math.sqrt(2.0 / (n + 1)) * np.sin(np.outer(sites, modes) * np.pi / (n + 1))
    return betas, phi


def _require_hn_hoppings(params: HatanoNelsonParams) -> float:
    if params.t_right <= 0 or params.t_left <= 0:
        raise ParameterError("closed-form chain spectra require strictly positive hoppings")
    return 0.5 * (math.log(params.t_right) - math.log(params.t_left))


def _peak_signs(m: np.ndarray) -> np.ndarray:
    """+-1 per column: the sign of the column's largest-|entry| real part (+1 at 0)."""
    peaks = m[np.argmax(np.abs(m), axis=0), np.arange(m.shape[1])]
    return np.where(peaks.real >= 0, 1.0, -1.0)


def _sign_gauge_pair(r: np.ndarray, l: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flip real mode pairs so each right column peaks positive; <L|R> unchanged."""
    signs = _peak_signs(r)[None, :]
    return r * signs, l * signs


def hn_analytic_spectrum(params: HatanoNelsonParams) -> BiorthogonalSpectrum:
    """Closed-form spectrum of the nonreciprocal single-band chain.

    With r = sqrt(t_right/t_left) and the open-chain sine basis phi_n,

        beta_n  = kappa - 2 sqrt(t_right t_left) cos(n pi / (N+1)),
        R_n(j)  = r^j  phi_n(j),      L_n(j) = r^-j phi_n(j),

    already biorthonormal.  Amplitudes are assembled in the log domain;
    configurations with N |log r| > 700 cannot be exponentiated in
    double precision and raise EnvelopeOverflowError (use
    :func:`hn_normalized_modes` for profiles in that regime).
    """
    logr = _require_hn_hoppings(params)
    n = params.n_sites
    if n * abs(logr) > ENVELOPE_LOG_LIMIT:
        raise EnvelopeOverflowError(
            f"envelope exponent N |log r| = {n * abs(logr):.1f} exceeds "
            f"{ENVELOPE_LOG_LIMIT:.0f}; request unit-norm profiles via hn_normalized_modes")
    betas, phi = _hn_sine_basis(params)
    sites = np.arange(1, n + 1, dtype=float)
    right = np.exp(sites * logr)[:, None] * phi
    left = np.exp(-sites * logr)[:, None] * phi
    right, left = _sign_gauge_pair(right, left)
    # R = diag(r^j) @ (orthogonal sine basis), so cond(R) = r^(N-1) exactly.
    cond = math.exp((n - 1) * abs(logr))
    return BiorthogonalSpectrum(betas.astype(complex), right, left, cond)


def hn_normalized_modes(params: HatanoNelsonParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(betas, right_unit, left_unit) with unit-norm gauged mode columns.

    Safe at any chain length: each column is scaled by its peak in the
    log domain before exponentiation, so only ratios <= 1 are ever
    exponentiated.  The biorthogonal pairing is lost; use
    :func:`hn_analytic_spectrum` when left/right weights are needed.
    """
    logr = _require_hn_hoppings(params)
    n = params.n_sites
    betas, phi = _hn_sine_basis(params)
    env = np.arange(1, n + 1, dtype=float)[:, None] * logr
    with np.errstate(divide="ignore"):
        logphi = np.log(np.abs(phi))
    signs = np.sign(phi)
    modes = []
    for a in (logphi + env, logphi - env):
        m = signs * np.exp(a - a.max(axis=0))
        m /= np.linalg.norm(m, axis=0)
        modes.append(m * _peak_signs(m))
    right, left = modes
    return betas.copy(), right, left


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
    n = params.n_cells
    cells = np.arange(n, dtype=float)
    base = math.log(params.t1 / params.t2)
    out = []
    for sign_g in (+1.0, -1.0):
        logq = base + 2.0 * sign_g * params.g
        logamp = cells * logq
        amp = ((-1.0) ** cells) * np.exp(logamp - logamp.max())
        full = np.zeros(2 * n)
        full[0::2] = amp
        out.append(euclidean_normalize(full))
    return out[0], out[1]


def spectrum_payload(spectrum: BiorthogonalSpectrum, labels=None) -> dict:
    """JSON payload for a spectrum (betas, mode matrices, condition)."""
    labels = tuple(labels) if labels else default_labels(spectrum.dim)
    return {
        "dim": spectrum.dim,
        "betas": {
            "re": [float(v) for v in spectrum.betas.real],
            "im": [float(v) for v in spectrum.betas.imag],
        },
        "right": matrix_payload(spectrum.right, labels),
        "left": matrix_payload(spectrum.left, labels),
        "condition_estimate": float(spectrum.condition_estimate),
    }
