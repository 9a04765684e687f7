"""Shared fixtures and independent oracles for the test suite.

The steady-state oracles here deliberately avoid the library's own
solvers: a dense Kronecker solve of the vectorized equation, adaptive
quadrature of the defining integral, a from-scratch closed form for the
single-band chain with a local pump written directly against the
analytic mode formulas, high-precision mpmath versions of the latter
for chains too long for double precision, and Smith doubling in mpmath.
"""

import json
import math
import os

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad_vec
from scipy.linalg import expm

from gausschain import DensityMatrix
from gausschain.errors import SolveError

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "goldens.json")

# Reference chain configurations used throughout the suite.
HN_REFERENCE = dict(n_sites=40, t_right=1.0, t_left=0.17, kappa=0.91,
                    pump_site=15, pump_strength=0.03)
SSH_REFERENCE = dict(n_cells=20, t1=0.5, t2=1.0, kappa=1.5,
                     pump_cell=1, pump_sublattice="A", pump_strength=1e-8,
                     g_edge=-0.25, g_bulk=0.20)


def solve_vectorized(x, y):
    """Kronecker oracle: row-major vectorization of X C + C X^dag = Y.

    vec(X C) = (X kron I) vec(C) and vec(C X^dag) = (I kron conj(X)) vec(C)
    for row-major vec, so one dense solve of an N^2 x N^2 system.  No
    stability screening here; a singular system raises SolveError.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    n = x.shape[0]
    eye = np.eye(n)
    a = np.kron(x, eye) + np.kron(eye, x.conj())
    try:
        c = np.linalg.solve(a, y.reshape(-1))
    except np.linalg.LinAlgError as exc:
        raise SolveError(f"vectorized Lyapunov system is singular: {exc}") from exc
    return c.reshape(n, n)


def lyapunov_quadrature(x, y, t_max=200.0):
    """Steady state as the integral of e^{-Xt} Y e^{-X^dag t} over [0, t_max]."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)

    def integrand(t):
        p = expm(-x * t)
        return p @ y @ p.conj().T

    value, _ = quad_vec(integrand, 0.0, t_max, epsabs=1e-13, epsrel=1e-13)
    return value


def hn_closed_form_steady(n, t_right, t_left, kappa, gamma, s):
    """Exact steady correlator of the single-band chain, pump of strength
    gamma at site s, assembled from the sine-mode formulas only.

    C_jk = gamma * r^(j+k-2s) * [phi W phi^T]_jk,
    W_mn = phi_m(s) phi_n(s) / (beta_m + beta_n),

    with r = sqrt(t_right/t_left) and phi_m(j) the open-chain sine basis.
    The core phi W phi^T is a sum of O(1) terms, so its entries far from
    the pump, which decay geometrically, are lost to cancellation in
    double precision, and the envelope amplifies that error.  Against
    hn_sine_steady_mp at the reference parameters (t_left/t_right = 0.17,
    kappa = 0.91) the worst entrywise relative error is 2e-11 at 12 sites,
    9e-9 at 20, 6e-5 at 30 and 0.2 at 40 (normwise 7e-2); past about 40
    sites no digit is left.  Use hn_sine_steady_mp for longer chains.
    """
    r = math.sqrt(t_right / t_left)
    modes = np.arange(1, n + 1)
    betas = kappa - 2.0 * math.sqrt(t_right * t_left) * np.cos(modes * np.pi / (n + 1))
    sites = np.arange(1, n + 1)
    phi = np.sqrt(2.0 / (n + 1)) * np.sin(np.outer(sites, modes) * np.pi / (n + 1))
    w = np.outer(phi[s - 1], phi[s - 1]) / (betas[:, None] + betas[None, :])
    core = phi @ w @ phi.T
    envelope = r ** (sites[:, None] + sites[None, :] - 2 * s)
    return gamma * envelope * core


def _mp_mode_sum(phi, betas, s, envelope):
    """C_jk = envelope_j envelope_k sum_mn phi_jm W_mn phi_kn as a float array,
    W_mn = phi_sm phi_sn / (beta_m + beta_n), pump at 1-based site s."""
    n = len(betas)
    ps = phi[s - 1]
    w = [[ps[m] * ps[q] / (betas[m] + betas[q]) for q in range(n)] for m in range(n)]
    pw = [[mpmath.fdot(row, col) for col in w] for row in phi]  # w is symmetric
    c = np.empty((n, n))
    for j in range(n):
        for k in range(j, n):
            c[j, k] = c[k, j] = float(envelope[j] * envelope[k] * mpmath.fdot(pw[j], phi[k]))
    return c


def hn_sine_steady_mp(n, t_right, t_left, kappa, s, dps=None):
    """hn_closed_form_steady for a unit pump, summed in mpmath at dps digits.

    The default precision, 30 + n digits, covers the cancellation in the
    core with room to spare: at 80 sites and the reference parameters its
    smallest entry is about 1e-33, and raising the precision to 60 + 2n
    digits changes no returned double.
    """
    with mpmath.workdps(dps or 30 + n):
        r = mpmath.sqrt(mpmath.mpf(t_right) / t_left)
        tau = 2 * mpmath.sqrt(mpmath.mpf(t_right) * t_left)
        angle = mpmath.pi / (n + 1)
        betas = [kappa - tau * mpmath.cos(m * angle) for m in range(1, n + 1)]
        norm = mpmath.sqrt(mpmath.mpf(2) / (n + 1))
        phi = [[norm * mpmath.sin(j * m * angle) for m in range(1, n + 1)]
               for j in range(1, n + 1)]
        envelope = [r ** (j - s) for j in range(1, n + 1)]
        return _mp_mode_sum(phi, betas, s, envelope)


def tridiagonal_steady_mp(x, s, dps=60):
    """Steady correlator of a real tridiagonal X with X[j+1,j] X[j,j+1] > 0
    and a unit pump at 1-based site s, in mpmath at dps digits.

    The diagonal gauge log d_j+1 - log d_j = 1/2 log(X[j+1,j] / X[j,j+1])
    makes H = D^-1 X D symmetric; C = D G D with H G + G H = D^-1 Y D^-1,
    and G is summed over the mpmath eigenpairs of H.  Eigensolving takes
    about a second at 24 sites, so keep chains short.
    """
    x = np.asarray(x).real
    n = x.shape[0]
    with mpmath.workdps(dps):
        log_d = [mpmath.mpf(0)]
        for j in range(n - 1):
            log_d.append(log_d[-1] + mpmath.log(mpmath.mpf(x[j + 1, j]) / x[j, j + 1]) / 2)
        h = mpmath.matrix(n)
        for j in range(n):
            h[j, j] = x[j, j]
            if j + 1 < n:
                h[j, j + 1] = h[j + 1, j] = -mpmath.sqrt(mpmath.mpf(x[j + 1, j]) * x[j, j + 1])
        betas, vecs = mpmath.eigsy(h)
        phi = [[vecs[j, m] for m in range(n)] for j in range(n)]
        envelope = [mpmath.exp(log_d[j] - log_d[s - 1]) for j in range(n)]
        return _mp_mode_sum(phi, list(betas), s, envelope)


def smith_steady_mp(x, y, dps=50):
    """Steady correlator of a real X with positive diagonal by Smith doubling
    in mpmath at dps digits, as float64.

    With p = max diag X, A = (pI + X)^-1 (pI - X) and
    C_0 = 2p (pI + X)^-1 Y (pI + X)^-T, C = sum_j A^j C_0 A^jT is summed
    by doubling until ||A^(2^k)||_1 falls below 10^-dps ||A||_1.  Its own
    pivoted inverse and its own stop, so it shares no rounding with the
    library's doubling.
    """
    x, y = np.asarray(x).real, np.asarray(y).real
    with mpmath.workdps(dps):
        p = mpmath.mpf(float(x.diagonal().max()))
        xm, eye = mpmath.matrix(x.tolist()), mpmath.eye(x.shape[0])
        inverse = (p * eye + xm) ** -1
        a = inverse * (p * eye - xm)
        c = 2 * p * inverse * mpmath.matrix(y.tolist()) * inverse.T
        floor = mpmath.mpf(10) ** -dps * mpmath.mnorm(a, 1)
        while mpmath.mnorm(a, 1) > floor:
            c += a * c * a.T
            a = a * a
        return np.array(c.tolist(), dtype=float)


def banded_m_matrix_inverse(m):
    """Inverse of a nonsingular M-matrix by unpivoted Gauss-Jordan elimination
    within its lower and upper bandwidths, for any bandwidth.

    The library eliminates tridiagonal chains only; at bandwidth 1 this is
    the same arithmetic, so the two must agree bit for bit.
    """
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    rows, cols = np.nonzero(m)
    offsets = np.concatenate([[0], rows - cols])
    lower, upper = int(offsets.max()), int(-offsets.min())
    a = np.concatenate([m, np.eye(n)], axis=1)
    for k in range(n):
        below = slice(k + 1, min(n, k + 1 + lower))
        a[below, k:] -= np.outer(a[below, k] / a[k, k], a[k, k:])
    for k in range(n - 1, -1, -1):
        above = slice(k + 1, min(n, k + 1 + upper))
        a[k, n:] -= a[k, above] @ a[above, n:]
        a[k, n:] /= a[k, k]
    return a[:, n:]


def banded_cayley_reference(inverse, x, shift):
    """A = (pI + X)^-1 (pI - X) for a tridiagonal X, column by column.

    Column j of A is inverse column j times (pI - X)[j, j], plus column
    j - 1 times (pI - X)[j - 1, j], plus column j + 1 times
    (pI - X)[j + 1, j], added in that order as the library adds them.
    """
    m = shift * np.eye(x.shape[0]) - np.asarray(x, dtype=float)
    a = np.empty_like(inverse)
    for j in range(x.shape[0]):
        a[:, j] = inverse[:, j] * m[j, j]
        if j > 0:
            a[:, j] += inverse[:, j - 1] * m[j - 1, j]
        if j + 1 < x.shape[0]:
            a[:, j] += inverse[:, j + 1] * m[j + 1, j]
    return a


def doubling_powers_reference(a, max_doublings=64):
    """A, A^2, A^4, ... with the stopping test always in its guarded form.

    The ratio d = max A^(2^(k+1)) / A^(2^k) is taken over the nonzero
    entries of A^(2^k), and is infinite where its square fills a zero;
    squaring stops once d^2 <= eps / 2.
    """
    powers = []
    while a.any():
        if len(powers) == max_doublings:
            raise SolveError("doubling did not converge")
        powers.append(a)
        square = a @ a
        ratio = np.divide(square, a, out=np.where(square > 0, np.inf, 0.0), where=a > 0)
        if float(ratio.max()) ** 2 <= np.finfo(float).eps / 2:
            break
        a = square
    return powers


def dense_residual_reference(x, c, y):
    """||X C + C X^dag - Y||_F / (2 ||X||_F ||C||_F + ||Y||_F) by dense products,
    C and Y over the larger of their peaks, real inputs in real arithmetic."""
    x, c, y = (np.asarray(m, dtype=complex) for m in (x, c, y))
    if not (x.imag.any() or c.imag.any() or y.imag.any()):
        x, c, y = x.real, c.real, y.real
    scale = max(float(np.abs(c).max(initial=0.0)), float(np.abs(y).max(initial=0.0)))
    if scale > 0:
        c, y = c / scale, y / scale
    defect = float(np.linalg.norm(x @ c + c @ x.conj().T - y))
    bound = 2.0 * float(np.linalg.norm(x)) * float(np.linalg.norm(c)) + float(np.linalg.norm(y))
    return defect / bound if bound > 0 else 0.0


def hn_closed_form_betas(n, t_right, t_left, kappa):
    """Relaxation rates of the single-band chain, straight from the formula."""
    modes = np.arange(1, n + 1)
    return kappa - 2.0 * math.sqrt(t_right * t_left) * np.cos(modes * np.pi / (n + 1))


# Bit-exact references for the spectral kernels.  Each spells out the
# paper's formula in a fixed order of floating-point operations; the
# library must reproduce them bit for bit, so a reordering of its
# arithmetic shows as a failed np.array_equal.  No checks, no guards.

def _hermitized(c):
    return 0.5 * (c + c.conj().T)


def mode_sum_steady_reference(spectrum, y):
    """sum_mn <L_m|Y|L_n> / (beta_m + conj beta_n) |R_m><R_n|, Hermitized."""
    denom = spectrum.betas[:, None] + spectrum.betas[None, :].conj()
    weights = (spectrum.left.conj().T @ y @ spectrum.left) / denom
    return _hermitized(spectrum.right @ weights @ spectrum.right.conj().T)


def mode_sum_transient_reference(spectrum, y, c0, t):
    """C(t) = e^{-Xt} C0 e^{-X^dag t} plus the mode sum weighted by 1 - e^{-denom t}."""
    denom = spectrum.betas[:, None] + spectrum.betas[None, :].conj()
    decay = np.exp(-spectrum.betas * t)
    propagated = (spectrum.right * decay[None, :]) @ (spectrum.left.conj().T @ c0
                                                      @ spectrum.left) \
        @ (spectrum.right * decay[None, :]).conj().T
    weights = (spectrum.left.conj().T @ y @ spectrum.left) * (
        -np.expm1(-denom * t) / denom)
    driven = spectrum.right @ weights @ spectrum.right.conj().T
    return _hermitized(propagated + driven)


def loading_reference(spectrum, site, strength):
    """A_n(s) = strength |L_n(s)|^2 / (2 Re beta_n) for every mode n."""
    return strength * np.abs(spectrum.left[site - 1, :]) ** 2 / (2.0 * spectrum.betas.real)


# The dense spectrum formulas the library used before it held modes as
# (U, V, log d): R and L multiplied out at build time and sign-gauged by
# the largest |R| entry.  Rounding-level references for the scale-free
# representation; the helpers they import did not change with it.

def _sign_gauge_pair(r, l):
    peaks = r[np.argmax(np.abs(r), axis=0), np.arange(r.shape[1])]
    signs = np.where(peaks.real >= 0, 1.0, -1.0)[None, :]
    return r * signs, l * signs


def dense_hn_spectrum_reference(params):
    """(betas, R, L) of the single-band chain: R = r^j phi, L = r^-j phi."""
    logr = 0.5 * (math.log(params.t_right) - math.log(params.t_left))
    n = params.n_sites
    betas = hn_closed_form_betas(n, params.t_right, params.t_left, params.kappa)
    sites = np.arange(1, n + 1)
    phi = math.sqrt(2.0 / (n + 1)) * np.sin(np.outer(sites, sites) * np.pi / (n + 1))
    env = sites.astype(float) * logr
    right, left = _sign_gauge_pair(np.exp(env)[:, None] * phi, np.exp(-env)[:, None] * phi)
    return betas.astype(complex), right, left


def dense_decompose_reference(x):
    """(betas, R, L) by the gauge or eig route of the decomposition."""
    from gausschain.spectral import _gauge_columns, _gauge_symmetrize, _sorted_order

    x = np.asarray(x)
    gauge = _gauge_symmetrize(x)
    if gauge is not None:
        w, u = np.linalg.eigh(gauge[1])
        d = np.exp(gauge[0])[:, None]
        return (w.astype(complex),) + _sign_gauge_pair(d * u, u / d)
    betas, r = np.linalg.eig(x)
    order = _sorted_order(betas)
    r = _gauge_columns(r[:, order])
    return betas[order], r, np.linalg.inv(r).conj().T


def crossover_grid():
    """The g grid of the ssh-crossover command at its defaults."""
    from gausschain.cli import COMMAND_DEFAULTS

    cfg = COMMAND_DEFAULTS["ssh-crossover"]
    return np.linspace(cfg["g_min"], cfg["g_max"], cfg["g_points"])


def unit_gauge(v):
    """v / ||v|| times the conjugate phase of its largest-|entry|, one vector at a
    time: the unit, phase-gauged form of every unit mode and orbital."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    v = v / float(np.linalg.norm(v))
    pivot = v[int(np.argmax(np.abs(v)))]
    return v * (pivot / abs(pivot)).conjugate()


def read_bytes(path):
    """The bytes of a file, closed before they are returned."""
    with open(path, "rb") as fh:
        return fh.read()


def pure_state(amplitudes):
    """The density matrix |psi><psi| of the normalized amplitudes."""
    v = np.asarray(amplitudes, dtype=complex).reshape(-1)
    v = v / np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()))


@pytest.fixture(scope="session")
def golden():
    """Frozen reference values; regenerate with tools/make_goldens.py."""
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)
