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

from gausschain import DensityMatrix, HatanoNelsonParams, SshParams, build_hatano_nelson
from gausschain.errors import ParameterError, SolveError
from gausschain.manybody import operator_set
from gausschain.models import _hermitian, matrix_entries

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
        betas, vecs = mpmath.eigsy(gauge_h_mp(x))
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


def even_edge_mode_mp(x, near, dps):
    """Unit even combination (v, Jv) / |(v, Jv)| of the edge pair of a mirror-symmetric
    chain X of even order with negative bonds, at g = 0 (so D = I), as float64.

    v is the eigenvector of the even sector, H's leading half with the middle
    bond added to its last diagonal entry, whose rate is nearest ``near``: the
    secant method from ``near`` finds the zero of the last row of the
    three-term recurrence, which then gives v.
    The recurrence carries the growing solution along, so ``dps`` must cover
    its growth over the half chain; the mode is returned only if it is an
    eigenvector of the whole H to 30 digits.
    """
    m = np.asarray(x).shape[0] // 2
    with mpmath.workdps(dps):
        h = gauge_h_mp(x)
        diag = [h[j, j] for j in range(m)]
        off = [h[j, j + 1] for j in range(m)]
        diag[-1] += off[-1]

        def recurrence(rate):
            v = [mpmath.mpf(1), (rate - diag[0]) / off[0]]
            for j in range(1, m - 1):
                v.append(((rate - diag[j]) * v[j] - off[j - 1] * v[j - 1]) / off[j])
            return v

        def last_row(rate):
            v = recurrence(rate)
            return (rate - diag[-1]) * v[-1] - off[m - 2] * v[-2]

        rate = mpmath.findroot(last_row, mpmath.mpf(near), verify=False)
        v = recurrence(rate)
        norm = mpmath.sqrt(2 * mpmath.fsum(a * a for a in v))
        full = [a / norm for a in v + v[::-1]]
        residual = h * mpmath.matrix(full) - rate * mpmath.matrix(full)
        assert mpmath.mnorm(residual, "inf") < mpmath.mpf(10) ** -30
        return np.array([float(a) for a in full])


def dense_hn_spectrum_reference(params):
    """(betas, R, L) of the single-band chain: R = r^j phi, L = r^-j phi."""
    logr = 0.5 * (math.log(params.t_right) - math.log(params.t_left))
    n = params.n_sites
    betas = hn_closed_form_betas(n, params.t_right, params.t_left, params.kappa)
    sites = np.arange(1, n + 1)
    # the library's sine basis, indexed by the sine's exact period; its
    # accuracy is tested against mpmath on its own
    period = 2 * (n + 1)
    sines = math.sqrt(2.0 / (n + 1)) * np.sin(np.arange(period) * np.pi / (n + 1))
    phi = sines[np.outer(sites, sites) % period]
    env = sites.astype(float) * logr
    right, left = _sign_gauge_pair(np.exp(env)[:, None] * phi, np.exp(-env)[:, None] * phi)
    return betas, right, left


def sorted_order(betas):
    """Ascending (Re, Im), with rates that tie counted as one: each group runs from
    its least rate to 64 eps times the spread of the betas above it and is ordered
    by (Im, Re).  The spread is their bounding box's diagonal, within sqrt 2 of
    their diameter.  The order of the dense ``eig`` route the decomposition once
    had for any X."""
    tolerance = 64.0 * np.finfo(float).eps * float(np.hypot(np.ptp(betas.real),
                                                            np.ptp(betas.imag)))
    order = np.lexsort((betas.imag, betas.real))
    re = betas.real[order]
    ends = np.searchsorted(re, re + tolerance, side="right").tolist()
    start = 0
    while start < betas.size:
        stop = ends[start]
        if stop - start > 1:
            sub = order[start:stop]
            order[start:stop] = sub[np.lexsort((betas[sub].real, betas[sub].imag))]
        start = stop
    return order


def gauge_eigh_reference(x):
    """BiorthogonalSpectrum of a chain X by ``eigh`` of the whole gauge-symmetrized
    H = D^-1 X D, the route every chain took before the mirror sectors and the one
    a chain that is not mirror-symmetric still takes."""
    from gausschain.spectral import BiorthogonalSpectrum, _gauge_symmetrize

    log_d, diag, off = _gauge_symmetrize(np.asarray(x))
    h = np.diag(diag) + np.diag(off, -1) + np.diag(off, 1)
    return BiorthogonalSpectrum(*np.linalg.eigh(h), log_d)


def gauge_h_mp(x):
    """The gauge-symmetrized H = D^-1 X D of a real chain X with negative bonds, as both
    chain models have, as an mpmath matrix at the working precision: diagonal X_jj,
    off-diagonal -sqrt(X[j+1, j] X[j, j+1])."""
    x = np.asarray(x).real
    h = mpmath.matrix(x.shape[0])
    for j in range(x.shape[0]):
        h[j, j] = x[j, j]
        if j + 1 < x.shape[0]:
            h[j, j + 1] = h[j + 1, j] = -mpmath.sqrt(mpmath.mpf(x[j + 1, j]) * x[j, j + 1])
    return h


# The chain layer as first written, before X, the local jumps and the
# similarity residual read one bond table (models._bonds): a loop builder
# per model, a bond list per model, and one loop per jump kind.  The
# library must reproduce them bit for bit.

def hn_matrix_reference(params):
    """X of the single-band chain: kappa I, -t_right below and -t_left above the diagonal."""
    n = params.n_sites
    x = params.kappa * np.eye(n)
    idx = np.arange(n - 1)
    x[idx + 1, idx] -= params.t_right
    x[idx, idx + 1] -= params.t_left
    return x


def _ssh_hoppings(params):
    """(t1 e^g, t1 e^-g, t2 e^g, t2 e^-g) of the two-band chain."""
    return (params.t1 * math.exp(params.g), params.t1 * math.exp(-params.g),
            params.t2 * math.exp(params.g), params.t2 * math.exp(-params.g))


def ssh_matrix_reference(params):
    """X of the two-band chain, one cell at a time: t1 within cells, t2 between them."""
    n = params.n_cells
    t1_right, t1_left, t2_right, t2_left = _ssh_hoppings(params)
    x = params.kappa * np.eye(2 * n)
    for cell in range(n):
        a, b = 2 * cell, 2 * cell + 1
        x[b, a] -= t1_right
        x[a, b] -= t1_left
    for cell in range(n - 1):
        b, a2 = 2 * cell + 1, 2 * cell + 2
        x[a2, b] -= t2_right
        x[b, a2] -= t2_left
    return x


def bond_list_reference(params):
    """(1-based left site, beta) of every bond, in the order the local jumps list them."""
    if isinstance(params, SshParams):
        t1_right, t1_left, t2_right, t2_left = _ssh_hoppings(params)
        n = params.n_cells
        return ([(2 * cell - 1, t1_right + t1_left) for cell in range(1, n + 1)]
                + [(2 * cell, t2_right + t2_left) for cell in range(1, n)])
    beta = params.t_right + params.t_left
    return [(j, beta) for j in range(1, params.n_sites)]


def jump_reference(labels, kappa, bonds, y):
    """(label, kind, vector) of every bond, onsite and pump jump of a feasible chain."""
    dim = len(labels)
    bond_sum = np.zeros(dim)
    for left, beta in bonds:
        bond_sum[left - 1:left + 1] += beta
    args = (2.0 * kappa - y) - bond_sum
    out = []
    for left, beta in bonds:
        v = np.zeros(dim, dtype=complex)
        v[left - 1], v[left] = np.sqrt(beta), -np.sqrt(beta)
        out.append((f"bond({labels[left - 1]})", "loss", v))
    eye = np.eye(dim, dtype=complex)
    out += [(f"onsite({labels[j]})", "loss", np.sqrt(max(a, 0.0)) * eye[j])
            for j, a in enumerate(args)]
    out += [(f"pump({labels[j]})", "gain", np.sqrt(y[j]) * eye[j]) for j in range(dim) if y[j] > 0]
    return out


def similarity_residual_reference(params):
    """max |X[k+1,k] / r - X[k,k+1] r| read off the dense X of the single-band chain."""
    from gausschain.spectral import _hn_log_ratio

    r = math.exp(_hn_log_ratio(params))
    x = hn_matrix_reference(params)
    return float(np.abs(np.diagonal(x, -1) / r - np.diagonal(x, 1) * r).max(initial=0.0))


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


def motivation_pair():
    """(X, Y) of the 6-site chain (t_left 0.17, kappa 1.3) with a dense positive definite
    pump Y of peak 1.2e5, 0.4 ulp of its peak away from Hermitian."""
    rng = np.random.default_rng(0)
    m = rng.standard_normal((6, 6))
    d = np.diag(rng.uniform(1, 2, 6))
    x = build_hatano_nelson(HatanoNelsonParams(6, 1.0, 0.17, 1.3))
    return matrix_entries(x), (1e4 * m @ d) @ m.T


def read_bytes(path):
    """The bytes of a file, closed before they are returned."""
    with open(path, "rb") as fh:
        return fh.read()


# The many-body oracle's kernels in their np.ix_, 2-d fancy-index and
# eigvalsh forms: the library's 1-d takes and Cholesky certificate must
# reproduce their bits and verdicts.

def block_generator_reference(k, ls, rows, cols):
    """The Liouvillian on the charge block (rows, cols), gathered by np.ix_:
    entry |r><c| of the image of |i><j| is K_ri d_cj + d_ri conj(K_cj) +
    sum_L L_ri conj(L_cj)."""
    ket, bra = np.ix_(rows, rows), np.ix_(cols, cols)
    out = k[ket] * (cols[:, None] == cols) + (rows[:, None] == rows) * k[bra].conj()
    for op in ls:
        out += op[ket] * op[bra].conj()
    return out


def correlator_reference(rho):
    """C_ij = Tr(rho c_j^dag c_i), symmetrized, by a 2-d fancy-index gather of
    the one nonzero row of each column of c_j^dag c_i."""
    ops = operator_set(rho.n_sites)
    n, dim = ops.n_sites, ops.dim
    cols = np.zeros((n, n, dim), dtype=np.intp)
    signs = np.zeros((n, n, dim))
    for i in range(n):
        for j in range(n):
            p = ops._pairs[j][i]
            cols[i, j] = (p != 0).argmax(axis=0)
            signs[i, j] = p[cols[i, j], np.arange(dim)].real
    c = (rho.entries[np.arange(dim), cols] * signs).sum(-1)
    return 0.5 * (c + c.conj().T)


def least_eigenvalue_reference(stack):
    """The least eigenvalue of each Hermitian sample of a (S, D, D) stack by
    eigvalsh; raises ParameterError worded as the oracle's positivity check
    when one is below -1e-8."""
    wmin = np.linalg.eigvalsh(stack).min(axis=1)
    if (wmin < -1e-8).any():
        k = int(np.argmax(wmin < -1e-8))
        name = "density matrix" if len(stack) == 1 else f"density matrix sample {k}"
        raise ParameterError(f"{name} has eigenvalue {wmin[k]:.3e} < -1e-8")
    return wmin


def complex_steady_state_reference(h, jumps):
    """The many-body steady state from the charge-0 Liouvillian block built in
    complex arithmetic (block_generator_reference), with the vacuum row
    replaced by Tr rho = 1."""
    ops = operator_set(jumps.dim)
    ls = [ops.loss_operator(v.vector) for v in jumps.loss_vectors]
    ls += [ops.gain_operator(v.vector) for v in jumps.gain_vectors]
    k = -1j * ops.one_body_operator(_hermitian(matrix_entries(h), "h"))
    for op in ls:
        k -= 0.5 * (op.conj().T @ op)
    rows, cols = ops._blocks[0]
    system = block_generator_reference(k, ls, rows, cols)
    system[0] = rows == cols
    rho = np.zeros((ops.dim, ops.dim), dtype=complex)
    rho[rows, cols] = np.linalg.solve(system, np.eye(rows.size)[0])
    return DensityMatrix(rho)


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
