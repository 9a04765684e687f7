"""Independent high-precision steady correlators for real tridiagonal chains.

The benchmark never trusts the program it measures, so every reference
answer comes from here.  Both chain models build a real tridiagonal
relaxation matrix X with a uniform diagonal kappa and negative hoppings,
and every pump is diagonal.  For such an X the diagonal gauge

    log d_{j+1} - log d_j = 1/2 log(X[j+1,j] / X[j,j+1])

gives X = D H D^-1 with H = kappa I - B real symmetric and B >= 0
(the imaginary-gauge similarity).  Then C = D G D, where

    H G + G H = E,    E = D^-1 Y D^-1 (diagonal, nonnegative).

G is summed as the Neumann series G = sum_n L^n(E) / (2 kappa)^(n+1),
L(T) = B T + T B.  Every term is entrywise nonnegative, so the sum has no
cancellation: each entry, however tiny, is accurate to a small multiple
of the working precision.  The gauge factors are exponentiated from
mpmath logarithms, so the envelope r^(i+j-2p) is exact to the last bit.

Each truth is computed twice: in 64-bit long double and in 106-bit
double-double arithmetic.  The two must agree entrywise to 16 digits;
the double-double result is the reference.  The 200-site single-band
truths are also spot-checked entry by entry against the closed-form
reciprocal sine basis evaluated in mpmath.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

AGREE_DIGITS = 16.0
LD_TOL = 1e-21
DD_TOL = 1e-27
MAX_TERMS = 200_000
SPLITTER = 134217729.0  # 2^27 + 1, Dekker split for binary64


class TruthError(RuntimeError):
    """A reference correlator failed its own self-check."""


# ---- double-double arithmetic on numpy float64 arrays --------------------

def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _dd_add(ah, al, bh, bl):
    s, e = _two_sum(ah, bh)
    e = e + (al + bl)
    h = s + e
    return h, e - (h - s)


def _split(a):
    c = SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _dd_mul(ah, al, bh, bl):
    p = ah * bh
    a1, a2 = _split(ah)
    b1, b2 = _split(bh)
    e = ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2
    e = e + (ah * bl + al * bh)
    h = p + e
    return h, e - (h - p)


def dd_from_mpf(values) -> tuple[np.ndarray, np.ndarray]:
    """Round mpmath numbers to (hi, lo) float64 pairs."""
    with mpmath.workdps(60):
        hi = np.array([float(v) for v in values])
        lo = np.array([float(v - mpmath.mpf(h)) for v, h in zip(values, hi)])
    return hi, lo


def dd_scale(hi, lo, s: float):
    """Double-double array times an exact float64 scalar."""
    return _dd_mul(hi, lo, np.full_like(hi, s), np.zeros_like(hi))


# ---- the Neumann series ---------------------------------------------------

def _neumann(e_hi, e_lo, b, kappa, rho, tol, dd: bool):
    """sum_n L^n(E) / (2 kappa)^(n+1), E = diag(e) batched over rows of e.

    L(T) = B T + T B with B the symmetric tridiagonal bond matrix (bond
    values ``b``).  ``e`` is a double-double pair; the long-double pass
    uses hi + lo, which it holds exactly.  Arrays carry a zero border so
    each neighbour shift is a plain slice.
    """
    batch, n = e_hi.shape
    with mpmath.workdps(60):
        q_mp = 1 / (2 * kappa)
        b_mp = [bj * q_mp for bj in b]
    uniform = len(set(b_mp)) <= 1
    inner = np.s_[..., 1:-1, 1:-1]
    shifts = (np.s_[..., :-2, 1:-1], np.s_[..., 2:, 1:-1],
              np.s_[..., 1:-1, :-2], np.s_[..., 1:-1, 2:])
    diag = (slice(None), np.arange(1, n + 1), np.arange(1, n + 1))
    if dd:
        zero = np.zeros(1)
        bh, bl = dd_from_mpf(b_mp)
        # weights of the four neighbours: row above/below, column left/right
        wh, wl = [], []
        for part, out in ((bh, wh), (bl, wl)):
            up, down = np.concatenate([zero, part]), np.concatenate([part, zero])
            out += [up[:, None], down[:, None], up[None, :], down[None, :]]
        (qh,), (ql,) = dd_from_mpf([q_mp])
        uh = np.zeros((batch, n + 2, n + 2))
        ul = np.zeros_like(uh)
        uh[diag], ul[diag] = _dd_mul(e_hi, e_lo, qh, ql)
        th, tl = uh[inner].copy(), ul[inner].copy()
    else:
        ld = np.longdouble
        bq = np.array([ld(mpmath.nstr(v, 30)) for v in b_mp], dtype=ld)
        up, down = np.concatenate([[ld(0)], bq]), np.concatenate([bq, [ld(0)]])
        w = [up[:, None], down[:, None], up[None, :], down[None, :]]
        u = np.zeros((batch, n + 2, n + 2), dtype=ld)
        u[diag] = (e_hi.astype(ld) + e_lo) * ld(mpmath.nstr(q_mp, 30))
        total = u[inner].copy()
    safety = 10.0 * rho / (1.0 - rho)
    for step in range(1, MAX_TERMS + 1):
        if dd:
            if uniform:
                sh, sl = uh[shifts[0]], ul[shifts[0]]
                for k in shifts[1:]:
                    sh, sl = _dd_add(sh, sl, uh[k], ul[k])
                vh, vl = _dd_mul(sh, sl, wh[1][0, 0], wl[1][0, 0])
            else:
                vh, vl = _dd_mul(uh[shifts[0]], ul[shifts[0]], wh[0], wl[0])
                for k in range(1, 4):
                    ph, pl = _dd_mul(uh[shifts[k]], ul[shifts[k]], wh[k], wl[k])
                    vh, vl = _dd_add(vh, vl, ph, pl)
            uh[inner], ul[inner] = vh, vl
            th, tl = _dd_add(th, tl, vh, vl)
            new, acc = vh, th
        else:
            v = w[0] * u[shifts[0]]
            for k in range(1, 4):
                v += w[k] * u[shifts[k]]
            u[inner] = v
            total += v
            new, acc = v, total
        if step >= 2 * n and step % 16 == 0:
            with np.errstate(invalid="ignore", divide="ignore"):
                ratio = float(np.max(np.where(acc > 0, new / acc, 0)))
            if ratio * safety < tol:
                return (th, tl) if dd else (total,)
    raise TruthError(f"Neumann series did not converge in {MAX_TERMS} terms (rho={rho})")


class Chain:
    """A real tridiagonal relaxation matrix, gauge-symmetrized in mpmath.

    ``sub[j] = X[j+1, j]`` and ``sup[j] = X[j, j+1]`` are the exact float64
    entries the program builds; the diagonal is the uniform ``kappa``.
    """

    def __init__(self, kappa: float, sub, sup):
        sub = [float(v) for v in sub]
        sup = [float(v) for v in sup]
        if any(a >= 0 or c >= 0 for a, c in zip(sub, sup)):
            raise ValueError("hoppings must be strictly negative off the diagonal")
        self.n = len(sub) + 1
        self.kappa_f = float(kappa)
        with mpmath.workdps(60):
            self.kappa = mpmath.mpf(self.kappa_f)
            self.b = [mpmath.sqrt(mpmath.mpf(a) * mpmath.mpf(c)) for a, c in zip(sub, sup)]
            ell = [mpmath.mpf(0)]
            for a, c in zip(sub, sup):
                ell.append(ell[-1] + mpmath.log(mpmath.mpf(a) / mpmath.mpf(c)) / 2)
            self.ell = ell
        bmat = np.diag([float(v) for v in self.b], 1)
        top = float(np.linalg.eigvalsh(bmat + bmat.T).max()) if self.n > 1 else 0.0
        self.rho = top / self.kappa_f
        if not self.rho < 1.0:
            raise ValueError(f"chain is not strictly stable (rho={self.rho})")

    def greens(self, pumps) -> list[tuple[np.ndarray, np.ndarray]]:
        """G for unit local pumps at 0-based sites p (double-double pairs)."""
        pumps = list(pumps)
        e = np.zeros((len(pumps), self.n))
        e[np.arange(len(pumps)), pumps] = 1.0
        gh, gl = self._solve(e, np.zeros_like(e))
        return list(zip(gh, gl))

    def assemble(self, gh, gl, p: int):
        """Unit-strength C for a pump at 0-based site p: C_ij = f_i f_j G_ij.

        f_i = d_i / d_p comes from the mpmath gauge exponents, so a pump of
        strength s gives exactly s times this matrix.
        """
        with mpmath.workdps(60):
            f = dd_from_mpf([mpmath.exp(l - self.ell[p]) for l in self.ell])
        return _outer_scale(gh, gl, f)

    def diagonal_pump(self, y) -> tuple[np.ndarray, np.ndarray]:
        """C for Y = diag(y) with exact float64 entries y >= 0."""
        with mpmath.workdps(60):
            e_hi, e_lo = dd_from_mpf([mpmath.mpf(float(v)) * mpmath.exp(-2 * l)
                                      for v, l in zip(y, self.ell)])
            f = dd_from_mpf([mpmath.exp(l) for l in self.ell])
        gh, gl = self._solve(e_hi[None, :], e_lo[None, :])
        return _outer_scale(gh[0], gl[0], f)

    def _solve(self, e_hi, e_lo):
        g_dd = _neumann(e_hi, e_lo, self.b, self.kappa, self.rho, DD_TOL, dd=True)
        g_ld = _neumann(e_hi, e_lo, self.b, self.kappa, self.rho, LD_TOL, dd=False)[0]
        err = np.abs(g_ld - (g_dd[0].astype(np.longdouble) + g_dd[1]))
        with np.errstate(invalid="ignore", divide="ignore"):
            rel = float(np.max(np.where(g_dd[0] > 0, err / g_dd[0], 0)))
        if not rel <= 10.0 ** -AGREE_DIGITS:
            raise TruthError(f"precision self-check failed: 64-bit and 106-bit "
                             f"truths differ by {rel:.3e} relative")
        return g_dd


def _outer_scale(gh, gl, f):
    """f_i f_j G_ij in double-double."""
    fh, fl = f
    ones = np.ones_like(gh)
    h, l = _dd_mul(gh, gl, fh[:, None] * ones, fl[:, None] * ones)
    return _dd_mul(h, l, fh[None, :] * ones, fl[None, :] * ones)


def top_eigenvalue(ch, cl, max_iter: int = 50):
    """Largest eigenvalue of a symmetric double-double matrix, as an mpf.

    A float64 eigenvector is refined by power steps in long double until
    the Rayleigh-quotient error bound |r|^2 / gap falls below 1e-18
    relative (gap from the float64 spectrum).
    """
    w, v = np.linalg.eigh(ch)
    gap = float(w[-1] - w[-2]) if w.size > 1 else math.inf
    c = ch.astype(np.longdouble) + cl
    x = v[:, -1].astype(np.longdouble)
    for _ in range(max_iter):
        cx = c @ x
        rq = (x @ cx) / (x @ x)
        r = cx - rq * x
        bound = float((r @ r) / (x @ x)) / gap
        if bound <= 1e-18 * float(rq):
            return mpmath.mpf(repr(rq).replace("np.longdouble(", "").strip("')"))
        x = cx / np.sqrt(cx @ cx)
    raise TruthError(f"top eigenvalue did not settle (gap {gap:.3e})")


def spot_check_sine_basis(c, n, t_right, t_left, kappa, p, sites=None):
    """Compare entries of a single-band truth with the mpmath sine-basis sum.

    C_ij = r^(i+j-2p) sum_mn phi_m(i) phi_m(p) phi_n(p) phi_n(j) / (lam_m + lam_n)
    with the reciprocal chain's sine modes phi and rates lam.  Checked at
    the pump, both corners and the smallest entry, to AGREE_DIGITS.
    """
    ch, cl = c
    small = np.unravel_index(int(np.argmin(ch)), ch.shape)
    sites = sites or [(p, p), (0, 0), (n - 1, n - 1), small]
    log_r = 0.5 * (math.log(t_right) - math.log(t_left))
    for i, j in sites:
        # the sine sum cancels down to G_ij from terms of order one: carry
        # enough digits to resolve G_ij = C_ij r^-(i+j-2p) to AGREE_DIGITS
        log_g = math.log10(float(ch[i, j])) - (i + j - 2 * p) * log_r / math.log(10)
        with mpmath.workdps(30 + int(AGREE_DIGITS) + max(0, int(-log_g))):
            th = mpmath.pi / (n + 1)
            t = mpmath.sqrt(mpmath.mpf(t_right) * mpmath.mpf(t_left))
            lam = [mpmath.mpf(kappa) - 2 * t * mpmath.cos(m * th) for m in range(1, n + 1)]
            norm = mpmath.sqrt(mpmath.mpf(2) / (n + 1))
            phi = lambda s: [norm * mpmath.sin((s + 1) * m * th) for m in range(1, n + 1)]
            phi_p = phi(p)
            a = [x * y for x, y in zip(phi(i), phi_p)]
            b = [x * y for x, y in zip(phi(j), phi_p)]
            g = mpmath.fsum(a[m] * mpmath.fsum(b[k] / (lam[m] + lam[k]) for k in range(n))
                            for m in range(n))
            mp_log_r = mpmath.log(mpmath.mpf(t_right) / mpmath.mpf(t_left)) / 2
            exact = g * mpmath.exp((i + j - 2 * p) * mp_log_r)
            got = mpmath.mpf(float(ch[i, j])) + mpmath.mpf(float(cl[i, j]))
            if abs(got - exact) > abs(exact) * mpmath.mpf(10) ** -AGREE_DIGITS:
                raise TruthError(f"sine-basis spot check failed at ({i}, {j}): "
                                 f"{mpmath.nstr(got, 20)} vs {mpmath.nstr(exact, 20)}")
