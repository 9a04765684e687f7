"""Lattice builders for nonreciprocal dissipative chains.

The central object is the relaxation matrix X of the one-body correlator
equation of motion

    dC/dt = -X C - C X^dag + Y,

with Y a positive semidefinite source (pump).  Two chain families are
provided: the nonreciprocal single-band chain with asymmetric hoppings
(t_right, t_left) and uniform damping kappa, and a two-band chain with
alternating intra/intercell hoppings carrying a nonreciprocity exponent g.

Site indices are 1-based in every public interface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SiteIndexError

HERMITICITY_TOL = 1e-12
PSD_TOL = 1e-12


def _narrowed(m) -> np.ndarray:
    """m as float64 when no entry has a nonzero imaginary part, else as complex128:
    the one place that decides a matrix's number type, so real chains stay real."""
    m = np.asarray(m)
    if np.iscomplexobj(m) and m.imag.any():
        return np.asarray(m, dtype=complex)
    return np.asarray(m.real, dtype=float)


def matrix_entries(obj, name: str = "matrix") -> np.ndarray:
    """Dense square finite array, float64 if real (_narrowed), from a wrapper or array-like.

    The one gate for every matrix the library takes (X, Y, C, C0, h): one
    that is not square or not finite raises ParameterError naming ``name``.
    """
    m = _narrowed(getattr(obj, "entries", obj))
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ParameterError(f"{name} must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ParameterError(f"{name} contains non-finite entries")
    return m


def _frozen_array(m: np.ndarray) -> np.ndarray:
    out = np.array(m)
    out.flags.writeable = False
    return out


def default_labels(dim: int) -> tuple[str, ...]:
    return tuple(str(j) for j in range(1, dim + 1))


@dataclass(frozen=True)
class RelaxationMatrix:
    """Square matrix generating the one-body relaxation dynamics; real X is float64."""

    entries: np.ndarray
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        m = _frozen_array(matrix_entries(self.entries, "relaxation matrix"))
        labels = tuple(self.labels) if self.labels else default_labels(m.shape[0])
        if len(labels) != m.shape[0]:
            raise ParameterError("label count does not match matrix dimension")
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class SourceMatrix:
    """Hermitian positive semidefinite pump matrix Y; real Y is float64."""

    entries: np.ndarray
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        m = matrix_entries(self.entries, "source matrix")
        # Every builder's pump is exactly Hermitian: one comparison, no
        # defect or symmetrization sweep over N^2 temporaries.
        exact = np.array_equal(m, m.conj().T)
        herm = 0.0 if exact else np.abs(m - m.conj().T).max()
        if herm > HERMITICITY_TOL:
            raise ParameterError(f"source matrix not Hermitian: max |Y - Y^dag| = {herm:.3e}")
        if not exact:
            m = 0.5 * (m + m.conj().T)
        if m.size:
            diag = np.diagonal(m).real
            # A diagonal Y (every chain pump) has its entries as eigenvalues.
            w = diag if np.count_nonzero(m) == np.count_nonzero(diag) else np.linalg.eigvalsh(m)
            wmin, wmax = float(w.min()), float(w.max())
            # PSD up to rounding, relative to the largest eigenvalue.
            if wmin < -PSD_TOL * wmax:
                raise ParameterError(
                    f"source matrix not positive semidefinite: min eigenvalue {wmin:.3e}")
        labels = tuple(self.labels) if self.labels else default_labels(m.shape[0])
        if len(labels) != m.shape[0]:
            raise ParameterError("label count does not match matrix dimension")
        object.__setattr__(self, "entries", _frozen_array(m))
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def _check_finite_scalar(name: str, v: float) -> float:
    v = float(v)
    if not math.isfinite(v):
        raise ParameterError(f"{name} must be finite, got {v!r}")
    return v


@dataclass(frozen=True)
class HatanoNelsonParams:
    """Single-band chain: hoppings t_right (to the right neighbor) and
    t_left, uniform damping kappa on the diagonal.

    Zero hoppings are representable (degenerate decoupled limit) but are
    rejected by the builders and closed-form routines, which need strict
    nonreciprocal hopping.  Guaranteed relaxation requires
    kappa > 2 sqrt(t_right t_left).
    """

    n_sites: int
    t_right: float
    t_left: float
    kappa: float

    def __post_init__(self):
        if int(self.n_sites) != self.n_sites or self.n_sites < 1:
            raise ParameterError(f"n_sites must be a positive integer, got {self.n_sites!r}")
        object.__setattr__(self, "n_sites", int(self.n_sites))
        for name in ("t_right", "t_left", "kappa"):
            object.__setattr__(self, name, _check_finite_scalar(name, getattr(self, name)))
        if self.t_right < 0 or self.t_left < 0:
            raise ParameterError("hopping amplitudes must be nonnegative")


@dataclass(frozen=True)
class SshParams:
    """Two-band chain of n_cells unit cells with sublattices A, B.

    Intracell hopping t1 and intercell hopping t2 acquire opposite
    nonreciprocal weights exp(+-g): rightward amplitudes carry exp(g),
    leftward ones exp(-g).  kappa is the uniform damping.
    """

    n_cells: int
    t1: float
    t2: float
    g: float
    kappa: float

    def __post_init__(self):
        if int(self.n_cells) != self.n_cells or self.n_cells < 1:
            raise ParameterError(f"n_cells must be a positive integer, got {self.n_cells!r}")
        object.__setattr__(self, "n_cells", int(self.n_cells))
        for name in ("t1", "t2", "g", "kappa"):
            object.__setattr__(self, name, _check_finite_scalar(name, getattr(self, name)))
        if self.t1 < 0 or self.t2 < 0:
            raise ParameterError("hopping amplitudes must be nonnegative")

    @property
    def n_sites(self) -> int:
        return 2 * self.n_cells

    @property
    def t1_right(self) -> float:
        return self.t1 * math.exp(self.g)

    @property
    def t1_left(self) -> float:
        return self.t1 * math.exp(-self.g)

    @property
    def t2_right(self) -> float:
        return self.t2 * math.exp(self.g)

    @property
    def t2_left(self) -> float:
        return self.t2 * math.exp(-self.g)


def build_hatano_nelson(params: HatanoNelsonParams) -> RelaxationMatrix:
    """Relaxation matrix of the nonreciprocal single-band chain.

    X = kappa I - t_right sum_j |j+1><j| - t_left sum_j |j><j+1|,
    i.e. -t_right on the first subdiagonal and -t_left on the first
    superdiagonal.
    """
    if params.t_right <= 0 or params.t_left <= 0:
        raise ParameterError("build_hatano_nelson requires strictly positive hoppings")
    n = params.n_sites
    x = params.kappa * np.eye(n)
    idx = np.arange(n - 1)
    x[idx + 1, idx] -= params.t_right
    x[idx, idx + 1] -= params.t_left
    return RelaxationMatrix(x, default_labels(n))


def ssh_labels(n_cells: int) -> tuple[str, ...]:
    out = []
    for cell in range(1, n_cells + 1):
        out.append(f"{cell}A")
        out.append(f"{cell}B")
    return tuple(out)


def ssh_index(cell: int, sublattice: str, n_cells: int) -> int:
    """1-based linear site index of (cell, sublattice) in the (1A, 1B, 2A, ...) order."""
    if sublattice not in ("A", "B"):
        raise ParameterError(f"sublattice must be 'A' or 'B', got {sublattice!r}")
    if int(cell) != cell or not 1 <= cell <= n_cells:
        raise SiteIndexError(f"cell {cell} outside 1..{n_cells}")
    return 2 * (int(cell) - 1) + (1 if sublattice == "A" else 2)


def build_ssh(params: SshParams) -> RelaxationMatrix:
    """Relaxation matrix of the nonreciprocal two-band chain.

    Rightward hops (A->B within a cell, B->next A) carry exp(g); the
    reversed hops carry exp(-g).  Entry (row, col) = amplitude for
    col -> row, so e.g. X[nB, nA] = -t1 exp(g).
    """
    if params.t1 <= 0 or params.t2 <= 0:
        raise ParameterError("build_ssh requires strictly positive hoppings")
    n = params.n_cells
    dim = 2 * n
    x = params.kappa * np.eye(dim)
    for cell in range(n):
        a, b = 2 * cell, 2 * cell + 1
        x[b, a] -= params.t1_right
        x[a, b] -= params.t1_left
    for cell in range(n - 1):
        b, a2 = 2 * cell + 1, 2 * cell + 2
        x[a2, b] -= params.t2_right
        x[b, a2] -= params.t2_left
    return RelaxationMatrix(x, ssh_labels(n))


def build_local_pump(dim: int, site: int, strength: float) -> SourceMatrix:
    """Pump acting on a single site: Y = strength |site><site| (1-based)."""
    if int(dim) != dim or dim < 1:
        raise ParameterError(f"dim must be a positive integer, got {dim!r}")
    strength = _check_finite_scalar("strength", strength)
    if strength <= 0:
        raise ParameterError(f"pump strength must be positive, got {strength}")
    if int(site) != site or not 1 <= site <= dim:
        raise SiteIndexError(f"pump site {site} outside 1..{dim}")
    y = np.zeros((int(dim), int(dim)))
    y[int(site) - 1, int(site) - 1] = strength
    return SourceMatrix(y)


def build_diagonal_pump(values) -> SourceMatrix:
    """Pump with site-resolved strengths: Y = diag(values), all >= 0."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ParameterError("diagonal pump requires a 1d vector of strengths")
    if not np.all(np.isfinite(v)):
        raise ParameterError("diagonal pump entries must be finite")
    if np.any(v < 0):
        j = int(np.argmin(v))
        raise ParameterError(f"diagonal pump entry {j + 1} is negative ({v[j]})")
    return SourceMatrix(np.diag(v))
