"""Lattice builders for nonreciprocal dissipative chains.

The central object is the relaxation matrix X of the one-body correlator
equation of motion

    dC/dt = -X C - C X^dag + Y,

with Y a positive semidefinite source (pump).  Two chain families are
provided: the nonreciprocal single-band chain with asymmetric hoppings
(t_right, t_left) and uniform damping kappa, and a two-band chain with
alternating intra/intercell hoppings carrying a nonreciprocity exponent g.

Site indices are 1-based in every public interface.  Every gate reads one
number rule (_number_mask): matrix_entries for matrices, _vector for
vectors, _positions, _count, _check_finite_scalar and _strength for indices,
counts and scalars, and one label rule (_labels) asks for one label per
matrix row.  One rule judges a matrix Hermitian (_hermitian, HERMITIAN_RTOL)
and one PSD (_psd, PSD_TOL), each relative to its own scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, SiteIndexError

HERMITIAN_RTOL = 1e-12
PSD_TOL = 1e-12


class _GatedMatrix:
    """Base of the wrappers (X, Y, C) whose entries passed matrix_entries when built.

    Their entries are frozen, so matrix_entries hands them back as they are.
    """

    __slots__ = ()

    def _hold(self, m: np.ndarray, labels=None) -> None:
        """Set ``entries`` to a frozen copy of the gated ``m`` and, unless ``labels`` is
        None, ``labels`` to them by the label rule (_labels; 1..dim if empty)."""
        object.__setattr__(self, "entries", _frozen_array(m))
        if labels is not None:
            object.__setattr__(self, "labels", _labels(type(self).__name__, tuple(labels) or None,
                                                       m.shape[0]))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def _number_mask(value, kinds: str = "iuf") -> tuple[np.ndarray, np.ndarray]:
    """(a, ok): ``value`` as an array and where its entries are input numbers: finite ints
    or floats (complex if ``kinds`` holds "c"), never bools, strings or None.  An ndarray's
    dtype decides in O(1); only a Python sequence is walked, entry by entry."""
    try:
        a = np.asarray(value)
    except ValueError:  # a ragged nested sequence
        a = np.asarray(value, dtype=object)
    if a.ndim and not isinstance(value, np.ndarray):
        entries = np.asarray(value, dtype=object).flat
        if a.dtype.kind in kinds:  # only a bool hides there: np.asarray([1.0, True]) is [1., 1.]
            bools = np.array([isinstance(v, (bool, np.bool_)) for v in entries], dtype=bool)
            return a, np.isfinite(a) & ~bools.reshape(a.shape)
        masks = [_number_mask(v, kinds)[1] for v in entries]  # an entry that is a list is none
        return a, np.array([m.ndim == 0 and m for m in masks], dtype=bool).reshape(a.shape)
    return a, np.isfinite(a) if a.dtype.kind in kinds else np.zeros(a.shape, dtype=bool)


def _numbers(role: str, value, kinds: str = "iuf") -> np.ndarray:
    """``value`` as an array (_number_mask); ParameterError naming ``role`` and the
    first entry (1-based) of a sequence or array that is no input number, or the
    row lengths of a nested sequence whose rows differ in length."""
    a, ok = _number_mask(value, kinds)
    if a.dtype == object and a.ndim == 1:  # a ragged nesting keeps its rows as entries
        lengths = [len(v) for v in a if isinstance(v, (list, tuple, np.ndarray))]
        if len(lengths) == a.size and len(set(lengths)) > 1:
            raise ParameterError(f"{role} has rows of unequal lengths {lengths}")
    if a.ndim and not ok.all():
        first = np.argwhere(~ok)[0]
        where = int(first[0]) + 1 if a.ndim == 1 else tuple(int(i) + 1 for i in first)
        bad = np.asarray(value, dtype=object)[tuple(first)]
        raise ParameterError(f"{role} contains non-finite entries: entry {where} is {bad!r}")
    return a


def _vector(role: str, values, kinds: str = "iuf") -> np.ndarray:
    """Non-empty 1-d float64 (complex128 if ``kinds`` holds "c") array of input numbers."""
    a = _numbers(role, values, kinds)
    if a.ndim != 1 or not a.size:
        raise ParameterError(f"{role} must be a non-empty list of numbers, got shape {a.shape}")
    return np.asarray(a, dtype=complex if "c" in kinds else float)


def matrix_entries(obj, name: str = "matrix") -> np.ndarray:
    """Dense square array of input numbers (_numbers) from a wrapper or array-like,
    float64 unless an entry has a nonzero imaginary part, so real chains stay real.

    The one gate for every matrix the library takes (X, Y, C, C0, h): an
    empty, non-square or non-finite one raises ParameterError naming ``name``.
    A _GatedMatrix passed it when it was built and is not checked again.
    """
    if isinstance(obj, _GatedMatrix):
        return obj.entries
    m = _numbers(name, getattr(obj, "entries", obj), "iufc")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ParameterError(f"{name} must be square, got shape {m.shape}")
    if not m.size:
        raise ParameterError(f"{name} must not be empty")
    if np.iscomplexobj(m) and m.imag.any():
        return np.asarray(m, dtype=complex)
    return np.asarray(m.real, dtype=float)


def _hermitian(m: np.ndarray, role: str) -> np.ndarray:
    """``m`` itself when exactly Hermitian, (M + M^dag) / 2 when its defect
    max |M - M^dag| is at most HERMITIAN_RTOL max |M|; else ParameterError
    naming ``role``, the defect and the peak."""
    adjoint = m.conj().T
    if np.array_equal(m, adjoint):  # every builder's Y and solver's C: no N^2 temporaries
        return m
    defect, peak = float(np.abs(m - adjoint).max()), float(np.abs(m).max())
    if defect > HERMITIAN_RTOL * peak:
        raise ParameterError(
            f"{role} not Hermitian: max |M - M^dag| = {defect:.3e} at peak {peak:.3e}")
    return 0.5 * (m + adjoint)


def _psd(m: np.ndarray) -> tuple[float, float]:
    """(least eigenvalue, limit) of the Hermitian ``m``: it is positive semidefinite
    when the least eigenvalue is at least the limit -PSD_TOL max |eigenvalue|."""
    diag = np.diagonal(m).real
    # A diagonal matrix (every chain pump) has its entries as eigenvalues.
    w = diag if np.count_nonzero(m) == np.count_nonzero(diag) else np.linalg.eigvalsh(m)
    return float(w.min()), -PSD_TOL * float(np.abs(w).max())


def _whole(value, upper) -> tuple[np.ndarray, np.ndarray]:
    """(a, ok) of _number_mask, ``ok`` only where an entry is a whole number in 1..upper."""
    a, ok = _number_mask(value)
    if a.dtype.kind in "iuf":
        ok &= (1 <= a) & (a <= upper) & (np.floor(a) == a)
    return a, ok


def _positions(role: str, index, upper: int):
    """0-based positions of the 1-based site, cell or mode ``index``, an int or an intp
    array checked in one pass; SiteIndexError names ``role`` and the first bad value."""
    a, ok = _whole(index, upper)
    if not ok.all():
        bad = np.asarray(index, dtype=object)[~ok][0] if a.ndim else index
        raise SiteIndexError(f"{role} {bad} outside 1..{upper}")
    return a.astype(np.intp) - 1 if a.ndim else int(a) - 1


def _count(role: str, value) -> int:
    """``value`` as an int; ParameterError naming ``role`` unless it is a whole number >= 1."""
    a, ok = _whole(value, np.iinfo(np.intp).max)
    if a.ndim or not ok:
        raise ParameterError(f"{role} must be a positive integer, got {value!r}")
    return int(a)


def _check_finite_scalar(name: str, value) -> float:
    """``value`` as a float; ParameterError naming ``name`` unless one real input number."""
    a, ok = _number_mask(value)
    if a.ndim or not ok:
        raise ParameterError(f"{name} must be finite, got {value!r}")
    return float(a)


def _strength(role: str, value) -> float:
    """``value`` as a float; ParameterError naming ``role`` unless it is finite and > 0."""
    v = _check_finite_scalar(role, value)
    if v <= 0:
        raise ParameterError(f"{role} must be positive, got {v}")
    return v


def _frozen_array(m: np.ndarray, dtype=None) -> np.ndarray:
    out = np.array(m, dtype=dtype)
    out.flags.writeable = False
    return out


def default_labels(dim: int) -> tuple[str, ...]:
    return tuple(str(j) for j in range(1, _count("dim", dim) + 1))


def _labels(role: str, labels, dim: int) -> tuple[str, ...]:
    """The label rule: ``labels`` as strings, one per row of a dim x dim matrix
    (1..dim if None); ParameterError naming ``role`` for any other count."""
    if labels is None:
        return default_labels(dim)
    out = tuple(str(s) for s in labels)
    if len(out) != dim:
        raise ParameterError(f"{role} label count {len(out)} does not match matrix "
                             f"dimension {dim}: list one label per row")
    return out


@dataclass(frozen=True)
class RelaxationMatrix(_GatedMatrix):
    """Square matrix generating the one-body relaxation dynamics; real X is float64."""

    entries: np.ndarray
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        self._hold(matrix_entries(self.entries, "relaxation matrix"), self.labels)


@dataclass(frozen=True)
class SourceMatrix(_GatedMatrix):
    """Hermitian (_hermitian, HERMITIAN_RTOL) positive semidefinite (_psd, PSD_TOL) pump
    matrix Y; real Y is float64.  ``_psd`` keeps the least eigenvalue and its limit."""

    entries: np.ndarray
    labels: tuple[str, ...] = ()
    _psd: tuple[float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = _hermitian(matrix_entries(self.entries, "source matrix"), "source matrix")
        wmin, limit = _psd(m)
        if wmin < limit:
            raise ParameterError(
                f"source matrix not positive semidefinite: min eigenvalue {wmin:.3e}")
        object.__setattr__(self, "_psd", (wmin, limit))
        self._hold(m, self.labels)


@dataclass(frozen=True)
class HatanoNelsonParams:
    """Single-band chain: hoppings t_right (to the right neighbor) and
    t_left, each finite and > 0 (_strength), uniform damping kappa on the
    diagonal.  Guaranteed relaxation requires kappa > 2 sqrt(t_right t_left).
    """

    n_sites: int
    t_right: float
    t_left: float
    kappa: float

    def __post_init__(self):
        object.__setattr__(self, "n_sites", _count("n_sites", self.n_sites))
        for name, gate in (("t_right", _strength), ("t_left", _strength),
                           ("kappa", _check_finite_scalar)):
            object.__setattr__(self, name, gate(name, getattr(self, name)))


@dataclass(frozen=True)
class SshParams:
    """Two-band chain of n_cells unit cells with sublattices A, B.

    Intracell hopping t1 and intercell hopping t2 (each > 0, _strength) acquire
    opposite nonreciprocal weights exp(+-g): rightward amplitudes carry exp(g),
    leftward ones exp(-g), each a finite positive double.  kappa is the damping.
    """

    n_cells: int
    t1: float
    t2: float
    g: float
    kappa: float

    def __post_init__(self):
        object.__setattr__(self, "n_cells", _count("n_cells", self.n_cells))
        for name, gate in (("t1", _strength), ("t2", _strength),
                           ("g", _check_finite_scalar), ("kappa", _check_finite_scalar)):
            object.__setattr__(self, name, gate(name, getattr(self, name)))
        try:
            bonds = [t * math.exp(s * self.g) for t in (self.t1, self.t2) for s in (1, -1)]
        except OverflowError:  # math.exp(g) past the double range
            bonds = [math.inf]
        if not all(0.0 < t < math.inf for t in bonds):
            raise ParameterError(f"g must keep t1 e^+-g and t2 e^+-g finite and positive, "
                                 f"got {self.g}")

    @property
    def n_sites(self) -> int:
        return 2 * self.n_cells


def _bonds(params: HatanoNelsonParams | SshParams) -> tuple[np.ndarray, ...]:
    """(left, rightward, leftward): every nearest-neighbor bond of either chain as its
    0-based left site j and the hoppings j -> j+1 and j+1 -> j, the one place that says
    which hopping sits on which bond.  The single-band chain lists its bonds in chain
    order, the two-band chain its intracell (t1) bonds, then its intercell (t2) ones."""
    if isinstance(params, SshParams):
        n = params.n_cells
        left = np.concatenate([np.arange(0, 2 * n, 2), np.arange(1, 2 * n - 1, 2)])
        t = np.repeat([params.t1, params.t2], [n, n - 1])
        return left, t * math.exp(params.g), t * math.exp(-params.g)
    left = np.arange(params.n_sites - 1)
    return left, np.full(left.size, params.t_right), np.full(left.size, params.t_left)


def _chain_matrix(params: HatanoNelsonParams | SshParams, labels) -> RelaxationMatrix:
    """X = kappa I minus each bond's hoppings: -rightward at (j+1, j), -leftward at (j, j+1)."""
    left, rightward, leftward = _bonds(params)
    x = params.kappa * np.eye(len(labels))
    x[left + 1, left] -= rightward
    x[left, left + 1] -= leftward
    return RelaxationMatrix(x, labels)


def build_hatano_nelson(params: HatanoNelsonParams) -> RelaxationMatrix:
    """Relaxation matrix of the nonreciprocal single-band chain.

    X = kappa I - t_right sum_j |j+1><j| - t_left sum_j |j><j+1|,
    i.e. -t_right on the first subdiagonal and -t_left on the first
    superdiagonal.
    """
    return _chain_matrix(params, default_labels(params.n_sites))


def ssh_labels(n_cells: int) -> tuple[str, ...]:
    out = []
    for cell in range(1, _count("n_cells", n_cells) + 1):
        out.append(f"{cell}A")
        out.append(f"{cell}B")
    return tuple(out)


def ssh_index(cell: int, sublattice: str, n_cells: int) -> int:
    """1-based linear site index of (cell, sublattice) in the (1A, 1B, 2A, ...) order."""
    if sublattice not in ("A", "B"):
        raise ParameterError(f"sublattice must be 'A' or 'B', got {sublattice!r}")
    cell = _positions("cell", cell, _count("n_cells", n_cells))
    return 2 * cell + (1 if sublattice == "A" else 2)


def build_ssh(params: SshParams) -> RelaxationMatrix:
    """Relaxation matrix of the nonreciprocal two-band chain.

    Rightward hops (A->B within a cell, B->next A) carry exp(g); the
    reversed hops carry exp(-g).  Entry (row, col) = amplitude for
    col -> row, so e.g. X[nB, nA] = -t1 exp(g).
    """
    return _chain_matrix(params, ssh_labels(params.n_cells))


def build_local_pump(dim: int, site: int, strength: float) -> SourceMatrix:
    """Pump acting on a single site: Y = strength |site><site| (1-based)."""
    dim = _count("dim", dim)
    strength = _strength("pump strength", strength)
    site = _positions("pump site", site, dim)
    y = np.zeros((dim, dim))
    y[site, site] = strength
    return SourceMatrix(y)


def build_diagonal_pump(values) -> SourceMatrix:
    """Pump with site-resolved strengths: Y = diag(values), a vector (_vector) that
    is a SourceMatrix, so each value is >= 0 up to PSD_TOL of the largest."""
    return SourceMatrix(np.diag(_vector("pump profile", values)))
