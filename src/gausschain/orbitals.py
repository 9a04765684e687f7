"""Natural-orbital diagnostics: locking, loading, and scan drivers.

The natural orbitals of a steady correlator C are its eigenvectors; the
eigenvalues are the orbital occupations.  In strongly nonreciprocal
chains the top orbital locks onto the slowest relaxation mode whenever
that mode dominates the pump loading

    A_n(s) = strength |L_n(s)|^2 / (2 Re beta_n),

and the diagnostics here quantify that locking.  :func:`diagnostics_report`
is the one place that reads it: the natural orbitals (with the lock
verdict :attr:`NaturalOrbitalSet.locked`), the normalized density, the
slow mode and the edge candidate, and the overlaps of the top orbital with
both.  The profile commands and the nonreciprocity scan of the two-band
chain write from that report.  The pump-position scan of the single-band
chain reads only the top occupation of each correlator and takes it from
a stacked power iteration that stops each pump on a Kato-Temple
certificate; pumps it cannot certify go to ``eigvalsh``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (EnvelopeOverflowError, GausschainError, NormalizationError,
                     ParameterError, SiteIndexError)
from .models import (HatanoNelsonParams, SshParams, build_hatano_nelson,
                     build_local_pump, build_ssh, matrix_entries, ssh_index)
from .spectral import (BiorthogonalSpectrum, ModeVector, _gauge_columns, _pump_loadings,
                       _unit_columns, biorthogonal_decompose, hn_analytic_spectrum,
                       slow_mode_position)
from .steady import EPS, DirectSolver, solve_lyapunov_direct

# Default edge-candidate search: eigenvalues within this fraction of the
# spectral diameter around kappa, ranked by weight on this many boundary
# sites (one unit cell of the two-band chain).
EDGE_WINDOW_FRACTION = 0.1
EDGE_BOUNDARY_SITES = 2

UNIT_NORM_TOL = 1e-8

# Occupations within this fraction of the top one (relative, as C is linear in
# the pump) make the dominant orbital ambiguous; the state is then unlocked.
DOMINANT_TIE_TOL = 1e-10

# Largest stacked array, in float64 entries, that hn_source_scan solves at
# once; the stacked solve keeps a few such arrays alive (the thin start of
# a local pump adds one factor of at most the same size).  All 40 pumps of
# a 40-site scan fit in one stack, a 200-site scan takes 3 pumps per stack,
# and from 257 sites each stack holds one pump.
SCAN_CHUNK_ENTRIES = 2 ** 17

# Power-iteration steps _top_occupations takes before it hands the
# uncertified pumps of a stack to eigvalsh; lattice chains of 40 to 200
# sites certify every pump within 20.
_POWER_STEPS = 64


@dataclass(frozen=True)
class NaturalOrbitalSet:
    """Occupations (descending) with orthonormal orbital columns."""

    occupations: np.ndarray
    orbitals: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.occupations, dtype=float).reshape(-1)
        v = np.asarray(self.orbitals, dtype=complex)
        if v.shape != (w.size, w.size):
            raise ParameterError("orbital matrix shape does not match occupations")
        w.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "occupations", w)
        object.__setattr__(self, "orbitals", v)

    @property
    def dim(self) -> int:
        return self.occupations.size

    def top_orbital(self) -> ModeVector:
        return ModeVector(self.orbitals[:, 0], "euclidean")

    def occupations_normalized(self) -> np.ndarray:
        top = self.occupations[0]
        if top == 0:
            raise NormalizationError("all orbital occupations vanish")
        return self.occupations / top

    def dominant_indices(self) -> tuple[int, ...]:
        """1-based indices a tied with the top occupation: nu_1 - nu_a <= DOMINANT_TIE_TOL |nu_1|.

        More than one index means the dominant orbital is ambiguous and
        the state is unlocked (:attr:`locked`), not resolved by fiat.
        """
        top = self.occupations[0]
        ties = np.flatnonzero(top - self.occupations <= DOMINANT_TIE_TOL * abs(top))
        return tuple(int(a) + 1 for a in ties)

    @property
    def locked(self) -> bool:
        """The lock verdict: exactly one orbital is dominant."""
        return len(self.dominant_indices()) == 1


def natural_orbitals(correlator) -> NaturalOrbitalSet:
    """Eigendecomposition of a Hermitian correlator, most occupied first.

    Each orbital is phase-gauged (largest-|entry| real positive) so
    exported profiles are reproducible.  Real correlators, as every chain
    correlator is, are diagonalized in real arithmetic.
    """
    c = matrix_entries(correlator, "correlator")
    scale = max(1.0, float(np.abs(c).max()))
    if np.abs(c - c.conj().T).max() > 1e-10 * scale:
        raise ParameterError("correlator is not Hermitian; refusing to diagonalize")
    w, v = np.linalg.eigh(0.5 * (c + c.conj().T))
    return NaturalOrbitalSet(w[::-1].copy(), _gauge_columns(v[:, ::-1]))


def density(correlator) -> np.ndarray:
    """Site-resolved density, the real diagonal of the correlator."""
    return np.real(np.diag(matrix_entries(correlator, "correlator"))).copy()


def normalized_density(correlator) -> np.ndarray:
    """Density scaled to unit total, n_j / sum_l n_l."""
    n = density(correlator)
    total = float(n.sum())
    if total == 0.0:
        raise NormalizationError("total density vanishes; cannot normalize")
    return n / total


@dataclass(frozen=True)
class LoadingFactors:
    """Per-mode pump loadings A_n(s) and their unit-peak normalization."""

    values: np.ndarray
    normalized: np.ndarray


def loading_factors(spectrum: BiorthogonalSpectrum, pump_site: int,
                    pump_strength: float) -> LoadingFactors:
    """A_n(s) = strength |L_n(s)|^2 / (2 Re beta_n) for every mode, at any condition."""
    values = _pump_loadings(spectrum, pump_site, pump_strength)
    peak = values.max()
    normalized = values / peak if peak > 0 else values.copy()
    return LoadingFactors(values, normalized)


def overlap(first, second) -> float:
    """Squared overlap |<u|v>|^2 of two unit-normalized vectors."""
    out = []
    for v in (first, second):
        a = np.asarray(getattr(v, "amplitudes", v), dtype=complex).reshape(-1)
        nrm = float(np.linalg.norm(a))
        if not abs(nrm - 1.0) <= UNIT_NORM_TOL:  # a NaN norm fails too
            raise NormalizationError(
                f"overlap requires unit-normalized inputs (got norm {nrm:.6e})")
        out.append(a)
    if out[0].size != out[1].size:
        raise ParameterError("overlap inputs have different dimensions")
    return float(abs(np.vdot(out[0], out[1])) ** 2)


def identify_slow_mode(spectrum: BiorthogonalSpectrum) -> int:
    """1-based index of the slowest mode (min Re beta; ties: min Im, lowest index)."""
    return slow_mode_position(spectrum.betas) + 1


@dataclass(frozen=True)
class EdgeCandidate:
    """Outcome of the edge-mode search.

    ``in_window_count`` is how many eigenvalues fell inside the search
    window around kappa; when zero, the globally closest eigenvalue was
    used instead (``used_fallback``).
    """

    index: int
    in_window_count: int
    used_fallback: bool


def identify_edge_candidate(spectrum: BiorthogonalSpectrum, kappa: float) -> EdgeCandidate:
    """Mode closest to the free-damping point kappa with boundary-peaked weight.

    Scans eigenvalues within :data:`EDGE_WINDOW_FRACTION` of the spectral
    diameter around kappa and returns the one whose unit-normalized
    right mode has the largest weight on the first or last
    :data:`EDGE_BOUNDARY_SITES` sites.  Always returns a candidate; an
    empty window falls back to the globally closest eigenvalue.
    """
    if spectrum.dim == 1:
        return EdgeCandidate(1, 1, False)
    dist = np.abs(spectrum.betas - kappa)
    diameter = float(np.abs(spectrum.betas[:, None] - spectrum.betas[None, :]).max())
    window = np.flatnonzero(dist <= EDGE_WINDOW_FRACTION * diameter)
    fallback = window.size == 0
    pool = window if not fallback else np.array([int(np.argmin(dist))])
    m = min(EDGE_BOUNDARY_SITES, spectrum.dim)
    profile = np.abs(_unit_columns(spectrum.u[:, pool], spectrum.log_d)) ** 2
    weight = np.maximum(profile[:m].sum(axis=0), profile[-m:].sum(axis=0))
    return EdgeCandidate(int(pool[np.argmax(weight)]) + 1, int(window.size), fallback)


@dataclass(frozen=True)
class DiagnosticsReport:
    """Locking diagnostics of one steady state, from :func:`diagnostics_report`.

    ``orbitals`` are the natural orbitals of the correlator; their
    ``locked`` is the lock verdict.  ``slow`` is the 1-based index of the
    slowest mode and ``slow_mode`` its unit right mode; ``edge`` is the
    edge candidate around kappa, None when no kappa was given.
    ``overlaps`` maps "slow", and "edge" when kappa was given, to the
    squared overlap of the top orbital with that mode's unit right mode.
    Pump loadings are not part of the report: see :func:`loading_factors`.
    """

    orbitals: NaturalOrbitalSet
    density_normalized: np.ndarray
    slow: int
    slow_mode: ModeVector
    edge: EdgeCandidate | None
    overlaps: dict


def diagnostics_report(spectrum: BiorthogonalSpectrum, correlator,
                       kappa: float | None = None) -> DiagnosticsReport:
    """The locking diagnostics of one steady state: the only code that reads them."""
    orbitals = natural_orbitals(correlator)
    top = orbitals.top_orbital()
    slow = identify_slow_mode(spectrum)
    slow_mode = spectrum.right_mode_unit(slow)
    overlaps = {"slow": overlap(slow_mode, top)}
    edge = None
    if kappa is not None:
        edge = identify_edge_candidate(spectrum, kappa)
        overlaps["edge"] = overlap(spectrum.right_mode_unit(edge.index), top)
    return DiagnosticsReport(orbitals, normalized_density(correlator), slow, slow_mode,
                             edge, overlaps)


@dataclass(frozen=True)
class SourceScan:
    """Pump-position scan of the single-band chain.

    Columns: pump site, exact top occupation, slow-mode loading A_1(s),
    and both normalized to unit peak over the scan.
    """

    sites: np.ndarray
    nu_max: np.ndarray
    loading: np.ndarray
    nu_max_normalized: np.ndarray
    loading_normalized: np.ndarray

    def rows(self):
        for k in range(self.sites.size):
            yield (int(self.sites[k]), float(self.nu_max[k]), float(self.loading[k]),
                   float(self.nu_max_normalized[k]), float(self.loading_normalized[k]))


SOURCE_SCAN_HEADER = ("s", "nu_max", "A1", "nu_max_norm", "A1_norm")


def hn_source_scan(params: HatanoNelsonParams, pump_strength: float,
                   sites=None) -> SourceScan:
    """Exact nu_max(s) against the closed-form slow-mode loading A_1(s).

    The pumps are solved as stacks by one DirectSolver (stability
    certificate and pump-independent factors built once per scan), in
    chunks of at most SCAN_CHUNK_ENTRIES entries per stacked array, so
    memory stays bounded on long chains.  nu_max comes from
    :func:`_top_occupations`: a power iteration over the whole chunk that
    certifies each pump's top occupation to about one rounding unit, with a
    stacked eigvalsh for any pump it cannot certify.  Each correlator is
    bit for bit the one ``DirectSolver.solve`` gives for that pump.  The
    loading column comes from the closed-form spectrum and equals
    ``loading_factors(...).values`` of the slow mode, so the two
    normalized columns agree exactly where the slow mode locks the top
    orbital.  A chain without a steady state aborts the scan with the
    first pump site named in the message, an overflowing correlator with
    the sites of its stack.
    """
    strength = float(pump_strength)
    if strength <= 0 or not np.isfinite(strength):
        raise ParameterError(f"pump strength must be positive, got {pump_strength}")
    x = build_hatano_nelson(params)
    sites = range(1, params.n_sites + 1) if sites is None else list(sites)
    if len(sites) == 0:
        raise ParameterError("source scan needs at least one pump site")
    for s in sites:
        if int(s) != s or not 1 <= s <= params.n_sites:
            raise SiteIndexError(f"pump site {s} outside 1..{params.n_sites}")
    sites = np.asarray([int(s) for s in sites])
    try:
        solver = DirectSolver(x)
    except GausschainError as exc:
        # no pump has a steady state; report it at the first one
        raise type(exc)(f"pump site {sites[0]}: {exc}") from exc
    spectrum = hn_analytic_spectrum(params)  # not held while the pumps are solved
    a1 = _pump_loadings(spectrum, sites, strength)[:, slow_mode_position(spectrum.betas)]
    del spectrum

    n = params.n_sites
    nu = np.empty(sites.size)
    chunk = max(1, SCAN_CHUNK_ENTRIES // (n * n))
    for first in range(0, sites.size, chunk):
        block = sites[first:first + chunk] - 1
        pumps = np.zeros((block.size, n, n))
        pumps[np.arange(block.size), block, block] = strength
        try:
            corr, _ = solver.solve_many(pumps)
        except EnvelopeOverflowError as exc:
            raise EnvelopeOverflowError(
                f"pump sites {block[0] + 1}..{block[-1] + 1}: {exc}") from exc
        nu[first:first + block.size] = _top_occupations(corr)
    return SourceScan(sites, nu, a1, nu / nu.max(), a1 / a1.max())


def _top_occupations(stack: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of each real symmetric PSD matrix in a (P, N, N) stack.

    Power iteration from C 1 over the whole stack, in units of tr C so
    that no square overflows.  For unit v with rho = v'Cv and residual
    r = |Cv - rho v|, every other occupation is at most tr C - rho, so by
    Kato-Temple nu_max lies in [rho, rho + r^2 / (2 rho - tr C)] once
    2 rho > tr C.  A pump is accepted at the first step where that interval
    is narrower than one rounding unit of rho, r^2 <= EPS rho (2 rho - tr C).
    tr C is first raised by 2 N^2 EPS tr C, which covers the rounding-level
    negative occupations (each at least -N EPS nu_max, by Weyl) that the
    bound on the other occupations must absorb.  Pumps not certified within
    _POWER_STEPS steps, or not finite, get eigvalsh instead.
    """
    n = stack.shape[1]
    trace = np.trace(stack, axis1=1, axis2=2)[:, None]
    raised = 1.0 + 2.0 * n * n * EPS
    top = np.empty(stack.shape[0])
    pending = np.ones(stack.shape[0], dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = stack @ np.ones(n) / trace
        for _ in range(_POWER_STEPS):
            v = w / np.linalg.norm(w, axis=1, keepdims=True)
            w = (stack @ v[..., None])[..., 0] / trace
            rho = np.einsum("pi,pi->p", v, w)
            r = w - rho[:, None] * v
            gap = 2.0 * rho - raised
            done = pending & (gap > 0) & (np.einsum("pi,pi->p", r, r) <= EPS * rho * gap)
            top[done] = rho[done] * trace[done, 0]
            pending &= ~done
            if not pending.any():
                return top
    top[pending] = np.linalg.eigvalsh(stack[pending])[:, -1]
    return top


@dataclass(frozen=True)
class CrossoverScan:
    """Nonreciprocity scan of the two-band chain.

    For each g, the squared overlap of the top orbital with the edge
    candidate and with the slowest mode, plus the 1-based indices of
    both modes.  Points whose solve failed are recorded in ``failures``
    as (g, message) and skipped in the table.
    """

    g_values: np.ndarray
    o_edge: np.ndarray
    o_slow: np.ndarray
    edge_index: np.ndarray
    slow_index: np.ndarray
    failures: tuple[tuple[float, str], ...]

    def rows(self):
        for k in range(self.g_values.size):
            yield (float(self.g_values[k]), float(self.o_edge[k]), float(self.o_slow[k]),
                   int(self.edge_index[k]), int(self.slow_index[k]))


CROSSOVER_HEADER = ("g", "O_edge", "O_slow", "edge_mode_index", "slow_mode_index")


def ssh_crossover_scan(params: SshParams, pump_cell: int, pump_sublattice: str,
                       pump_strength: float, g_values) -> CrossoverScan:
    """Edge-versus-bulk locking competition along a nonreciprocity scan.

    ``params.g`` is ignored; each scan point replaces it with a grid
    value, is solved in order by the direct solver, and reads its row off
    :func:`diagnostics_report`.  Per-point failures do not abort the scan.
    The ``ssh-crossover`` command's defaults are the reference grid and pump.
    """
    g_values = np.asarray([float(g) for g in g_values])
    if g_values.size == 0:
        raise ParameterError("crossover scan needs at least one g value")
    site = ssh_index(pump_cell, pump_sublattice, params.n_cells)

    def job(g):
        p = replace(params, g=float(g))
        x = build_ssh(p)
        spectrum = biorthogonal_decompose(x)
        pump = build_local_pump(p.n_sites, site, pump_strength)
        report = diagnostics_report(spectrum, solve_lyapunov_direct(x, pump), p.kappa)
        return (float(g), report.overlaps["edge"], report.overlaps["slow"],
                report.edge.index, report.slow)

    rows, failures = [], []
    for g in g_values:
        try:
            rows.append(job(g))
        except GausschainError as exc:
            failures.append((float(g), f"{type(exc).__name__}: {exc}"))
    if not rows:
        raise ParameterError("every crossover scan point failed; first: "
                             + failures[0][1])
    return CrossoverScan(
        g_values=np.asarray([r[0] for r in rows]),
        o_edge=np.asarray([r[1] for r in rows]),
        o_slow=np.asarray([r[2] for r in rows]),
        edge_index=np.asarray([r[3] for r in rows], dtype=int),
        slow_index=np.asarray([r[4] for r in rows], dtype=int),
        failures=tuple(failures),
    )


PROFILE_HEADER = ("j", "label", "R_slow_sq", "phi_max_sq", "density_norm")


def profile_rows(labels, report: DiagnosticsReport):
    """Rows of the standard profile table (1-based site, label, three profiles of the report)."""
    r2 = np.abs(report.slow_mode.amplitudes) ** 2
    p2 = np.abs(report.orbitals.top_orbital().amplitudes) ** 2
    density_norm = report.density_normalized
    for j in range(len(labels)):
        yield (j + 1, labels[j], float(r2[j]), float(p2[j]), float(density_norm[j]))
