"""Natural-orbital diagnostics: locking, loading, and scan drivers.

The natural orbitals of a steady correlator C are its eigenvectors; the
eigenvalues are the orbital occupations.  In strongly nonreciprocal
chains the top orbital locks onto the slowest relaxation mode whenever
that mode dominates the pump loading

    A_n(s) = strength |L_n(s)|^2 / (2 Re beta_n),

and the diagnostics here quantify that locking: overlaps of the top
orbital with candidate modes, normalized occupation spectra, normalized
density profiles, and the two production scans (pump-position scan for
the single-band chain, nonreciprocity scan for the two-band chain).  The
pump-position scan reads only the top occupation of each correlator and
takes it from a stacked power iteration that stops each pump on a
Kato-Temple certificate; pumps it cannot certify go to ``eigvalsh``.
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

    def orbital(self, alpha: int) -> ModeVector:
        """alpha-th most occupied orbital, 1-based."""
        if int(alpha) != alpha or not 1 <= alpha <= self.dim:
            raise SiteIndexError(f"orbital index {alpha} outside 1..{self.dim}")
        return ModeVector(self.orbitals[:, int(alpha) - 1], "euclidean")

    def top_orbital(self) -> ModeVector:
        return self.orbital(1)

    def occupations_normalized(self) -> np.ndarray:
        top = self.occupations[0]
        if top == 0:
            raise NormalizationError("all orbital occupations vanish")
        return self.occupations / top

    def dominant_indices(self) -> tuple[int, ...]:
        """1-based indices a tied with the top occupation: nu_1 - nu_a <= DOMINANT_TIE_TOL |nu_1|.

        More than one index means the dominant orbital is ambiguous and
        the state should be flagged as unlocked, not resolved by fiat.
        """
        top = self.occupations[0]
        ties = np.flatnonzero(top - self.occupations <= DOMINANT_TIE_TOL * abs(top))
        return tuple(int(a) + 1 for a in ties)

    def reconstruct(self) -> np.ndarray:
        return (self.orbitals * self.occupations[None, :]) @ self.orbitals.conj().T


def natural_orbitals(correlator) -> NaturalOrbitalSet:
    """Eigendecomposition of a Hermitian correlator, most occupied first.

    Each orbital is phase-gauged (largest-|entry| real positive) so
    exported profiles are reproducible.  Real correlators, as every chain
    correlator is, are diagonalized in real arithmetic.
    """
    c = matrix_entries(correlator)
    if not np.isfinite(c).all():
        raise ParameterError("correlator contains non-finite entries; refusing to diagonalize")
    if not c.imag.any():
        c = c.real
    scale = max(1.0, float(np.abs(c).max()))
    if np.abs(c - c.conj().T).max() > 1e-10 * scale:
        raise ParameterError("correlator is not Hermitian; refusing to diagonalize")
    w, v = np.linalg.eigh(0.5 * (c + c.conj().T))
    return NaturalOrbitalSet(w[::-1].copy(), _gauge_columns(v[:, ::-1]))


def density(correlator) -> np.ndarray:
    """Site-resolved density, the real diagonal of the correlator."""
    return np.real(np.diag(matrix_entries(correlator))).copy()


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
        if abs(nrm - 1.0) > UNIT_NORM_TOL:
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
    """Bundle of locking diagnostics for one steady state.

    ``dominant_indices`` lists every orbital tied with the top
    occupation; ``locked`` is False when that tie is ambiguous.
    """

    density: np.ndarray
    density_normalized: np.ndarray
    occupations_normalized: np.ndarray
    overlaps: dict
    loadings: LoadingFactors
    dominant_indices: tuple[int, ...]
    locked: bool


def diagnostics_report(spectrum: BiorthogonalSpectrum, correlator, pump_site: int,
                       pump_strength: float, kappa: float | None = None) -> DiagnosticsReport:
    """Standard diagnostics: densities, occupation spectrum, mode overlaps.

    ``overlaps`` always carries "slow" (top orbital vs slowest mode);
    when ``kappa`` is given it also carries "edge" for the edge
    candidate around kappa.
    """
    orbitals = natural_orbitals(correlator)
    top = orbitals.top_orbital()
    slow = identify_slow_mode(spectrum)
    overlaps = {"slow": overlap(spectrum.right_mode_unit(slow), top)}
    if kappa is not None:
        edge = identify_edge_candidate(spectrum, kappa)
        overlaps["edge"] = overlap(spectrum.right_mode_unit(edge.index), top)
    dominant = orbitals.dominant_indices()
    return DiagnosticsReport(
        density=density(correlator),
        density_normalized=normalized_density(correlator),
        occupations_normalized=orbitals.occupations_normalized(),
        overlaps=overlaps,
        loadings=loading_factors(spectrum, pump_site, pump_strength),
        dominant_indices=dominant,
        locked=len(dominant) == 1,
    )


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
    if sites is None:
        sites = np.arange(1, params.n_sites + 1)
    sites = np.asarray([int(s) for s in sites])
    if sites.size == 0:
        raise ParameterError("source scan needs at least one pump site")
    for s in sites:
        if not 1 <= s <= params.n_sites:
            raise SiteIndexError(f"pump site {s} outside 1..{params.n_sites}")
    try:
        solver = DirectSolver(x)
    except GausschainError as exc:
        # no pump has a steady state; report it at the first one
        raise type(exc)(f"pump site {sites[0]}: {exc}") from exc
    spectrum = hn_analytic_spectrum(params)  # not held while the pumps are solved
    a1 = _pump_loadings(spectrum, sites, strength)[:, identify_slow_mode(spectrum) - 1]
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

CROSSOVER_G_RANGE = (-0.55, 0.60)
CROSSOVER_G_POINTS = 24


def default_crossover_grid() -> np.ndarray:
    return np.linspace(CROSSOVER_G_RANGE[0], CROSSOVER_G_RANGE[1], CROSSOVER_G_POINTS)


def ssh_crossover_scan(params: SshParams, pump_cell: int = 1, pump_sublattice: str = "A",
                       pump_strength: float = 1e-8, g_values=None) -> CrossoverScan:
    """Edge-versus-bulk locking competition along a nonreciprocity scan.

    ``params.g`` is ignored; each scan point replaces it with a grid
    value and is solved in order by the direct solver, with the edge
    candidate chosen by :func:`identify_edge_candidate`.  Per-point
    failures do not abort the scan.
    """
    if g_values is None:
        g_values = default_crossover_grid()
    g_values = np.asarray([float(g) for g in g_values])
    if g_values.size == 0:
        raise ParameterError("crossover scan needs at least one g value")
    site = ssh_index(pump_cell, pump_sublattice, params.n_cells)

    def job(g):
        p = replace(params, g=float(g))
        x = build_ssh(p)
        spectrum = biorthogonal_decompose(x)
        pump = build_local_pump(p.n_sites, site, pump_strength)
        top = natural_orbitals(solve_lyapunov_direct(x, pump)).top_orbital()
        slow = identify_slow_mode(spectrum)
        edge = identify_edge_candidate(spectrum, p.kappa)
        return (float(g),
                overlap(spectrum.right_mode_unit(edge.index), top),
                overlap(spectrum.right_mode_unit(slow), top),
                edge.index, slow)

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


def profile_rows(labels, slow_mode_unit: ModeVector, top_orbital_unit: ModeVector,
                 density_norm: np.ndarray):
    """Rows of the standard profile table (1-based site, label, three profiles)."""
    r2 = np.abs(np.asarray(slow_mode_unit.amplitudes)) ** 2
    p2 = np.abs(np.asarray(top_orbital_unit.amplitudes)) ** 2
    for j in range(len(labels)):
        yield (j + 1, labels[j], float(r2[j]), float(p2[j]), float(density_norm[j]))
