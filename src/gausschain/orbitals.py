"""Natural-orbital diagnostics: locking, loading, and scan drivers.

The natural orbitals of a steady correlator C are its eigenvectors; the
eigenvalues are the orbital occupations.  Only the occupations above the
floor (residual + 4 N EPS) nu_max are data, the rest being rounding noise
of C (Weyl), and only those are computed: :func:`natural_orbitals` runs a
Rayleigh-Ritz solve on a block of C's columns, certified by the trace gap
and the Ritz residuals, and diagonalizes all of C only when the block must
grow to its full width.  Outputs never present an occupation below the
floor.  In strongly nonreciprocal
chains the top orbital locks onto the slowest relaxation mode whenever
that mode dominates the pump loading

    A_n(s) = strength |L_n(s)|^2 / (2 Re beta_n),

and the diagnostics here quantify that locking.  :func:`diagnostics_report`
is the one place that reads it: the natural orbitals (with the lock
verdict :attr:`NaturalOrbitalSet.locked`), the normalized density, the
slow mode and the edge candidate, and the overlaps of the top orbital with
both.  The profile and occupation commands and the nonreciprocity scan of
the two-band chain read the report of :func:`_pumped_chain`; the tables
they write are laid out in ``cli``, which holds every header and row.  The
pump-position scan of the single-band chain reads only the top occupation
of each correlator and takes it from a stacked power iteration that stops
each pump on a Kato-Temple certificate; pumps it cannot certify go to
``eigvalsh``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import EnvelopeOverflowError, GausschainError, NormalizationError, ParameterError
from .models import (HatanoNelsonParams, SshParams, _check_finite_scalar, _frozen_array,
                     _hermitian, _numbers, _positions, _strength, _vector, build_hatano_nelson,
                     build_local_pump, build_ssh, matrix_entries, ssh_index)
from .spectral import (BiorthogonalSpectrum, ModeVector, _pump_loadings, _unit_columns,
                       biorthogonal_decompose, hn_analytic_spectrum, slow_mode_position)
from .steady import EPS, DirectSolver, _unit_scale, solve_lyapunov_direct

# Default edge-candidate search: eigenvalues within this fraction of the
# spectral diameter around kappa, ranked by weight on this many boundary
# sites (one unit cell of the two-band chain).
EDGE_WINDOW_FRACTION = 0.1
EDGE_BOUNDARY_SITES = 2

# Boundary weights within this fraction of the largest are one weight.  The
# even and odd members of a mirror pair, such as the two-band edge pair,
# agree to rounding (at most 3.2e-15 relative at 20 to 350 cells), and no
# two modes of different boundary character come near 1e-8.
_EDGE_TIE_RTOL = 1e-8

UNIT_NORM_TOL = 1e-8

# Largest stack of correlators, in float64 entries, that hn_source_scan
# solves at once; the doubling keeps a few such arrays alive, the thin start
# one factor of at most the same size, and no pump matrix is built.  All 40
# pumps of a 40-site scan fit in one stack, a 200-site scan takes 3 pumps
# per stack, and from 257 sites each stack holds one pump.
SCAN_CHUNK_ENTRIES = 2 ** 17

# Power-iteration steps _top_occupations takes before it hands the
# uncertified pumps of a stack to eigvalsh, and the steps between two of
# its Kato-Temple tests; lattice chains of 40 to 200 sites certify every
# pump within 21.
_POWER_STEPS = 63
_CHECK_EVERY = 3

# Width of the first Rayleigh-Ritz block of natural_orbitals; it grows by
# half until the occupation certificate holds.
_START_BLOCK = 32

# c of the occupation floor (residual + c N EPS) nu_max.  A full eigh of a
# full-rank chain correlator of 2 to 32 sites reconstructs its density and
# trace to within about 2 N EPS nu_max (measured, 6000 random chains), so
# c = 4 keeps validate's certified limits at least twice the rounding.
_FLOOR_ROUNDING = 4


@dataclass(frozen=True)
class NaturalOrbitalSet:
    """The resolved natural orbitals of a correlator, most occupied first.

    ``occupations`` are the eigenvalues of C whose magnitude exceeds
    ``occupation_floor`` = (residual + 4 N EPS) nu_max, together with the top
    one; ``orbitals`` holds their orthonormal eigenvectors as its columns
    (N rows, one column per occupation), in the number type of C: real for
    every chain.  Occupations at or below the floor are rounding noise of C
    and its solve (Weyl), so they are not held.
    ``block_width`` is the width of the Rayleigh-Ritz block that certified
    them; it equals N when the whole of C was diagonalized.
    """

    occupations: np.ndarray
    orbitals: np.ndarray
    occupation_floor: float
    block_width: int

    def __post_init__(self):
        w = _vector("orbital occupations", self.occupations)
        v = _numbers("orbital matrix", self.orbitals, "iufc")
        if v.ndim != 2 or v.shape[1] != w.size:
            raise ParameterError("orbital matrix shape does not match occupations")
        object.__setattr__(self, "occupations", _frozen_array(w))
        object.__setattr__(self, "orbitals", _frozen_array(v))

    @property
    def dim(self) -> int:
        """Number of sites, the length of each orbital."""
        return self.orbitals.shape[0]

    @property
    def resolved_count(self) -> int:
        return self.occupations.size

    @property
    def tail_bound(self) -> float:
        """Certified bound on |tr C - sum(occupations)|, the total of the omitted ones.

        The trace test bounds everything outside the final block by one
        floor, and each of the block_width - resolved_count Ritz values
        left out inside it lies within the floor; when the block is all of
        C the one floor covers the rounding of tr C against the eigenvalues.
        """
        return (self.block_width - self.resolved_count + 1) * self.occupation_floor

    def top_orbital(self) -> ModeVector:
        return ModeVector(self.orbitals[:, 0], "euclidean")

    def occupations_normalized(self) -> np.ndarray:
        top = self.occupations[0]
        if top == 0:
            raise NormalizationError("all orbital occupations vanish")
        return self.occupations / top

    def dominant_indices(self) -> tuple[int, ...]:
        """1-based indices a tied with the top occupation: nu_1 - nu_a <= 2 occupation_floor.

        Each occupation is certified to within the floor, so two that differ
        by at most twice the floor may be one eigenvalue.  More than one index
        means the dominant orbital is ambiguous and the state is unlocked
        (:attr:`locked`), not resolved by fiat.
        """
        gap = self.occupations[0] - self.occupations
        return tuple(int(a) + 1 for a in np.flatnonzero(gap <= 2 * self.occupation_floor))

    @property
    def locked(self) -> bool:
        """The lock verdict: exactly one orbital is dominant."""
        return len(self.dominant_indices()) == 1


def natural_orbitals(correlator) -> NaturalOrbitalSet:
    """The resolved natural orbitals of a Hermitian PSD correlator, most occupied first.

    C passes the Hermitian rule of models (_hermitian, HERMITIAN_RTOL).
    C is scaled by the power of two that puts its peak in [1, 2)
    (steady._unit_scale: exact, and no norm or square overflows).  The
    start block is the _START_BLOCK columns of C with the largest diagonal
    entries; it is orthonormalized (QR) and Rayleigh-Ritz gives Ritz pairs
    (theta, v) from the eigenpairs of Q^H C Q.  With floor = (residual + 4 N EPS) max |theta|, where residual
    is the solver's backward error of a SteadyCorrelator (0 for a plain
    array), the pairs are accepted when

    - the trace gap tr C - sum(theta) is at most the floor, which bounds
      every eigenvalue outside the block since C is PSD up to rounding
      (as every correlator of a Y >= 0 is);
    - every kept pair has residual |C v - theta v| <= floor, so its theta
      is within the floor of an eigenvalue (Weyl);
    - no theta lies below -floor.

    Otherwise the block takes one subspace step (Q from C Q) and is tested
    again; after that the width grows by half, or by the columns still
    missing when fewer remain, the new block being the stepped C Q beside
    the next pivot columns.  A block as wide as C is the whole
    space, and C is then diagonalized by plain ``eigh``.  No random start
    is drawn, so identical inputs give identical bits.
    Kept are the pairs with |theta| above the floor, and always the top
    one.  Orbital phases are the eigensolver's, arbitrary, and every output
    is invariant under them; real correlators, as every chain correlator
    is, are diagonalized in real arithmetic.  Occupations past
    the double range of a finite C raise EnvelopeOverflowError.
    """
    c = _hermitian(matrix_entries(correlator, "correlator"), "correlator")
    n = c.shape[0]
    unit = _unit_scale(float(np.abs(c).max()))
    c = c * unit
    rounding = float(getattr(correlator, "residual", 0.0)) + _FLOOR_ROUNDING * n * EPS
    diag = c.diagonal().real
    trace = diag.sum()
    order = np.argsort(-diag, kind="stable")
    width = _START_BLOCK
    block = c[:, order[:width]]
    while width < n:
        q = np.linalg.qr(block)[0]
        for step in (0, 1):
            cq = c @ q
            theta, u = np.linalg.eigh(q.conj().T @ cq)
            theta, u = theta[::-1], u[:, ::-1]
            floor = rounding * float(np.abs(theta).max())
            keep = _resolved(theta, floor)
            v = q @ u[:, keep]
            ritz_residual = np.linalg.norm(cq @ u[:, keep] - v * theta[keep], axis=0)
            if (trace - theta.sum() <= floor and theta[-1] >= -floor
                    and (ritz_residual <= floor).all()):
                return _orbital_set(theta[keep], v, floor, unit, width)
            if step == 0:
                q = np.linalg.qr(cq)[0]
        block = np.hstack([cq, c[:, order[width:width + width // 2]]])
        width += width // 2
    w, v = np.linalg.eigh(c)
    w, v = w[::-1], v[:, ::-1]
    floor = rounding * float(np.abs(w).max(initial=0.0))
    keep = _resolved(w, floor)
    return _orbital_set(w[keep], v[:, keep], floor, unit, n)


def _orbital_set(theta, orbitals, floor, unit, width) -> NaturalOrbitalSet:
    """The set of the Ritz values and floor of unit C, in the units of C."""
    with np.errstate(over="ignore"):  # checked below
        occupations, floor = theta / unit, floor / unit
    if not (np.isfinite(occupations).all() and np.isfinite(floor)):
        raise EnvelopeOverflowError(f"orbital occupations are not representable: the top one, "
                                    f"{theta[0]:.6g} x 2^{-int(np.log2(unit))}, overflows")
    return NaturalOrbitalSet(occupations, orbitals, floor, width)


def _resolved(values: np.ndarray, floor: float) -> np.ndarray:
    """Mask of the descending ``values`` that are data: |value| above the floor, and the top."""
    keep = np.abs(values) > floor
    keep[:1] = True
    return keep


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


def loading_factors(spectrum: BiorthogonalSpectrum, pump_site: int,
                    pump_strength: float) -> np.ndarray:
    """A_n(s) = strength |L_n(s)|^2 / (2 Re beta_n) of every mode n, in mode order, as an
    array; it is read from the pump row of L = D^-1 U, so it holds at any condition."""
    return _pump_loadings(spectrum, _positions("pump site", pump_site, spectrum.dim),
                          _strength("pump strength", pump_strength))


def overlap(first, second) -> float:
    """Squared overlap |<u|v>|^2 of two unit-normalized vectors."""
    out = []
    for v in (first, second):
        a = _vector("overlap input", getattr(v, "amplitudes", v), "iufc")
        nrm = float(np.linalg.norm(a))
        if not abs(nrm - 1.0) <= UNIT_NORM_TOL:  # a NaN norm fails too
            raise NormalizationError(
                f"overlap requires unit-normalized inputs (got norm {nrm:.6e})")
        out.append(a)
    if out[0].size != out[1].size:
        raise ParameterError("overlap inputs have different dimensions")
    return float(abs(np.vdot(out[0], out[1])) ** 2)


def identify_slow_mode(spectrum: BiorthogonalSpectrum) -> int:
    """1-based index of the slowest mode (min Re beta, the first of exact ties)."""
    return slow_mode_position(spectrum.betas) + 1


@dataclass(frozen=True)
class EdgeCandidate:
    """Outcome of the edge-mode search.

    ``in_window_count`` is how many eigenvalues fell inside the search
    window around kappa; when zero, the globally closest eigenvalue was
    used instead.  ``tied`` holds the 1-based indices of the modes whose
    boundary weight ties the largest, ``index`` among them; more than one
    means the pick was made by the tie rule.
    """

    index: int
    in_window_count: int
    tied: tuple[int, ...]


def identify_edge_candidate(spectrum: BiorthogonalSpectrum, kappa: float) -> EdgeCandidate:
    """Mode closest to the free-damping point kappa with boundary-peaked weight.

    Scans eigenvalues within :data:`EDGE_WINDOW_FRACTION` of the spectral
    diameter around kappa and returns the one whose unit-normalized
    right mode has the largest weight on the first or last
    :data:`EDGE_BOUNDARY_SITES` sites.  Always returns a candidate; an
    empty window falls back to the globally closest eigenvalue.

    Weights within _EDGE_TIE_RTOL of the largest tie.  The two members of
    the two-band edge pair always do: they are the even and odd
    combinations of the two boundary states, with equal boundary weights
    and equal pump loadings, and on long chains equal rates, all to
    rounding, so rounding would pick one.  A tie goes to the most even
    mode, the largest u . Ju with J the reversal, which is +1 for the even
    member and -1 for the odd one of a mirror pair (spectral._mirror_eigh),
    whatever the rates and the order of the two.
    """
    kappa = _check_finite_scalar("kappa", kappa)
    dist = np.abs(spectrum.betas - kappa)
    diameter = float(np.ptp(spectrum.betas))
    window = np.flatnonzero(dist <= EDGE_WINDOW_FRACTION * diameter)
    pool = window if window.size else np.array([int(np.argmin(dist))])
    profile = np.abs(_unit_columns(spectrum.u[:, pool], spectrum.log_d)) ** 2
    weight = np.maximum(profile[:EDGE_BOUNDARY_SITES].sum(axis=0),
                        profile[-EDGE_BOUNDARY_SITES:].sum(axis=0))
    tied = pool[weight >= (1.0 - _EDGE_TIE_RTOL) * weight.max()]
    u = spectrum.u[:, tied]
    pick = tied[np.argmax(np.einsum("ij,ij->j", u, u[::-1]))]
    return EdgeCandidate(int(pick) + 1, int(window.size), tuple(int(k) + 1 for k in tied))


@dataclass(frozen=True)
class DiagnosticsReport:
    """Locking diagnostics of one steady state, from :func:`diagnostics_report`.

    ``orbitals`` are the natural orbitals of the correlator; their
    ``locked`` is the lock verdict.  ``slow`` is the 1-based index of the
    slowest mode and ``slow_mode`` its unit right mode; ``edge`` is the
    edge candidate around kappa, None when no kappa was given.
    ``overlaps`` maps "slow", and "edge" when kappa was given, to the
    squared overlap of the top orbital with that mode's unit right mode.
    Pump loadings are not part of the report: :func:`loading_factors`
    gives A_n(s) of every mode as an array.
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


def _pumped_chain(params: HatanoNelsonParams | SshParams, pump_site: int,
                  pump_strength: float):
    """(spectrum, correlator, report) of a chain pumped at one 1-based site.

    The one pipeline of the profile, occupation and crossover commands:
    X, the local pump, the direct solve and the spectrum by the model's
    route, which is picked here only: the closed form for the single-band
    chain (:func:`hn_analytic_spectrum`) and the decomposition of X for the
    two-band chain, which alone gets an edge candidate at kappa.
    """
    two_band = isinstance(params, SshParams)
    x = build_ssh(params) if two_band else build_hatano_nelson(params)
    pump = build_local_pump(params.n_sites, pump_site, pump_strength)
    spectrum = biorthogonal_decompose(x) if two_band else hn_analytic_spectrum(params)
    correlator = solve_lyapunov_direct(x, pump)
    kappa = params.kappa if two_band else None
    return spectrum, correlator, diagnostics_report(spectrum, correlator, kappa)


@dataclass(frozen=True)
class SourceScan:
    """Pump-position scan of the single-band chain: the 1-based pump sites,
    the exact top occupation and the slow-mode loading A_1(s) at each."""

    sites: np.ndarray
    nu_max: np.ndarray
    loading: np.ndarray


def hn_source_scan(params: HatanoNelsonParams, pump_strength: float,
                   sites=None) -> SourceScan:
    """Exact nu_max(s) against the closed-form slow-mode loading A_1(s).

    The pumps are solved by site in stacks by one DirectSolver's
    ``solve_local`` (certificate and factors built once per scan), in
    chunks of at most SCAN_CHUNK_ENTRIES entries per stacked array, so
    memory stays bounded on long chains.  nu_max comes from
    :func:`_top_occupations`: a power iteration over the whole chunk that
    certifies each pump's top occupation to about one rounding unit, with a
    stacked eigvalsh for any pump it cannot certify.  Each correlator is
    bit for bit the one ``DirectSolver.solve`` gives for that pump; nu_max
    may differ by rounding from versions that tested the certificate after
    every power step.  The
    loading column comes from the closed-form spectrum and equals
    ``loading_factors(...)`` of the slow mode, so nu_max and A1, each
    normalized to unit peak over the scan, agree exactly where the slow
    mode locks the top orbital.  A chain without a steady state aborts the
    scan with the first pump site named in the message, a correlator that overflows or
    peaks below the smallest normal double with its own pump site
    (DirectSolver.solve_local), a power of the doubling that overflows with
    that power named, when the first pump that needs it is solved, and an
    A1 column that is 0 at every site,
    as underflowed loadings are, with NormalizationError before any pump
    is solved; nu_max is at least the peak of an accepted C, so never 0.
    """
    n = params.n_sites
    strength = _strength("pump strength", pump_strength)
    sites = np.arange(1, n + 1) if sites is None else sites
    positions = np.ravel(_positions("pump site", sites, n))
    sites = positions + 1
    if positions.size == 0:
        raise ParameterError("source scan needs at least one pump site")
    x = build_hatano_nelson(params)
    try:
        solver = DirectSolver(x)
    except GausschainError as exc:
        # no pump has a steady state; report it at the first one
        raise type(exc)(f"pump site {positions[0] + 1}: {exc}") from exc
    spectrum = hn_analytic_spectrum(params)  # not held while the pumps are solved
    a1 = _pump_loadings(spectrum, positions, strength)[:, slow_mode_position(spectrum.betas)]
    del spectrum
    if a1.max() == 0:
        raise NormalizationError("scan column A1 vanishes at every pump site")

    nu = np.empty(positions.size)
    chunk = max(1, SCAN_CHUNK_ENTRIES // (n * n))
    for first in range(0, positions.size, chunk):
        corr, _ = solver.solve_local(sites[first:first + chunk], strength)
        nu[first:first + chunk] = _top_occupations(corr)
    return SourceScan(sites, nu, a1)


def _top_occupations(stack: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of each real symmetric PSD matrix in a (P, N, N) stack.

    Power iteration from C 1 over the whole stack, in units of tr C so
    that no square overflows.  For unit v with rho = v'Cv and residual
    r = |Cv - rho v|, every other occupation is at most tr C - rho, so by
    Kato-Temple nu_max lies in [rho, rho + r^2 / (2 rho - tr C)] once
    2 rho > tr C.  A pump is accepted at the first tested step where that
    interval is narrower than one rounding unit of rho,
    r^2 <= EPS rho (2 rho - tr C).
    tr C is first raised by 2 N^2 EPS tr C, which covers the rounding-level
    negative occupations (each at least -N EPS nu_max, by Weyl) that the
    bound on the other occupations must absorb.  The test runs after every
    _CHECK_EVERY-th step only: on a 40-pump stack it costs more than a
    step, and a pump certified late by a step or two moves nu_max by
    rounding only.  Pumps not certified within _POWER_STEPS steps, or not
    finite, get eigvalsh instead.
    """
    n = stack.shape[1]
    trace = np.trace(stack, axis1=1, axis2=2)[:, None]
    raised = 1.0 + 2.0 * n * n * EPS
    top = np.empty(stack.shape[0])
    pending = np.ones(stack.shape[0], dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = stack @ np.ones(n) / trace
        for step in range(1, _POWER_STEPS + 1):
            v = w / np.linalg.norm(w, axis=1, keepdims=True)
            w = (stack @ v[..., None])[..., 0] / trace
            if step % _CHECK_EVERY:
                continue
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
    as (g, message) and hold no entry in the arrays.
    """

    g_values: np.ndarray
    o_edge: np.ndarray
    o_slow: np.ndarray
    edge_index: np.ndarray
    slow_index: np.ndarray
    failures: tuple[tuple[float, str], ...]


def ssh_crossover_scan(params: SshParams, pump_cell: int, pump_sublattice: str,
                       pump_strength: float, g_values) -> CrossoverScan:
    """Edge-versus-bulk locking competition along a nonreciprocity scan.

    ``params.g`` is ignored; each scan point replaces it with a grid
    value, is solved in order by :func:`_pumped_chain`, and reads its row
    off the report.  Per-point failures do not abort the scan.
    The ``ssh-crossover`` command's defaults are the reference grid and pump.
    """
    g_values = _vector("g_values", g_values).tolist()
    site = ssh_index(pump_cell, pump_sublattice, params.n_cells)
    pump_strength = _strength("pump strength", pump_strength)

    rows, failures = [], []
    for g in g_values:
        try:
            _, _, report = _pumped_chain(replace(params, g=g), site, pump_strength)
        except GausschainError as exc:
            failures.append((g, f"{type(exc).__name__}: {exc}"))
        else:
            rows.append((g, report.overlaps["edge"], report.overlaps["slow"],
                         report.edge.index, report.slow))
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
