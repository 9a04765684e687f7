"""Inverse design: microscopic gain/loss realizations of a target dynamics.

Any target pair (X, Y) with Hermitian positive semidefinite Y formally
splits into a Hamiltonian and two jump Gram matrices,

    h = (X - X^dag) / 2i,     gain gram = Y,     loss gram = X + X^dag - Y,

and the pair is physical precisely when the loss gram is positive
semidefinite.  For the two chain families this module also produces
explicit local jump operators (nearest-neighbor loss bonds, onsite
losses, onsite pumps) whose Grams rebuild the target exactly, gated by one
rule: each onsite squared weight is at least -PSD_TOL times the target's peak.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibilityError, ParameterError, ValidationError
from .matio import _complex_parts, matrix_payload
from .models import (PSD_TOL, HatanoNelsonParams, SourceMatrix, SshParams, _bonds,
                     _frozen_array, _labels, _psd, _strength, _vector, default_labels,
                     matrix_entries, ssh_labels)


@dataclass(frozen=True)
class JumpVector:
    """One jump operator, stored as its one-body coefficient vector.

    ``kind`` is "loss" (operator sum_j v_j c_j) or "gain"
    (sum_j v_j c_j^dag); ``label`` names the structural role, e.g.
    "bond(3)", "onsite(2A)", "pump(1)".
    """

    label: str
    kind: str
    vector: np.ndarray

    def __post_init__(self):
        if self.kind not in ("loss", "gain"):
            raise ParameterError(f"jump kind must be 'loss' or 'gain', got {self.kind!r}")
        v = _vector(f"jump vector {self.label!r}", self.vector, "iufc")
        object.__setattr__(self, "vector", _frozen_array(v))

    @property
    def dim(self) -> int:
        return self.vector.size


@dataclass(frozen=True)
class JumpSet:
    """All loss and gain jump vectors of one microscopic realization."""

    dim: int
    loss_vectors: tuple[JumpVector, ...]
    gain_vectors: tuple[JumpVector, ...]

    def __post_init__(self):
        for v in (*self.loss_vectors, *self.gain_vectors):
            if v.dim != self.dim:
                raise ParameterError(
                    f"jump vector {v.label!r} has dim {v.dim}, expected {self.dim}")

    def loss_gram(self) -> np.ndarray:
        """Damping matrix sum_mu conj(u_mu) u_mu^T.

        The conjugated outer product is what enters the relaxation
        matrix for C_ij = <c_j^dag c_i>; real vectors hide the
        distinction.
        """
        g = np.zeros((self.dim, self.dim), dtype=complex)
        for v in self.loss_vectors:
            g += np.outer(v.vector.conj(), v.vector)
        return g

    def gain_gram(self) -> np.ndarray:
        """Source matrix sum_mu v_mu conj(v_mu)^T."""
        g = np.zeros((self.dim, self.dim), dtype=complex)
        for v in self.gain_vectors:
            g += np.outer(v.vector, v.vector.conj())
        return g


@dataclass(frozen=True)
class MicroscopicRealization:
    """Formal (h, gain gram, loss gram) split of a target (X, Y) pair.

    ``physical`` records whether the loss gram passes the PSD rule of
    models (_psd, PSD_TOL of its largest |eigenvalue|); an unphysical split
    is still a valid formal solution and is returned rather than rejected.
    """

    hamiltonian: np.ndarray
    gain_gram: np.ndarray
    loss_gram: np.ndarray
    target_relaxation: np.ndarray
    loss_min_eigenvalue: float
    physical: bool

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]


def inverse_design(relaxation, source) -> MicroscopicRealization:
    """Split a target (X, Y) into Hamiltonian and gain/loss Grams.

    X passes matrix_entries and Y is judged once as a SourceMatrix (a
    SourceMatrix handed in already was): both finite, Y Hermitian positive
    semidefinite (it becomes the gain gram verbatim).  The loss gram
    X + X^dag - Y, exactly Hermitian since Y is, has its minimum eigenvalue
    and PSD verdict (_psd, PSD_TOL) reported, not enforced.
    """
    x = matrix_entries(relaxation, "relaxation matrix")
    y = (source if isinstance(source, SourceMatrix) else SourceMatrix(source)).entries
    if y.shape != x.shape:
        raise ParameterError(f"source shape {y.shape} does not match target {x.shape}")
    h = (x - x.conj().T) / 2j
    loss = x + x.conj().T - y
    wmin, limit = _psd(loss)
    return MicroscopicRealization(
        hamiltonian=h,
        gain_gram=y,
        loss_gram=loss,
        target_relaxation=x,
        loss_min_eigenvalue=wmin,
        physical=wmin >= limit,
    )


def _chain_jumps(params: HatanoNelsonParams | SshParams, labels: tuple[str, ...], gamma,
                 context: str) -> JumpSet:
    """Bond, onsite and pump jumps of a nearest-neighbor chain.

    Each bond of the chain (models._bonds), with beta the sum of its two
    hoppings, becomes the loss jump sqrt(beta) (c_left - c_{left+1}).  A
    scalar ``gamma`` passes _strength; a diagonal SourceMatrix (a profile's
    build_diagonal_pump) is the Y inverse_design takes, judged already.
    Site j keeps the onsite squared weight 2 kappa - gamma_j - b_j, where
    b_j sums beta over the bonds touching j.  A weight below -PSD_TOL times
    the target's peak (largest |entry| of its loss gram and pump: |2 kappa -
    gamma_j|, beta, gamma_j) is a deficit; a negative one above it clamps to 0.
    """
    dim = len(labels)
    if isinstance(gamma, SourceMatrix):
        y = np.diagonal(gamma.entries)
        if y.size != dim or not np.array_equal(np.diag(y), gamma.entries):
            raise ParameterError(f"{context}: pump must be {dim} site strengths (a diagonal Y)")
    else:
        y = np.full(dim, _strength(f"{context}: uniform pump strength", gamma))
    left, rightward, leftward = _bonds(params)
    beta = rightward + leftward
    bond_sum = np.bincount(left, beta, dim) + np.bincount(left + 1, beta, dim)
    delta = 2.0 * params.kappa - y
    args = delta - bond_sum
    peak = max(np.abs(delta).max(), y.max(), beta.max(initial=0.0))
    short = args < -PSD_TOL * peak
    if short.any():
        if np.all(y == y[0]):
            required, deficit = float(bond_sum.max()), float(args.min())
            k = next(k for k in range(6, 18) if f"{required:.{k}g}" != f"{delta[0]:.{k}g}")
            raise InfeasibilityError(
                f"{context}: feasibility condition fails by {-deficit:.6g} "
                f"(need 2 kappa - gamma >= {required:.{k}g}, have {delta[0]:.{k}g})",
                ((context, deficit),))
        deficits = [(labels[j], float(args[j])) for j in np.flatnonzero(short)]
        worst = min(deficits, key=lambda d: d[1])
        raise InfeasibilityError(
            f"{context}: onsite loss weight squared is negative at {worst[0]} "
            f"({worst[1]:.6g}); {len(deficits)} site(s) infeasible",
            tuple(deficits))

    loss = []
    for j, root in zip(left, np.sqrt(beta)):
        v = np.zeros(dim, dtype=complex)
        v[j], v[j + 1] = root, -root
        loss.append(JumpVector(f"bond({labels[j]})", "loss", v))
    eye = np.eye(dim, dtype=complex)
    loss += [JumpVector(f"onsite({labels[j]})", "loss", np.sqrt(max(a, 0.0)) * eye[j])
             for j, a in enumerate(args)]
    gain = [JumpVector(f"pump({labels[j]})", "gain", np.sqrt(y[j]) * eye[j])
            for j in range(dim) if y[j] > 0]
    return JumpSet(dim, tuple(loss), tuple(gain))


def hn_jump_decomposition(params: HatanoNelsonParams, gamma) -> JumpSet:
    """Local jump operators realizing the single-band chain with pumping.

    Loss channels: bond jumps sqrt(t_right + t_left) (c_j - c_{j+1}) on
    every nearest-neighbor pair, plus one onsite loss per site whose
    squared weight is delta - beta at the two boundary sites and
    delta - 2 beta in the bulk, with delta = 2 kappa - gamma_j and
    beta = t_right + t_left.  Gain channels: sqrt(gamma_j) c_j^dag, where
    gamma is a uniform strength or the Y of a profile (build_diagonal_pump).

    A uniform gamma is gated by 2 kappa - gamma >= the largest per-site
    bond sum: 0 for a single site (gamma <= 2 kappa), beta for two
    sites, and 2 beta from three sites on.  A site-resolved profile
    replaces gamma by y_j in the onsite weights and is gated per site
    on the actual squared weights, reporting every deficit.  Both hold
    down to -PSD_TOL times the target's peak, the one rule of _chain_jumps.
    """
    return _chain_jumps(params, default_labels(params.n_sites), gamma,
                        "single-band decomposition")


def ssh_jump_decomposition(params: SshParams, gamma) -> JumpSet:
    """Local jump operators realizing the two-band chain with pumping.

    Bond losses carry sqrt(beta_1) = sqrt(t1 e^g + t1 e^-g) within cells
    and sqrt(beta_2) = sqrt(t2 e^g + t2 e^-g) between cells.
    Onsite squared weights are delta - beta_1 on the two outer sites
    (1A and NB) and delta - beta_1 - beta_2 elsewhere, with
    delta = 2 kappa - gamma_j, gamma a uniform strength or the Y of a
    profile (build_diagonal_pump).  A uniform gamma is gated by
    2 kappa - gamma >= beta_1 + beta_2 (single cell: >= beta_1), down to
    -PSD_TOL times the target's peak, the one rule of _chain_jumps.
    """
    return _chain_jumps(params, ssh_labels(params.n_cells), gamma, "two-band decomposition")


@dataclass(frozen=True)
class JumpValidationReport:
    """Per-check maximum deviations of a jump set against its targets, and the
    ``tolerance`` they are held to: 2 PSD_TOL times the target's peak."""

    loss_gram_error: float
    gain_gram_error: float
    relaxation_error: float
    tolerance: float
    passed: bool


def validate_jump_set(jumps: JumpSet, realization: MicroscopicRealization) -> JumpValidationReport:
    """Check that the jump Grams rebuild the realization and its target X.

    Raises ValidationError (with the report attached and the worst entry
    named) when any maximum deviation exceeds 2 PSD_TOL times the target's
    peak (largest |entry| of its loss and gain grams): room for the clamp of
    _chain_jumps plus rounding, so every set that gate accepts validates.
    """
    if jumps.dim != realization.dim:
        raise ParameterError("jump set and realization dimensions differ")
    tolerance = 2.0 * PSD_TOL * max(float(np.abs(realization.loss_gram).max()),
                                    float(np.abs(realization.gain_gram).max()))
    checks = {}
    worst = ("", 0, 0, -1.0)
    loss, gain = jumps.loss_gram(), jumps.gain_gram()
    for name, got, want in (
        ("loss_gram", loss, realization.loss_gram),
        ("gain_gram", gain, realization.gain_gram),
        ("relaxation", 1j * realization.hamiltonian + 0.5 * (loss + gain),
         realization.target_relaxation),
    ):
        dev = np.abs(got - want)
        err = float(dev.max())
        checks[name] = err
        if err > worst[3]:
            i, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
            worst = (name, int(i) + 1, int(j) + 1, err)
    report = JumpValidationReport(
        loss_gram_error=checks["loss_gram"],
        gain_gram_error=checks["gain_gram"],
        relaxation_error=checks["relaxation"],
        tolerance=tolerance,
        passed=max(checks.values()) <= tolerance,
    )
    if not report.passed:
        raise ValidationError(
            f"jump set deviates from target: {worst[0]} entry "
            f"({worst[1]}, {worst[2]}) off by {worst[3]:.3e} (tolerance {tolerance:g})",
            report)
    return report


def jump_set_payload(jumps: JumpSet) -> dict:
    """JSON payload listing every jump vector with its label and kind."""
    def vec(v: JumpVector) -> dict:
        return {"label": v.label, "kind": v.kind, **_complex_parts(v.vector)}

    return {
        "dim": jumps.dim,
        "loss": [vec(v) for v in jumps.loss_vectors],
        "gain": [vec(v) for v in jumps.gain_vectors],
    }


def realization_payload(realization: MicroscopicRealization, labels=None) -> dict:
    """JSON payload of the formal split (matrices plus physicality report); the labels
    pass the label rule of models (_labels), 1..dim if none are given."""
    labels = _labels("realization payload", labels or None, realization.dim)
    return {
        "dim": realization.dim,
        "hamiltonian": matrix_payload(realization.hamiltonian, labels),
        "gain_gram": matrix_payload(realization.gain_gram, labels),
        "loss_gram": matrix_payload(realization.loss_gram, labels),
        "loss_min_eigenvalue": realization.loss_min_eigenvalue,
        "physical": realization.physical,
    }
