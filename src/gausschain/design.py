"""Inverse design: microscopic gain/loss realizations of a target dynamics.

Any target pair (X, Y) with Hermitian positive semidefinite Y formally
splits into a Hamiltonian and two jump Gram matrices,

    h = (X - X^dag) / 2i,     gain gram = Y,     loss gram = X + X^dag - Y,

and the pair is physical precisely when the loss gram is positive
semidefinite.  For the two chain families this module also produces
explicit local jump operators (nearest-neighbor loss bonds, onsite
losses, onsite pumps) whose Grams rebuild the target exactly, gated by
the closed-form feasibility conditions on the residual onsite weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibilityError, ParameterError, ValidationError
from .models import (HatanoNelsonParams, RelaxationMatrix, SourceMatrix, SshParams,
                     default_labels, ssh_labels)

# Loss grams with min eigenvalue above this are reported as physical.
PHYSICALITY_TOL = 1e-10

# Relative slack on the feasibility conditions, so exact boundary cases
# (vanishing interior weights) are accepted and tiny negative squared
# weights are clamped to zero.
FEASIBILITY_RTOL = 1e-8


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
        v = np.asarray(self.vector, dtype=complex).reshape(-1)
        if v.size == 0 or not np.all(np.isfinite(v.real) & np.isfinite(v.imag)):
            raise ParameterError(f"jump vector {self.label!r} must be finite and non-empty")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "vector", v)

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

    ``physical`` records whether the loss gram is positive semidefinite
    within tolerance; an unphysical split is still a valid formal
    solution and is returned rather than rejected.
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

    X and Y are checked as a RelaxationMatrix and a SourceMatrix: both
    finite, Y Hermitian positive semidefinite (it becomes the gain gram
    verbatim).  The loss gram inherits whatever X + X^dag - Y is; its
    minimum eigenvalue and the resulting physicality flag are reported,
    not enforced.
    """
    x = RelaxationMatrix(relaxation).entries
    y = SourceMatrix(source).entries
    if y.shape != x.shape:
        raise ParameterError(f"source shape {y.shape} does not match target {x.shape}")
    h = (x - x.conj().T) / 2j
    loss = x + x.conj().T - y
    loss = 0.5 * (loss + loss.conj().T)
    wmin = float(np.linalg.eigvalsh(loss).min())
    return MicroscopicRealization(
        hamiltonian=h,
        gain_gram=y,
        loss_gram=loss,
        target_relaxation=x,
        loss_min_eigenvalue=wmin,
        physical=wmin >= -PHYSICALITY_TOL,
    )


def _pump_profile(dim: int, pump, context: str) -> np.ndarray:
    """Site-resolved pump strengths from a scalar (uniform) or vector."""
    y = np.asarray(pump, dtype=float)
    if y.ndim == 0:
        if y <= 0 or not np.isfinite(y):
            raise ParameterError(f"{context}: uniform pump strength must be positive")
        return np.full(dim, float(y))
    if y.shape != (dim,):
        raise ParameterError(f"{context}: pump profile must have length {dim}")
    if not np.all(np.isfinite(y)) or np.any(y < 0):
        raise ParameterError(f"{context}: pump profile entries must be finite and >= 0")
    return y


def _chain_jumps(labels: tuple[str, ...], kappa: float, bonds, gamma,
                 context: str) -> JumpSet:
    """Bond, onsite and pump jumps of a nearest-neighbor chain.

    ``bonds`` lists ``(left site, beta)`` pairs (1-based); each bond with
    beta > 0 becomes the loss jump sqrt(beta) (c_left - c_{left+1}).
    Site j keeps the onsite squared weight 2 kappa - gamma_j - b_j, where
    b_j sums beta over the bonds touching j, and a uniform gamma is gated
    by 2 kappa - gamma >= max_j b_j.
    """
    dim = len(labels)
    y = _pump_profile(dim, gamma, context)
    bond_sum = np.zeros(dim)
    for left, beta in bonds:
        bond_sum[left - 1:left + 1] += beta
    if np.all(y == y[0]):
        delta, required = 2.0 * kappa - y[0], float(bond_sum.max())
        scale = max(1.0, abs(delta), abs(required))
        deficit = delta - required
        if deficit < -FEASIBILITY_RTOL * scale:
            raise InfeasibilityError(
                f"{context}: feasibility condition fails by {-deficit:.6g} "
                f"(need 2 kappa - gamma >= {required:.6g}, have {delta:.6g})",
                ((context, float(deficit)),))

    loss = []
    for left, beta in bonds:
        if beta > 0:
            v = np.zeros(dim, dtype=complex)
            v[left - 1], v[left] = np.sqrt(beta), -np.sqrt(beta)
            loss.append(JumpVector(f"bond({labels[left - 1]})", "loss", v))
    # Clamp tiny negative squared weights; report every genuine deficit.
    args = 2.0 * kappa - y - bond_sum
    scale = max(1.0, float(np.abs(args).max()))
    deficits = [(labels[j], float(a)) for j, a in enumerate(args)
                if a < -FEASIBILITY_RTOL * scale]
    if deficits:
        worst = min(deficits, key=lambda d: d[1])
        raise InfeasibilityError(
            f"{context}: onsite loss weight squared is negative at {worst[0]} "
            f"({worst[1]:.6g}); {len(deficits)} site(s) infeasible",
            tuple(deficits))
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
    beta = t_right + t_left.  Gain channels: sqrt(gamma_j) c_j^dag.

    A uniform gamma is gated by 2 kappa - gamma >= the largest per-site
    bond sum: 0 for a single site (gamma <= 2 kappa), beta for two
    sites, and 2 beta from three sites on.  A site-resolved profile
    replaces gamma by y_j in the onsite weights and is gated per site
    on the actual squared weights, reporting every deficit.
    """
    n = params.n_sites
    beta = params.t_right + params.t_left
    return _chain_jumps(default_labels(n), params.kappa,
                        [(j, beta) for j in range(1, n)], gamma,
                        "single-band decomposition")


def ssh_jump_decomposition(params: SshParams, gamma) -> JumpSet:
    """Local jump operators realizing the two-band chain with pumping.

    Bond losses carry sqrt(beta_1) = sqrt(t1_right + t1_left) within
    cells and sqrt(beta_2) = sqrt(t2_right + t2_left) between cells.
    Onsite squared weights are delta - beta_1 on the two outer sites
    (1A and NB) and delta - beta_1 - beta_2 elsewhere, with
    delta = 2 kappa - gamma_j.  A uniform gamma is gated by
    2 kappa - gamma >= beta_1 + beta_2 (single cell: >= beta_1).
    """
    n = params.n_cells
    beta1 = params.t1_right + params.t1_left
    beta2 = params.t2_right + params.t2_left
    bonds = ([(2 * cell - 1, beta1) for cell in range(1, n + 1)]
             + [(2 * cell, beta2) for cell in range(1, n)])
    return _chain_jumps(ssh_labels(n), params.kappa, bonds, gamma,
                        "two-band decomposition")


@dataclass(frozen=True)
class JumpValidationReport:
    """Per-check maximum deviations of a jump set against its targets."""

    loss_gram_error: float
    gain_gram_error: float
    relaxation_error: float
    tolerance: float
    passed: bool


def validate_jump_set(jumps: JumpSet, realization: MicroscopicRealization,
                      tolerance: float = 1e-12) -> JumpValidationReport:
    """Check that the jump Grams rebuild the realization and its target X.

    Raises ValidationError (with the report attached and the worst
    entry named) when any maximum deviation exceeds ``tolerance``.
    """
    if jumps.dim != realization.dim:
        raise ParameterError("jump set and realization dimensions differ")
    checks = {}
    worst = ("", 0, 0, -1.0)
    for name, got, want in (
        ("loss_gram", jumps.loss_gram(), realization.loss_gram),
        ("gain_gram", jumps.gain_gram(), realization.gain_gram),
        ("relaxation", 1j * realization.hamiltonian
         + 0.5 * (jumps.loss_gram() + jumps.gain_gram()), realization.target_relaxation),
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
        tolerance=float(tolerance),
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
        return {
            "label": v.label,
            "kind": v.kind,
            "re": [float(a) for a in v.vector.real],
            "im": [float(a) for a in v.vector.imag],
        }

    return {
        "dim": jumps.dim,
        "loss": [vec(v) for v in jumps.loss_vectors],
        "gain": [vec(v) for v in jumps.gain_vectors],
    }


def realization_payload(realization: MicroscopicRealization, labels=None) -> dict:
    """JSON payload of the formal split (matrices plus physicality report)."""
    from .matio import matrix_payload

    labels = tuple(labels) if labels else default_labels(realization.dim)
    return {
        "dim": realization.dim,
        "hamiltonian": matrix_payload(realization.hamiltonian, labels),
        "gain_gram": matrix_payload(realization.gain_gram, labels),
        "loss_gram": matrix_payload(realization.loss_gram, labels),
        "loss_min_eigenvalue": realization.loss_min_eigenvalue,
        "physical": realization.physical,
    }
