"""Inverse design: formal splits, local jump sets, feasibility gates."""

import dataclasses
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from gausschain import (HatanoNelsonParams, InfeasibilityError, JumpSet,
                        JumpVector, ParameterError, SourceMatrix, SshParams, ValidationError,
                        build_diagonal_pump, build_hatano_nelson, build_ssh, default_labels,
                        hn_jump_decomposition, inverse_design, jump_set_payload,
                        realization_payload, solve_lyapunov_direct, ssh_jump_decomposition,
                        ssh_labels, validate_jump_set)
from tests.conftest import (bond_list_reference, hn_matrix_reference, jump_reference,
                            ssh_matrix_reference)


def hn_target(n, t_right=1.0, t_left=0.17, kappa=1.5, gamma=0.1):
    x = build_hatano_nelson(HatanoNelsonParams(n, t_right, t_left, kappa))
    return x, gamma * np.eye(n)


def by_label(jumps):
    out = {}
    for v in (*jumps.loss_vectors, *jumps.gain_vectors):
        out[v.label] = v
    return out


def test_two_site_split_gives_antisymmetric_imaginary_hopping():
    tr, tl = 1.0, 0.17
    x, y = hn_target(2, t_right=tr, t_left=tl)
    real = inverse_design(x, y)
    expected_h = 0.5 * (tr - tl) * np.array([[0.0, -1.0j], [1.0j, 0.0]])
    assert_allclose(real.hamiltonian, expected_h, atol=1e-15)
    assert np.abs(real.hamiltonian - real.hamiltonian.conj().T).max() <= 1e-12
    assert_allclose(real.gain_gram, y, atol=1e-15)


def test_hermitian_target_with_zero_source_has_no_hamiltonian():
    x = build_hatano_nelson(HatanoNelsonParams(4, 0.7, 0.7, 2.0))
    real = inverse_design(x, np.zeros((4, 4)))
    assert np.abs(real.hamiltonian).max() <= 1e-15
    assert_allclose(real.loss_gram, 2.0 * np.asarray(x.entries), atol=1e-15)
    assert real.physical


def rebuilt_relaxation(realization):
    """i h + (loss Gram + gain Gram) / 2, which must reproduce X."""
    return 1j * realization.hamiltonian + 0.5 * (realization.loss_gram + realization.gain_gram)


def test_round_trip_identity_random_targets():
    rng = np.random.default_rng(61)
    for _ in range(15):
        dim = int(rng.integers(1, 8))
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        y = a @ a.conj().T
        real = inverse_design(x, y)
        scale = max(1.0, float(np.abs(x).max()), float(np.abs(y).max()))
        assert np.abs(rebuilt_relaxation(real) - x).max() <= 1e-14 * scale
        assert np.abs(real.gain_gram - y).max() <= 1e-14 * scale
        assert np.abs(real.hamiltonian - real.hamiltonian.conj().T).max() \
            <= 1e-12 * scale


def test_inverse_design_rejects_bad_sources():
    x, _ = hn_target(2)
    with pytest.raises(ParameterError):
        inverse_design(x, np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ParameterError):
        inverse_design(x, np.diag([1.0, -1e-6]))
    with pytest.raises(ParameterError):
        inverse_design(x, np.zeros((3, 3)))
    with pytest.raises(ParameterError):
        inverse_design(x, np.diag([1.0, np.nan]))
    bad_x = np.array(x.entries)
    bad_x[0, 1] = np.inf
    with pytest.raises(ParameterError):
        inverse_design(bad_x, np.eye(2))
    # A rounding-level negative eigenvalue is tolerated.
    inverse_design(x, np.diag([1.0, -1e-13]))


def test_unphysical_target_is_reported_not_rejected():
    # The reference-chain damping is below the local-realization threshold; the
    # formal split still reproduces the target but is flagged.
    x, _ = hn_target(8, kappa=0.91, gamma=0.03)
    y = np.zeros((8, 8))
    y[0, 0] = 0.03
    real = inverse_design(x, y)
    assert not real.physical
    assert real.loss_min_eigenvalue < -0.1
    assert np.abs(rebuilt_relaxation(real) - np.asarray(x.entries)).max() <= 1e-14


def test_hn_decomposition_worked_example():
    params = HatanoNelsonParams(3, 1.0, 0.17, 1.5)
    jumps = hn_jump_decomposition(params, 0.1)
    vecs = by_label(jumps)
    w_bond = math.sqrt(1.17)
    assert_allclose(vecs["bond(1)"].vector, [w_bond, -w_bond, 0.0], atol=1e-15)
    assert_allclose(vecs["bond(2)"].vector, [0.0, w_bond, -w_bond], atol=1e-15)
    # delta = 2*1.5 - 0.1 = 2.9, beta = 1.17: edges sqrt(1.73), bulk sqrt(0.56).
    assert vecs["onsite(1)"].vector[0] == pytest.approx(math.sqrt(1.73), rel=1e-12)
    assert vecs["onsite(3)"].vector[2] == pytest.approx(math.sqrt(1.73), rel=1e-12)
    assert vecs["onsite(2)"].vector[1] == pytest.approx(math.sqrt(0.56), rel=1e-12)
    for j in (1, 2, 3):
        assert_allclose(vecs[f"pump({j})"].vector[j - 1], math.sqrt(0.1), rtol=1e-14)
    # Onsite coefficients are real and nonnegative by construction.
    for v in jumps.loss_vectors:
        if v.label.startswith("onsite"):
            assert np.all(v.vector.imag == 0.0)
            assert np.all(v.vector.real >= 0.0)
    x, y = hn_target(3)
    report = validate_jump_set(jumps, inverse_design(x, y))
    assert report.passed
    assert report.relaxation_error <= 1e-12
    assert float(np.linalg.eigvalsh(jumps.loss_gram()).min()) >= -1e-12


def test_hn_decomposition_reference_damping_is_infeasible():
    params = HatanoNelsonParams(3, 1.0, 0.17, 0.91)
    with pytest.raises(InfeasibilityError) as err:
        hn_jump_decomposition(params, 0.03)
    (context, deficit), = err.value.deficits
    assert deficit == pytest.approx(-0.55, abs=1e-12)
    assert "0.55" in str(err.value)


def test_two_site_chain_is_gated_by_one_bond():
    # Each of the two sites touches one bond, so the uniform gate is
    # 2 kappa - gamma >= t_right + t_left, not twice that.
    params = HatanoNelsonParams(2, 1.0, 0.17, 1.5)
    jumps = hn_jump_decomposition(params, 1.0)
    vecs = by_label(jumps)
    for j in (1, 2):
        assert vecs[f"onsite({j})"].vector[j - 1] == pytest.approx(math.sqrt(0.83),
                                                                   rel=1e-12)
    x, y = hn_target(2, gamma=1.0)
    assert validate_jump_set(jumps, inverse_design(x, y)).passed
    with pytest.raises(InfeasibilityError):
        hn_jump_decomposition(params, (2.0 * 1.5 - 1.17) * (1.0 + 1e-6))


def test_hn_zero_hopping_is_refused_before_the_decomposition():
    # a zero-hopping chain once decomposed into pure onsite losses, although
    # every builder and closed form refused it; the parameter set now does
    with pytest.raises(ParameterError, match="^t_right must be positive, got 0.0$"):
        hn_jump_decomposition(HatanoNelsonParams(3, 0.0, 0.0, 1.5), 0.1)


def test_hn_single_site_boundary_occupation():
    kappa = 1.5
    params = HatanoNelsonParams(1, 1.0, 0.17, kappa)  # one site has no bond
    jumps = hn_jump_decomposition(params, 2.0 * kappa)
    # At the feasibility boundary the onsite loss weight vanishes and the
    # steady occupation saturates at one.
    (onsite,) = [v for v in jumps.loss_vectors if v.label.startswith("onsite")]
    assert np.abs(onsite.vector).max() == 0.0
    c = solve_lyapunov_direct(np.array([[kappa]]), np.array([[2.0 * kappa]]))
    assert_allclose(c.entries, [[1.0]], rtol=1e-15)
    with pytest.raises(InfeasibilityError):
        hn_jump_decomposition(params, 2.0 * kappa * (1.0 + 1e-6))


def test_ssh_decomposition_boundary_case_at_reciprocal_point():
    # 2 kappa - gamma = 3 = beta1 + beta2 up to rounding: the exact boundary
    params = SshParams(4, 0.5, 1.0, 0.0, 1.5 + 5e-9)
    jumps = ssh_jump_decomposition(params, 1e-8)
    vecs = by_label(jumps)
    # Outer sites keep weight sqrt(delta - beta1) ~ sqrt(2); every
    # interior squared weight sits at the boundary and clamps to zero.
    assert vecs["onsite(1A)"].vector[0] == pytest.approx(math.sqrt(2.0), rel=1e-8)
    assert vecs["onsite(4B)"].vector[7] == pytest.approx(math.sqrt(2.0), rel=1e-8)
    for label, v in vecs.items():
        if label.startswith("onsite") and label not in ("onsite(1A)", "onsite(4B)"):
            assert np.abs(v.vector).max() <= 1e-4
    # The clamp stays within PSD_TOL of the peak 3, so the default rule validates.
    real = inverse_design(build_ssh(params), 1e-8 * np.eye(8))
    report = validate_jump_set(jumps, real)
    assert report.passed
    assert report.tolerance == pytest.approx(6e-12, rel=1e-12)
    # 1e-8 short of the boundary is a deficit, not rounding.
    with pytest.raises(InfeasibilityError) as err:
        ssh_jump_decomposition(SshParams(4, 0.5, 1.0, 0.0, 1.5), 1e-8)
    (_, deficit), = err.value.deficits
    assert deficit == pytest.approx(-1e-8, rel=1e-6)


def test_ssh_decomposition_infeasible_off_reciprocal():
    params = SshParams(4, 0.5, 1.0, 0.2, 1.5)
    with pytest.raises(InfeasibilityError) as err:
        ssh_jump_decomposition(params, 1e-8)
    (_, deficit), = err.value.deficits
    assert deficit == pytest.approx(3.0 - 3.0 * math.cosh(0.2), abs=1e-6)


def test_ssh_single_cell_has_no_intercell_bonds():
    params = SshParams(1, 0.5, 1.0, 0.1, 1.5)
    jumps = ssh_jump_decomposition(params, 0.2)
    bonds = [v.label for v in jumps.loss_vectors if v.label.startswith("bond")]
    assert bonds == ["bond(1A)"]
    real = inverse_design(build_ssh(params), 0.2 * np.eye(2))
    assert validate_jump_set(jumps, real).passed


def test_site_profile_feasible_and_gated_per_site():
    params = HatanoNelsonParams(3, 1.0, 0.17, 1.5)
    y = build_diagonal_pump([0.1, 0.0, 0.0])
    jumps = hn_jump_decomposition(params, y)
    gains = [v.label for v in jumps.gain_vectors]
    assert gains == ["pump(1)"]
    x = build_hatano_nelson(params)
    real = inverse_design(x, y)
    assert validate_jump_set(jumps, real).passed

    ssh = SshParams(2, 0.5, 1.0, 0.0, 2.0)
    bad = build_diagonal_pump([0.1, 5.0, 0.1, 0.1])
    with pytest.raises(InfeasibilityError) as err:
        ssh_jump_decomposition(ssh, bad)
    labels = [label for label, _ in err.value.deficits]
    assert labels == ["1B"]
    assert err.value.deficits[0][1] == pytest.approx(4.0 - 5.0 - 3.0, abs=1e-12)


def test_pump_profile_validation():
    params = HatanoNelsonParams(3, 1.0, 0.17, 1.5)
    with pytest.raises(ParameterError):
        hn_jump_decomposition(params, 0.0)
    with pytest.raises(ParameterError):
        hn_jump_decomposition(params, -0.1)
    with pytest.raises(ParameterError, match="^source matrix not positive semidefinite"):
        hn_jump_decomposition(params, build_diagonal_pump([0.1, -0.1, 0.1]))
    # a profile is passed as its Y: a raw list or array meets the scalar gate
    for profile in ([0.1, 0.1, 0.1], np.array([0.1, 0.1, 0.1])):
        with pytest.raises(ParameterError, match=re.escape(
                "single-band decomposition: uniform pump strength must be finite, "
                f"got {profile!r}") + "$"):
            hn_jump_decomposition(params, profile)
    off_diagonal = SourceMatrix([[0.1, 0.05, 0.0], [0.05, 0.1, 0.0], [0.0, 0.0, 0.1]])
    for pump in (build_diagonal_pump([0.1, 0.1]), off_diagonal):
        with pytest.raises(ParameterError, match=re.escape(
                "single-band decomposition: pump must be 3 site strengths (a diagonal Y)") + "$"):
            hn_jump_decomposition(params, pump)


def test_validation_pinpoints_a_corrupted_bond():
    params = HatanoNelsonParams(3, 1.0, 0.17, 1.5)
    jumps = hn_jump_decomposition(params, 0.1)
    corrupted = []
    for v in jumps.loss_vectors:
        if v.label == "bond(1)":
            flipped = v.vector.copy()
            flipped[1] = -flipped[1]
            corrupted.append(JumpVector(v.label, flipped))
        else:
            corrupted.append(v)
    bad = JumpSet(3, tuple(corrupted), jumps.gain_vectors)
    x, y = hn_target(3)
    real = inverse_design(x, y)
    with pytest.raises(ValidationError) as err:
        validate_jump_set(bad, real)
    assert "loss_gram" in str(err.value)
    assert "(1, 2)" in str(err.value)
    assert not err.value.report.passed
    assert err.value.report.loss_gram_error == pytest.approx(2 * 1.17, rel=1e-12)


def test_feasible_realizations_keep_occupations_physical():
    cases = [hn_target(2, kappa=1.5, gamma=0.1),
             hn_target(3, kappa=1.5, gamma=0.5),
             hn_target(4, kappa=1.3, gamma=0.2)]
    ssh = SshParams(3, 0.5, 1.0, 0.0, 1.6)
    cases.append((build_ssh(ssh), 0.1 * np.eye(6)))
    for x, y in cases:
        real = inverse_design(x, y)
        assert real.physical
        occ = np.linalg.eigvalsh(solve_lyapunov_direct(x, y).entries)
        assert occ.min() >= -1e-10
        assert occ.max() <= 1.0 + 1e-10


def test_jump_container_validation():
    with pytest.raises(ParameterError):
        JumpVector("x", np.array([]))
    with pytest.raises(ParameterError):
        JumpVector("x", np.array([np.nan]))
    good = JumpVector("x", np.array([1.0, 0.0]))
    with pytest.raises(ParameterError):
        JumpSet(3, (good,), ())


def test_payload_structures():
    params = HatanoNelsonParams(2, 1.0, 0.17, 1.5)
    jumps = hn_jump_decomposition(params, 0.1)
    payload = jump_set_payload(jumps)
    assert payload["dim"] == 2
    assert [v["label"] for v in payload["loss"]] == ["bond(1)", "onsite(1)", "onsite(2)"]
    assert all(v["kind"] == "gain" for v in payload["gain"])
    x, y = hn_target(2)
    real = inverse_design(x, y)
    rp = realization_payload(real, default_labels(real.dim))
    assert rp["physical"] is True
    assert set(rp) == {"dim", "hamiltonian", "gain_gram", "loss_gram",
                       "loss_min_eigenvalue", "physical"}


def test_a_jump_is_the_kind_of_the_tuple_that_holds_it():
    # a vector held as a loss enters the loss Gram and is written as a loss,
    # whatever its label says; one held as a gain, the gain Gram
    pump = JumpVector("pump(1)", [1.0, 0.0])
    for loss, gain in (((pump,), ()), ((), (pump,))):
        jumps = JumpSet(2, loss, gain)
        payload = jump_set_payload(jumps)
        assert [v["kind"] for v in payload["loss"]] == ["loss"] * len(loss)
        assert [v["kind"] for v in payload["gain"]] == ["gain"] * len(gain)
        assert_array_equal(jumps.loss_gram(), np.diag([len(loss), 0.0]))
        assert_array_equal(jumps.gain_gram(), np.diag([len(gain), 0.0]))


def table_chains(rng, count):
    """Seeded feasible chains, each with its pump (uniform, or a profile's Y with zeros):
    single-band at 1-300 sites with hoppings 1e-8 to 1e8, two-band at 1-150 cells
    with |g| <= 300, kappa from the slack-free edge of feasibility to twice past it."""
    for k in range(count):
        t = 10.0 ** rng.uniform(-8, 8, 2)
        n = k // 2 + 1 if k < 4 else int(rng.integers(1, 301 if k % 2 else 151))
        if k % 2:
            params = HatanoNelsonParams(n, *t, 1.0)
        else:
            params = SshParams(n, *t, rng.uniform(-300, 300), 1.0)
        bond_sum = np.zeros(params.n_sites)
        for left, beta in bond_list_reference(params):
            bond_sum[left - 1:left + 1] += beta
        scale = 10.0 ** rng.uniform(-8, 8)
        if rng.random() < 0.5:
            y = np.full(params.n_sites, scale * rng.uniform(0.01, 1.0))
            pump = float(y[0])
        else:
            y = scale * rng.uniform(0.0, 1.0, params.n_sites) * (rng.random(params.n_sites) < 0.7)
            pump = build_diagonal_pump(y)
        kappa = 0.5 * float(np.max(y + bond_sum)) * (1.0 + rng.choice([0.0, 1e-15, rng.random()]))
        yield dataclasses.replace(params, kappa=kappa), pump, y


def test_bond_table_rebuilds_x_and_the_jumps_of_the_loop_builders_bit_for_bit():
    # X and the local jumps read one bond table (models._bonds); the loop
    # builders and bond lists it replaced are the references
    for params, pump, y in table_chains(np.random.default_rng(40), 60):
        hn = isinstance(params, HatanoNelsonParams)
        x = (build_hatano_nelson if hn else build_ssh)(params)
        want = (hn_matrix_reference if hn else ssh_matrix_reference)(params)
        assert x.entries.dtype == want.dtype and x.entries.tobytes() == want.tobytes()
        labels = default_labels(params.n_sites) if hn else ssh_labels(params.n_cells)
        jumps = (hn_jump_decomposition if hn else ssh_jump_decomposition)(params, pump)
        got = ([(v.label, "loss", v.vector) for v in jumps.loss_vectors]
               + [(v.label, "gain", v.vector) for v in jumps.gain_vectors])
        want = jump_reference(labels, params.kappa, bond_list_reference(params), y)
        assert [j[:2] for j in got] == [j[:2] for j in want]
        assert all(a[2].tobytes() == b[2].tobytes() for a, b in zip(got, want))


def chain_targets(rng, count):
    """Seeded chain targets: both models, uniform or site-resolved gamma, scales
    1e-6 to 1e6, and 2 kappa - gamma_j - b_j at its least a margin from -1e-3
    to +0.1 of the largest gamma_j + b_j, through the rounding band at 0."""
    margins = np.concatenate([-np.logspace(-3, -14, 12), [0.0], np.logspace(-14, -1, 14)])
    for _ in range(count):
        scale = 10.0 ** rng.uniform(-6, 6)
        n = int(rng.integers(1, 7))
        hoppings = scale * rng.uniform(0.1, 1.0, 2)
        if rng.random() < 0.5:
            params = HatanoNelsonParams(n, *hoppings, 1.0)
            x = build_hatano_nelson(params).entries
        else:
            params = SshParams((n + 1) // 2, *hoppings, rng.uniform(-0.5, 0.5), 1.0)
            x = build_ssh(params).entries
        # bond j's beta is the sum of its two hoppings, the bands of X
        beta = -(np.diagonal(x, -1) + np.diagonal(x, 1))
        bond_sum = np.r_[beta, 0.0] + np.r_[0.0, beta]
        gamma = scale * (rng.uniform(0.01, 1.0, x.shape[0]) if rng.random() < 0.5
                         else rng.uniform(0.01, 1.0))
        kappa = 0.5 * float(np.max(gamma + bond_sum)) * (1.0 + rng.choice(margins))
        yield dataclasses.replace(params, kappa=kappa), gamma


def test_every_gated_jump_set_validates():
    # The gate clamps up to PSD_TOL of the target's peak and validation allows
    # twice that, so a target is either refused or its jump set validates,
    # at every scale and on both sides of the feasibility edge.
    outcomes = {"refused": 0, "validated": 0, "gated, then failed": 0, "tolerance off": 0}
    for params, gamma in chain_targets(np.random.default_rng(32), 1000):
        hn = isinstance(params, HatanoNelsonParams)
        try:
            pump = build_diagonal_pump(gamma) if np.ndim(gamma) else gamma
            jumps = (hn_jump_decomposition if hn else ssh_jump_decomposition)(params, pump)
        except InfeasibilityError:
            outcomes["refused"] += 1
            continue
        x = build_hatano_nelson(params) if hn else build_ssh(params)
        y = np.diag(np.broadcast_to(gamma, (x.dim,)))
        realization = inverse_design(x, y)
        try:
            report = validate_jump_set(jumps, realization)
        except ValidationError:
            outcomes["gated, then failed"] += 1
            continue
        outcomes["validated"] += 1
        peak = max(np.abs(realization.loss_gram).max(), np.abs(y).max())
        outcomes["tolerance off"] += report.tolerance != 2e-12 * peak
    assert outcomes["gated, then failed"] == outcomes["tolerance off"] == 0, outcomes
    assert outcomes["refused"] > 300 and outcomes["validated"] > 300, outcomes
