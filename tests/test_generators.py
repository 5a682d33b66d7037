"""Generator families: construction guarantees and determinism."""

import math

import numpy as np
import pytest

from detbal.balance import (
    check_sqdb_definition,
    classical_detailed_balance,
    delta_commutator_residual,
    run_report,
)
from detbal.duals import transpose_reversing
from detbal.generators import (
    cycle_chain,
    degenerate_db2_channel,
    gad_kraus,
    gad_sqdb_channel,
    metropolis_chain,
    random_density,
    random_unital_channel,
    random_unital_kraus,
    random_unitary,
    schur_db2_channel,
    schur_kraus,
    schur_multiplier_matrix,
    symmetrized_sqdb_channel,
)
from detbal.linalg import hermitian_eig, matrix_unit
from detbal.states import make_density
from detbal.superop import from_kraus, is_completely_positive, is_unital


def test_random_density_contract():
    for n, seed in [(2, 0), (3, 1), (4, 2)]:
        rho = random_density(n, min_eig=0.05, seed=seed)
        assert rho.n == n
        assert np.sum(rho.diag) == pytest.approx(1.0, abs=1e-12)
        assert rho.diag[-1] >= 0.05 - 1e-12
        assert np.all(np.diff(rho.diag) <= 1e-14)


def test_random_density_determinism():
    a = random_density(3, seed=42)
    b = random_density(3, seed=42)
    assert np.array_equal(a.diag, b.diag)
    assert np.array_equal(a.basis, b.basis)


def test_random_density_infeasible_floor():
    with pytest.raises(ValueError):
        random_density(4, min_eig=0.3, seed=0)
    with pytest.raises(ValueError):
        random_density(2, min_eig=0.0, seed=0)


def test_random_unitary_contract():
    for n, seed in [(2, 0), (4, 7)]:
        u = random_unitary(n, seed)
        assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= 1e-12 * n
        assert abs(abs(np.linalg.det(u)) - 1.0) <= 1e-12
    assert np.array_equal(random_unitary(3, 5), random_unitary(3, 5))


def test_schur_multiplier_matrix_is_correlation_like():
    for n, seed in [(2, 0), (4, 3)]:
        h = schur_multiplier_matrix(n, seed)
        assert np.allclose(np.diag(h), 1.0, atol=1e-12)
        assert hermitian_eig(h)[0][-1] >= -1e-9


def test_schur_kraus_reconstructs_multiplier():
    h = schur_multiplier_matrix(3, 11)
    s = from_kraus(schur_kraus(h))
    for j in range(3):
        for k in range(3):
            e = matrix_unit(3, j, k)
            assert np.allclose(s.apply(e), h[j, k] * e, atol=1e-12)


def test_schur_all_ones_is_identity():
    s = from_kraus(schur_kraus(np.ones((3, 3), dtype=complex)))
    assert np.allclose(s.mat, np.eye(9), atol=1e-12)


def test_schur_identity_multiplier_is_dephasing():
    # h = 1 keeps the diagonal and kills coherences; balanced dynamics
    rho = make_density(np.diag([0.6, 0.4]))
    s = from_kraus(schur_kraus(np.eye(2, dtype=complex)))
    rep = run_report(s, rho, transpose_reversing(2))
    assert rep.db2 and rep.consistency


def test_schur_channel_guarantees():
    for n, seed in [(2, 0), (3, 5), (4, 9)]:
        rho = random_density(n, seed=seed + 100)
        tau = schur_db2_channel(rho, seed)
        assert is_completely_positive(tau).passed
        assert is_unital(tau).passed
        assert delta_commutator_residual(tau, rho) <= 1e-12


def test_gad_kraus_frozen_values():
    k = gad_kraus(0.75, 0.2)
    v1, v2 = k.ops
    assert v1[0, 0] == pytest.approx(math.sqrt(0.8), abs=1e-15)
    assert v1[1, 1] == pytest.approx(math.sqrt(0.4), abs=1e-15)
    assert v2[0, 1] == pytest.approx(math.sqrt(0.2), abs=1e-15)
    assert v2[1, 0] == pytest.approx(math.sqrt(0.6), abs=1e-15)


def test_gad_action_on_offdiagonal_unit():
    tau, _ = gad_sqdb_channel(0.75, 0.2)
    e01 = matrix_unit(2, 0, 1)
    e10 = matrix_unit(2, 1, 0)
    expect = math.sqrt(0.32) * e01 + math.sqrt(0.12) * e10
    assert np.allclose(tau.apply(e01), expect, atol=1e-14)


def test_gad_parameter_validation():
    with pytest.raises(ValueError):
        gad_kraus(0.4, 0.1)
    with pytest.raises(ValueError):
        gad_kraus(1.0, 0.1)
    with pytest.raises(ValueError):
        gad_kraus(0.75, 0.0)
    with pytest.raises(ValueError):
        gad_kraus(0.75, 0.4)  # above (1-p)/p = 1/3
    gad_kraus(0.75, 1.0 / 3.0)  # boundary is allowed


def test_gad_kraus_identities_hold_over_the_parameter_range():
    # 60 values of p, 40 of s per p, the last at the boundary s = (1-p)/p;
    # the extra p is the boundary of the command line's reported failure
    rounded = 0
    for p in [*np.linspace(0.51, 0.99, 60), 0.6356389830508474]:
        p, q = float(p), 1.0 - float(p)
        for t in np.linspace(1.0 / 40.0, 1.0, 40):
            s = float(t) * q / p
            # b^2 = 1 - p s / q rounds below zero at some boundary points
            rounded += 1.0 - p * s / q < 0.0
            v1, v2 = gad_kraus(p, s).ops
            rho = np.diag([p, q])
            unital = np.linalg.norm(v1 @ v1.conj().T + v2 @ v2.conj().T - np.eye(2))
            fixed = np.linalg.norm(v1.conj().T @ rho @ v1 + v2.conj().T @ rho @ v2 - rho)
            assert max(unital, fixed) <= 1e-15, (p, s)
    assert rounded == 4


def test_gad_small_s_approaches_identity():
    tau, _ = gad_sqdb_channel(0.75, 1e-9)
    assert np.linalg.norm(tau.mat - np.eye(4)) <= 1e-4


def test_gad_sqdb_and_noncommutation():
    tau, rho = gad_sqdb_channel(0.75, 0.2)
    th = transpose_reversing(2)
    assert check_sqdb_definition(tau, rho, th).residual <= 1e-10
    assert delta_commutator_residual(tau, rho) > 0.9


def test_random_unital_kraus_exactly_unital():
    for n, k, seed in [(2, 1, 0), (2, 3, 1), (3, 2, 2), (4, 4, 3)]:
        ch = random_unital_kraus(n, k, seed)
        acc = sum(v @ v.conj().T for v in ch.ops)
        assert np.linalg.norm(acc - np.eye(n)) <= 1e-12


def test_random_unital_single_operator_is_unitary():
    ch = random_unital_kraus(3, 1, 4)
    (w,) = ch.ops
    assert np.linalg.norm(w.conj().T @ w - np.eye(3)) <= 1e-12


def test_random_unital_channel_is_statistical_negative_control():
    # generic instances fail balance; log the observed residuals rather than
    # asserting each one, but the fixed seeds here are known-bad
    rho = random_density(2, seed=50)
    th = transpose_reversing(2)
    for seed in (51, 52):
        rep = run_report(random_unital_channel(2, 3, seed), rho, th)
        assert rep.consistency
        assert not rep.db2 and not rep.sqdb


def test_random_unital_rejects_bad_k():
    with pytest.raises(ValueError):
        random_unital_kraus(2, 0, 0)


def test_degenerate_db2_channel_contract():
    tau, rho = degenerate_db2_channel(seed=7)
    assert rho.degenerate
    assert is_completely_positive(tau).passed
    assert is_unital(tau).passed
    assert delta_commutator_residual(tau, rho) <= 1e-12
    rep = run_report(tau, rho, transpose_reversing(rho.n))
    assert rep.db2 and rep.consistency and rep.degenerate_rho


@pytest.mark.parametrize("spectrum", [(0.25, 0.25, 0.5), (0.25, 0.5, 0.25)])
def test_degenerate_db2_channel_any_spectrum_order(spectrum):
    # the blocks follow rho.diag, the descending eigenbasis the channel is
    # stated in, so the repeated eigenvalue 0.25 (indices 1 and 2) is mixed
    tau, rho = degenerate_db2_channel(0, spectrum=spectrum)
    assert np.array_equal(rho.diag, [0.5, 0.25, 0.25])
    rep = run_report(tau, rho, transpose_reversing(3))
    assert rep.db2 and rep.consistency and rep.degenerate_rho
    assert abs(tau.apply(matrix_unit(3, 1, 1))[2, 2]) > 1e-3


def test_degenerate_channel_rejects_simple_spectrum():
    with pytest.raises(ValueError):
        degenerate_db2_channel(seed=0, spectrum=(0.5, 0.3, 0.2))


def test_symmetrized_sqdb_channel():
    tau, rho = symmetrized_sqdb_channel(0.75, 0.2, phi=0.9)
    th = transpose_reversing(2)
    assert is_completely_positive(tau).passed
    assert is_unital(tau).passed
    res = check_sqdb_definition(tau, rho, th)
    assert res.passed and res.residual <= 1e-10
    rep = run_report(tau, rho, th)
    assert rep.sqdb and rep.consistency


def test_symmetrization_identity_behind_the_generator():
    # (Theta beta Theta)^(1/2) = Theta beta^(1/2) Theta for the transpose
    # and a diagonal-basis state: the identity the construction relies on
    from detbal.duals import bar_map, kms_dual

    tau, rho = gad_sqdb_channel(0.8, 0.15)
    lhs = kms_dual(bar_map(tau), rho).mat
    rhs = bar_map(kms_dual(tau, rho)).mat
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_metropolis_chain_contract():
    for n, seed in [(2, 0), (3, 1), (6, 2)]:
        chain = metropolis_chain(n, seed)
        assert classical_detailed_balance(chain).passed
        assert np.min(chain.p) > 0.0
        assert np.allclose(chain.gamma.sum(axis=1), 1.0, atol=1e-14)
    with pytest.raises(ValueError):
        metropolis_chain(1, 0)


def test_cycle_chain_contract():
    chain = cycle_chain(4)
    res = classical_detailed_balance(chain)
    assert not res.passed
    assert res.residual == pytest.approx(0.25, abs=1e-15)
    with pytest.raises(ValueError):
        cycle_chain(2)


def test_channel_generators_deterministic():
    rho = random_density(3, seed=9)
    a = schur_db2_channel(rho, seed=10)
    b = schur_db2_channel(rho, seed=10)
    assert np.array_equal(a.mat, b.mat)
    c = random_unital_channel(2, 2, 11)
    d = random_unital_channel(2, 2, 11)
    assert np.array_equal(c.mat, d.mat)
    e, _ = degenerate_db2_channel(seed=12)
    f, _ = degenerate_db2_channel(seed=12)
    assert np.array_equal(e.mat, f.mat)
