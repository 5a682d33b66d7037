"""Tests for the mirror-operator (thermofield) view of balance."""

import numpy as np
import pytest

from detbal import (
    DimensionMismatch,
    InputNotDynamics,
    check_db2_entangled,
    check_db2_tfd,
    check_sqdb_definition,
    check_sqdb_tfd,
    expectation,
    gad_sqdb_channel,
    hs_inner,
    make_density,
    random_density,
    random_unital_channel,
    schur_db2_channel,
    tilde,
    transpose_reversing,
)
from detbal.superop import pi_rep
from test_pair_kernel import expect_tilde, kms_oracle, tilde_substitution_oracle


def _rng(seed):
    return np.random.default_rng(seed)


def _random_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_tilde_acts_by_right_multiplication_with_adjoint():
    rng = _rng(11)
    for n in (2, 3, 4):
        a = _random_matrix(rng, n)
        x = _random_matrix(rng, n)
        assert np.allclose(tilde(a).apply(x), x @ a.conj().T, atol=1e-12)


def test_tilde_commutes_with_left_multiplication():
    # Mirror operators live in the commutant of the left representation.
    rng = _rng(12)
    for n in (2, 3):
        a = _random_matrix(rng, n)
        b = _random_matrix(rng, n)
        left = pi_rep(a, np.eye(n))
        right = tilde(b)
        assert np.allclose(
            left.compose(right).mat, right.compose(left).mat, atol=1e-12
        )


def test_tilde_is_antilinear_in_its_argument():
    rng = _rng(13)
    a = _random_matrix(rng, 3)
    z = 0.7 - 1.9j
    assert np.allclose(tilde(z * a).mat, np.conj(z) * tilde(a).mat, atol=1e-12)


def test_tilde_is_the_right_factor_of_the_product_representation():
    rng = _rng(14)
    for n in (2, 3, 4):
        a = _random_matrix(rng, n)
        assert np.array_equal(tilde(a).mat, pi_rep(np.eye(n), a.conj()).mat)


def test_tilde_rejects_nonsquare():
    with pytest.raises(DimensionMismatch):
        tilde(np.ones((2, 3)))


def test_tilde_substitution_identity():
    for seed, n in ((0, 2), (1, 3), (2, 4)):
        assert tilde_substitution_oracle(random_density(n, seed=seed)) <= 1e-12


def test_tilde_substitution_hand_case():
    # rho = diag(3/4, 1/4): move E01 to the mirror side, pull it back through
    # the inverse square-root modular flow, and compare with E10 acting
    # directly.  Both sides equal E10 rho^(1/2) = (sqrt(3)/2) E10.
    rho = make_density(np.diag([0.75, 0.25]))
    half = rho.power(0.5)
    e01 = np.array([[0, 1], [0, 0]], dtype=complex)
    moved = tilde(e01).apply(half)
    lhs = rho.power(-0.5) @ moved @ half
    assert np.allclose(lhs, e01.conj().T @ half, atol=1e-14)
    assert np.allclose(lhs, (np.sqrt(3) / 2) * e01.conj().T, atol=1e-14)


def test_kms_identity_random_states():
    for seed, n in ((3, 2), (4, 3), (5, 5)):
        assert kms_oracle(random_density(n, seed=seed)) <= 1e-12


def test_kms_hand_pair():
    # rho = diag(3/4, 1/4), A = E01, B = E10: both sides of
    # <A Delta(B)> = <B A> equal 1/4.
    rho = make_density(np.diag([0.75, 0.25]))
    rm = rho.matrix()
    a = np.array([[0, 1], [0, 0]], dtype=complex)
    b = a.conj().T
    delta_b = rm @ b @ rho.power(-1)
    lhs = complex(np.trace(rm @ a @ delta_b))
    rhs = complex(np.trace(rm @ b @ a))
    assert abs(lhs - 0.25) <= 1e-14
    assert abs(rhs - 0.25) <= 1e-14
    assert kms_oracle(rho) <= 1e-14


def test_expect_tilde_matches_representation_route():
    rng = _rng(21)
    for n in (2, 3):
        rho = random_density(n, seed=30 + n)
        half = rho.power(0.5)
        for _ in range(20):
            a = _random_matrix(rng, n)
            b = _random_matrix(rng, n)
            via_rep = hs_inner(half, a @ tilde(b).apply(half))
            assert abs(expect_tilde(rho, a, b) - via_rep) <= 1e-12


def test_expect_tilde_matches_two_copy_functional():
    # omega(A ox conj(B)) = tr(rho^(1/2) A rho^(1/2) B^dag), the closed form
    # of <A tilde(B)>.
    rng = _rng(22)
    rho = random_density(3, seed=40)
    half = rho.power(0.5)
    for _ in range(20):
        a = _random_matrix(rng, 3)
        b = _random_matrix(rng, 3)
        closed = complex(np.trace(half @ a @ half @ b.conj().T))
        assert abs(expect_tilde(rho, a, b) - closed) <= 1e-12


def test_expect_tilde_of_identity_is_state_expectation():
    rho = random_density(4, seed=41)
    rng = _rng(23)
    for _ in range(10):
        a = _random_matrix(rng, 4)
        assert abs(expect_tilde(rho, a, np.eye(4)) - expectation(rho, a)) <= 1e-12


def test_expect_tilde_mirror_positivity():
    rng = _rng(24)
    rho = random_density(3, seed=42)
    for _ in range(25):
        a = _random_matrix(rng, 3)
        val = expect_tilde(rho, a, a)
        assert abs(val.imag) <= 1e-12
        assert val.real > 1e-12 * np.linalg.norm(a) ** 2


def test_db2_tfd_agrees_with_entangled_form():
    cases = []
    rho = random_density(3, seed=50)
    cases.append((schur_db2_channel(rho, seed=51), rho))
    gtau, grho = gad_sqdb_channel(0.75, 0.2)
    cases.append((gtau, grho))
    urho = random_density(2, seed=52)
    cases.append((random_unital_channel(2, 3, seed=53), urho))
    for tau, rho in cases:
        mirror = check_db2_tfd(tau, rho)
        entangled = check_db2_entangled(tau, rho)
        assert mirror.passed == entangled.passed


def test_db2_tfd_positive_case_is_tight():
    rho = random_density(2, seed=54)
    tau = schur_db2_channel(rho, seed=55)
    res = check_db2_tfd(tau, rho)
    assert res.passed
    assert res.residual <= 1e-10
    assert set(res.detail) == {"pair_residual", "dual_unital"}


def test_sqdb_tfd_agrees_with_definition_form():
    th2 = transpose_reversing(2)
    gtau, grho = gad_sqdb_channel(0.75, 0.2)
    srho = random_density(2, seed=60)
    stau = schur_db2_channel(srho, seed=61)
    urho = random_density(2, seed=62)
    utau = random_unital_channel(2, 3, seed=63)
    for tau, rho in ((gtau, grho), (stau, srho), (utau, urho)):
        mirror = check_sqdb_tfd(tau, rho, th2)
        direct = check_sqdb_definition(tau, rho, th2)
        assert mirror.passed == direct.passed


def test_sqdb_tfd_gad_positive_case():
    tau, rho = gad_sqdb_channel(0.75, 0.2)
    res = check_sqdb_tfd(tau, rho, transpose_reversing(2))
    assert res.passed
    assert res.residual <= 1e-10


def test_tfd_checks_reject_non_dynamics():
    rho = random_density(2, seed=70)
    tau = schur_db2_channel(rho, seed=71)
    from detbal.superop import SuperOperator

    scaled = SuperOperator(2, 0.9 * tau.mat)
    with pytest.raises(InputNotDynamics):
        check_db2_tfd(scaled, rho)
    with pytest.raises(InputNotDynamics):
        check_sqdb_tfd(scaled, rho, transpose_reversing(2))


def test_sqdb_tfd_rejects_dimension_mismatch():
    rho = random_density(2, seed=72)
    tau = schur_db2_channel(rho, seed=73)
    with pytest.raises(DimensionMismatch):
        check_sqdb_tfd(tau, rho, transpose_reversing(3))


def test_identity_channel_passes_both_mirror_checks():
    from detbal.superop import identity_superop

    rho = random_density(3, seed=74)
    ident = identity_superop(3)
    assert check_db2_tfd(ident, rho).residual <= 1e-12
    assert check_sqdb_tfd(ident, rho, transpose_reversing(3)).residual <= 1e-12
