"""State construction, purification and two-copy functional checks."""

import math

import numpy as np
import pytest

from detbal.errors import DimensionMismatch, NonUnitary, NotDensity, NotInvertible
from detbal.states import (
    DensityMatrix,
    expectation,
    make_density,
    marginals_check,
    omega_eval,
    purify,
    theta_eval,
)
from test_pair_kernel import expect_tilde, matrix_unit

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
RHO_DIAG = np.diag([0.75, 0.25])


def rho_34():
    return make_density(RHO_DIAG)


def haar_unitary(n, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r))).conj()


def test_make_density_diagonal_input():
    rho = rho_34()
    assert rho.n == 2
    assert np.array_equal(rho.diag, np.array([0.75, 0.25]))
    assert np.array_equal(rho.basis, np.eye(2))
    assert not rho.degenerate


def test_make_density_sorts_descending():
    rho = make_density(np.diag([0.25, 0.75]))
    assert np.array_equal(rho.diag, np.array([0.75, 0.25]))
    # basis is the permutation realizing the sort
    assert np.allclose(rho.basis.conj().T @ np.diag([0.25, 0.75]) @ rho.basis, RHO_DIAG)


def test_make_density_rotated_input():
    # [[1/2, 1/4], [1/4, 1/2]] has eigenvalues 1/2 +- 1/4
    m = np.array([[0.5, 0.25], [0.25, 0.5]])
    rho = make_density(m)
    assert np.allclose(rho.diag, [0.75, 0.25], atol=1e-14)
    v = rho.basis
    assert np.allclose(v.conj().T @ m @ v, RHO_DIAG, atol=1e-14)


def test_make_density_rejects_rank_deficient():
    with pytest.raises(NotInvertible):
        make_density(np.diag([0.5, 0.5, 0.0]))


def test_make_density_rejects_bad_trace():
    with pytest.raises(NotDensity):
        make_density(np.diag([0.7, 0.2]))


# in the second, ||m|| and ||m - m^dag|| both overflow, and the symmetrized
# solve would read diag(0.5, 0.5)
@pytest.mark.parametrize("m", [[[0.5, 0.5], [0.0, 0.5]], [[0.5, 1e300j], [1e300j, 0.5]]])
def test_make_density_rejects_non_hermitian(m):
    with pytest.raises(NotDensity, match="not Hermitian"):
        make_density(np.array(m))


def test_make_density_rejects_negative_eigenvalue():
    with pytest.raises(NotDensity):
        make_density(np.diag([1.1, -0.1]))


def test_degeneracy_flag():
    assert make_density(np.diag([0.5, 0.25, 0.25])).degenerate
    assert make_density(np.eye(2) / 2).degenerate
    assert not rho_34().degenerate


def test_expectation_values():
    rho = rho_34()
    assert expectation(rho, np.eye(2)) == pytest.approx(1.0)
    assert expectation(rho, matrix_unit(2, 0, 0)) == pytest.approx(0.75)
    assert expectation(rho, SX) == pytest.approx(0.0)


def test_density_power_wants_a_real_exponent():
    # complex powers of rho are modular_power's, as a diagonal map
    rho = rho_34()
    assert np.array_equal(rho.power(np.int64(2)), np.diag([0.5625, 0.0625]))
    for z in (1j, 0.5 + 0j, np.complex128(1j)):
        with pytest.raises(TypeError):
            rho.power(z)


def test_purify_default_is_sqrt():
    p = purify(rho_34())
    assert np.allclose(p.r, np.diag([math.sqrt(0.75), 0.5]), atol=1e-15)
    # r r^dag = rho and, for w = identity, r^dag r = rho as well
    assert np.allclose(p.r @ p.r.conj().T, RHO_DIAG, atol=1e-14)
    assert np.allclose(p.r.conj().T @ p.r, RHO_DIAG, atol=1e-14)


def test_purify_general_w():
    rho = rho_34()
    for seed in range(5):
        w = haar_unitary(2, seed)
        p = purify(rho, w)
        assert np.allclose(p.r @ p.r.conj().T, RHO_DIAG, atol=1e-13)


def test_purify_rejects_non_unitary():
    with pytest.raises(NonUnitary):
        purify(rho_34(), np.array([[1.0, 0.0], [0.0, 0.5]]))
    with pytest.raises(NonUnitary):
        purify(rho_34(), np.eye(3))


def test_omega_normalization_and_first_marginal():
    rho = rho_34()
    p = purify(rho)
    eye = np.eye(2)
    assert omega_eval(p, eye, eye) == pytest.approx(1.0)
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert omega_eval(p, a, eye) == pytest.approx(expectation(rho, a), abs=1e-13)


def test_omega_off_diagonal_unit_value():
    # omega(E01 ox E01) = sqrt(rho_0 rho_1) = sqrt(3)/4
    p = purify(rho_34())
    e01 = matrix_unit(2, 0, 1)
    assert omega_eval(p, e01, e01) == pytest.approx(math.sqrt(3.0) / 4.0, abs=1e-14)


def test_omega_entangled_vs_classical_contrast():
    # on sigma_x pairs the entangled state gives 2 sqrt(p q), the classical one 0
    rho = rho_34()
    p = purify(rho)
    assert omega_eval(p, SX, SX.T) == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-10)
    assert theta_eval(rho, SX, SX) == pytest.approx(0.0, abs=1e-15)


def test_omega_positive_on_mirror_pairs():
    rng = np.random.default_rng(4)
    for n, seed in [(2, 0), (3, 1), (4, 2)]:
        lam = rng.dirichlet(np.ones(n))
        lam = 0.05 + (1 - 0.05 * n) * lam  # still sums to 1, floor 0.05
        rho = make_density(np.diag(np.sort(lam)[::-1]))
        p = purify(rho)
        for _ in range(30):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a = 0.5 * (g + g.conj().T)
            v = omega_eval(p, a, a.T)
            assert abs(v.imag) <= 1e-12
            assert v.real > 1e-12 * np.linalg.norm(a) ** 2


def test_theta_marginals_and_normalization():
    rho = rho_34()
    eye = np.eye(2)
    assert theta_eval(rho, eye, eye) == pytest.approx(1.0)
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert theta_eval(rho, a, eye) == pytest.approx(expectation(rho, a), abs=1e-14)
        assert theta_eval(rho, eye, a) == pytest.approx(expectation(rho, a), abs=1e-14)
        h = 0.5 * (a + a.conj().T)
        assert theta_eval(rho, h, h).real >= -1e-14


@pytest.mark.parametrize("bad", [np.ones(2), np.eye(3), np.ones((2, 3))], ids=["1d", "n3", "2x3"])
def test_observables_must_be_n_by_n(bad):
    # np.diag of a 1-D array builds a matrix instead of reading a diagonal
    rho = rho_34()
    with pytest.raises(DimensionMismatch):
        expectation(rho, bad)
    with pytest.raises(DimensionMismatch):
        theta_eval(rho, bad, np.eye(2))
    with pytest.raises(DimensionMismatch):
        theta_eval(rho, np.eye(2), bad)
    p = purify(rho)
    with pytest.raises(DimensionMismatch):
        omega_eval(p, bad, np.eye(2))
    with pytest.raises(DimensionMismatch):
        omega_eval(p, np.eye(2), bad)
    with pytest.raises(DimensionMismatch):
        expect_tilde(rho, bad, np.eye(2))
    with pytest.raises(DimensionMismatch):
        expect_tilde(rho, np.eye(2), bad)


def test_marginals_check_default_w_passes():
    res = marginals_check(purify(rho_34()))
    assert res.passed
    assert res.residual <= 1e-12
    assert set(res.detail) == {"first_marginal", "second_marginal"}


def test_marginals_check_generic_w_breaks_second():
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    res = marginals_check(purify(rho_34(), h))
    assert not res.passed
    assert res.detail["first_marginal"] <= 1e-12
    assert res.detail["second_marginal"] > 0.1


def test_marginals_check_maximally_mixed_any_w():
    rho = make_density(np.eye(2) / 2)
    res = marginals_check(purify(rho, haar_unitary(2, 9)))
    assert res.passed
    assert res.residual <= 1e-12


def test_omega_basis_change_rule():
    # evaluating with r_V = V r V^T against rotated observables reproduces
    # the eigenbasis values: tr(r_V^dag A r_V B^T) = tr(r^dag A' r B'^T)
    # with A' = V^dag A V, B' = V^dag B V.
    rho = rho_34()
    p = purify(rho)
    rng = np.random.default_rng(6)
    for seed in range(5):
        v = haar_unitary(2, 20 + seed)
        rv = v @ p.r @ v.T
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        lhs = np.trace(rv.conj().T @ a @ rv @ b.T)
        rhs = omega_eval(p, v.conj().T @ a @ v, v.conj().T @ b @ v)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def same_array(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def states_1_to_12():
    """A random state at every n = 1 ... 12, and degenerate ones: the
    maximally mixed state and one with a repeated pair of eigenvalues."""
    for n in range(1, 13):
        u = haar_unitary(n, 70 + n)
        lam = np.linspace(2.0, 1.0, n)
        lam /= lam.sum()
        yield make_density(u @ np.diag(lam) @ u.conj().T)
        yield make_density(np.eye(n) / n)
        if n >= 3:
            lam = np.linspace(2.0, 1.0, n)
            lam[1] = lam[2]
            yield make_density(np.diag(lam / lam.sum()))


def test_kept_state_values_are_the_formulas_bit_for_bit():
    """Each value a state keeps is bit-equal to the formula it replaced."""
    for rho in states_1_to_12():
        d = rho.diag
        half = np.sqrt(d)
        want = {
            "_inverse": 1.0 / d,
            "_pair_gram": np.outer(half, half).ravel(),
            "_modular_ratios": np.outer(1.0 / d, d).ravel(),
            "_kms_weights": np.sqrt(np.outer(d, d)),
            "_vec": rho.matrix().reshape(-1, order="F"),
        }
        for name, value in want.items():
            assert same_array(getattr(rho, name), value), (rho.n, name)
    assert any(rho.degenerate for rho in states_1_to_12())


def test_state_arrays_are_read_only_copies():
    """diag, basis and every kept array refuse writes, and a state built
    from a caller's arrays does not change when the caller writes to them."""
    u = haar_unitary(3, 80)
    rho = make_density(u @ np.diag([0.5, 0.3, 0.2]) @ u.conj().T)
    kept = ("_inverse", "_pair_gram", "_modular_ratios", "_kms_weights", "_vec")
    for name in ("diag", "basis", *kept):
        a = getattr(rho, name)
        with pytest.raises(ValueError):
            a.flat[0] = 0.0
    diag, basis = np.array([0.75, 0.25]), np.eye(2, dtype=complex)
    built = DensityMatrix(n=2, diag=diag, basis=basis, degenerate=False)
    diag[0], basis[0, 0] = 9.0, 9.0
    assert np.array_equal(built.diag, [0.75, 0.25])
    assert np.array_equal(built.basis, np.eye(2))
    assert diag.flags.writeable and basis.flags.writeable
