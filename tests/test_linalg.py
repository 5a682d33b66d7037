"""Substrate checks: Hermitian eigensolver, matrix powers, input coercion."""

import cmath
import math

import numpy as np
import pytest

from detbal.duals import make_reversing, tilde, transpose_reversing
from detbal.errors import DetbalError, DimensionMismatch, NotHermitian, NotInvertible
from detbal.linalg import (
    DEFAULT_TOL,
    Tolerance,
    _hermiticity,
    _verdict,
    as_matrix,
    hermitian_eig,
    mat_power,
    require_hermitian,
)
from detbal.states import expectation, make_density, omega_eval, purify, theta_eval
from detbal.superop import SuperOperator, from_kraus, make_kraus, pi_rep, unvec, vec


def random_hermitian(n, rng, scale=1.0):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (g + g.conj().T)


def char_poly_eigs_2x2(m):
    """Independent n=2 oracle: roots of the characteristic polynomial."""
    t = np.trace(m).real
    d = np.linalg.det(m).real
    disc = math.sqrt(max(0.0, t * t - 4.0 * d))
    return np.array([(t + disc) / 2.0, (t - disc) / 2.0])


def test_eig_diagonal_input_is_identity_rotation():
    lam, u = hermitian_eig(np.diag([0.75, 0.25]))
    assert np.allclose(lam, [0.75, 0.25], atol=0)
    assert np.array_equal(u, np.eye(2))


def test_eig_pauli_x_hand_checked():
    # char poly lam^2 - 1 = 0: eigenvalues +1, -1
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    lam, u = hermitian_eig(sx)
    assert np.allclose(lam, [1.0, -1.0], atol=1e-14)
    assert np.allclose(np.abs(u), np.full((2, 2), 1.0 / math.sqrt(2)), atol=1e-14)


def test_eig_matches_char_poly_oracle_n2():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = random_hermitian(2, rng, scale=rng.uniform(0.1, 10.0))
        lam, _ = hermitian_eig(m)
        assert np.allclose(lam, char_poly_eigs_2x2(m), atol=1e-10)


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
def test_eig_reconstruction_and_unitarity(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(5):
        m = random_hermitian(n, rng)
        lam, u = hermitian_eig(m)
        assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= 1e-12 * n
        assert np.linalg.norm(u @ np.diag(lam) @ u.conj().T - m) <= 1e-12 * max(1.0, np.linalg.norm(m))
        assert np.all(np.diff(lam) <= 1e-14)


def test_eig_matches_lapack_eigenvalues():
    rng = np.random.default_rng(12)
    for n in (2, 3, 4, 7):
        m = random_hermitian(n, rng)
        mine, _ = hermitian_eig(m)
        ref = np.sort(np.linalg.eigvalsh(m))[::-1]
        assert np.allclose(mine, ref, atol=1e-11)


def test_eig_deterministic_bits():
    rng = np.random.default_rng(13)
    m = random_hermitian(5, rng)
    a = hermitian_eig(m)
    b = hermitian_eig(m.copy())
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_eig_degenerate_spectrum():
    # eigenvalues (1, 1, 0) after a fixed rotation
    rng = np.random.default_rng(14)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q, _ = np.linalg.qr(g)
    m = q @ np.diag([1.0, 1.0, 0.0]) @ q.conj().T
    lam, u = hermitian_eig(m)
    assert np.allclose(lam, [1.0, 1.0, 0.0], atol=1e-12)
    assert np.linalg.norm(u @ np.diag(lam) @ u.conj().T - m) <= 1e-12


# the last three have Frobenius norms that overflow: residual and bound
# both read inf unless the comparison is rescaled, and inf <= inf passed
@pytest.mark.parametrize("m", [
    [[0.0, 1.0], [0.0, 0.0]],
    [[1.0, 1e200], [0.0, 0.0]],
    [[0.0, 1e308], [-1e308, 0.0]],
    [[0.5, 1e300j], [1e300j, 0.5]],
])
def test_eig_rejects_non_hermitian(m):
    with pytest.raises(NotHermitian):
        require_hermitian(m)
    with pytest.raises(NotHermitian):
        hermitian_eig(np.array(m))


def test_hermiticity_accepts_a_large_hermitian_matrix():
    m = np.array([[1e300, 2e299 - 1e299j], [2e299 + 1e299j, -1e300]])
    assert np.array_equal(require_hermitian(m), m)


def test_hermiticity_on_unit_entries_is_the_plain_comparison():
    # entries of modulus <= 1: the residual and the verdict are those of
    # ||m - m^dag|| <= 1e-12 * max(1, ||m||) on m itself, bit for bit,
    # across the threshold
    rng = np.random.default_rng(12)
    for n in (1, 2, 3, 5):
        for _ in range(20):
            h = random_hermitian(n, rng)
            h *= 0.5 / np.max(np.abs(h))
            g = 0.25 * (rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n)))
            for eps in np.geomspace(1e-14, 1e-10, 9):
                m = h + eps * g
                res = float(np.linalg.norm(m - m.conj().T))
                plain = res <= 1e-12 * max(1.0, float(np.linalg.norm(m)))
                assert _hermiticity(m) == (plain, res)


def test_eig_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        hermitian_eig(np.ones((2, 3)))


def test_eig_rejects_non_finite():
    with pytest.raises(DetbalError):
        hermitian_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_mat_power_half_and_zero():
    m = np.diag([9.0 / 16.0, 1.0 / 16.0])
    assert np.allclose(mat_power(m, 0.5), np.diag([0.75, 0.25]), atol=1e-14)
    assert np.allclose(mat_power(m, 0.0), np.eye(2), atol=1e-14)


def test_mat_power_imaginary_exponent_scalar_oracle():
    # lam**(-i) = exp(-i log lam), unit modulus for lam > 0
    m = np.diag([0.75, 0.25])
    out = mat_power(m, -1j)
    expect = np.diag([cmath.exp(-1j * math.log(0.75)), cmath.exp(-1j * math.log(0.25))])
    assert np.allclose(out, expect, atol=1e-14)
    assert np.allclose(np.abs(np.diag(out)), 1.0, atol=1e-14)


def test_mat_power_group_property():
    rng = np.random.default_rng(15)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    m = g @ g.conj().T + 0.5 * np.eye(3)
    for z1, z2 in [(0.5, 0.5), (-1.0, 1.0), (0.25 + 1j, 0.75 - 1j), (-0.5j, 0.5j)]:
        lhs = mat_power(m, z1) @ mat_power(m, z2)
        rhs = mat_power(m, z1 + z2)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(1.0, np.linalg.norm(rhs))


def test_mat_power_hermitian_for_real_exponent():
    rng = np.random.default_rng(16)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = g @ g.conj().T + 0.1 * np.eye(4)
    p = mat_power(m, 0.3)
    assert np.linalg.norm(p - p.conj().T) <= 1e-12 * np.linalg.norm(p)


def test_mat_power_rejects_singular():
    with pytest.raises(NotInvertible):
        mat_power(np.diag([1.0, 0.0]), 0.5)
    with pytest.raises(NotInvertible):
        mat_power(np.diag([1.0, -0.25]), 2.0)


SPLIT_TOL = Tolerance(eq_tol=1e-9, psd_tol=1e-6)
ABOVE_EQ_TOL = float(np.nextafter(1e-9, 1))
NAN = float("nan")


@pytest.mark.parametrize(
    "tol, eq, psd, info, passed, residual",
    [
        pytest.param(DEFAULT_TOL, {"a": 1e-9}, None, None, True, 1e-9, id="at-eq-tol"),
        pytest.param(
            DEFAULT_TOL, {"a": ABOVE_EQ_TOL}, None, None, False, ABOVE_EQ_TOL, id="above-eq-tol"
        ),
        pytest.param(SPLIT_TOL, {"a": 0.0}, {"b": 1e-7}, None, True, 1e-7, id="psd-entry"),
        pytest.param(SPLIT_TOL, {"a": 1e-7}, {"b": 0.0}, None, False, 1e-7, id="eq-entry"),
        pytest.param(DEFAULT_TOL, {"a": 1e-10}, None, {"c": 1e3}, True, 1e-10, id="info-entry"),
        pytest.param(
            SPLIT_TOL, {"a": 1e-12, "b": 3e-10}, {"c": 2e-7}, {"d": 5.0}, True, 2e-7,
            id="largest-is-psd",
        ),
        pytest.param(
            SPLIT_TOL, {"a": 4e-10, "b": 3e-10}, {"c": 2e-11}, None, True, 4e-10,
            id="largest-is-eq",
        ),
        # a NaN residual fails closed wherever it stands; Python max alone
        # would drop it behind a number
        pytest.param(DEFAULT_TOL, {"a": NAN, "b": 0.0}, None, None, False, NAN, id="nan-eq-first"),
        pytest.param(DEFAULT_TOL, {"a": 0.0, "b": NAN}, None, None, False, NAN, id="nan-eq-second"),
        pytest.param(DEFAULT_TOL, {"a": 0.0}, {"b": NAN, "c": 0.0}, None, False, NAN, id="nan-psd-first"),
        pytest.param(DEFAULT_TOL, {"a": 0.0}, {"b": 0.0, "c": NAN}, None, False, NAN, id="nan-psd-second"),
        pytest.param(DEFAULT_TOL, {"a": NAN}, {"b": 0.0}, None, False, NAN, id="nan-eq-before-psd"),
        # an info entry decides nothing, NaN or not
        pytest.param(DEFAULT_TOL, {"a": 0.0}, None, {"c": NAN}, True, 0.0, id="nan-info"),
    ],
)
def test_verdict_rule(tol, eq, psd, info, passed, residual):
    res = _verdict(tol, eq, psd, info)
    assert res.passed is passed
    assert res.residual == residual or (math.isnan(res.residual) and math.isnan(residual))
    # detail lists eq, then psd, then info entries, in the order given
    assert list(res.detail.items()) == [*eq.items(), *(psd or {}).items(), *(info or {}).items()]
    assert res.tol is tol


def test_tolerance_validation():
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            Tolerance(eq_tol=bad)
        with pytest.raises(ValueError):
            Tolerance(psd_tol=bad)
    assert DEFAULT_TOL.eq_tol == 1e-9
    assert DEFAULT_TOL.psd_tol == 1e-9
    assert DEFAULT_TOL.inv_tol == 1e-12



def _unshaped_entry_points():
    rho = make_density(np.diag([0.75, 0.25]))
    return {
        "make_density": make_density,
        "make_kraus": lambda x: make_kraus([x]),
        "make_reversing": make_reversing,
        "pi_rep": lambda x: pi_rep(x, x),
        "tilde": tilde,
        "require_hermitian": require_hermitian,
        "SuperOperator": lambda x: SuperOperator(2, x),
        "vec": vec,
        "unvec": unvec,
        "SuperOperator.apply": from_kraus([np.eye(2)]).apply,
        "ReversingOperation.apply": transpose_reversing(2).apply,
        "expectation": lambda x: expectation(rho, x),
        "as_matrix": as_matrix,
        "hermitian_eig": hermitian_eig,
        "mat_power": lambda x: mat_power(x, 0.5),
        "from_kraus": lambda x: from_kraus([x]),
        "omega_eval": lambda x: omega_eval(purify(rho), x, x),
        "theta_eval": lambda x: theta_eval(rho, x, x),
    }


@pytest.mark.parametrize("bad", [[[1, 0], [0]], "ab"], ids=["ragged", "string"])
@pytest.mark.parametrize("name", list(_unshaped_entry_points()))
def test_unshaped_input_raises_dimension_mismatch(name, bad):
    """Input numpy cannot shape or read as numbers raises the package's own
    error (linalg._numeric), not numpy's ValueError."""
    with pytest.raises(DimensionMismatch, match="expected a numeric array"):
        _unshaped_entry_points()[name](bad)
