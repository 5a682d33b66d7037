"""Superoperator representation, Choi matrices and map predicates."""

import math

import numpy as np
import pytest

from detbal.errors import DimensionMismatch
from detbal.generators import degenerate_db2_channel, random_density, schur_db2_channel
from detbal.linalg import DEFAULT_TOL, hermitian_eig, matrix_unit, matrix_units
from detbal.superop import (
    KrausChannel,
    SuperOperator,
    _hermitian_spectrum,
    choi,
    from_kraus,
    identity_superop,
    is_completely_positive,
    is_hermitian_map,
    is_positive_map,
    is_unital,
    make_kraus,
    pi_rep,
    transpose_superop,
    unvec,
    vec,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def random_mat(n, rng):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def haar_unitary(n, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(random_mat(n, rng))
    return q * (np.diag(r) / np.abs(np.diag(r))).conj()


def test_vec_is_column_stacking():
    m = np.array([[1.0, 3.0], [2.0, 4.0]])
    assert np.array_equal(vec(m), np.array([1.0, 2.0, 3.0, 4.0], dtype=complex))
    assert np.array_equal(unvec(vec(m)), m.astype(complex))


def test_pi_rep_matrix_is_kron_b_a():
    rng = np.random.default_rng(0)
    a, b = random_mat(2, rng), random_mat(2, rng)
    s = pi_rep(a, b)
    assert np.array_equal(s.mat, np.kron(b, a))


def test_pi_rep_action():
    rng = np.random.default_rng(1)
    eye = np.eye(2, dtype=complex)
    for _ in range(10):
        a, b, x = random_mat(2, rng), random_mat(2, rng), random_mat(2, rng)
        assert np.allclose(pi_rep(a, b).apply(x), a @ x @ b.T, atol=1e-13)
        assert np.allclose(pi_rep(a, eye).apply(x), a @ x, atol=1e-13)
        assert np.allclose(pi_rep(eye, b).apply(x), x @ b.T, atol=1e-13)


def test_pi_rep_factorizes_on_rank_one():
    rng = np.random.default_rng(2)
    a, b = random_mat(3, rng), random_mat(3, rng)
    psi, phi = rng.standard_normal(3) + 1j * rng.standard_normal(3), rng.standard_normal(3)
    x = np.outer(psi, phi)
    assert np.allclose(pi_rep(a, b).apply(x), np.outer(a @ psi, b @ phi), atol=1e-12)


def test_pi_rep_identity():
    assert np.allclose(pi_rep(np.eye(2), np.eye(2)).mat, np.eye(4))


def test_from_kraus_identity_and_unitary():
    assert np.allclose(from_kraus([np.eye(2)]).mat, np.eye(4))
    s = from_kraus([SX])
    for _, _, e in matrix_units(2):
        assert np.allclose(s.apply(e), SX @ e @ SX, atol=1e-14)


def test_from_kraus_matches_direct_sum():
    rng = np.random.default_rng(3)
    for n, k in [(2, 3), (3, 2)]:
        ops = [random_mat(n, rng) for _ in range(k)]
        s = from_kraus(ops)
        for _, _, e in matrix_units(n):
            direct = sum(v @ e @ v.conj().T for v in ops)
            assert np.allclose(s.apply(e), direct, atol=1e-12)


def test_kraus_channel_validation():
    with pytest.raises(DimensionMismatch):
        make_kraus([])
    with pytest.raises(DimensionMismatch):
        make_kraus([np.eye(2), np.eye(3)])
    with pytest.raises(DimensionMismatch):
        KrausChannel((0.5 * np.eye(2),), unital=True)
    assert KrausChannel((np.eye(2),), unital=True).n == 2


def test_apply_shape_guard():
    with pytest.raises(DimensionMismatch):
        identity_superop(2).apply(np.eye(3))


def test_compose_and_power():
    rng = np.random.default_rng(4)
    a = from_kraus([random_mat(2, rng)])
    b = from_kraus([random_mat(2, rng)])
    x = random_mat(2, rng)
    assert np.allclose(a.compose(b).apply(x), a.apply(b.apply(x)), atol=1e-12)
    assert np.array_equal(a.power(0).mat, np.eye(4, dtype=complex))
    assert np.allclose(a.power(2).mat, a.compose(a).mat, atol=1e-13)
    assert np.allclose(a.power(3).mat, a.compose(a).compose(a).mat, atol=1e-12)
    with pytest.raises(ValueError):
        a.power(-1)
    with pytest.raises(DimensionMismatch):
        a.compose(identity_superop(3))


def test_transpose_superop_is_involutive_swap():
    t = transpose_superop(2)
    rng = np.random.default_rng(5)
    x = random_mat(2, rng)
    assert np.allclose(t.apply(x), x.T, atol=0)
    assert np.allclose(t.compose(t).mat, np.eye(4), atol=0)


def test_choi_identity_eigenvalues():
    c = choi(identity_superop(2))
    lam = hermitian_eig(c.mat).eigenvalues
    assert np.allclose(lam, [2.0, 0.0, 0.0, 0.0], atol=1e-14)


def test_choi_transpose_is_swap():
    c = choi(transpose_superop(2)).mat
    swap = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            swap[i * 2 + j, j * 2 + i] = 1.0
    assert np.allclose(c, swap, atol=0)
    lam = hermitian_eig(c).eigenvalues
    assert np.allclose(lam, [1.0, 1.0, 1.0, -1.0], atol=1e-14)


def test_cp_kraus_channels_pass():
    rng = np.random.default_rng(6)
    for n, k in [(2, 1), (2, 3), (3, 2), (4, 2)]:
        ops = [random_mat(n, rng) for _ in range(k)]
        res = is_completely_positive(from_kraus(ops))
        assert res.passed
        assert res.detail["choi_min_eigenvalue"] >= -1e-9


def test_cp_transpose_fails_with_eigenvalue_minus_one():
    res = is_completely_positive(transpose_superop(2))
    assert not res.passed
    assert res.detail["choi_min_eigenvalue"] == pytest.approx(-1.0, abs=1e-10)


def test_cp_iff_adjoint_cp():
    rng = np.random.default_rng(7)
    pool = [
        from_kraus([random_mat(2, rng), random_mat(2, rng)]),
        transpose_superop(2),
        pi_rep(np.eye(2), SX),
    ]
    for s in pool:
        adj = SuperOperator(s.n, s.mat.conj().T)
        assert is_completely_positive(s).passed == is_completely_positive(adj).passed


def test_cp_scale_relative_tolerance():
    # a big CP channel with roundoff-level negativity stays CP
    rng = np.random.default_rng(8)
    s = from_kraus([1e4 * random_mat(2, rng)])
    assert is_completely_positive(s).passed


def random_hermitian(m, rng):
    h = random_mat(m, rng)
    return h + h.conj().T


def isolate(h, rows, diag):
    """Zero the off-diagonal entries of the given rows and columns of h and
    put diag on their diagonal."""
    h = h.copy()
    h[rows, :] = 0.0
    h[:, rows] = 0.0
    h[rows, rows] = diag
    return h


def spectrum_cases():
    rng = np.random.default_rng(12)
    full = random_hermitian(9, rng)
    return {
        "zero-rows": isolate(full, [1, 4, 8], 0.0),
        "isolated-diagonal": isolate(full, [0, 3, 5, 6], [2.5, -0.75, 0.0, 1e-3]),
        "none-isolated": full,
        "all-isolated": np.diag(rng.standard_normal(9)).astype(complex),
        "one-by-one": np.array([[-0.25]], dtype=complex),
        "one-by-one-zero": np.zeros((1, 1), dtype=complex),
    }


@pytest.mark.parametrize("name", list(spectrum_cases()))
def test_hermitian_spectrum_matches_full_solve(name):
    h = spectrum_cases()[name]
    lam = _hermitian_spectrum(h)
    full = np.linalg.eigvalsh(h)
    assert lam.shape == full.shape
    assert np.max(np.abs(np.sort(lam) - full)) <= 1e-13 * max(1.0, np.max(np.abs(full)))
    if name == "none-isolated":
        assert np.array_equal(lam, full)  # one full solve, nothing split off


def test_hermitian_spectrum_keeps_isolated_entries_exactly():
    h = spectrum_cases()["isolated-diagonal"]
    lam = _hermitian_spectrum(h)
    for x in (2.5, -0.75, 0.0, 1e-3):
        assert x in lam


def test_cp_rejects_an_isolated_negative_choi_eigenvalue():
    """Choi matrix of the identity map (coupled rows j n + j) plus -0.1 on
    the diagonal of row 1 = 0 n + 1, which couples to nothing: that entry
    is the only negative eigenvalue and must decide the verdict."""
    n = 3
    c = choi(identity_superop(n)).mat.copy()
    c[1, 1] = -0.1
    # choi's index realignment is its own inverse
    s = SuperOperator(n, c.reshape(n, n, n, n).transpose(3, 1, 2, 0).reshape(n * n, n * n))
    assert np.array_equal(choi(s).mat, c)
    res = is_completely_positive(s)
    assert not res.passed
    assert res.detail["choi_min_eigenvalue"] == -0.1
    assert res.detail["choi_max_eigenvalue"] == pytest.approx(n, rel=1e-14)


def choi_spectrum_pool(n):
    rho = random_density(n, seed=90 + n)
    spectrum = {2: (0.5, 0.5), 3: (0.5, 0.25, 0.25), 4: (0.4, 0.2, 0.2, 0.2)}[n]
    tau, _ = degenerate_db2_channel(95 + n, spectrum=spectrum)
    rng = np.random.default_rng(100 + n)
    return [
        schur_db2_channel(rho, seed=90 + n),
        tau,
        from_kraus([random_mat(n, rng) for _ in range(3)]),
        transpose_superop(n),
        identity_superop(n),
    ]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cp_spectrum_matches_full_choi_solve(n):
    for s in choi_spectrum_pool(n):
        c = choi(s).mat
        full = np.linalg.eigvalsh(0.5 * (c + c.conj().T))
        res = is_completely_positive(s)
        scale = max(1.0, np.max(np.abs(full)))
        assert abs(res.detail["choi_min_eigenvalue"] - full[0]) <= 1e-13 * scale
        assert abs(res.detail["choi_max_eigenvalue"] - full[-1]) <= 1e-13 * scale


def test_positive_map_probe():
    assert is_positive_map(identity_superop(3)).passed
    # the transpose map is positive but not completely positive
    assert is_positive_map(transpose_superop(2)).passed
    assert not is_completely_positive(transpose_superop(2)).passed
    # a map with a non-PSD output on a projector fails
    bad = pi_rep(np.diag([1.0, -1.0]), np.eye(2))
    assert not is_positive_map(bad).passed


@pytest.mark.parametrize("n", [2, 3, 4])
def test_identity_negativities_are_positive_zero(n):
    # the identity's Choi and output spectra touch zero; a -0.0 negativity
    # would print as -0.0 in the JSON report
    s = identity_superop(n)
    assert math.copysign(1.0, is_positive_map(s).detail["output_negativity"]) == 1.0
    assert math.copysign(1.0, is_completely_positive(s).detail["choi_negativity"]) == 1.0


def test_is_unital():
    u = haar_unitary(2, 9)
    assert is_unital(from_kraus([u])).passed
    # A -> tr(rho A) 1 is unital
    rho = np.diag([0.75, 0.25]).astype(complex)
    pinch = SuperOperator(2, np.outer(vec(np.eye(2)), vec(rho).conj()))
    assert is_unital(pinch).passed
    scaled = from_kraus([0.9 * u])
    res = is_unital(scaled)
    assert not res.passed
    assert res.residual == pytest.approx(0.19 * np.sqrt(2.0), abs=1e-12)


def test_is_hermitian_map():
    rng = np.random.default_rng(10)
    assert is_hermitian_map(from_kraus([random_mat(2, rng) for _ in range(2)])).passed
    assert not is_hermitian_map(SuperOperator(2, 1j * np.eye(4, dtype=complex))).passed
    assert not is_hermitian_map(pi_rep(np.eye(2), matrix_unit(2, 0, 1))).passed


def test_hermitian_map_iff_conjugated_version():
    # s Hermitian-preserving iff X -> s(X^T)^T is
    rng = np.random.default_rng(11)
    t = transpose_superop(2)
    for s in [from_kraus([random_mat(2, rng)]), pi_rep(np.eye(2), matrix_unit(2, 0, 1))]:
        bar = t.compose(s).compose(t)
        assert is_hermitian_map(s).passed == is_hermitian_map(bar).passed


# Loop oracles: the defining formulas that choi, is_hermitian_map and
# is_positive_map implement in closed matrix form, evaluated unit by unit.


def choi_oracle(s):
    n = s.n
    c = np.zeros((n * n, n * n), dtype=complex)
    for _, _, e in matrix_units(n):
        c += np.kron(e, s.apply(e))
    return c


def hermitian_map_oracle(s):
    residual = 0.0
    for _, _, e in matrix_units(s.n):
        residual = max(residual, float(np.linalg.norm(s.apply(e.conj().T) - s.apply(e).conj().T)))
    return residual


def positive_map_oracle(s):
    n = s.n
    eye = np.eye(n, dtype=complex)
    vecs = [eye[:, j] for j in range(n)]
    for j in range(n):
        for k in range(j + 1, n):
            vecs.append((eye[:, j] + eye[:, k]) / np.sqrt(2.0))
            vecs.append((eye[:, j] + 1j * eye[:, k]) / np.sqrt(2.0))
    worst_herm = worst_neg = 0.0
    for v in vecs:
        out = s.apply(np.outer(v, v.conj()))
        herm = np.linalg.norm(out - out.conj().T) / max(1.0, np.linalg.norm(out))
        worst_herm = max(worst_herm, float(herm))
        lam = np.linalg.eigvalsh(0.5 * (out + out.conj().T))
        worst_neg = max(worst_neg, max(0.0, -float(lam[0])) / max(1.0, float(lam[-1])))
    return worst_herm, worst_neg


def oracle_pool(n, seed):
    """Maps on M_n with and without Hermiticity preservation or positivity."""
    rng = np.random.default_rng(seed)
    return [
        SuperOperator(n, random_mat(n * n, rng)),
        from_kraus([random_mat(n, rng) for _ in range(2)]),
        pi_rep(random_mat(n, rng), random_mat(n, rng)),
        transpose_superop(n),
        identity_superop(n),
    ]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_choi_matches_loop_oracle_exactly(n):
    for s in oracle_pool(n, 40 + n):
        assert np.array_equal(choi(s).mat, choi_oracle(s))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_is_hermitian_map_residual_matches_loop_oracle(n):
    for s in oracle_pool(n, 50 + n):
        res = is_hermitian_map(s)
        want = hermitian_map_oracle(s)
        assert res.residual == pytest.approx(want, rel=1e-13, abs=1e-15)
        assert res.passed == (want <= DEFAULT_TOL.eq_tol)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_is_positive_map_matches_loop_oracle(n):
    for s in oracle_pool(n, 60 + n):
        res = is_positive_map(s)
        herm, neg = positive_map_oracle(s)
        assert res.detail["output_hermiticity"] == pytest.approx(herm, rel=1e-12, abs=1e-15)
        assert res.detail["output_negativity"] == pytest.approx(neg, rel=1e-12, abs=1e-15)
