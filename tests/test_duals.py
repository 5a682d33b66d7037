"""Dual constructions, modular family and reversing operations."""

import math

import numpy as np
import pytest

from detbal import superop
from detbal.balance import check_db2_definition, check_sqdb_definition
from detbal.duals import (
    ReversingOperation,
    bar_map,
    hs_adjoint,
    kms_dual,
    make_reversing,
    modular_power,
    rho_dual,
    theta_conjugate,
    trace_dual,
    transpose_reversing,
)
from detbal.errors import DetbalError, DimensionMismatch, NonUnitary, NotInvolutive
from detbal.generators import degenerate_db2_channel, random_density, schur_db2_channel
from detbal.linalg import DEFAULT_TOL
from detbal.states import expectation, make_density
from detbal.superop import (
    _DUAL_AXES,
    SuperOperator,
    _stored,
    from_kraus,
    is_completely_positive,
    is_hermitian_map,
    pi_rep,
    vec,
)
from test_pair_kernel import matrix_unit, matrix_units

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def rho_34():
    return make_density(np.diag([0.75, 0.25]))


def random_mat(n, rng):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_channel(n, k, seed):
    rng = np.random.default_rng(seed)
    return from_kraus([random_mat(n, rng) for _ in range(k)])


def schur_channel(n, seed):
    """Entrywise multiplication by a PSD unit-diagonal matrix (see generators)."""
    rng = np.random.default_rng(seed)
    g = random_mat(n, rng)
    h = g.conj().T @ g
    d = np.sqrt(np.real(np.diag(h)))
    h = h / np.outer(d, d)
    return SuperOperator(n, np.diag(vec(h)))


def gad_channel(p, s):
    q = 1.0 - p
    v1 = np.diag([math.sqrt(1.0 - s), math.sqrt(1.0 - p * s / q)]).astype(complex)
    v2 = np.array([[0.0, math.sqrt(s)], [math.sqrt(p * s / q), 0.0]], dtype=complex)
    return from_kraus([v1, v2]), make_density(np.diag([p, q]))


def test_hs_adjoint_pairing():
    rng = np.random.default_rng(0)
    s = random_channel(3, 2, 1)
    for _ in range(10):
        a, b = random_mat(3, rng), random_mat(3, rng)
        assert complex(np.vdot(hs_adjoint(s).apply(a), b)) == pytest.approx(
            complex(np.vdot(a, s.apply(b))), abs=1e-10
        )


def test_hs_adjoint_of_unitary_conjugation():
    rng = np.random.default_rng(2)
    q, r = np.linalg.qr(random_mat(2, rng))
    u = q * (np.diag(r) / np.abs(np.diag(r))).conj()
    s = from_kraus([u])
    assert np.allclose(hs_adjoint(s).mat, from_kraus([u.conj().T]).mat, atol=1e-14)


def test_trace_dual_pairing_is_the_defining_identity():
    rng = np.random.default_rng(3)
    for s in [random_channel(2, 2, 4), random_channel(3, 1, 5), pi_rep(SX, np.eye(2))]:
        n = s.n
        for _ in range(8):
            a, b = random_mat(n, rng), random_mat(n, rng)
            lhs = np.trace(trace_dual(s).apply(a) @ b)
            rhs = np.trace(a @ s.apply(b))
            assert lhs == pytest.approx(rhs, abs=1e-10)


def test_trace_dual_kraus_adjoint_family():
    rng = np.random.default_rng(6)
    ops = [random_mat(2, rng) for _ in range(3)]
    lhs = trace_dual(from_kraus(ops)).mat
    rhs = from_kraus([v.conj().T for v in ops]).mat
    assert np.allclose(lhs, rhs, atol=1e-13)


def test_trace_dual_equals_hs_adjoint_for_hermitian_maps():
    s = random_channel(2, 2, 7)
    assert is_hermitian_map(s).passed
    assert np.allclose(trace_dual(s).mat, hs_adjoint(s).mat, atol=1e-13)


def test_trace_dual_of_identity():
    assert np.allclose(trace_dual(from_kraus([np.eye(2)])).mat, np.eye(4), atol=0)


def test_rho_dual_defining_pairing():
    rng = np.random.default_rng(8)
    rho = rho_34()
    for s in [random_channel(2, 2, 9), schur_channel(2, 10), gad_channel(0.75, 0.2)[0]]:
        dual = rho_dual(s, rho)
        for _, _, a in matrix_units(2):
            for _, _, b in matrix_units(2):
                lhs = expectation(rho, dual.apply(a) @ b)
                rhs = expectation(rho, a @ s.apply(b))
                assert lhs == pytest.approx(rhs, abs=1e-11)


def test_rho_dual_identity_and_pinch():
    rho = rho_34()
    assert np.allclose(rho_dual(from_kraus([np.eye(2)]), rho).mat, np.eye(4), atol=1e-13)
    # A -> tr(rho A) 1 is its own state dual
    pinch = SuperOperator(2, np.outer(vec(np.eye(2)), vec(rho.matrix()).conj()))
    assert np.allclose(rho_dual(pinch, rho).mat, pinch.mat, atol=1e-13)


def test_rho_dual_of_power_is_power_of_dual():
    rho = rho_34()
    s = schur_channel(2, 11)
    lhs = rho_dual(s.power(2), rho).mat
    rhs = rho_dual(s, rho).power(2).mat
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_kms_dual_defining_pairing():
    rng = np.random.default_rng(12)
    rho = rho_34()
    half = rho.power(0.5)
    for s in [random_channel(2, 3, 13), gad_channel(0.75, 0.2)[0]]:
        dual = kms_dual(s, rho)
        for _ in range(12):
            a, b = random_mat(2, rng), random_mat(2, rng)
            lhs = np.trace(half @ dual.apply(a) @ half @ b)
            rhs = np.trace(half @ a @ half @ s.apply(b))
            assert lhs == pytest.approx(rhs, abs=1e-11)


def test_kms_dual_identity_fixed_point():
    rho = rho_34()
    assert np.allclose(kms_dual(from_kraus([np.eye(2)]), rho).mat, np.eye(4), atol=1e-13)


def test_kms_dual_is_involutive():
    rho = make_density(np.diag([0.6, 0.3, 0.1]))
    for seed in range(5):
        s = random_channel(3, 2, 100 + seed)
        back = kms_dual(kms_dual(s, rho), rho)
        assert np.linalg.norm(back.mat - s.mat) <= 1e-10 * max(1.0, np.linalg.norm(s.mat))


def test_kms_dual_preserves_complete_positivity():
    rho = make_density(np.diag([0.5, 0.3, 0.2]))
    for seed in range(5):
        s = random_channel(3, 2, 200 + seed)
        res = is_completely_positive(kms_dual(s, rho))
        assert res.passed, res.detail


def _modular_commuting_maps():
    """Schur multipliers at n = 2..8 (both sides of the stored-entry route,
    which starts at n = 7), their squares, and the degenerate-state family."""
    yield "schur-2-diag", schur_channel(2, 14), rho_34()
    for n in range(2, 9):
        rho = random_density(n, seed=n)
        s = schur_db2_channel(rho, seed=40 + n)
        yield f"schur-{n}", s, rho
        yield f"schur-{n}-squared", SuperOperator(n, s.mat @ s.mat), rho
    s, rho = degenerate_db2_channel(seed=3)
    yield "degenerate", s, rho


@pytest.mark.parametrize(
    "name,s,rho", [pytest.param(*case, id=case[0]) for case in _modular_commuting_maps()]
)
def test_kms_equals_rho_dual_iff_modular_commutation(name, s, rho):
    # the identity behind "sqdb and modular commutation imply db2": on a map
    # commuting with Delta the kms dual is the state dual, so a map passing
    # sqdb passes db2 as well
    delta = modular_power(rho, 1j)
    assert np.linalg.norm(s.mat @ delta.mat - delta.mat @ s.mat) <= 1e-12
    assert np.allclose(kms_dual(s, rho).mat, rho_dual(s, rho).mat, rtol=0, atol=1e-12)
    assert (_stored(s.mat, s.n) is not None) == (s.n >= 7)
    sqdb = check_sqdb_definition(s, rho, transpose_reversing(s.n)).passed
    # the Hermitian multipliers are sqdb; the block unitaries are not
    assert sqdb == name.startswith("schur")
    if sqdb:
        assert check_db2_definition(s, rho).passed


@pytest.mark.parametrize("dual", [rho_dual, kms_dual])
@pytest.mark.parametrize("n", [3, 8])
def test_dual_inherits_the_maps_positions(dual, n, monkeypatch):
    """A dual is handed its map's stored positions, realigned and in the
    map's order (not the dual's own C order), with the entries stored
    there, and runs no search of its own."""
    rho = random_density(n, seed=45 + n)
    s = schur_db2_channel(rho, seed=45 + n)
    s._at

    def no_search(m, k):
        raise AssertionError("a dual searched its matrix")

    monkeypatch.setattr(superop, "_stored", no_search)
    d = dual(s, rho)
    if n < 7:
        assert s._at is None and d._at is None
        return
    at = np.unravel_index(s._at, (n,) * 4)
    want = np.ravel_multi_index(tuple(at[a] for a in _DUAL_AXES), (n,) * 4)
    assert np.array_equal(d._at, want)
    assert not np.array_equal(d._at, np.sort(d._at))
    assert np.array_equal(np.sort(d._at), np.flatnonzero(d.mat))
    assert np.array_equal(d._entries, d.mat.ravel()[want])


def test_kms_differs_from_rho_dual_without_modular_commutation():
    delta = modular_power(rho_34(), 1j)
    # amplitude-damping-type channel
    g, grho = gad_channel(0.75, 0.2)
    assert np.linalg.norm(g.mat @ delta.mat - delta.mat @ g.mat) > 0.5
    assert np.linalg.norm(kms_dual(g, grho).mat - rho_dual(g, grho).mat) > 1e-3


def test_hat_map_transposes_the_dual():
    rho = rho_34()
    s = random_channel(2, 2, 15)
    hat = bar_map(rho_dual(s, rho))
    dual = rho_dual(s, rho)
    for _, _, e in matrix_units(2):
        assert np.allclose(hat.apply(e), dual.apply(e.T).T, atol=1e-12)
    assert np.allclose(hat.apply(np.eye(2)), dual.apply(np.eye(2)).T, atol=1e-12)


def test_bar_map_preserves_cp():
    s = random_channel(2, 2, 16)
    assert is_completely_positive(bar_map(s)).passed


def test_modular_matrix_values():
    rho = rho_34()
    delta = modular_power(rho, 1j)
    assert np.allclose(delta.mat, np.diag([1.0, 1.0 / 3.0, 3.0, 1.0]), atol=1e-15)
    e01 = matrix_unit(2, 0, 1)
    assert np.allclose(delta.apply(e01), 3.0 * e01, atol=1e-14)
    # the square root of Delta is the modular family at z = i/2
    assert np.allclose(modular_power(rho, 0.5j).apply(e01), math.sqrt(3.0) * e01, atol=1e-14)
    # self-adjoint and positive for the HS inner product
    assert np.allclose(delta.mat, delta.mat.conj().T, atol=0)
    assert np.min(np.real(np.diag(delta.mat))) > 0.0


@pytest.mark.parametrize("n", [2, 3, 5])
def test_modular_is_the_diagonal_of_its_ratios(n):
    # Delta = diag(rho_j / rho_k) at vec index j + n k, bit for bit
    rho = random_density(n, seed=40 + n)
    d = rho.diag
    assert np.array_equal(modular_power(rho, 1j).mat, np.diag(np.outer(1.0 / d, d).ravel()))


def test_modular_action_is_sandwich():
    rho = make_density(np.diag([0.5, 0.3, 0.2]))
    delta = modular_power(rho, 1j)
    rm, rinv = rho.matrix(), rho.power(-1)
    for _, _, e in matrix_units(3):
        assert np.allclose(delta.apply(e), rm @ e @ rinv, atol=1e-13)


def test_modular_power_conventions():
    rho = rho_34()
    delta = modular_power(rho, 1j)
    assert np.allclose(modular_power(rho, 0.0).mat, np.eye(4), atol=1e-15)
    # z = i recovers the modular map, z = -i its inverse
    assert np.allclose(modular_power(rho, 1j).mat, delta.mat, atol=1e-13)
    assert np.allclose(
        modular_power(rho, -1j).mat @ delta.mat, np.eye(4), atol=1e-13
    )
    # real z: unitary, with group law
    for z in (0.5, 1.0, -2.0):
        m = modular_power(rho, z).mat
        assert np.allclose(m.conj().T @ m, np.eye(4), atol=1e-13)
    assert np.allclose(
        modular_power(rho, 0.7).mat @ modular_power(rho, 0.3).mat,
        modular_power(rho, 1.0).mat,
        atol=1e-13,
    )


def test_modular_power_at_i_and_zero():
    rho = random_density(4, seed=44)
    delta = modular_power(rho, 1j).mat
    assert np.max(np.abs(modular_power(rho, 1j).mat - delta)) <= 1e-15 * np.max(np.abs(delta))
    assert np.array_equal(modular_power(rho, 0).mat, np.eye(16))


def test_modular_power_rejects_non_finite_entries():
    # rho_0 / rho_1 = 9 > e, so (rho_0 / rho_1)^1000 overflows at z = 1000i
    rho = make_density(np.diag([0.9, 0.1]))
    for z in (float("nan"), 1e3j):
        with pytest.raises(DetbalError, match="matrix entries must be finite"):
            modular_power(rho, z)


def test_modular_power_on_state_is_trivial():
    rho = make_density(np.diag([0.5, 0.3, 0.2]))
    for z in (0.5, 1.0, 1j):
        assert np.allclose(modular_power(rho, z).apply(rho.matrix()), rho.matrix(), atol=1e-13)


def test_hermitian_pair_closed_form_for_state_dual():
    # when s and its state dual are both Hermiticity-preserving, the dual
    # collapses to rho^(-1/2) s^dag(rho^(1/2) A rho^(1/2)) rho^(-1/2)
    rng = np.random.default_rng(17)
    rho = rho_34()
    half, halfinv = rho.power(0.5), rho.power(-0.5)
    for seed in (18, 19):
        s = schur_channel(2, seed)
        dual = rho_dual(s, rho)
        assert is_hermitian_map(s).passed and is_hermitian_map(dual).passed
        adj = hs_adjoint(s)
        for _ in range(8):
            a = random_mat(2, rng)
            direct = halfinv @ adj.apply(half @ a @ half) @ halfinv
            assert np.allclose(dual.apply(a), direct, atol=1e-11)


def test_hermitian_pair_implies_modular_commutation():
    rho = rho_34()
    delta = modular_power(rho, 1j)
    for seed in (20, 21, 22):
        s = schur_channel(2, seed)
        dual = rho_dual(s, rho)
        assert is_hermitian_map(s).passed and is_hermitian_map(dual).passed
        assert np.linalg.norm(s.mat @ delta.mat - delta.mat @ s.mat) <= 1e-11


def test_commutation_extends_to_the_whole_modular_group():
    # s Delta = Delta s lifts to s(rho^-iz A rho^iz) = rho^-iz s(A) rho^iz
    rho = rho_34()
    delta = modular_power(rho, 1j)
    s = schur_channel(2, 23)
    assert np.linalg.norm(s.mat @ delta.mat - delta.mat @ s.mat) <= 1e-12
    for z in (-1.0, -0.5, 0.5, 1.0):
        mz = modular_power(rho, z)
        lhs = s.compose(mz).mat
        rhs = mz.compose(s).mat
        assert np.linalg.norm(lhs - rhs) <= 1e-10


def test_duals_are_real_linear_in_the_map():
    rho = rho_34()
    a = random_channel(2, 1, 24)
    b = random_channel(2, 2, 25)
    comb = SuperOperator(2, 0.3 * a.mat + 0.7 * b.mat)
    for ctor in (trace_dual, lambda s: rho_dual(s, rho), lambda s: kms_dual(s, rho)):
        lhs = ctor(comb).mat
        rhs = 0.3 * ctor(a).mat + 0.7 * ctor(b).mat
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_make_reversing_transpose_and_pauli():
    th = transpose_reversing(2)
    assert np.allclose(th.apply(SX), SX.T, atol=0)
    made = make_reversing(np.eye(2))
    assert np.allclose(made.apply(np.array([[1, 2], [3, 4.0]])), [[1, 3], [2, 4]], atol=0)
    th_x = make_reversing(SX)
    e01 = matrix_unit(2, 0, 1)
    # sigma_x E10 sigma_x = E01
    assert np.allclose(th_x.apply(e01), e01, atol=0)


@pytest.mark.parametrize("shape", [(2,), (3, 3), (1, 4), (2, 2, 1)])
def test_reversing_apply_rejects_another_shape(shape):
    # a length-2 vector used to come back as a vector, [-1, -2] for the spin flip
    th = make_reversing(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    with pytest.raises(DimensionMismatch):
        th.apply(np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape))


def test_make_reversing_accepts_diagonal_phases():
    # u conj(u) = 1 exactly for any diagonal unitary, so these are involutive
    th = make_reversing(np.diag([1.0, 1j]))
    for _, _, e in matrix_units(2):
        assert np.allclose(th.apply(th.apply(e)), e, atol=1e-14)


def test_make_reversing_accepts_spin_reversal():
    # u conj(u) = -1: the time reversal of a spin-1/2, involutive up to the phase
    u = np.array([[0.0, 1.0], [-1.0, 0.0]])
    th = make_reversing(u)
    for _, _, e in matrix_units(2):
        assert np.allclose(th.apply(th.apply(e)), e, atol=0)


def reversing_oracle(u):
    """Loop residuals of anti-multiplicativity, *-compatibility and involution."""
    def th(a):
        return u @ a.T @ u.conj().T

    units = [e for _, _, e in matrix_units(u.shape[0])]
    star = max(float(np.linalg.norm(th(e.conj().T) - th(e).conj().T)) for e in units)
    anti = max(
        float(np.linalg.norm(th(e1 @ e2) - th(e2) @ th(e1))) for e1 in units for e2 in units
    )
    invol = max(float(np.linalg.norm(th(th(e)) - e)) for e in units)
    return anti, star, invol


def haar(n, rng):
    q, r = np.linalg.qr(random_mat(n, rng))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_make_reversing_agrees_with_loop_oracle(n):
    rng = np.random.default_rng(90 + n)
    v = haar(n, rng)
    diag = np.diag(np.exp(1j * rng.uniform(0.0, 6.0, n)))
    candidates = [(v @ v.T, True), (diag, True), (haar(n, rng), False)]
    if n % 2 == 0:
        j = np.kron(np.eye(n // 2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
        candidates.append((v @ j @ v.T, True))  # antisymmetric: u conj(u) = -1
    for u, involutive in candidates:
        anti, star, invol = reversing_oracle(u)
        assert max(anti, star) <= 1e-13
        assert (invol <= DEFAULT_TOL.eq_tol) == involutive
        if involutive:
            make_reversing(u)
        else:
            with pytest.raises(NotInvolutive):
                make_reversing(u)


def test_make_reversing_rejects_generic_rotation():
    c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    with pytest.raises(NotInvolutive):
        make_reversing(np.array([[c, s], [-s, c]]))


def test_make_reversing_rejects_non_unitary():
    with pytest.raises(NonUnitary):
        make_reversing(np.diag([1.0, 0.5]))


@pytest.mark.parametrize(
    "u,error,message",
    [
        ([[2.0, 0.0], [0.0, 1.0]], NonUnitary, "u is not unitary (residual 3.000e+00)"),
        (
            [[math.cos(0.3), math.sin(0.3)], [-math.sin(0.3), math.cos(0.3)]],
            NotInvolutive,
            f"u conj(u) differs from a phase times the identity by"
            f" {math.sqrt(2.0) * math.sin(0.6):.3e}; the operation does not square to the identity",
        ),
    ],
    ids=["not-unitary", "not-involutive"],
)
def test_a_reversing_operation_built_directly_checks_u(u, error, message):
    """ReversingOperation(u) refuses what make_reversing refuses, with its
    error types and messages, from a list or an array: no check of the
    balance ever runs against a Theta that is no involutive
    *-anti-automorphism."""
    for given in (u, np.array(u)):
        for build in (ReversingOperation, make_reversing):
            with pytest.raises(error) as err:
                build(given)
            assert str(err.value) == message


def test_reversing_superop_matches_apply():
    th = make_reversing(np.diag([1.0, 1j]))
    sop = th.superop()
    rng = np.random.default_rng(26)
    for _ in range(5):
        x = random_mat(2, rng)
        assert np.allclose(sop.apply(x), th.apply(x), atol=1e-14)


def test_theta_conjugate_transpose_fixed_point():
    s = random_channel(2, 2, 27)
    th = transpose_reversing(2)
    assert np.allclose(theta_conjugate(s, th).mat, s.mat, atol=1e-14)


def test_theta_conjugate_is_involutive():
    s = random_channel(2, 2, 28)
    th = make_reversing(SX)
    back = theta_conjugate(theta_conjugate(s, th), th)
    assert np.allclose(back.mat, s.mat, atol=1e-12)


def test_theta_conjugate_of_identity():
    th = make_reversing(np.diag([1.0, 1j, -1.0]))
    assert np.allclose(theta_conjugate(from_kraus([np.eye(3)]), th).mat, np.eye(9), atol=1e-13)


def reversings():
    """The plain transpose (also from a real identity), the spin reversal
    and a rotated u = v v^T, each with a channel of its dimension; then
    operations built directly from an integer identity, a real spin
    reversal and an integer reversal permutation."""
    rng = np.random.default_rng(95)
    v = haar(3, rng)
    yield transpose_reversing(3), random_channel(3, 2, 95)
    yield make_reversing(np.eye(2)), random_channel(2, 2, 96)
    yield make_reversing(np.array([[0.0, 1.0], [-1.0, 0.0]])), random_channel(2, 2, 97)
    yield make_reversing(v @ v.T), random_channel(3, 2, 98)
    yield ReversingOperation(u=np.eye(3, dtype=int)), random_channel(3, 2, 99)
    yield ReversingOperation(u=np.array([[0.0, 1.0], [-1.0, 0.0]])), random_channel(2, 2, 100)
    yield ReversingOperation(u=np.eye(3, dtype=int)[::-1]), random_channel(3, 2, 101)


def test_kept_transpose_test_is_the_formula_bit_for_bit():
    """A reversing operation's kept transpose test is formed when it is
    built, and is np.array_equal(u, 1); theta_conjugate returns s itself
    for the transpose, else the sandwich conj(W) M W, bit for bit."""
    seen = []
    for th, s in reversings():
        assert "_is_transpose" in vars(th)
        u, n = th.u, th.n
        plain = bool(np.array_equal(u, np.eye(n)))
        assert th._is_transpose is plain
        got = theta_conjugate(s, th)
        if plain:
            assert got is s
        else:
            want = superop._kron_sandwich(s.mat, n, u.conj(), u, u, u.conj())
            assert got.mat.tobytes() == want.tobytes()
        seen.append(plain)
    assert seen == [True, True, False, False, True, False, False]


def test_reversing_u_is_a_read_only_copy():
    """th.u refuses writes, and an operation built from a caller's array
    does not change when the caller writes to it."""
    for th, _ in reversings():
        with pytest.raises(ValueError):
            th.u[0, 0] = 2.0
    u = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for th in (ReversingOperation(u=u), make_reversing(u)):
        u[0, 1] = 5.0
        assert np.array_equal(th.u, [[0.0, 1.0], [-1.0, 0.0]])
        u[0, 1] = 1.0
    assert u.flags.writeable


@pytest.mark.parametrize("n", [0, -1, 2.5, 2.0, True, "2", None])
def test_transpose_reversing_wants_a_positive_integer(n):
    """As for a SuperOperator, a bool, a non-integer or n < 1 raises
    DimensionMismatch; numpy's integers are integers."""
    with pytest.raises(DimensionMismatch, match="transpose dimension must be an integer >= 1"):
        transpose_reversing(n)


def test_transpose_reversing_takes_numpy_integers():
    th = transpose_reversing(np.int64(3))
    assert th.n == 3 and th._is_transpose
    assert not th.u.flags.writeable
