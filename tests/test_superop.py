"""Superoperator representation, Choi matrices and map predicates."""

import math

import numpy as np
import pytest

from detbal import superop
from detbal.balance import MODE_CP, MODE_POSITIVITY, require_dynamics
from detbal.cli import CONVENTION, _parse_channel, _to_eigenbasis
from detbal.duals import (
    ReversingOperation,
    bar_map,
    hs_adjoint,
    kms_dual,
    make_reversing,
    modular_power,
    rho_dual,
    theta_conjugate,
    tilde,
    trace_dual,
    transpose_reversing,
)
from detbal.errors import DetbalError, DimensionMismatch, InputNotDynamics
from detbal.generators import (
    degenerate_db2_channel,
    gad_sqdb_channel,
    random_density,
    random_unital_channel,
    random_unitary,
    schur_db2_channel,
    symmetrized_sqdb_channel,
)
from detbal.linalg import (
    DEFAULT_TOL,
    Tolerance,
    _negativity,
    _read_only,
    hermitian_eig,
)
from detbal.states import make_density
from detbal.superop import (
    KrausChannel,
    SuperOperator,
    choi,
    from_kraus,
    is_completely_positive,
    is_hermitian_map,
    is_positive_map,
    is_unital,
    make_kraus,
    pi_rep,
    unvec,
    vec,
)
from test_pair_kernel import matrix_unit, matrix_units

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
        KrausChannel((np.ones((2, 3)),))
    with pytest.raises(DimensionMismatch, match="share one square shape"):
        KrausChannel((np.eye(2), [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert KrausChannel((np.eye(2),)).n == 2


def test_a_kraus_channel_coerces_its_operators_as_make_kraus_does():
    """KrausChannel reads each operator as make_kraus reads it: a nested
    list is coerced to a complex array, as every other constructor coerces
    its input."""
    k = KrausChannel(([[1, 0], [0, 1]],))
    assert k.n == 2 and k.ops[0].dtype == complex
    assert np.array_equal(from_kraus(k).mat, np.eye(4))
    assert np.array_equal(make_kraus([[[1, 0], [0, 1]]]).ops[0], k.ops[0])


def test_a_kraus_channel_refuses_a_non_finite_operator():
    with pytest.raises(DetbalError, match="finite"):
        KrausChannel((np.array([[np.nan, 0], [0, 1]], dtype=complex),))


def test_a_kraus_channel_keeps_read_only_copies():
    """A write into the caller's array after the channel is built does not
    reach the channel, and the operators it holds refuse writes."""
    a = np.eye(2, dtype=complex)
    k = KrausChannel((a,))
    a[0, 0] = 5
    assert from_kraus(k).mat[0, 0] == 1
    assert isinstance(k.ops, tuple) and a.flags.writeable
    with pytest.raises(ValueError):
        k.ops[0][0, 0] = 5


def test_apply_shape_guard():
    with pytest.raises(DimensionMismatch):
        from_kraus([np.eye(2)]).apply(np.eye(3))


@pytest.mark.parametrize(
    "n,mat",
    [(3, np.eye(4)), (2, np.ones((4, 3))), (2, np.ones(16)), (2, np.ones((2, 2, 2, 2))),
     (0, np.ones((0, 0))), (2.0, np.eye(4)), (np.float64(2.0), np.eye(4)), ("2", np.eye(4)),
     (True, np.eye(1)), (np.True_, np.eye(1))],
    ids=["n3-4x4", "4x3", "1d", "4d", "n0", "float-n", "numpy-float-n", "str-n", "bool-n",
         "numpy-bool-n"],
)
def test_superoperator_rejects_a_matrix_of_another_shape(n, mat):
    # a float n = 2.0 would admit the 4 x 4 matrix, since 2.0 * 2.0 == 4
    with pytest.raises(DimensionMismatch):
        SuperOperator(n, mat)


def test_superoperator_matrix_is_read_only():
    """A write into s.mat would leave the map's stored positions stale; it
    raises for a kept input and for a converted one, and the input itself
    stays writable."""
    rng = np.random.default_rng(14)
    kept = random_mat(9, rng)
    for given in (kept, kept.real, np.asfortranarray(kept)):
        s = SuperOperator(3, given)
        with pytest.raises(ValueError):
            s.mat[0, 0] = 1.0
        with pytest.raises(ValueError):
            s.mat += 1.0
    kept[0, 0] = 2.0
    assert SuperOperator(3, kept).mat[0, 0] == 2.0


# each input made of the writable identity a; the map keeps none of them
GIVEN = {
    "writable": lambda a: a,
    "read-only": lambda a: _read_only(a.copy()),
    "read-only-view": lambda a: _read_only(a.view()),
    "frozen-view": lambda a: _read_only(_read_only(a.copy()).view()),
    "bytes": lambda a: np.frombuffer(a.tobytes(), dtype=complex).reshape(4, 4),
    "list": lambda a: a.tolist(),
    "real": lambda a: a.real,
    "fortran": lambda a: np.asfortranarray(a),
}


@pytest.mark.parametrize("given", list(GIVEN))
def test_a_write_into_the_input_leaves_the_map_alone(given):
    """A map keeps one copy of its input, whatever numpy held it in (a
    list, a real or a Fortran-ordered matrix, a caller's array, a read-only
    one that owns its memory, a read-only view of a writable or of a frozen
    array, a bytes-backed one), so its kept values never go stale.  The caller's array stays
    writable.  A write into the identity channel's matrix after its CP and
    unitality tests changes neither the map nor their verdicts, while a
    fresh map on the written matrix fails."""
    a = np.eye(4, dtype=complex)
    x = GIVEN[given](a)
    s = SuperOperator(2, x)
    assert s.mat is not x
    assert s.mat.base is None and not s.mat.flags.writeable
    assert s.mat.dtype == np.complex128 and s.mat.flags.c_contiguous
    assert not np.shares_memory(s.mat, a) and not np.shares_memory(s.mat, x)
    assert is_completely_positive(s).passed and is_unital(s).passed
    assert a.flags.writeable
    a[0, 0] = -5
    assert np.array_equal(s.mat, np.eye(4))
    assert is_completely_positive(s).passed and is_unital(s).passed
    assert is_completely_positive(SuperOperator(2, s.mat)).passed
    assert not is_completely_positive(SuperOperator(2, a)).passed


def test_a_frozen_input_written_after_its_owner_thaws_it_leaves_the_map_alone():
    """numpy lets the owner of a read-only array switch writes back on.  A
    map built from it holds its own copy: a write after the map's unitality
    test changes neither the map nor the verdict it keeps, while a fresh
    map on the written matrix fails."""
    m = np.eye(4, dtype=complex)
    m.flags.writeable = False
    s = SuperOperator(2, m)
    assert is_unital(s).passed
    m.flags.writeable = True
    m[0, 0] = 5
    assert s.mat[0, 0] == 1 and np.array_equal(s.mat, np.eye(4))
    assert is_unital(s).passed
    assert not is_unital(SuperOperator(2, m)).passed


def _builders(tau, rho):
    """Every map a builder hands over through superop._adopt, from the
    channel tau and the state rho on M_n; a reversing operation built from
    an integer u as well as one from make_reversing."""
    n = tau.n
    u = random_unitary(n, 71)
    th = make_reversing(np.diag(np.exp(1j * np.arange(n))))
    spectrum = np.repeat(np.linspace(2.0, 1.0, (n + 1) // 2), 2)[:n]
    v = random_unitary(n, 72)
    rotated = make_density(v @ np.diag(rho.diag) @ v.conj().T)
    data = [[[float(z.real), float(z.imag)] for z in row] for row in tau.mat]
    parsed = _parse_channel({"kind": "matrix", "convention": CONVENTION, "data": data}, n)
    return {
        "from_kraus": from_kraus([u]),
        "compose": tau.compose(tau),
        "power-0": tau.power(0),
        "power-1": tau.power(1),
        "power-2": tau.power(2),
        "pi_rep": pi_rep(u, u.conj()),
        "tilde": tilde(u),
        "hs_adjoint": hs_adjoint(tau),
        "bar_map": bar_map(tau),
        "trace_dual": trace_dual(tau),
        "rho_dual": rho_dual(tau, rho),
        "kms_dual": kms_dual(tau, rho),
        "theta_conjugate": theta_conjugate(tau, th),
        "reversing": th.superop(),
        "reversing-int": ReversingOperation(u=np.eye(n, dtype=int)[::-1]).superop(),
        "modular_power": modular_power(rho, 0.3 + 0.5j),
        "degenerate_db2_channel": degenerate_db2_channel(3, spectrum / spectrum.sum())[0],
        "symmetrized_sqdb_channel": symmetrized_sqdb_channel(0.75, 0.2)[0],
        "cli-parsed": parsed,
        "cli-rotated": _to_eigenbasis(rotated, parsed, transpose_reversing(n))[0],
    }


BUILDERS = [
    "from_kraus", "compose", "power-0", "power-1", "power-2", "pi_rep", "tilde", "hs_adjoint",
    "bar_map", "trace_dual", "rho_dual", "kms_dual", "theta_conjugate", "reversing",
    "reversing-int", "modular_power", "degenerate_db2_channel", "symmetrized_sqdb_channel", "cli-parsed",
    "cli-rotated",
]


@pytest.mark.parametrize("name", BUILDERS)
@pytest.mark.parametrize("route", ["dense", "stored"])
def test_every_builder_hands_over_a_frozen_c_ordered_complex_matrix(route, name):
    """superop._adopt checks nothing, so each builder's matrix is checked
    here: C-ordered complex of shape (n^2, n^2) and read-only down its base
    chain, on the dense route (random-unital, n = 3) and on the stored
    route (schur-db2, n = 8).  A state dual is handed its positions and
    entries (_at, _entries); they are where its matrix stores entries, and
    the entries stored there, or None on the dense route."""
    n = 3 if route == "dense" else 8
    rho = random_density(n, seed=70)
    tau = random_unital_channel(n, 3, 70) if route == "dense" else schur_db2_channel(rho, 70)
    assert (tau._at is None) == (route == "dense")
    built = _builders(tau, rho)
    assert list(built) == BUILDERS
    s = built[name]
    m = s.mat
    assert m.shape == (s.n**2, s.n**2) and m.dtype == np.complex128 and m.flags.c_contiguous
    a = m
    while isinstance(a, np.ndarray):
        assert not a.flags.writeable
        a = a.base
    if name in ("rho_dual", "kms_dual"):
        assert "_at" in vars(s)  # handed over, not searched
        at = superop._stored(m, n)
        if route == "dense":
            assert s._at is None and at is None
        else:
            assert np.array_equal(np.sort(s._at), at)
            assert np.array_equal(s._entries, m.take(s._at))
            assert not s._entries.flags.writeable


@pytest.mark.parametrize("shape", [(), (3,), (2, 2, 2), (1, 4, 1)])
def test_vec_wants_a_matrix(shape):
    # numpy would flatten any shape: length 3 and 8 for the middle two
    with pytest.raises(DimensionMismatch, match="vec wants a matrix"):
        vec(np.ones(shape))


def test_unvec_takes_n_from_the_size():
    m = np.arange(4.0).reshape(2, 2)
    assert np.array_equal(unvec(m), m.astype(complex))
    with pytest.raises(DimensionMismatch, match="length 6 into 2 x 2"):
        unvec(np.ones((2, 3)))


def test_superoperator_holds_one_c_ordered_complex_matrix():
    """A real or Fortran-ordered input gives the same map, stored C-ordered
    and complex; a C-ordered complex input is copied, writable or
    read-only."""
    rng = np.random.default_rng(13)
    real = rng.standard_normal((9, 9))
    want = SuperOperator(3, real.astype(complex))
    x = random_mat(3, rng)
    for given in (real, np.asfortranarray(real), np.asfortranarray(real.astype(complex))):
        s = SuperOperator(3, given)
        assert s.mat.dtype == np.complex128 and s.mat.flags.c_contiguous
        assert np.array_equal(s.mat, want.mat)
        assert np.array_equal(s.apply(x), want.apply(x))
    m = random_mat(9, rng)
    s = SuperOperator(3, m)
    assert not np.shares_memory(s.mat, m) and not s.mat.flags.writeable
    assert np.array_equal(s.mat, m) and m.flags.writeable
    m.flags.writeable = False
    assert not np.shares_memory(SuperOperator(3, m).mat, m)
    # read-only memory of bytes is copied, as any other buffer-backed array
    frozen = np.frombuffer(m.tobytes(), dtype=complex).reshape(9, 9)
    assert not np.shares_memory(SuperOperator(3, frozen).mat, frozen)
    # a sparse real or Fortran-ordered input takes the stored-entry route
    for given in (np.eye(49), np.asfortranarray(np.eye(49, dtype=complex))):
        assert superop._stored(SuperOperator(7, given).mat, 7) is not None


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
    with pytest.raises(ValueError):
        a.power(float("inf"))
    for k in (True, False, np.True_):
        with pytest.raises(ValueError):
            a.power(k)
    with pytest.raises(DimensionMismatch):
        a.compose(from_kraus([np.eye(3)]))


def test_transpose_superop_is_involutive_swap():
    t = transpose_reversing(2).superop()
    rng = np.random.default_rng(5)
    x = random_mat(2, rng)
    assert np.allclose(t.apply(x), x.T, atol=0)
    assert np.allclose(t.compose(t).mat, np.eye(4), atol=0)


def test_choi_identity_eigenvalues():
    c = choi(from_kraus([np.eye(2)]))
    lam, _ = hermitian_eig(c.mat)
    assert np.allclose(lam, [2.0, 0.0, 0.0, 0.0], atol=1e-14)


def test_choi_transpose_is_swap():
    c = choi(transpose_reversing(2).superop()).mat
    swap = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            swap[i * 2 + j, j * 2 + i] = 1.0
    assert np.allclose(c, swap, atol=0)
    lam, _ = hermitian_eig(c)
    assert np.allclose(lam, [1.0, 1.0, 1.0, -1.0], atol=1e-14)


def test_cp_kraus_channels_pass():
    rng = np.random.default_rng(6)
    for n, k in [(2, 1), (2, 3), (3, 2), (4, 2)]:
        ops = [random_mat(n, rng) for _ in range(k)]
        res = is_completely_positive(from_kraus(ops))
        assert res.passed
        assert res.detail["choi_min_eigenvalue"] >= -1e-9


def test_cp_transpose_fails_with_eigenvalue_minus_one():
    res = is_completely_positive(transpose_reversing(2).superop())
    assert not res.passed
    assert res.detail["choi_min_eigenvalue"] == pytest.approx(-1.0, abs=1e-10)


def test_cp_iff_adjoint_cp():
    rng = np.random.default_rng(7)
    pool = [
        from_kraus([random_mat(2, rng), random_mat(2, rng)]),
        transpose_reversing(2).superop(),
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


def near_cp_map(eps):
    """(1 - eps) id + eps T on M_2: Choi negativity eps / (2 - eps), from
    the antisymmetric eigenvector of the swap."""
    mat = (1.0 - eps) * from_kraus([np.eye(2)]).mat + eps * transpose_reversing(2).superop().mat
    return SuperOperator(2, mat)


def test_cp_keeps_residuals_not_verdicts():
    """A map keeps its Choi residuals, not a verdict: a negativity of about
    5e-8 passes under psd_tol 1e-6 and fails under 1e-9 on one map, in
    either order, as on two fresh maps."""
    loose, tight = Tolerance(psd_tol=1e-6), Tolerance(psd_tol=1e-9)
    for order in ((loose, tight), (tight, loose)):
        s = near_cp_map(1e-7)
        kept = [is_completely_positive(s, tol) for tol in order]
        fresh = [is_completely_positive(near_cp_map(1e-7), tol) for tol in order]
        assert kept == fresh
        assert [r.passed for r in kept] == [tol is loose for tol in order]


def test_cp_rejection_leaves_the_positivity_mode_its_own_probe():
    """The transpose map on M_2, rejected by the CP test, is then admitted
    as positive dynamics on the same object: the positivity mode runs its
    own probe and reads nothing the CP test kept."""
    s = transpose_reversing(2).superop()
    rho = random_density(2, seed=5)
    with pytest.raises(InputNotDynamics, match="not completely positive"):
        require_dynamics(s, rho, mode=MODE_CP)
    res = require_dynamics(s, rho, mode=MODE_POSITIVITY)
    assert res.passed
    assert set(res.detail) == {"output_hermiticity", "output_negativity"}


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


def from_choi(c):
    """The map whose Choi matrix is c; choi's index realignment is its own
    inverse."""
    n = math.isqrt(len(c))
    return SuperOperator(n, c.reshape(n, n, n, n).transpose(3, 1, 2, 0).reshape(n * n, n * n))


def padded(h, n):
    """h in the top left corner of an n^2 x n^2 zero matrix."""
    c = np.zeros((n * n, n * n), dtype=complex)
    c[: len(h), : len(h)] = h
    return c


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


# the cases as they stand (n = 3 and 1, dense passes) and padded to n = 7,
# where few enough entries are stored for the gathered route
@pytest.mark.parametrize("pad", [None, 7])
@pytest.mark.parametrize("name", list(spectrum_cases()))
def test_cp_spectrum_matches_full_solve_of_its_choi_matrix(name, pad):
    h = spectrum_cases()[name]
    c = h if pad is None else padded(h, pad)
    res = is_completely_positive(from_choi(c))
    full = np.linalg.eigvalsh(c)
    scale = max(1.0, np.max(np.abs(full)))
    assert abs(res.detail["choi_min_eigenvalue"] - full[0]) <= 1e-13 * scale
    assert abs(res.detail["choi_max_eigenvalue"] - full[-1]) <= 1e-13 * scale
    if name == "none-isolated" and pad is None:
        # one full solve, nothing split off
        assert res.detail["choi_min_eigenvalue"] == full[0]
        assert res.detail["choi_max_eigenvalue"] == full[-1]


@pytest.mark.parametrize("pad", [None, 7])
def test_cp_keeps_isolated_choi_entries_exactly(pad):
    """Scaled down, the coupled block's spectrum lies inside [-0.75, 2.5], so
    the two isolated diagonal entries are the extremes, bit for bit."""
    h = isolate(1e-3 * random_hermitian(9, np.random.default_rng(12)), [0, 3, 5, 6],
                [2.5, -0.75, 0.0, 1e-3])
    res = is_completely_positive(from_choi(h if pad is None else padded(h, pad)))
    assert res.detail["choi_max_eigenvalue"] == 2.5
    assert res.detail["choi_min_eigenvalue"] == -0.75


def test_cp_rejects_an_isolated_negative_choi_eigenvalue():
    """Choi matrix of the identity map (coupled rows j n + j) plus -0.1 on
    the diagonal of row 1 = 0 n + 1, which couples to nothing: that entry
    is the only negative eigenvalue and must decide the verdict."""
    n = 3
    c = choi(from_kraus([np.eye(n)])).mat.copy()
    c[1, 1] = -0.1
    # choi's index realignment is its own inverse
    s = SuperOperator(n, c.reshape(n, n, n, n).transpose(3, 1, 2, 0).reshape(n * n, n * n))
    assert np.array_equal(choi(s).mat, c)
    res = is_completely_positive(s)
    assert not res.passed
    assert res.detail["choi_min_eigenvalue"] == -0.1
    assert res.detail["choi_max_eigenvalue"] == pytest.approx(n, rel=1e-14)


def dense_cp_oracle(s):
    """(Hermiticity residual, min and max Choi eigenvalue) by the dense form:
    the whole Choi matrix C, its Hermitian part conj(C^T) + C halved, and
    the rows with a nonzero off-diagonal entry solved as one block."""
    c = choi(s).mat
    herm = float(np.linalg.norm(c - c.conj().T)) / max(1.0, float(np.linalg.norm(c)))
    h = c.conj().T + c
    h *= 0.5
    lam = h.diagonal().real.copy()
    off = h != 0
    np.fill_diagonal(off, False)
    coupled = np.flatnonzero(off.any(axis=1))
    if len(coupled) == len(h):
        lam = np.linalg.eigvalsh(h)
    elif len(coupled):
        lam[coupled] = np.linalg.eigvalsh(h[coupled[:, None], coupled])
    return herm, float(lam.min()), float(lam.max())


def off_pair_map(n, seed, cancel):
    """Diagonal Choi matrix plus C_pq = z and, with cancel, C_qp = -conj(z):
    the pair is stored but cancels in the Hermitian part, so no row couples.
    Without it C_qp is not stored, and rows p and q couple through it."""
    rng = np.random.default_rng(seed)
    c = np.diag(rng.uniform(0.1, 1.0, n * n)).astype(complex)
    if n > 1:
        z = complex(rng.standard_normal(), rng.standard_normal())
        c[0, -1], c[-1, 0] = z, -z.conjugate() if cancel else 0.0
    return from_choi(c)


def ring_map(n, seed):
    """Choi matrix coupling row p to p + 1 (cyclically): every row couples
    while only about 3 n^2 entries are stored."""
    rng = np.random.default_rng(seed)
    big = n * n
    c = np.diag(rng.uniform(1.0, 2.0, big)).astype(complex)
    if big > 1:
        z = rng.standard_normal(big) + 1j * rng.standard_normal(big)
        nxt = (np.arange(big) + 1) % big
        c[np.arange(big), nxt] += z
        c[nxt, np.arange(big)] += z.conj()
    return from_choi(c)


def route_pool(n):
    """Named maps on M_n with their state duals, for the route oracle."""
    rho = random_density(n, seed=200 + n)
    maps = {
        "schur-db2": schur_db2_channel(rho, seed=200 + n),
        "random-unital": random_unital_channel(n, 3, 200 + n),
        "transpose": transpose_reversing(n).superop(),
        "zero": SuperOperator(n, np.zeros((n * n, n * n), dtype=complex)),
    }
    states = dict.fromkeys(maps, rho)
    if n >= 2:
        spectrum = np.repeat(np.arange(n, 0, -1.0), 2)[:n]  # equal pairs
        maps["degenerate-db2"], states["degenerate-db2"] = degenerate_db2_channel(
            210 + n, spectrum=spectrum / spectrum.sum()
        )
    if n == 2:
        maps["gad"], states["gad"] = gad_sqdb_channel(0.75, 0.2)
        maps["symmetrized-sqdb"], states["symmetrized-sqdb"] = symmetrized_sqdb_channel(0.7, 0.3)
    for name in list(maps):
        maps[name + "-dual"] = rho_dual(maps[name], states[name])
    diag = np.random.default_rng(220 + n).uniform(-0.1, 1.0, n * n)
    maps["diagonal-choi"] = from_choi(np.diag(diag).astype(complex))
    maps["cancelling-pair"] = off_pair_map(n, 230 + n, cancel=True)
    maps["lone-entry"] = off_pair_map(n, 235 + n, cancel=False)
    maps["ring"] = ring_map(n, 240 + n)
    return maps


def bits(x):
    return np.float64(x).tobytes()


@pytest.fixture(params=["default", "gather-all"])
def route(request, monkeypatch):
    """The route constants as shipped, or with the size floor and the stored
    entry bound lifted so that every map is gathered unless all rows couple."""
    if request.param == "gather-all":
        monkeypatch.setattr(superop, "_GATHER_MIN_N", 1)
        monkeypatch.setattr(superop, "_GATHER_SHARE", 1)
    return request.param


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_cp_routes_match_the_dense_oracle(n, route):
    for name, s in route_pool(n).items():
        res = is_completely_positive(s)
        herm, lam_min, lam_max = dense_cp_oracle(s)
        neg = float(_negativity(lam_min, lam_max))
        assert bits(res.detail["choi_min_eigenvalue"]) == bits(lam_min), name
        assert bits(res.detail["choi_max_eigenvalue"]) == bits(lam_max), name
        assert bits(res.detail["choi_negativity"]) == bits(neg), name
        assert abs(res.detail["choi_hermiticity"] - herm) <= 1e-15, name
        want = herm <= DEFAULT_TOL.eq_tol and neg <= DEFAULT_TOL.psd_tol
        assert res.passed == want, name


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_transpose_conjugate_keeps_the_duals_unital_residual(n, route):
    """The balance checks read one unitality residual of the state dual for
    the transposed dual too: hat(1) = dual(1)^T, so the two residuals are
    one norm summed in two orders."""
    maps = route_pool(n)
    for name in ("schur-db2", "random-unital", "degenerate-db2", "gad"):
        if name in maps:
            dual = maps[name + "-dual"]
            want = is_unital(dual).residual
            assert is_unital(bar_map(dual)).residual == pytest.approx(want, rel=1e-13)


def cp_gathered(s):
    return s._at is not None


def test_cp_route_choice():
    """Which maps the oracle test sends down the gathered route at n = 7:
    those with few stored entries, the ring too, whose Choi rows all couple."""
    maps = route_pool(7)
    sparse = {
        "schur-db2", "schur-db2-dual", "degenerate-db2", "degenerate-db2-dual",
        "transpose", "transpose-dual", "zero", "zero-dual",
        "diagonal-choi", "cancelling-pair", "lone-entry", "ring",
    }
    assert {name for name, s in maps.items() if cp_gathered(s)} == sparse
    assert {name for name, s in maps.items() if superop._stored(s.mat, 7) is not None} == sparse
    # below the size floor every map takes the dense passes
    assert all(superop._stored(s.mat, 6) is None for s in route_pool(6).values())


@pytest.mark.parametrize("name", ["schur-db2", "random-unital", "ring"])
@pytest.mark.parametrize("n", [3, 7])
def test_cp_never_passes_a_nan_entry(n, name, route):
    c = choi(route_pool(n)[name]).mat
    # a diagonal entry, a stored off-diagonal one, one stored nowhere
    stored = np.argwhere((c != 0) & ~np.eye(len(c), dtype=bool))
    empty = np.argwhere(c == 0)
    spots = [(0, 0), tuple(stored[0]), *map(tuple, empty[:1])]
    for spot in spots:
        for nan in (complex(np.nan, 0.0), complex(0.0, np.nan)):
            bad = c.copy()
            bad[spot] = nan
            s = from_choi(bad)
            res = is_completely_positive(s)
            assert not res.passed
            assert math.isnan(res.residual)
            # the kept residuals: NaN again, and no LinAlgError
            assert math.isnan(is_completely_positive(s).residual)


@pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.nan), complex(np.inf, 0.0)])
@pytest.mark.parametrize("n", [2, 3])
def test_positivity_never_passes_a_non_finite_entry(n, bad):
    # the output spectra are left unsolved, as the Choi spectrum is
    mat = route_pool(n)["schur-db2"].mat
    for spot in (0, np.flatnonzero(mat)[1], np.flatnonzero(mat == 0)[0]):
        poisoned = mat.copy()
        poisoned.flat[spot] = bad
        with np.errstate(invalid="ignore"):  # inf times a zero frame entry
            res = is_positive_map(SuperOperator(n, poisoned))
        assert not res.passed
        assert math.isnan(res.residual)


def choi_spectrum_pool(n):
    rho = random_density(n, seed=90 + n)
    spectrum = {2: (0.5, 0.5), 3: (0.5, 0.25, 0.25), 4: (0.4, 0.2, 0.2, 0.2)}[n]
    tau, _ = degenerate_db2_channel(95 + n, spectrum=spectrum)
    rng = np.random.default_rng(100 + n)
    return [
        schur_db2_channel(rho, seed=90 + n),
        tau,
        from_kraus([random_mat(n, rng) for _ in range(3)]),
        transpose_reversing(n).superop(),
        from_kraus([np.eye(n)]),
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
    assert is_positive_map(from_kraus([np.eye(3)])).passed
    # the transpose map is positive but not completely positive
    assert is_positive_map(transpose_reversing(2).superop()).passed
    assert not is_completely_positive(transpose_reversing(2).superop()).passed
    # a map with a non-PSD output on a projector fails
    bad = pi_rep(np.diag([1.0, -1.0]), np.eye(2))
    assert not is_positive_map(bad).passed


@pytest.mark.parametrize("n", [2, 3, 4])
def test_identity_negativities_are_positive_zero(n):
    # the identity's Choi and output spectra touch zero; a -0.0 negativity
    # would print as -0.0 in the JSON report
    s = from_kraus([np.eye(n)])
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
    t = transpose_reversing(2).superop()
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
        transpose_reversing(n).superop(),
        from_kraus([np.eye(n)]),
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


# every realignment a kernel reads (SuperOperator._place), and those a dual
# reads through its source
PLACED_AXES = (
    superop._SAME_AXES, superop._CHOI_AXES, superop._DUAL_AXES, superop._BAR_AXES,
    superop._TRANSPOSE_AXES, superop._INPUT_TRANSPOSE_AXES,
)


def placed_pool(n):
    rho = random_density(n, seed=600 + n)
    spectrum = np.repeat(np.arange(n, 0, -1.0), 2)[:n]  # equal pairs
    degenerate, drho = degenerate_db2_channel(610 + n, spectrum=spectrum / spectrum.sum())
    return {
        "schur-db2": (schur_db2_channel(rho, seed=600 + n), rho),
        "degenerate-db2": (degenerate, drho),
        "ring": (ring_map(n, 620 + n), rho),
    }


@pytest.mark.parametrize("n", range(7, 13))
def test_placed_positions_match_the_index_oracle(n):
    """A map's positions in each realignment are the flat C-order indices
    of its (n, n, n, n) index tuple permuted by the axes
    (np.ravel_multi_index), in the map's order, with their rows and columns
    of the n^2 x n^2 layout; the realigned view holds the map's own entries
    there.  A dual reads its positions from its source and keeps the
    source's order."""
    shape = (n,) * 4
    for name, (s, rho) in placed_pool(n).items():
        assert np.array_equal(s._at, np.flatnonzero(s.mat)), name
        for m in (s, rho_dual(s, rho)):
            at = np.unravel_index(m._at, shape)
            for first in PLACED_AXES:
                for axes in (first, *(superop._compose(first, b) for b in PLACED_AXES)):
                    flat, rows, cols = m._place(axes)
                    want = np.ravel_multi_index(tuple(at[a] for a in axes), shape)
                    assert np.array_equal(flat, want), (name, axes)
                    assert np.array_equal(rows, want // n**2), (name, axes)
                    assert np.array_equal(cols, want % n**2), (name, axes)
                    view = superop._realign(m.mat, n, axes).reshape(-1)
                    assert np.array_equal(view[flat], m._entries), (name, axes)
