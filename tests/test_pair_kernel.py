"""The Gram-matrix pair kernel against the per-pair loops it replaced, and
the permuted / scaled transforms against the dense products they replaced.

Every pair identity (entangled, mirror, classical functional) is decided
by balance._pair_residual on a diagonal Gram matrix, and the state
invariance by one matrix-vector product.  The loops below are the defining
forms, one evaluation of the functional per pair of matrix units; at n <= 4
the kernel must reproduce their residuals to 1e-12 relative and give the
same verdicts.  The dense Gram products the diagonal kernel replaced
(states.omega_gram, the mirror Gram matrix) are a second reference.  The
KMS identity has its own Gram-matrix form in thermofield.check_kms, checked
the same way.

The duals, the transpose map and the modular commutator are index
permutations and row / column scalings of the column-stacking matrix; the
Theta-conjugate and the CLI's eigenbasis rotation of a matrix channel are
batched n x n products.  Their reference is the dense product with the
commutation matrix K (built here by its loop definition) and with Kronecker
matrices of rho's powers or of the rotation: a permutation must agree
exactly, a scaling or a reordered product to 1e-13 relative.
run_report(tfd=True) must reproduce the public mirror checks bit for bit.

The remaining per-unit loops are oracles too: thermofield's substitution
identity (bit for bit) and the two marginals of the purified state.  The
fixed-cost forms on the CLI path have their np.kron / apply references:
from_kraus is bit-equal to a sum of np.kron terms, and is_unital's column
sum matches ||s(1) - 1|| through apply to 1e-13 relative.
"""

import numpy as np
import pytest

from detbal.balance import (
    MODE_CP,
    MODE_POSITIVITY,
    _pair_residual,
    delta_commutator_residual,
    check_db2_definition,
    check_db2_entangled,
    check_db2_modular,
    check_db2_tfd,
    check_sqdb_entangled,
    check_sqdb_tfd,
    classical_phi_balance,
    run_report,
)
from detbal.cli import _to_eigenbasis
from detbal.duals import (
    ReversingOperation,
    bar_map,
    hat_map,
    kms_dual,
    make_reversing,
    modular,
    rho_dual,
    theta_conjugate,
    trace_dual,
    transpose_reversing,
)
from detbal.generators import (
    cycle_chain,
    degenerate_db2_channel,
    gad_sqdb_channel,
    metropolis_chain,
    random_density,
    random_unital_channel,
    schur_db2_channel,
)
from detbal.linalg import DEFAULT_TOL, matrix_units
from detbal.states import (
    expectation,
    make_density,
    marginals_check,
    omega_eval,
    omega_gram,
    purify,
)
from detbal.superop import (
    SuperOperator,
    _kron_sandwich,
    from_kraus,
    is_completely_positive,
    is_hermitian_map,
    is_positive_map,
    is_unital,
    pi_rep,
    transpose_superop,
    vec,
)
from detbal.thermofield import (
    check_kms,
    check_tilde_substitution,
    expect_tilde,
    tilde,
)

SPIN = np.array([[0, 1], [-1, 0]], dtype=complex)
DEGENERATE_SPECTRA = {2: (0.5, 0.5), 3: (0.5, 0.25, 0.25), 4: (0.4, 0.2, 0.2, 0.2)}


def haar_unitary(n, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r))).conj()


# ---------------------------------------------------------------- oracles


def db2_entangled_oracle(tau, rho):
    p = purify(rho)
    hat = hat_map(tau, rho)
    units = matrix_units(rho.n)
    hat_of = [hat.apply(e) for _, _, e in units]
    tau_of = [tau.apply(e) for _, _, e in units]
    pair = 0.0
    for i, (_, _, a) in enumerate(units):
        for j, (_, _, b) in enumerate(units):
            pair = max(pair, abs(omega_eval(p, a, hat_of[j]) - omega_eval(p, tau_of[i], b)))
    return pair


def sqdb_entangled_oracle(tau, rho, th):
    p = purify(rho)
    conj = theta_conjugate(tau, th)
    units = matrix_units(rho.n)
    conj_of = [conj.apply(e) for _, _, e in units]
    tau_of = [tau.apply(e) for _, _, e in units]
    pair = 0.0
    for i, (_, _, a) in enumerate(units):
        for j, (_, _, b) in enumerate(units):
            pair = max(pair, abs(omega_eval(p, a, conj_of[j]) - omega_eval(p, tau_of[i], b)))
    return pair


def db2_tfd_oracle(tau, rho):
    dual = rho_dual(tau, rho)
    units = matrix_units(rho.n)
    tau_of = [tau.apply(e) for _, _, e in units]
    dual_of = [dual.apply(e) for _, _, e in units]
    pair = 0.0
    for i, (_, _, a) in enumerate(units):
        for j, (_, _, b) in enumerate(units):
            lhs = expect_tilde(rho, tau_of[i], b)
            rhs = expect_tilde(rho, a, dual_of[j])
            pair = max(pair, abs(lhs - rhs))
    return pair


def sqdb_tfd_oracle(tau, rho, th):
    units = matrix_units(rho.n)
    tau_of = [tau.apply(e) for _, _, e in units]
    rev_of = [th.apply(tau.apply(th.apply(e))) for _, _, e in units]
    pair = 0.0
    for i, (_, _, a) in enumerate(units):
        for j, (_, _, b) in enumerate(units):
            lhs = expect_tilde(rho, tau_of[i], b)
            rhs = expect_tilde(rho, a, rev_of[j])
            pair = max(pair, abs(lhs - rhs))
    return pair


def state_invariance_oracle(tau, rho):
    inv = 0.0
    for _, _, e in matrix_units(rho.n):
        inv = max(inv, abs(expectation(rho, tau.apply(e)) - expectation(rho, e)))
    return inv


def kms_oracle(rho):
    rm = rho.matrix()
    rinv = rho.power(-1)
    residual = 0.0
    units = matrix_units(rho.n)
    for _, _, a in units:
        for _, _, b in units:
            lhs = np.trace(rm @ a @ (rm @ b @ rinv))
            rhs = np.trace(rm @ b @ a)
            residual = max(residual, abs(complex(lhs) - complex(rhs)))
    return residual


def tilde_substitution_oracle(rho):
    """|Delta^(-1/2)(tilde(e) rho^(1/2)) - e^dag rho^(1/2)| unit by unit,
    through the n^2 x n^2 mirror superoperator of each unit e."""
    half = rho.power(0.5)
    halfinv = rho.power(-0.5)
    residual = 0.0
    for _, _, e in matrix_units(rho.n):
        lhs = halfinv @ tilde(e).rep.apply(half) @ half
        residual = max(residual, float(np.linalg.norm(lhs - e.conj().T @ half)))
    return residual


def marginals_oracle(p):
    """Largest gap of each marginal of omega from tr(rho .) over matrix units."""
    rho = p.rho
    eye = np.eye(rho.n, dtype=complex)
    first = second = 0.0
    for _, _, e in matrix_units(rho.n):
        want = expectation(rho, e)
        first = max(first, abs(omega_eval(p, e, eye) - want))
        second = max(second, abs(omega_eval(p, eye, e) - want))
    return first, second


def commutation_matrix(n):
    """K with vec(X^T) = K vec(X), by its loop definition."""
    k = np.zeros((n * n, n * n), dtype=complex)
    for r in range(n):
        for c in range(n):
            k[r + n * c, c + n * r] = 1.0
    return k


def trace_dual_product(m, k):
    """s^# as s^dag(A^dag)^dag: K conj(M^dag) K."""
    return k @ m.conj().T.conj() @ k


def reversing_product(th, k):
    return np.kron(th.u.conj(), th.u) @ k


def classical_phi_oracle(c):
    residual = 0.0
    eye = np.eye(c.n)
    for j in range(c.n):
        for k in range(c.n):
            lhs = float(np.sum(c.p * (c.gamma @ eye[:, j]) * eye[:, k]))
            rhs = float(np.sum(c.p * eye[:, j] * (c.gamma @ eye[:, k])))
            residual = max(residual, abs(lhs - rhs))
    return residual


# ------------------------------------------------------------------ cases


def _schur(n):
    rho = random_density(n, seed=10 + n)
    return schur_db2_channel(rho, seed=10 + n), rho


def _degenerate(n):
    return degenerate_db2_channel(20 + n, spectrum=DEGENERATE_SPECTRA[n])


def _random_unital(n):
    return random_unital_channel(n, 3, seed=30 + n), random_density(n, seed=30 + n)


CASES = [(f"schur-db2-{n}", _schur, n) for n in (2, 3, 4)]
CASES += [(f"degenerate-db2-{n}", _degenerate, n) for n in (2, 3, 4)]
CASES += [(f"random-unital-{n}", _random_unital, n) for n in (2, 3, 4)]
CASES += [("gad-2", lambda n: gad_sqdb_channel(0.75, 0.2), 2)]
CASE_PARAMS = [pytest.param(make, n, id=name) for name, make, n in CASES]


def thetas(n):
    """Plain transpose, a generic symmetric unitary v v^T (u conj(u) = 1)
    and, for even n, block spin reversals (u conj(u) = -1)."""
    v = haar_unitary(n, 40 + n)
    out = [("transpose", transpose_reversing(n)), ("symmetric", make_reversing(v @ v.T))]
    if n % 2 == 0:
        out.append(("spin", make_reversing(np.kron(np.eye(n // 2), SPIN))))
    return out


THETA_PARAMS = [
    pytest.param(make, n, k, id=f"{name}-{tname}")
    for name, make, n in CASES
    for k, (tname, _) in enumerate(thetas(n))
]


def close(new, oracle):
    return abs(new - oracle) <= 1e-12 * max(1.0, oracle)


# ------------------------------------------------------------------ tests


def test_pair_residual_is_the_bilinear_pair_maximum():
    """Complex diagonal G = diag(g), non-symmetric L, R: the kernel is the
    maximum over basis pairs of |F(e_i, R e_j) - F(L e_i, e_j)| with
    F(x, y) = x^T G y."""
    rng = np.random.default_rng(5)
    m = 6
    left, right = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)) for _ in range(2))
    g = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    gram = np.diag(g)
    eye = np.eye(m)
    want = max(
        abs(eye[i] @ gram @ (right @ eye[j]) - (left @ eye[i]) @ gram @ eye[j])
        for i in range(m)
        for j in range(m)
    )
    assert close(_pair_residual(g, left, right), want)


@pytest.mark.parametrize("n", [2, 10, 12])
def test_pair_residual_blocks_match_the_one_shot_expression(n):
    """The kernel runs over row blocks (several at n >= 10) and reads a
    realigned right operand as a view.  The one-shot expression over full
    copies is its reference, bit for bit, since a maximum is exact; with
    conj the conjugate is taken after the real scaling, which moves at most
    the sign of a zero.  A NaN anywhere, in the last block too, is the result."""
    rng = np.random.default_rng(210 + n)
    size = n * n
    left, right = (
        rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size)) for _ in range(2)
    )
    g = rng.uniform(0.1, 1.0, size)
    bar = right.reshape(n, n, n, n).transpose(1, 0, 3, 2)
    for view, copy in ((right, right), (bar, bar.reshape(size, size))):
        for conj in (False, True):
            want = np.max(np.abs(g[:, None] * (copy.conj() if conj else copy) - left.T * g))
            assert _pair_residual(g, left, view, conj=conj) == want
    right[-1, -1] = np.nan
    assert np.isnan(_pair_residual(g, left, right))


def dense_pair_residual(gram, left, right):
    """The kernel as it was before the Gram diagonal: max|G R - L^T G|."""
    return float(np.max(np.abs(gram @ right - left.T @ gram)))


def mirror_gram(rho):
    """Gram matrix of (A, C) -> <A tilde(conj(C))>: kron(rho^(1/2), (rho^(1/2))^T)."""
    half = rho.power(0.5)
    return np.kron(half, half.T)


@pytest.mark.parametrize("make,n,k", THETA_PARAMS)
def test_diagonal_pair_kernel_matches_dense_gram_kernel(make, n, k):
    """Entangled and mirror residuals against the dense products with
    omega_gram (w = 1) and the mirror Gram matrix, both diagonal here."""
    tau, rho = make(n)
    th = thetas(n)[k][1]
    dual = rho_dual(tau, rho)
    conj = theta_conjugate(tau, th)
    omega = omega_gram(purify(rho))
    mirror = mirror_gram(rho)
    assert np.array_equal(omega, np.diag(np.diagonal(omega)))
    assert np.array_equal(mirror, np.diag(np.diagonal(mirror)))
    pairs = [
        (check_db2_entangled(tau, rho).detail["pair_residual"],
         dense_pair_residual(omega, tau.mat, bar_map(dual).mat)),
        (check_sqdb_entangled(tau, rho, th).residual,
         dense_pair_residual(omega, tau.mat, conj.mat)),
        (check_db2_tfd(tau, rho).detail["pair_residual"],
         dense_pair_residual(mirror, tau.mat, dual.mat.conj())),
        (check_sqdb_tfd(tau, rho, th).residual,
         dense_pair_residual(mirror, tau.mat, bar_map(conj).mat.conj())),
    ]
    for new, dense in pairs:
        assert abs(new - dense) <= 1e-13 * max(1.0, dense)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("generic_w", [False, True])
def test_omega_gram_reproduces_omega_eval(n, generic_w):
    rho = random_density(n, seed=50 + n)
    p = purify(rho, haar_unitary(n, 60 + n) if generic_w else None)
    g = omega_gram(p)
    rng = np.random.default_rng(70 + n)
    for _ in range(5):
        a, b = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(2))
        assert abs(vec(a) @ g @ vec(b) - omega_eval(p, a, b)) <= 1e-13


@pytest.mark.parametrize("make,n", CASE_PARAMS)
def test_db2_entangled_matches_loop_oracle(make, n):
    tau, rho = make(n)
    res = check_db2_entangled(tau, rho)
    oracle = db2_entangled_oracle(tau, rho)
    assert close(res.detail["pair_residual"], oracle)
    assert res.passed == (max(oracle, res.detail["hat_unital"]) <= DEFAULT_TOL.eq_tol)


@pytest.mark.parametrize("make,n,k", THETA_PARAMS)
def test_sqdb_entangled_matches_loop_oracle(make, n, k):
    tau, rho = make(n)
    th = thetas(n)[k][1]
    res = check_sqdb_entangled(tau, rho, th)
    oracle = sqdb_entangled_oracle(tau, rho, th)
    assert close(res.residual, oracle)
    assert res.passed == (oracle <= DEFAULT_TOL.eq_tol)


@pytest.mark.parametrize("make,n", CASE_PARAMS)
def test_db2_tfd_matches_loop_oracle(make, n):
    tau, rho = make(n)
    res = check_db2_tfd(tau, rho)
    oracle = db2_tfd_oracle(tau, rho)
    assert close(res.detail["pair_residual"], oracle)
    assert res.passed == (max(oracle, res.detail["dual_unital"]) <= DEFAULT_TOL.eq_tol)


@pytest.mark.parametrize("make,n,k", THETA_PARAMS)
def test_sqdb_tfd_matches_loop_oracle(make, n, k):
    tau, rho = make(n)
    th = thetas(n)[k][1]
    res = check_sqdb_tfd(tau, rho, th)
    oracle = sqdb_tfd_oracle(tau, rho, th)
    assert close(res.residual, oracle)
    assert res.passed == (oracle <= DEFAULT_TOL.eq_tol)


@pytest.mark.parametrize("make,n", CASE_PARAMS)
def test_state_invariance_matches_loop_oracle(make, n):
    tau, rho = make(n)
    res = check_db2_modular(tau, rho)
    oracle = state_invariance_oracle(tau, rho)
    assert close(res.detail["state_invariance"], oracle)
    assert res.passed == (max(oracle, res.detail["modular_commutator"]) <= DEFAULT_TOL.eq_tol)


@pytest.mark.parametrize("make,n", CASE_PARAMS)
def test_report_shares_one_state_dual_bit_exactly(make, n):
    """run_report computes the state dual once for the definition and the
    entangled check; the public checks compute their own.  Same numbers."""
    tau, rho = make(n)
    report = run_report(tau, rho, transpose_reversing(n))
    for name, check in (
        ("db2_definition", check_db2_definition),
        ("db2_entangled", check_db2_entangled),
    ):
        alone = check(tau, rho)
        assert getattr(report, name).residual == alone.residual
        assert getattr(report, name).detail == alone.detail


def same_check(a, b):
    return a.passed == b.passed and a.residual == b.residual and a.detail == b.detail


@pytest.mark.parametrize("mode", [MODE_CP, MODE_POSITIVITY])
@pytest.mark.parametrize("make,n,k", THETA_PARAMS)
def test_report_mirror_checks_match_the_public_ones_bit_exactly(make, n, k, mode):
    """run_report(tfd=True) runs the mirror kernels on its own dynamics
    check, state dual and Theta-conjugate; the public mirror checks compute
    their own.  Same numbers, and without tfd no mirror fields."""
    tau, rho = make(n)
    th = thetas(n)[k][1]
    report = run_report(tau, rho, th, mode=mode, tfd=True)
    db2, sqdb = check_db2_tfd(tau, rho, mode=mode), check_sqdb_tfd(tau, rho, th, mode=mode)
    assert same_check(report.db2_tfd, db2)
    assert same_check(report.sqdb_tfd, sqdb)
    assert report.tfd_agrees == (
        db2.passed == report.db2_entangled.passed
        and sqdb.passed == report.sqdb_definition.passed
    )
    dynamics = is_completely_positive(tau) if mode == MODE_CP else is_positive_map(tau)
    assert same_check(report.dynamics, dynamics)
    plain = run_report(tau, rho, th, mode=mode)
    assert plain.db2_tfd is None and plain.sqdb_tfd is None and plain.tfd_agrees is None
    assert same_check(plain.dynamics, dynamics)
    for name in ("db2_definition", "db2_entangled", "sqdb_definition", "sqdb_entangled"):
        assert same_check(getattr(plain, name), getattr(report, name))


@pytest.mark.parametrize(
    "chain",
    [metropolis_chain(n, seed=80 + n) for n in (2, 3, 4)] + [cycle_chain(n) for n in (3, 4, 5)],
    ids=[f"metropolis-{n}" for n in (2, 3, 4)] + [f"cycle-{n}" for n in (3, 4, 5)],
)
def test_classical_phi_matches_loop_oracle(chain):
    res = classical_phi_balance(chain)
    oracle = classical_phi_oracle(chain)
    assert close(res.residual, oracle)
    assert res.passed == (oracle <= DEFAULT_TOL.eq_tol)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_kms_matches_loop_oracle(n):
    rho = random_density(n, seed=90 + n)
    res = check_kms(rho)
    oracle = kms_oracle(rho)
    assert close(res.residual, oracle)
    assert res.passed == (oracle <= DEFAULT_TOL.eq_tol)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_tilde_substitution_matches_loop_oracle_bit_for_bit(n):
    for seed in range(3):
        rho = random_density(n, seed=60 + 10 * n + seed)
        assert check_tilde_substitution(rho).residual == tilde_substitution_oracle(rho)
    rho = make_density(np.diag(DEGENERATE_SPECTRA[n]))
    assert check_tilde_substitution(rho).residual == tilde_substitution_oracle(rho)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("generic_w", [False, True])
def test_marginals_check_matches_loop_oracle(n, generic_w):
    rho = random_density(n, seed=70 + n)
    p = purify(rho, haar_unitary(n, 75 + n) if generic_w else None)
    res = marginals_check(p)
    first, second = marginals_oracle(p)
    assert res.detail["first_marginal"] == pytest.approx(first, rel=1e-13, abs=1e-15)
    assert res.detail["second_marginal"] == pytest.approx(second, rel=1e-13, abs=1e-15)
    assert res.passed == (max(first, second) <= DEFAULT_TOL.eq_tol)
    assert res.passed is not generic_w


# ------------------------------------------- transforms against dense products


def random_map(n, seed):
    """A generic complex map on M_n; not Hermiticity-preserving."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n))
    return SuperOperator(n, m)


def reversings(n):
    """A Haar u (not involutive, so built without make_reversing: the
    formulas hold for every unitary u), a symmetric v v^T and, for even n,
    the block spin reversal."""
    v = haar_unitary(n, 140 + n)
    out = [
        ("haar", ReversingOperation(u=haar_unitary(n, 150 + n))),
        ("symmetric", make_reversing(v @ v.T)),
    ]
    if n % 2 == 0:
        out.append(("spin", make_reversing(np.kron(np.eye(n // 2), SPIN))))
    return out


REVERSING_PARAMS = [
    pytest.param(n, k, id=f"{n}-{name}")
    for n in (2, 3, 4)
    for k, (name, _) in enumerate(reversings(n))
]


def scaled_close(new, old):
    return np.max(np.abs(new - old)) <= 1e-13 * np.max(np.abs(old))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_transpose_superop_is_the_commutation_matrix(n):
    assert np.array_equal(transpose_superop(n).mat, commutation_matrix(n))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bar_map_matches_commutation_product(n):
    k = commutation_matrix(n)
    s = random_map(n, 160 + n)
    assert np.array_equal(bar_map(s).mat, k @ s.mat @ k)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_trace_dual_matches_commutation_product(n):
    k = commutation_matrix(n)
    s = random_map(n, 160 + n)
    assert np.array_equal(trace_dual(s).mat, trace_dual_product(s.mat, k))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_is_hermitian_map_matches_commutation_product(n):
    k = commutation_matrix(n)
    s = random_map(n, 160 + n)
    want = np.max(np.linalg.norm(s.mat - k @ s.mat.conj() @ k, axis=0))
    assert is_hermitian_map(s).residual == want


@pytest.mark.parametrize("n,k", REVERSING_PARAMS)
def test_reversing_superop_matches_commutation_product(n, k):
    th = reversings(n)[k][1]
    assert np.array_equal(th.superop().mat, reversing_product(th, commutation_matrix(n)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_rho_dual_matches_kronecker_products(n):
    s = random_map(n, 170 + n)
    rho = random_density(n, seed=170 + n)
    sharp = trace_dual_product(s.mat, commutation_matrix(n))
    left, right = np.kron(np.eye(n), rho.power(-1)), np.kron(np.eye(n), rho.matrix())
    assert scaled_close(rho_dual(s, rho).mat, left @ sharp @ right)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_kms_dual_matches_kronecker_products(n):
    s = random_map(n, 170 + n)
    rho = random_density(n, seed=170 + n)
    sharp = trace_dual_product(s.mat, commutation_matrix(n))
    half, halfinv = rho.power(0.5), rho.power(-0.5)
    outer, inner = np.kron(halfinv, halfinv), np.kron(half, half)
    assert scaled_close(kms_dual(s, rho).mat, outer @ sharp @ inner)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_delta_commutator_matches_modular_products(n):
    s = random_map(n, 170 + n)
    rho = random_density(n, seed=170 + n)
    d = modular(rho).delta.mat
    want = np.linalg.norm(s.mat @ d - d @ s.mat)
    assert abs(delta_commutator_residual(s, rho) - want) <= 1e-13 * want


@pytest.mark.parametrize("n,k", REVERSING_PARAMS)
def test_theta_conjugate_matches_commutation_products(n, k):
    """Every u other than 1 (Haar, a twin's v v^T, the spin reversal) goes
    through the batched sandwich, not the transpose shortcut."""
    th = reversings(n)[k][1]
    kk = commutation_matrix(n)
    s = random_map(n, 180 + n)
    tm = reversing_product(th, kk)
    out = theta_conjugate(s, th)
    assert out is not s
    assert scaled_close(out.mat, kk @ tm @ s.mat @ tm @ kk)


@pytest.mark.parametrize("n", [2, 3, 8])
def test_theta_conjugate_returns_the_map_for_the_transpose(n):
    """For u = 1 the sandwich conj(W) M W reproduces M bit for bit, so
    theta_conjugate may return the map itself without computing it."""
    rho = random_density(n, seed=190 + n)
    eye = np.eye(n, dtype=complex)
    for s in (random_map(n, 190 + n), schur_db2_channel(rho, seed=190 + n)):
        assert theta_conjugate(s, transpose_reversing(n)) is s
        assert np.array_equal(_kron_sandwich(s.mat, n, eye, eye, eye, eye), s.mat)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_eigenbasis_rotation_matches_pi_rep_products(n):
    """A matrix channel M given in the basis of rho = v diag(d) v^dag is
    pi_rep(v^dag, v^T) M pi_rep(v, conj v) in rho's eigenbasis."""
    w = haar_unitary(n, 200 + n)
    rho = make_density(w @ np.diag(random_density(n, seed=200 + n).diag) @ w.conj().T)
    v = rho.basis
    s = random_map(n, 210 + n)
    tau, _ = _to_eigenbasis(rho, s, transpose_reversing(n))
    want = pi_rep(v.conj().T, v.T).mat @ s.mat @ pi_rep(v, v.conj()).mat
    assert scaled_close(tau.mat, want)


@pytest.mark.parametrize("n,k", REVERSING_PARAMS)
def test_theta_tau_theta_matches_commutation_products(n, k):
    """Theta s Theta is bar_map of the Theta-conjugate; the reference
    composes the reversing operation's matrix on both sides."""
    th = reversings(n)[k][1]
    s = random_map(n, 180 + n)
    tm = reversing_product(th, commutation_matrix(n))
    assert scaled_close(bar_map(theta_conjugate(s, th)).mat, tm @ s.mat @ tm)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_from_kraus_is_bit_equal_to_the_kron_sum(n):
    rng = np.random.default_rng(220 + n)
    ops = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(3)]
    want = np.zeros((n * n, n * n), dtype=complex)
    for v in ops:
        want += np.kron(v.conj(), v)
    assert np.array_equal(from_kraus(ops).mat, want)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_is_unital_matches_the_applied_identity(n):
    s = random_map(n, 230 + n)
    want = float(np.linalg.norm(s.apply(np.eye(n)) - np.eye(n)))
    res = is_unital(s)
    assert abs(res.residual - want) <= 1e-13 * want
    assert not res.passed
    rho = random_density(n, seed=230 + n)
    unital = schur_db2_channel(rho, seed=230 + n)
    want = float(np.linalg.norm(unital.apply(np.eye(n)) - np.eye(n)))
    assert is_unital(unital).residual == pytest.approx(want, abs=1e-15)
