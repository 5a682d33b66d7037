"""The Gram-matrix pair kernel against the per-pair loops it replaced, and
the permuted / scaled transforms against the dense products they replaced.

Every pair identity (entangled, mirror, classical functional) is decided
by balance._pair_residual on a diagonal Gram matrix, and the state
invariance by one matrix-vector product.  The loops below are the defining
forms, one evaluation of the functional per pair of matrix units; at n <= 4
the kernel must reproduce their residuals to 1e-12 relative and give the
same verdicts.  The dense Gram products the diagonal kernel replaced
(omega_gram, the mirror Gram matrix) are a second reference.  The mirror
correlation <A tilde(B)> of those loops is the two-copy functional
omega(A ox conj(B)), expect_tilde below.

The duals, the transpose map and the modular commutator are index
permutations and row / column scalings of the column-stacking matrix; the
Theta-conjugate and the CLI's eigenbasis rotation of a matrix channel are
batched n x n products.  Their reference is the dense product with the
commutation matrix K (built here by its loop definition) and with Kronecker
matrices of rho's powers or of the rotation: a permutation must agree
exactly, a scaling or a reordered product to 1e-13 relative.
run_report(tfd=True) must reproduce the public mirror checks bit for bit.

The remaining per-unit loops are oracles too: the two marginals of the
purified state.  The KMS and substitution identities hold by
construction in the eigenbasis; their loops, through rho.power and
tilde(e).apply, are the only place they are checked.  The
fixed-cost forms on the CLI path have their np.kron / apply references:
from_kraus is bit-equal to a sum of np.kron terms, and is_unital's column
sum matches ||s(1) - 1|| through apply to 1e-13 relative.

Every kernel also runs over the stored entries of a map that stores few
(superop._stored).  The dense passes are that route's oracle: with the
route forced on or off for every map at n = 1...8, verdicts, maxima and
eigenvalues must be the same bits, norms agree to 1e-15 relative and the
duals' matrices entry for entry.  A map keeps the positions it finds
first, so each route runs on a fresh copy of the map.  A NaN or inf entry
must fail every kernel on both routes.

Several maps decided as one stack (balance._reports) must give each map
the report run_report gives it alone, bit for bit, and so must the command
line's time powers, split into stacks by balance._power_reports.  Each
public check forms only the operands and runs only the kernels of its own
characterization.
"""

import collections
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from detbal import balance, duals, superop
from detbal.errors import InputNotDynamics
from detbal.balance import (
    MODE_CP,
    MODE_POSITIVITY,
    _pair_max,
    _pair_residual,
    delta_commutator_residual,
    check_db2_definition,
    check_db2_entangled,
    check_db2_modular,
    check_db2_tfd,
    check_sqdb_definition,
    check_sqdb_entangled,
    check_sqdb_tfd,
    classical_phi_balance,
    require_dynamics,
    run_report,
)
from detbal.cli import (
    _quantum_entry,
    _to_eigenbasis,
    generate_payload,
    parse_problem,
    run_checks,
)
from detbal.duals import (
    ReversingOperation,
    bar_map,
    kms_dual,
    make_reversing,
    modular_power,
    rho_dual,
    theta_conjugate,
    tilde,
    trace_dual,
    transpose_reversing,
)
from detbal.generators import (
    cycle_chain,
    degenerate_db2_channel,
    gad_kraus,
    gad_sqdb_channel,
    metropolis_chain,
    random_density,
    random_unital_channel,
    schur_db2_channel,
    symmetrized_sqdb_channel,
)
from detbal.linalg import DEFAULT_TOL
from detbal.states import (
    expectation,
    make_density,
    marginals_check,
    omega_eval,
    purify,
)
from detbal.superop import (
    _BAR_AXES,
    _SAME_AXES,
    SuperOperator,
    _kron_sandwich,
    from_kraus,
    is_completely_positive,
    is_hermitian_map,
    is_positive_map,
    is_unital,
    pi_rep,
    vec,
)

SPIN = np.array([[0, 1], [-1, 0]], dtype=complex)
DEGENERATE_SPECTRA = {2: (0.5, 0.5), 3: (0.5, 0.25, 0.25), 4: (0.4, 0.2, 0.2, 0.2)}


def haar_unitary(n, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r))).conj()


# ---------------------------------------------------------------- oracles


def matrix_unit(n, j, k):
    """The matrix unit E_jk of M_n: 1 in row j, column k, zero elsewhere."""
    e = np.zeros((n, n), dtype=complex)
    e[j, k] = 1.0
    return e


def matrix_units(n):
    """All n^2 matrix units as (j, k, E_jk) triples, row-major order."""
    return [(j, k, matrix_unit(n, j, k)) for j in range(n) for k in range(n)]


def expect_tilde(rho, a, b):
    """Mirror correlation <a tilde(b)> = omega(a ox conj(b)), w = 1."""
    return omega_eval(purify(rho), a, np.conj(b))


def omega_gram(p):
    """Gram matrix G of omega on the column-stacking vec basis:
    omega_eval(p, a, b) = vec(a)^T G vec(b), G = kron(r, conj(r))."""
    return np.kron(p.r, p.r.conj())


def db2_entangled_oracle(tau, rho):
    p = purify(rho)
    hat = bar_map(rho_dual(tau, rho))
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
        lhs = halfinv @ tilde(e).apply(half) @ half
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


def one(s):
    """The stack of the one map s that the kernels take (superop._Stack)."""
    return superop._stack((s,))


# ------------------------------------------------------------------ tests


def test_pair_max_is_the_bilinear_pair_maximum():
    """Complex diagonal G = diag(g), non-symmetric L, R: the kernel's
    maximum is the one over basis pairs of |F(e_i, R e_j) - F(L e_i, e_j)|
    with F(x, y) = x^T G y."""
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
    assert close(float(_pair_max(g[:, None], right, left.T, g, False)), want)


@pytest.mark.parametrize("n", [2, 9, 10, 12, 16])
def test_pair_residual_matches_the_one_shot_expression(n):
    """The kernel's dense pass reads the other map, as is or realigned, as a
    view.  The one-shot expression over full copies is its reference, bit
    for bit, since a maximum is exact; with mirror the conjugate is taken
    after the real scaling, which moves at most the sign of a zero.  A NaN
    anywhere, in the last row too, is the result."""
    rng = np.random.default_rng(210 + n)
    size = n * n
    left, right = (
        rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size)) for _ in range(2)
    )
    g = rng.uniform(0.1, 1.0, size)
    tau, other = SuperOperator(n, left), SuperOperator(n, right)
    bar = right.reshape(n, n, n, n).transpose(1, 0, 3, 2).reshape(size, size)
    for axes, copy in ((_SAME_AXES, right), (_BAR_AXES, bar)):
        for mirror in (False, True):
            want = np.max(np.abs(g[:, None] * (copy.conj() if mirror else copy) - left.T * g))
            assert _pair_residual(g, one(tau), one(other), axes, mirror) == [want]
    right = right.copy()
    right[-1, -1] = np.nan
    assert np.isnan(_pair_residual(g, one(tau), one(SuperOperator(n, right)))[0])


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


REPORT_CHECKS = (
    "dynamics", "db2_definition", "db2_modular", "db2_entangled", "sqdb_definition",
    "sqdb_entangled", "delta_commutes", "db2_tfd", "sqdb_tfd",
)


def same_report(a, b):
    """Every check of two reports holds the same verdict, residual and
    detail, bit for bit (a NaN matches a NaN), and so do their flags."""
    for name in REPORT_CHECKS:
        x, y = getattr(a, name), getattr(b, name)
        if x is None or y is None:
            assert x is y, name
            continue
        assert x.passed == y.passed and same_bits(x.residual, y.residual), name
        assert x.detail.keys() == y.detail.keys(), name
        assert all(same_bits(x.detail[k], y.detail[k]) for k in x.detail), name
    assert (a.consistency, a.tfd_agrees, a.degenerate_rho) == (
        b.consistency, b.tfd_agrees, b.degenerate_rho
    )


# the cases above and dense maps at n = 5 and 6, the sizes below the
# stored-entry route (superop._GATHER_MIN_N) that the command line stacks
STACK_CASES = CASES + [
    (f"{name}-{n}", make, n) for n in (5, 6) for name, make in (
        ("schur-db2", _schur), ("random-unital", _random_unital),
    )
]
STACK_PARAMS = [
    pytest.param(make, n, k, id=f"{name}-{tname}")
    for name, make, n in STACK_CASES
    for k, (tname, _) in enumerate(thetas(n))
]


@pytest.mark.parametrize("mode", [MODE_CP, MODE_POSITIVITY])
@pytest.mark.parametrize("make,n,k", STACK_PARAMS)
def test_stacked_reports_match_each_map_alone_bit_for_bit(make, n, k, mode):
    """balance._reports decides tau, tau^2 and tau^3 as one stack; each of
    its reports is run_report on that map alone, with the mirror checks
    and without, in every residual, detail, verdict, consistency and
    tfd_agrees.  Each map alone is a fresh copy, so that it solves its own
    Choi spectrum and unital residual."""
    tau, rho = make(n)
    th = thetas(n)[k][1]
    maps = [tau, tau.power(2), tau.power(3)]
    for tfd in (False, True):
        stacked = balance._reports(maps, rho, th, mode=mode, tfd=tfd)
        assert len(stacked) == 3
        for m, report in zip(maps, stacked):
            alone = run_report(SuperOperator(n, m.mat), rho, th, mode=mode, tfd=tfd)
            same_report(report, alone)


def command_line_problem(tmp_path, family, n, rotated):
    """The parsed problem file of a generated family on M_n, in rho's
    eigenbasis or, rotated, stated in the basis of a Haar unitary."""
    payload = generate_payload(family, n, 3, 0.75, 0.2, 380 + n)
    if rotated:
        w = haar_unitary(n, 390 + n)

        def enc(m):
            return [[[x.real, x.imag] for x in row] for row in m.tolist()]

        ops = [np.array(op) @ [1, 1j] for op in payload["channel"]["data"]]
        payload["rho"] = enc(w @ np.diag(payload["rho"]) @ w.conj().T)
        payload["channel"]["data"] = [enc(w @ op @ w.conj().T) for op in ops]
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return parse_problem(str(path))


@pytest.mark.parametrize("mode", [MODE_CP, MODE_POSITIVITY])
@pytest.mark.parametrize("rotated", [False, True], ids=["eigenbasis", "rotated"])
@pytest.mark.parametrize("family", ["schur-db2", "random-unital"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_command_line_stacks_match_each_power_alone(
    n, family, rotated, mode, tmp_path, monkeypatch
):
    """cli.run_checks with --tfd on the powers 1 ... 2 s + 1 of a file, s
    the stack size at n (balance._stack_size), decides them in three stacks;
    each power's payload holds the bits of run_report(tfd=True) on that
    power alone, a fresh map."""
    parsed = command_line_problem(tmp_path, family, n, rotated)
    powers = tuple(range(1, 2 * balance._stack_size(n) + 2))
    stacks = []
    real = balance._reports
    monkeypatch.setattr(
        balance, "_reports", lambda maps, *args: stacks.append(len(maps)) or real(maps, *args)
    )
    got = run_checks(replace(parsed, powers=powers), tfd=True, mode=mode)["reports"]
    assert stacks == [balance._stack_size(n)] * 2 + [1]
    for k, entry in zip(powers, got, strict=True):
        tau_k = SuperOperator(n, parsed.tau.power(k).mat)
        alone = run_report(tau_k, parsed.rho, parsed.theta, parsed.tol, mode, tfd=True)
        assert json.dumps(entry) == json.dumps(_quantum_entry(k, alone)), k


# the operands and kernels that each public check forms for itself once its
# channel is admitted: a state dual (duals._dual), Theta-conjugates
# (duals._conjugates), the dual's Choi spectrum (superop._choi_test) and the
# kernels of balance
OWN_WORK = {
    "check_db2_definition": {"_dual": 1, "_choi_test": 1},
    "check_db2_modular": {"_commutators": 1},
    "check_db2_entangled": {"_dual": 1, "_pair_residual": 1, "_distances": 1},
    "check_sqdb_definition": {"_conjugates": 1, "_distances": 1},
    "check_sqdb_entangled": {"_conjugates": 1, "_pair_residual": 1},
    "check_db2_tfd": {"_dual": 1, "_pair_residual": 1},
    "check_sqdb_tfd": {"_conjugates": 1, "_pair_residual": 1},
}
SPIED = {
    duals: ("_dual", "_conjugates"),
    superop: ("_choi_test",),
    balance: ("_dual", "_conjugates", "_distances", "_commutators", "_pair_residual"),
}


@pytest.mark.parametrize("name", OWN_WORK)
@pytest.mark.parametrize("n", [3, 8])
def test_each_public_check_forms_only_its_own_operands(n, name, monkeypatch):
    """Each public check forms its own operands and runs its own kernels,
    nothing of the other characterizations: on a dense map at n = 3 and a
    schur-db2 map at n = 8 that takes the stored-entry route, after the map
    is admitted (require_dynamics), so its Choi spectrum is kept.  A check
    that took its verdict from the whole report would form them all."""
    rho = random_density(n, seed=400 + n)
    if n == 3:
        tau = random_unital_channel(n, 3, 400 + n)
    else:
        tau = schur_db2_channel(rho, seed=400 + n)
        assert tau._at is not None
    th = transpose_reversing(n)
    require_dynamics(tau, rho)
    calls = collections.Counter()

    def counted(key, real):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)

        return wrapper

    for module, keys in SPIED.items():
        for key in keys:
            monkeypatch.setattr(module, key, counted(key, getattr(module, key)))
    args = (tau, rho, th) if "sqdb" in name else (tau, rho)
    getattr(balance, name)(*args)
    assert calls == OWN_WORK[name]


@pytest.mark.parametrize("make,n", CASE_PARAMS)
def test_an_overflowing_power_leaves_the_other_reports_alone(make, n):
    """A power whose entries overflow to inf and NaN (of twice the channel)
    fails its CP test, unsolved, and the stack raises InputNotDynamics for
    it, the first map in order that is no channel.  The maps before and
    after it keep the numbers they would solve alone: their reports from
    those kept numbers match fresh copies bit for bit."""
    tau, rho = make(n)
    th = transpose_reversing(n)
    with np.errstate(over="ignore", invalid="ignore"):
        big = SuperOperator(n, 2 * tau.mat).power(1100)
        assert not np.all(np.isfinite(big.mat))
        maps = [tau, big, tau.power(2)]
        with pytest.raises(InputNotDynamics, match=r"not completely positive \(residual nan\)"):
            balance._reports(maps, rho, th, tfd=True)
    assert math.isnan(big._choi_spectrum[0])
    kept = [maps[0], maps[2]]
    assert all("_choi_spectrum" in vars(m) for m in kept)
    for m, report in zip(kept, balance._reports(kept, rho, th, tfd=True)):
        same_report(report, run_report(SuperOperator(n, m.mat), rho, th, tfd=True))


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


def test_matrix_units_basis():
    units = matrix_units(3)
    assert len(units) == 9
    for j, k, e in units:
        assert e[j, k] == 1.0
        assert np.sum(np.abs(e)) == 1.0
    assert [(j, k) for j, k, _ in units] == [(j, k) for j in range(3) for k in range(3)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_kms_identity_holds_on_matrix_units(n):
    assert kms_oracle(random_density(n, seed=90 + n)) <= 1e-12
    assert kms_oracle(make_density(np.diag(DEGENERATE_SPECTRA[n]))) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_tilde_substitution_holds_on_matrix_units(n):
    for seed in range(3):
        rho = random_density(n, seed=60 + 10 * n + seed)
        assert tilde_substitution_oracle(rho) <= 1e-12
    rho = make_density(np.diag(DEGENERATE_SPECTRA[n]))
    assert tilde_substitution_oracle(rho) <= 1e-12


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
    """A Haar u (not involutive, so handed over unchecked, as a builder
    hands over its u: the formulas hold for every unitary u), a symmetric v
    v^T and, for even n, the block spin reversal."""
    v = haar_unitary(n, 140 + n)
    out = [
        ("haar", duals._reversing(haar_unitary(n, 150 + n))),
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
    assert np.array_equal(transpose_reversing(n).superop().mat, commutation_matrix(n))


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
    d = modular_power(rho, 1j).mat
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


# ------------------------------------ the stored-entry route against the dense passes


def lone_entry_map(n, seed):
    """One off-diagonal entry: E_10 -> z E_01 (at n = 1, a scaling)."""
    z = complex(*np.random.default_rng(seed).standard_normal(2))
    m = np.zeros((n * n, n * n), dtype=complex)
    k = min(1, n - 1)
    m[n * k, k] = z  # row: vec index of E_01; column: of E_10
    return SuperOperator(n, m)


def phase_rotated_gad():
    """A gad-sqdb channel conjugated by D = diag(1, e^(0.7 i)), with
    Theta's u = D^2: the Theta-conjugate is not the channel itself."""
    phase = np.diag([1.0, np.exp(0.7j)])
    tau, rho = gad_sqdb_channel(0.75, 0.2)
    ops = [phase @ v @ phase.conj().T for v in gad_kraus(0.75, 0.2).ops]
    return from_kraus(ops), rho, make_reversing(phase @ phase)


def route_cases(n):
    """(name, map, state, reversing operation) for the route oracle at n."""
    rho = random_density(n, seed=300 + n)
    th = transpose_reversing(n)
    cases = [
        ("schur-db2", schur_db2_channel(rho, seed=300 + n), rho, th),
        ("random-unital", random_unital_channel(n, 3, 300 + n), rho, th),
        ("transpose", th.superop(), rho, th),
        ("zero", SuperOperator(n, np.zeros((n * n, n * n), dtype=complex)), rho, th),
        ("lone-entry", lone_entry_map(n, 310 + n), rho, th),
    ]
    if n >= 2:
        spectrum = np.repeat(np.arange(n, 0, -1.0), 2)[:n]  # equal pairs
        tau, drho = degenerate_db2_channel(320 + n, spectrum=spectrum / spectrum.sum())
        cases.append(("degenerate-db2", tau, drho, th))
    if n == 2:
        tau, grho = gad_sqdb_channel(0.75, 0.2)
        cases.append(("gad", tau, grho, th))
        tau, srho = symmetrized_sqdb_channel(0.7, 0.3)
        cases.append(("symmetrized-sqdb", tau, srho, th))
        cases.append(("phase-rotated-gad", *phase_rotated_gad()))
    return cases


ROUTE_PARAMS = [
    pytest.param(n, name, id=f"{name}-{n}")
    for n in range(1, 9)
    for name, *_ in route_cases(n)
]


def kernel_checks(tau, rho, th, mode=MODE_CP):
    """Every check of run_report, each characterization's function on
    run_report's operands, but without the dynamics check, so that maps
    which are no channels (and entries which are NaN) reach them too; each
    check as a thunk.  A map keeps the positions it finds first, so the
    thunks run on a fresh copy of tau: call kernel_checks and its thunks
    under one route."""
    tau = one(SuperOperator(tau.n, tau.mat))
    dual = one(rho_dual(tau[0], rho))
    conj = one(theta_conjugate(tau[0], th))
    tol = DEFAULT_TOL
    return {
        "cp": lambda: balance._cp_check(tau[0], tol, mode),
        "db2_definition": lambda: balance._db2_definition(dual, tol, mode)[0],
        "db2_modular": lambda: balance._db2_modular(tau, rho, tol)[0],
        "db2_entangled": lambda: balance._db2_entangled(tau, dual, rho, tol)[0],
        "sqdb_definition": lambda: balance._sqdb_definition(tau, conj, rho, tol)[0],
        "sqdb_entangled": lambda: balance._sqdb_entangled(tau, conj, rho, tol)[0],
        "db2_tfd": lambda: balance._db2_tfd(tau, dual, rho, tol)[0],
        "sqdb_tfd": lambda: balance._sqdb_tfd(tau, conj, rho, tol)[0],
    }


# residuals summed over the stored entries on the gathered route (a norm);
# every other detail is a maximum, an eigenvalue or a dense pass
NORM_DETAILS = {
    "choi_hermiticity", "dual_choi_hermiticity", "modular_commutator",
    "kms_vs_reversed", "hat_vs_channel",
}


def norm_close(a, b):
    return a == b or abs(a - b) <= 1e-15 * max(abs(a), abs(b))


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes() or (math.isnan(a) and math.isnan(b))


def assert_same_check(gathered, dense, where):
    assert gathered.passed == dense.passed, where
    assert gathered.detail.keys() == dense.detail.keys(), where
    for key, value in dense.detail.items():
        if key in NORM_DETAILS:
            assert norm_close(gathered.detail[key], value), (where, key)
        else:
            assert same_bits(gathered.detail[key], value), (where, key)
    norm_set = any(dense.residual == dense.detail[k] for k in NORM_DETAILS & dense.detail.keys())
    if norm_set:
        assert norm_close(gathered.residual, dense.residual), where
    else:
        assert same_bits(gathered.residual, dense.residual), where


def run_route(monkeypatch, route, call):
    """call() with every map gathered (route "gather") or none ("dense").
    Only a map whose positions are first read inside call() takes the
    route: call() builds its maps afresh."""
    with monkeypatch.context() as patch:
        if route == "gather":
            patch.setattr(superop, "_GATHER_MIN_N", 1)
            patch.setattr(superop, "_GATHER_SHARE", 1)
        else:
            patch.setattr(superop, "_GATHER_MIN_N", 10**9)
        return call()


@pytest.mark.parametrize("n,name", ROUTE_PARAMS)
def test_kernel_routes_match(n, name, monkeypatch):
    """Each kernel on the stored entries against its dense pass: the same
    verdicts, maxima and eigenvalues bit for bit, norms to 1e-15 relative,
    and the same dual matrices entry for entry."""
    _, tau, rho, th = next(c for c in route_cases(n) if c[0] == name)

    def both(call):
        return [run_route(monkeypatch, r, call) for r in ("gather", "dense")]

    def fresh():
        return SuperOperator(tau.n, tau.mat)

    gathered, dense = both(lambda: {k: f() for k, f in kernel_checks(tau, rho, th).items()})
    for key in dense:
        assert_same_check(gathered[key], dense[key], key)
    for public in (rho_dual, kms_dual):
        assert np.array_equal(*both(lambda: public(fresh(), rho).mat)), public.__name__
    assert norm_close(*both(lambda: delta_commutator_residual(fresh(), rho)))


@pytest.mark.parametrize(
    "n,name", [p for p in ROUTE_PARAMS if p.values[1] not in ("transpose", "zero", "lone-entry")]
)
def test_public_checks_take_either_route_alike(n, name, monkeypatch):
    """The public checks and run_report(tfd=True) of every channel in the
    route oracle (the transpose, zero and lone-entry maps are none), on
    both routes."""
    _, given, rho, th = next(c for c in route_cases(n) if c[0] == name)

    def public():
        tau = SuperOperator(given.n, given.mat)
        report = run_report(tau, rho, th, tfd=True)
        out = {f: getattr(report, f) for f in (
            "dynamics", "db2_definition", "db2_modular", "db2_entangled", "sqdb_definition",
            "sqdb_entangled", "delta_commutes", "db2_tfd", "sqdb_tfd",
        )}
        out["check_db2_tfd"] = check_db2_tfd(tau, rho)
        out["check_sqdb_tfd"] = check_sqdb_tfd(tau, rho, th)
        out["check_sqdb_definition"] = check_sqdb_definition(tau, rho, th)
        return out, (report.consistency, report.tfd_agrees)

    gathered, dense = (run_route(monkeypatch, r, public) for r in ("gather", "dense"))
    assert gathered[1] == dense[1]
    for key in dense[0]:
        assert_same_check(gathered[0][key], dense[0][key], key)


def route_spies(monkeypatch):
    """Record, per kernel, whether it ran on the stored entries."""
    seen = collections.defaultdict(set)

    def spy(module, name, kernel, gathered):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            out = real(*args, **kwargs)
            seen[kernel(args) if callable(kernel) else kernel].add(gathered(args, kwargs, out))
            return out

        monkeypatch.setattr(module, name, wrapper)

    spy(superop, "_gathered_choi", "cp", lambda a, k, out: True)
    # a dual's entries are formed from rows and columns of stored entries,
    # or from the whole view, by one kernel: the state dual's multiplies
    # its rows, the kms dual's divides them
    spy(duals, "_scaled", lambda a: "rho_dual" if a[0][0] is np.multiply else "kms_dual",
        lambda a, k, out: out.ndim == 1)
    spy(balance, "_commutators", "commutator", lambda a, k, out: a[0].stored is not None)
    spy(balance, "_pair_residual", "pair",
        lambda a, k, out: a[1].stored is not None and a[2].stored is not None)
    # the sorted flat positions stored by either operand of a norm, or None
    spy(balance, "_union", "norm", lambda a, k, out: out is not None)
    return seen


KERNELS = {"cp", "rho_dual", "kms_dual", "commutator", "pair", "norm"}


@pytest.mark.parametrize("n,family,gathered", [
    (7, "schur-db2", True), (7, "degenerate-db2", True),
    (6, "schur-db2", False), (6, "degenerate-db2", False),
    (7, "random-unital", False), (8, "random-unital", False),
])
def test_kernel_route_choice(n, family, gathered, monkeypatch):
    """Every kernel follows the CP test's rule (superop._stored): the
    stored entries at n = 7, the dense passes at n = 6 and for a dense map."""
    rho = random_density(n, seed=330 + n)
    th = transpose_reversing(n)
    if family == "schur-db2":
        tau = schur_db2_channel(rho, seed=330 + n)
    elif family == "random-unital":
        tau = random_unital_channel(n, 3, 330 + n)
    else:
        spectrum = np.repeat(np.arange(n, 0, -1.0), 2)[:n]
        tau, rho = degenerate_db2_channel(330 + n, spectrum=spectrum / spectrum.sum())
    seen = route_spies(monkeypatch)
    run_report(tau, rho, th, tfd=True)
    check_db2_tfd(tau, rho)
    check_sqdb_tfd(tau, rho, th)
    rho_dual(tau, rho)
    kms_dual(tau, rho)
    delta_commutator_residual(tau, rho)
    if gathered:
        assert set(seen) == KERNELS and all(v == {True} for v in seen.values()), dict(seen)
    else:
        # the CP test's gathered solve is never reached on the dense passes
        assert set(seen) == KERNELS - {"cp"}, dict(seen)
        assert all(v == {False} for v in seen.values()), dict(seen)


def test_sparse_channel_with_a_dense_theta_conjugate(monkeypatch):
    """A balanced channel at n = 8 stores few entries, its conjugate under
    a reversing operation other than the transpose stores all of them:
    the db2 kernels then follow the channel's stored entries and the sqdb
    kernels, which read the conjugate, make their dense passes.  Every
    check matches the all-dense route (bits, norms to 1e-15 relative)."""
    n = 8
    rho = random_density(n, seed=345)
    tau = schur_db2_channel(rho, seed=345)
    v = haar_unitary(n, 346)
    th = make_reversing(v @ v.T)
    seen = route_spies(monkeypatch)
    mixed = {k: f() for k, f in kernel_checks(tau, rho, th).items()}
    fresh = SuperOperator(n, tau.mat)
    assert fresh._at is not None and theta_conjugate(fresh, th)._at is None
    assert seen["pair"] == {True, False} and seen["norm"] == {True, False}, dict(seen)
    assert seen["cp"] == {True}
    dense = run_route(
        monkeypatch, "dense", lambda: {k: f() for k, f in kernel_checks(tau, rho, th).items()}
    )
    for key in dense:
        assert_same_check(mixed[key], dense[key], key)


def signed_zeros(m):
    """m with every zero half, stored entry or not, turned into -0.0."""
    halves = m.copy().view(np.float64)
    halves[halves == 0] = -0.0
    return halves.view(complex)


@pytest.mark.parametrize("n,family,zeros", [
    (8, "schur-db2", "plain"), (8, "schur-db2", "negative"),
    (9, "degenerate-db2", "plain"), (9, "degenerate-db2", "negative"),
])
def test_union_norms_read_the_realigned_views(n, family, zeros):
    """The two norms over a union of stored positions (hat_vs_channel,
    kms_vs_reversed) spread each operand's own entries into the union.
    They equal, bit for bit, the norm of the realigned views read at every
    position either view stores, in C order, also when the unstored
    entries (and zero halves of stored ones) are -0.0."""
    rho = random_density(n, seed=370 + n)
    if family == "schur-db2":
        tau = schur_db2_channel(rho, seed=370 + n)
    else:
        spectrum = np.repeat(np.arange(n, 0, -1.0), 2)[:n]
        tau, rho = degenerate_db2_channel(370 + n, spectrum=spectrum / spectrum.sum())
    if zeros == "negative":
        tau = SuperOperator(n, signed_zeros(tau.mat))
    dual = rho_dual(tau, rho)
    assert tau._at is not None and dual._at is not None

    def union_norm(left, right):
        idx = np.unravel_index(np.flatnonzero((left != 0) | (right != 0)), (n,) * 4)
        return float(np.linalg.norm(left[idx] - right[idx]))

    g = rho._pair_gram
    got = balance._distances(one(dual), _BAR_AXES, one(tau), _SAME_AXES)[0]
    hat = superop._realign(dual.mat, n, _BAR_AXES)
    assert same_bits(got, union_norm(hat, tau.mat.reshape((n,) * 4)))
    kms_scaling = duals._scaling(rho, kms=True)
    got = balance._distances(one(tau), superop._DUAL_AXES, one(tau), _BAR_AXES, kms_scaling)[0]
    half = np.sqrt(np.outer(rho.diag, rho.diag))
    kms = superop._realign(tau.mat, n, superop._DUAL_AXES) / half[:, :, None, None] * half
    assert same_bits(got, union_norm(kms, superop._realign(tau.mat, n, _BAR_AXES)))


def test_one_search_per_map(monkeypatch):
    """A map finds its stored entries once: run_report(tfd=True) and the two
    public mirror checks on one sparse channel at n = 8 share one search,
    and its duals and its Theta-conjugate (the channel itself) run none."""
    rho = random_density(8, seed=335)
    tau = schur_db2_channel(rho, seed=335)
    th = transpose_reversing(8)
    searches = []
    real = superop._stored

    def counted(m, n):
        searches.append(n)
        return real(m, n)

    monkeypatch.setattr(superop, "_stored", counted)
    run_report(tau, rho, th, tfd=True)
    check_db2_tfd(tau, rho)
    check_sqdb_tfd(tau, rho, th)
    assert tau._at is not None
    assert searches == [8]


@pytest.mark.parametrize("family,n", [("random-unital", 3), ("schur-db2", 8)])
def test_one_choi_solve_per_map(family, n, monkeypatch):
    """A map solves its Choi spectrum once: every public entry point on one
    channel, dense (random-unital) or on the stored-entry route (schur-db2
    at n = 8), shares one solve of the channel's.  A state dual is a new map
    in each call that builds it, and the two calls that CP-test one
    (run_report, check_db2_definition) solve it once each."""
    rho = random_density(n, seed=336)
    if family == "schur-db2":
        tau = schur_db2_channel(rho, seed=336)
    else:
        tau = random_unital_channel(n, 3, 336)
    th = transpose_reversing(n)
    solved = []
    real = superop._choi_test

    def counted(ss):
        solved.extend(ss)
        return real(ss)

    monkeypatch.setattr(superop, "_choi_test", counted)
    run_report(tau, rho, th, tfd=True)
    for check in (check_db2_definition, check_db2_modular, check_db2_entangled, check_db2_tfd):
        check(tau, rho)
    for check in (check_sqdb_definition, check_sqdb_entangled, check_sqdb_tfd):
        check(tau, rho, th)
    require_dynamics(tau, rho)
    is_completely_positive(tau)
    assert (tau._at is not None) == (family == "schur-db2")
    assert len(solved) == 3
    assert solved[0] is tau
    assert all(s is not tau for s in solved[1:])
    assert solved[1] is not solved[2]


# the values a map forms on their first read; a state and a reversing
# operation form theirs when they are built (test_states, test_duals)
KEPT = ("_at", "_entries", "_unital_residual", "_choi_spectrum")


@pytest.mark.parametrize("family,n", [("random-unital", 3), ("schur-db2", 8)])
def test_derived_values_formed_once(family, n, monkeypatch):
    """Each map forms the values derived from it alone at most once: over
    every public entry point on one channel, dense (random-unital) or on
    the stored-entry route (schur-db2 at n = 8), the channel's unital
    residual is computed once, and each state dual (a new map per call that
    builds it) computes its own once.  The state and Theta form nothing
    after they are built."""
    rho = random_density(n, seed=337)
    if family == "schur-db2":
        tau = schur_db2_channel(rho, seed=337)
    else:
        tau = random_unital_channel(n, 3, 337)
    th = transpose_reversing(n)
    built = {obj: dict(vars(obj)) for obj in (rho, th)}
    formed = collections.Counter()
    for name in KEPT:
        prop = SuperOperator.__dict__[name]

        def counted(obj, name=name, real=prop.func):
            formed[name, obj] += 1
            return real(obj)

        monkeypatch.setattr(prop, "func", counted)
    run_report(tau, rho, th, tfd=True)
    for check in (check_db2_definition, check_db2_modular, check_db2_entangled, check_db2_tfd):
        check(tau, rho)
    for check in (check_sqdb_definition, check_sqdb_entangled, check_sqdb_tfd):
        check(tau, rho, th)
    require_dynamics(tau, rho)
    assert (tau._at is not None) == (family == "schur-db2")
    assert set(formed.values()) == {1}
    # the channel and the state duals of run_report and of the three db2
    # checks that build one; at n = 3 run_report forms the channel's and its
    # dual's in one stacked pass (superop._kept), not through the properties
    maps = [obj for name, obj in formed if name == "_unital_residual"]
    stacked = family == "random-unital"
    assert len(maps) == (3 if stacked else 5) and (tau in maps) != stacked
    assert {"_unital_residual", "_choi_spectrum"} <= vars(tau).keys()
    for obj, kept in built.items():
        assert vars(obj).keys() == kept.keys()
        assert all(vars(obj)[key] is value for key, value in kept.items())


# everything a map holds after every kernel has read it: n, mat, the
# positions it formed per realignment (_placed) and the values of KEPT; a
# dense map forms no stored entries, and a state dual of a map on the
# stored-entry route also holds the map it reads its positions from
HELD = {"n", "mat", "_placed", *KEPT}


@pytest.mark.parametrize("family,n", [("schur-db2", 12), ("random-unital", 8)])
def test_each_map_holds_only_the_documented_values(family, n, monkeypatch):
    rho = random_density(n, seed=338)
    if family == "schur-db2":
        tau = schur_db2_channel(rho, seed=338)
    else:
        tau = random_unital_channel(n, 3, 338)
    made = []

    def recorded(*args, **kwargs):
        out = real(*args, **kwargs)
        made.extend(out)
        return out

    real = balance._dual
    monkeypatch.setattr(balance, "_dual", recorded)
    run_report(tau, rho, transpose_reversing(n), tfd=True)
    stored = family == "schur-db2"
    assert (tau._at is not None) == stored
    held = HELD if stored else HELD - {"_entries"}
    assert set(vars(tau)) == held
    (dual,) = made
    assert set(vars(dual)) == (held | {"_source"} if stored else held)


def poisoned(tau, spot, bad):
    m = tau.mat.copy()
    m.flat[spot] = bad
    return SuperOperator(tau.n, m)


@pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.nan), complex(np.inf, 0.0)])
@pytest.mark.parametrize("where", ["stored", "transposed-only"])
@pytest.mark.parametrize("route", ["gather", "dense"])
@pytest.mark.parametrize("n", [3, 7])
def test_no_kernel_passes_a_nan_entry(n, route, where, bad, monkeypatch):
    """A NaN or inf in the channel fails every kernel with a non-finite
    residual (NaN for a NaN), on both routes: on one of its stored
    entries, or where the channel stores nothing at the transposed
    position, so that the pair kernels reach it only through the transposed
    set of stored entries."""
    rho = random_density(n, seed=340 + n)
    tau = schur_db2_channel(rho, seed=340 + n)
    stored = np.flatnonzero(tau.mat)
    big = n * n
    if where == "stored":
        spot = stored[len(stored) // 2]
    else:
        p, q = np.divmod(np.arange(big * big), big)
        lone = np.flatnonzero((tau.mat.ravel() == 0) & (tau.mat.T.ravel() == 0) & (p != q))
        spot = lone[0]
    bad_tau = poisoned(tau, spot, bad)
    with np.errstate(invalid="ignore"):  # inf times a zero factor
        th = transpose_reversing(n)
        results = run_route(monkeypatch, route, lambda: {
            name: check() for name, check in kernel_checks(bad_tau, rho, th).items()
        })
        for name, res in results.items():
            assert not res.passed, name
            assert not math.isfinite(res.residual), name
            if np.isnan(bad):
                assert math.isnan(res.residual), name


@pytest.mark.parametrize("conj", [False, True])
@pytest.mark.parametrize("side", ["left", "right"])
def test_split_pair_maximum_keeps_nan(side, conj, monkeypatch):
    """The gathered pair kernel takes its maximum in two parts, over the
    stored entries of right and over the transposed ones of left.  A NaN or
    inf in either part, behind a larger finite term in the other, decides
    the result, as in the dense pass.  Each route runs on fresh maps."""
    n = 3
    big = n * n
    rng = np.random.default_rng(350)
    g = rng.uniform(0.1, 1.0, big)
    left = np.zeros((big, big), dtype=complex)
    right = np.zeros((big, big), dtype=complex)
    right[0, 1] = 5.0  # the large finite term, at pair (0, 1) through right
    for bad in (np.nan, np.inf):
        lt, rt = left.copy(), right.copy()
        if side == "left":
            lt[2, 4] = bad  # pair (4, 2), right[4, 2] = 0: only in left's transposed set
        else:
            rt[4, 2] = bad  # pair (4, 2), left[2, 4] = 0: only in right's set

        def pair():
            tau, other = SuperOperator(n, lt), SuperOperator(n, rt)
            out = _pair_residual(g, one(tau), one(other), mirror=conj)[0]
            return out, (tau._at is None, other._at is None)

        with np.errstate(invalid="ignore"):  # inf times a zero factor
            dense, unstored = run_route(monkeypatch, "dense", pair)
            assert unstored == (True, True)
            gathered, unstored = run_route(monkeypatch, "gather", pair)
            assert unstored == (False, False)
        assert not math.isfinite(dense)
        assert same_bits(gathered, dense)


def test_db2_definition_keeps_a_nan_unital_residual():
    """The state dual's CP residual and unital residual are joined by
    np.maximum: a NaN unital residual behind a finite CP residual is the
    result (Python max would return the CP residual)."""
    n = 3
    rho = random_density(n, seed=360)
    dual = rho_dual(schur_db2_channel(rho, seed=360), rho)
    vars(dual)["_unital_residual"] = math.nan
    res = balance._db2_definition(one(dual), DEFAULT_TOL, MODE_CP)[0]
    assert math.isfinite(res.detail["dual_choi_hermiticity"])
    assert math.isnan(res.residual)
    assert not res.passed
