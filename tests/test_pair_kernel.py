"""The Gram-matrix pair kernel against the per-pair loops it replaced.

Every pair identity (entangled, mirror, classical functional) and the
state-invariance test are decided by balance._pair_residual.  The loops
below are the defining forms, one evaluation of the functional per pair of
matrix units; at n <= 4 the kernel must reproduce their residuals to
1e-12 relative and give the same verdicts.
"""

import numpy as np
import pytest

from detbal.balance import (
    _pair_residual,
    check_db2_definition,
    check_db2_entangled,
    check_db2_modular,
    check_sqdb_entangled,
    classical_phi_balance,
    run_report,
)
from detbal.duals import hat_map, make_reversing, rho_dual, theta_conjugate, transpose_reversing
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
from detbal.states import expectation, omega_eval, omega_gram, purify
from detbal.superop import vec
from detbal.thermofield import check_db2_tfd, check_sqdb_tfd, expect_tilde

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
    """Non-symmetric G, L, R: the kernel is the maximum over basis pairs of
    |F(e_i, R e_j) - F(L e_i, e_j)| with F(x, y) = x^T G y."""
    rng = np.random.default_rng(5)
    m = 6
    g, left, right = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)) for _ in range(3))
    eye = np.eye(m)
    want = max(
        abs(eye[i] @ g @ (right @ eye[j]) - (left @ eye[i]) @ g @ eye[j])
        for i in range(m)
        for j in range(m)
    )
    assert close(_pair_residual(g, left, right), want)


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
