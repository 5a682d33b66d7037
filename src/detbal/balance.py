"""Detailed balance deciders for quantum channels and classical chains.

Two balance notions are decided for a channel tau (completely positive and
unital, in the eigenbasis of the invertible state rho):

Standard detailed balance ("db2"): the state dual tau' is again a channel,
i.e. completely positive and unital.  Three equivalent characterizations
are implemented and cross-checked:

  definition   tau' is CP and unital
  modular      tau commutes with Delta(A) = rho A rho^(-1), and tau
               preserves the state: <tau(A)> = <A> for all A
  entangled    omega[A ox tau_hat(B)] = omega[tau(A) ox B] over all matrix
               unit pairs, and tau_hat(1) = 1, where omega is the purified
               two-copy functional and tau_hat the transposed state dual

Square-root detailed balance ("sqdb") relative to a reversing operation
Theta: the kms dual of tau equals Theta tau Theta.  Two characterizations:

  definition   ||kms_dual(tau) - Theta tau Theta|| = 0
  entangled    omega[A ox tau^Theta(B)] = omega[tau(A) ox B] over all
               matrix unit pairs

Both notions also have a mirror (thermofield) form, stated with the mirror
correlation <A tilde(B)> = tr(rho^(1/2) A rho^(1/2) B^dag) (see thermofield):

  db2_tfd      <tau(A) tilde(B)> = <A tilde(tau'(B))> for all A, B, and
               tau'(1) = 1
  sqdb_tfd     <tau(A) tilde(B)> = <A tilde(Theta tau Theta(B))> for all A, B

Every pair identity is decided at once: a bilinear form with Gram matrix G
on the vec basis, F(A, B) = vec(A)^T G vec(B), has F(E_i, R(E_j)) =
F(L(E_i), E_j) on all matrix-unit pairs iff G R = L^T G.  G = diag(g) with
g = kron(d^(1/2), d^(1/2)) for rho = diag(d) (entangled, mirror) or p, so
_pair_residual is max|g_i R_ij - L_ji g_j|, O(n^4); the pair loops and dense
Gram products are test oracles.  A map s in the antilinear mirror slot
enters as conj(s.mat).

The two notions agree on channels commuting with the modular map; sqdb
does not require that commutation.  check_implication_sqdb_db2 probes the
one-way implication (sqdb + commutation => db2) empirically.

Channels that are not CP+unital are rejected with InputNotDynamics before
any balance verdict; balance failures and input errors never mix.  A
positivity-only mode replaces both CP tests with the weaker fixed-frame
positivity probe for callers who want plain positive dynamics.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .duals import (
    kms_dual,
    rho_dual,
    theta_conjugate,
    ReversingOperation,
)
from .errors import DimensionMismatch, InputNotDynamics, NotStochastic
from .linalg import DEFAULT_TOL, CheckResult, Tolerance, _verdict
from .states import DensityMatrix
from .superop import (
    SuperOperator,
    _realign,
    _unital_defect,
    is_completely_positive,
    is_positive_map,
    is_unital,
    vec,
)

logger = logging.getLogger(__name__)

MODE_CP = "cp"
MODE_POSITIVITY = "positivity"

# entries per row block of the pair kernel: 64 KiB of complex, cache-resident
_PAIR_BLOCK = 4096
# axes of the realignment that reads a matrix as its transpose conjugate (bar_map)
_BAR_AXES = (1, 0, 3, 2)


def _cp_check(s: SuperOperator, tol: Tolerance, mode: str) -> CheckResult:
    if mode == MODE_CP:
        return is_completely_positive(s, tol)
    if mode == MODE_POSITIVITY:
        return is_positive_map(s, tol)
    raise ValueError(f"unknown mode {mode!r}")


def require_dynamics(
    tau: SuperOperator,
    rho: DensityMatrix,
    tol: Tolerance = DEFAULT_TOL,
    mode: str = MODE_CP,
) -> CheckResult:
    """Raise InputNotDynamics unless tau is a (completely) positive unital map;
    return its complete positivity (positivity in MODE_POSITIVITY) check."""
    if tau.n != rho.n:
        raise DimensionMismatch(f"channel on M_{tau.n} vs state of dimension {rho.n}")
    cp = _cp_check(tau, tol, mode)
    if not cp.passed:
        raise InputNotDynamics(
            f"channel is not {'completely positive' if mode == MODE_CP else 'positive'}"
            f" (residual {cp.residual:.3e})"
        )
    un = is_unital(tau, tol)
    if not un.passed:
        raise InputNotDynamics(f"channel is not unital (residual {un.residual:.3e})")
    return cp


def delta_commutator_residual(tau: SuperOperator, rho: DensityMatrix) -> float:
    """Frobenius norm of tau Delta - Delta tau on the superoperator level;
    Delta = diag(r), r = kron(1/d, d), so entry (i, j) is tau_ij (r_j - r_i)."""
    r = np.outer(1.0 / rho.diag, rho.diag).ravel()
    out = np.subtract(r, r[:, None], dtype=complex)
    out *= tau.mat
    return float(np.linalg.norm(out))


def _pair_residual(
    g: np.ndarray, left: np.ndarray, right: np.ndarray, conj: bool = False
) -> float:
    """Largest |F(e_i, right e_j) - F(left e_i, e_j)| over basis pairs, for
    F(x, y) = x^T diag(g) y: max|g_i right_ij - left_ji g_j|, O(n^4).

    left is a matrix.  right is one too, or the (n, n, n, n) realignment of
    a matrix as a view (its rows in C order), so it is never copied.  With
    conj (real g) conj(right) is compared: a map in the antilinear mirror
    slot.  A matrix of more than _PAIR_BLOCK entries is taken in row blocks
    of at most that many, so the pass makes no n^2 x n^2 temporary."""
    h = right.ndim // 2
    rows = g.reshape(right.shape[:h] + (1,) * h)
    step = max(1, _PAIR_BLOCK * len(right) // right.size)
    if step >= len(right):  # one block; slicing would cost as much as the pass at n <= 4
        return float(_pair_block(rows, right, left.T, g, conj))
    span = len(g) // len(right)  # rows per index of right's first axis
    worst = None
    for i in range(0, len(right), step):
        top = _pair_block(
            rows[i : i + step], right[i : i + step], left.T[i * span : (i + step) * span], g, conj
        )
        worst = top if worst is None else np.maximum(worst, top)
    return float(worst)


def _pair_block(rows, right, left_t, g, conj):
    """max|rows right - left_t g| over one block of rows (conj(rows right)
    with conj); a NaN entry makes the result NaN."""
    blk = np.multiply(rows, right, order="C")
    if conj:
        np.conjugate(blk, out=blk)
    flat = blk.reshape(left_t.shape)
    flat -= left_t * g
    return np.abs(flat).max()


def _pair_gram(rho: DensityMatrix) -> np.ndarray:
    """Diagonal of states.omega_gram (w = 1) and of the mirror Gram matrix
    kron(rho^(1/2), (rho^(1/2))^T): kron(d^(1/2), d^(1/2)), rho = diag(d)."""
    half = np.sqrt(rho.diag)
    return np.outer(half, half).ravel()


def _db2_definition(dual, tol, mode) -> CheckResult:
    cp = _cp_check(dual, tol, mode)
    un = is_unital(dual, tol)
    detail = {f"dual_{k}": v for k, v in cp.detail.items()}
    detail["dual_unital"] = un.residual
    return CheckResult(
        passed=bool(cp.passed and un.passed),
        residual=max(cp.residual, un.residual),
        detail=detail,
        tol=tol,
    )


def _db2_modular(tau, rho, tol) -> CheckResult:
    comm = delta_commutator_residual(tau, rho)
    # <tau(E_i)> = <E_i> for every matrix unit: vec(rho) = tau^T vec(rho)
    r = vec(rho.matrix())
    inv = float(np.max(np.abs(r - tau.mat.T @ r)))
    return _verdict(tol, {"modular_commutator": comm, "state_invariance": inv})


def _db2_entangled(tau, g, dual, tol) -> CheckResult:
    # hat = bar_map(dual), read as a view; hat(1) = dual(1)^T, whose vec is
    # dual's unital defect with its index pairs swapped
    n = tau.n
    hat = _realign(dual.mat, n, _BAR_AXES)
    hat_unital = float(np.linalg.norm(_unital_defect(dual).reshape(n, n).T.ravel()))
    # distance of the transposed dual from the channel itself;
    # diagnostic only, zero is not required for balance
    hat_vs_channel = np.subtract(hat, tau.mat.reshape(hat.shape), order="C")
    hat_vs_channel = float(np.linalg.norm(hat_vs_channel))
    return _verdict(
        tol,
        {"pair_residual": _pair_residual(g, tau.mat, hat), "hat_unital": hat_unital},
        info={"hat_vs_channel": hat_vs_channel},
    )


def _sqdb_definition(tau, rho, conj, tol) -> CheckResult:
    diff = kms_dual(tau, rho).mat.reshape((tau.n,) * 4)
    diff -= _realign(conj.mat, tau.n, _BAR_AXES)
    return _verdict(tol, {"kms_vs_reversed": float(np.linalg.norm(diff))})


def _sqdb_entangled(tau, g, conj, tol) -> CheckResult:
    return _verdict(tol, {"pair_residual": _pair_residual(g, tau.mat, conj.mat)})


def _db2_tfd(tau, g, dual, dual_unital, tol) -> CheckResult:
    pair = _pair_residual(g, tau.mat, dual.mat, conj=True)
    return _verdict(tol, {"pair_residual": pair, "dual_unital": dual_unital})


def _sqdb_tfd(tau, g, conj, tol) -> CheckResult:
    pair = _pair_residual(g, tau.mat, _realign(conj.mat, tau.n, _BAR_AXES), conj=True)
    return _verdict(tol, {"pair_residual": pair})


def check_db2_definition(
    tau: SuperOperator,
    rho: DensityMatrix,
    tol: Tolerance = DEFAULT_TOL,
    mode: str = MODE_CP,
) -> CheckResult:
    """Standard balance by its definition: the state dual is CP and unital."""
    require_dynamics(tau, rho, tol, mode)
    return _db2_definition(rho_dual(tau, rho), tol, mode)


def check_db2_modular(
    tau: SuperOperator,
    rho: DensityMatrix,
    tol: Tolerance = DEFAULT_TOL,
    mode: str = MODE_CP,
) -> CheckResult:
    """Standard balance via modular commutation plus state invariance."""
    require_dynamics(tau, rho, tol, mode)
    return _db2_modular(tau, rho, tol)


def check_db2_entangled(
    tau: SuperOperator,
    rho: DensityMatrix,
    tol: Tolerance = DEFAULT_TOL,
    mode: str = MODE_CP,
) -> CheckResult:
    """Standard balance via the purified two-copy functional."""
    require_dynamics(tau, rho, tol, mode)
    return _db2_entangled(tau, _pair_gram(rho), rho_dual(tau, rho), tol)


def check_sqdb_definition(
    tau: SuperOperator,
    rho: DensityMatrix,
    th: ReversingOperation,
    tol: Tolerance = DEFAULT_TOL,
    mode: str = MODE_CP,
) -> CheckResult:
    """Square-root balance by its definition: kms dual equals Theta tau Theta."""
    require_dynamics(tau, rho, tol, mode)
    return _sqdb_definition(tau, rho, theta_conjugate(tau, th), tol)


def check_sqdb_entangled(
    tau: SuperOperator,
    rho: DensityMatrix,
    th: ReversingOperation,
    tol: Tolerance = DEFAULT_TOL,
    mode: str = MODE_CP,
) -> CheckResult:
    """Square-root balance via the purified two-copy functional."""
    require_dynamics(tau, rho, tol, mode)
    return _sqdb_entangled(tau, _pair_gram(rho), theta_conjugate(tau, th), tol)


def check_db2_tfd(
    tau: SuperOperator,
    rho: DensityMatrix,
    tol: Tolerance = DEFAULT_TOL,
    mode: str = MODE_CP,
) -> CheckResult:
    """Standard balance in mirror form: <tau(A) tilde(B)> = <A tilde(tau'(B))>
    on all matrix-unit pairs, plus unitality of the state dual."""
    require_dynamics(tau, rho, tol, mode)
    dual = rho_dual(tau, rho)
    return _db2_tfd(tau, _pair_gram(rho), dual, is_unital(dual, tol).residual, tol)


def check_sqdb_tfd(
    tau: SuperOperator,
    rho: DensityMatrix,
    th: ReversingOperation,
    tol: Tolerance = DEFAULT_TOL,
    mode: str = MODE_CP,
) -> CheckResult:
    """Square-root balance in mirror form:
    <tau(A) tilde(B)> = <A tilde(Theta tau Theta(B))> on matrix-unit pairs."""
    require_dynamics(tau, rho, tol, mode)
    return _sqdb_tfd(tau, _pair_gram(rho), theta_conjugate(tau, th), tol)


def check_implication_sqdb_db2(
    tau: SuperOperator,
    rho: DensityMatrix,
    th: ReversingOperation,
    tol: Tolerance = DEFAULT_TOL,
    mode: str = MODE_CP,
) -> CheckResult:
    """Empirical probe of: sqdb together with modular commutation implies db2.

    When the antecedent fails the check is vacuous (applicable = 0, passed).
    When it holds, passed reports whether the standard-balance residual
    clears eq_tol; a False here would be a counterexample worth keeping.
    """
    require_dynamics(tau, rho, tol, mode)
    sq = _sqdb_definition(tau, rho, theta_conjugate(tau, th), tol)
    db2 = _db2_modular(tau, rho, tol)
    comm = db2.detail["modular_commutator"]
    applicable = sq.passed and _verdict(tol, {"commutator": comm}).passed
    if not applicable:
        return CheckResult(
            passed=True,
            residual=0.0,
            detail={"applicable": 0.0, "sqdb_residual": sq.residual, "commutator": comm},
            tol=tol,
        )
    if not db2.passed:
        logger.warning(
            "sqdb + modular commutation without db2: residual %.3e", db2.residual
        )
    return CheckResult(
        passed=db2.passed,
        residual=db2.residual,
        detail={"applicable": 1.0, "sqdb_residual": sq.residual, "db2_residual": db2.residual},
        tol=tol,
    )


@dataclass(frozen=True, eq=False)
class ClassicalChain:
    """Finite Markov chain: strictly positive distribution p, row-stochastic gamma."""

    p: np.ndarray
    gamma: np.ndarray

    @property
    def n(self) -> int:
        return len(self.p)


def make_chain(p, gamma) -> ClassicalChain:
    """Validate chain data to 1e-12 (finiteness, positivity, normalization,
    stochasticity); every comparison fails closed on a NaN."""
    p = np.asarray(p, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    if p.ndim != 1 or gamma.shape != (len(p), len(p)):
        raise DimensionMismatch(f"chain shapes p {p.shape}, gamma {gamma.shape}")
    for name, x in (("p", p), ("gamma", gamma)):
        if not np.all(np.isfinite(x)):
            raise NotStochastic(name, "has a non-finite entry")
    if not np.min(p) > 0.0:
        raise NotStochastic("p", f"must be strictly positive (min {np.min(p):.3e})")
    if not abs(float(np.sum(p)) - 1.0) <= 1e-12:
        raise NotStochastic("p", f"must sum to 1, got {np.sum(p):.12g}")
    if not np.min(gamma) >= -1e-12:
        raise NotStochastic("gamma", f"has a negative entry ({np.min(gamma):.3e})")
    rows = np.abs(gamma.sum(axis=1) - 1.0)
    if not float(np.max(rows)) <= 1e-12:
        raise NotStochastic("gamma", f"rows must sum to 1 (worst {np.max(rows):.3e})")
    return ClassicalChain(p=p, gamma=gamma)


def classical_detailed_balance(c: ClassicalChain, tol: Tolerance = DEFAULT_TOL) -> CheckResult:
    """Pairwise reversibility: p_j gamma_jk = p_k gamma_kj."""
    flow = c.p[:, None] * c.gamma
    return _verdict(tol, {"pairwise": float(np.max(np.abs(flow - flow.T)))})


def classical_phi_balance(c: ClassicalChain, tol: Tolerance = DEFAULT_TOL) -> CheckResult:
    """Functional form of reversibility on the product state.

    With phi(f ox g) = sum_j p_j f_j g_j and (Gamma f)_j = sum_k gamma_jk f_k,
    reversibility says phi[(Gamma f) ox g] = phi[f ox (Gamma g)] for all f, g;
    the residual runs over all coordinate basis pairs.
    """
    return _verdict(tol, {"functional": _pair_residual(c.p, c.gamma, c.gamma)})


@dataclass(frozen=True, eq=False)
class BalanceReport:
    """All balance verdicts for one channel-state pair.

    consistency records whether the three db2 booleans agree and the two
    sqdb booleans agree; these characterizations are provably equivalent,
    so False flags a tolerance artifact (or a bug) rather than physics.
    degenerate_rho is propagated from the state, dynamics from require_dynamics;
    the mirror fields db2_tfd, sqdb_tfd, tfd_agrees are None unless tfd=True.
    """

    db2_definition: CheckResult
    db2_modular: CheckResult
    db2_entangled: CheckResult
    sqdb_definition: CheckResult
    sqdb_entangled: CheckResult
    delta_commutes: CheckResult
    consistency: bool
    degenerate_rho: bool
    dynamics: CheckResult
    db2_tfd: CheckResult | None
    sqdb_tfd: CheckResult | None
    tfd_agrees: bool | None  # db2_tfd, sqdb_tfd agree with db2_entangled, sqdb_definition

    @property
    def db2(self) -> bool:
        return self.db2_definition.passed

    @property
    def sqdb(self) -> bool:
        return self.sqdb_definition.passed


def run_report(
    tau: SuperOperator,
    rho: DensityMatrix,
    th: ReversingOperation,
    tol: Tolerance = DEFAULT_TOL,
    mode: str = MODE_CP,
    tfd: bool = False,
) -> BalanceReport:
    """Run every checker on one (channel, state, reversing operation) triple,
    with the mirror checks if tfd; all share one dynamics check,
    state dual (and its unitality residual), Theta-conjugate and pair Gram."""
    dynamics = require_dynamics(tau, rho, tol, mode)
    dual = rho_dual(tau, rho)
    conj = theta_conjugate(tau, th)
    g = _pair_gram(rho)
    db2_def = _db2_definition(dual, tol, mode)
    db2_mod = _db2_modular(tau, rho, tol)
    db2_ent = _db2_entangled(tau, g, dual, tol)
    sq_def = _sqdb_definition(tau, rho, conj, tol)
    sq_ent = _sqdb_entangled(tau, g, conj, tol)
    delta_commutes = _verdict(tol, {"modular_commutator": db2_mod.detail["modular_commutator"]})
    consistency = (
        db2_def.passed == db2_mod.passed == db2_ent.passed
        and sq_def.passed == sq_ent.passed
    )
    if not consistency:
        logger.warning(
            "characterizations disagree: db2 %s/%s/%s sqdb %s/%s",
            db2_def.passed, db2_mod.passed, db2_ent.passed, sq_def.passed, sq_ent.passed,
        )
    db2_tfd = sq_tfd = tfd_agrees = None
    if tfd:
        db2_tfd = _db2_tfd(tau, g, dual, db2_def.detail["dual_unital"], tol)
        sq_tfd = _sqdb_tfd(tau, g, conj, tol)
        tfd_agrees = db2_tfd.passed == db2_ent.passed and sq_tfd.passed == sq_def.passed
    return BalanceReport(
        db2_definition=db2_def,
        db2_modular=db2_mod,
        db2_entangled=db2_ent,
        sqdb_definition=sq_def,
        sqdb_entangled=sq_ent,
        delta_commutes=delta_commutes,
        consistency=consistency,
        degenerate_rho=rho.degenerate,
        dynamics=dynamics,
        db2_tfd=db2_tfd,
        sqdb_tfd=sq_tfd,
        tfd_agrees=tfd_agrees,
    )


def in_deadband(residual: float, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether a residual sits in the ambiguous band [eq_tol/10, 10*eq_tol].

    Boolean-agreement comparisons between characterizations skip instances
    whose residuals land here: both verdicts are then tolerance artifacts.
    """
    return bool(tol.eq_tol / 10.0 <= residual <= 10.0 * tol.eq_tol)
