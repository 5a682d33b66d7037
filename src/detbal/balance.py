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

Every pair identity is decided at once: a bilinear form with Gram matrix G
on the vec basis, F(A, B) = vec(A)^T G vec(B), has F(E_i, R(E_j)) =
F(L(E_i), E_j) on all matrix-unit pairs iff G R = L^T G (_pair_residual,
shared with thermofield; the per-pair loops are test oracles).  run_report
builds the state dual and the Theta-conjugate (duals) once for both checks
that use each.

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
    bar_map,
    kms_dual,
    rho_dual,
    theta_conjugate,
    ReversingOperation,
)
from .errors import DimensionMismatch, InputNotDynamics, NotStochastic
from .linalg import DEFAULT_TOL, CheckResult, Tolerance
from .states import DensityMatrix, omega_gram, purify
from .superop import (
    SuperOperator,
    is_completely_positive,
    is_positive_map,
    is_unital,
    vec,
)

logger = logging.getLogger(__name__)

MODE_CP = "cp"
MODE_POSITIVITY = "positivity"


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
) -> None:
    """Raise InputNotDynamics unless tau is a (completely) positive unital map."""
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


def delta_commutator_residual(tau: SuperOperator, rho: DensityMatrix) -> float:
    """Frobenius norm of tau Delta - Delta tau on the superoperator level;
    Delta = diag(r), r = kron(1/d, d), so entry (i, j) is tau_ij (r_j - r_i)."""
    r = np.kron(1.0 / rho.diag, rho.diag)
    return float(np.linalg.norm(tau.mat * (r - r[:, None])))


def _pair_residual(g: np.ndarray, left: np.ndarray, right: np.ndarray) -> float:
    """Largest |F(e_i, right e_j) - F(left e_i, e_j)| over basis pairs, for
    F(x, y) = x^T g y: max|g right - left^T g|."""
    return float(np.max(np.abs(g @ right - left.T @ g)))


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
    # <tau(E_i)> = <E_i>: the pair identity of F(A, c) = c <A>, L = tau, R = 1
    inv = _pair_residual(vec(rho.matrix())[:, None], tau.mat, np.eye(1))
    residual = max(comm, inv)
    return CheckResult(
        passed=bool(residual <= tol.eq_tol),
        residual=residual,
        detail={"modular_commutator": comm, "state_invariance": inv},
        tol=tol,
    )


def _db2_entangled(tau, rho, dual, tol) -> CheckResult:
    hat = bar_map(dual)
    pair = _pair_residual(omega_gram(purify(rho)), tau.mat, hat.mat)
    eye = np.eye(rho.n)
    hat_unital = float(np.linalg.norm(hat.apply(eye) - eye))
    residual = max(pair, hat_unital)
    return CheckResult(
        passed=bool(residual <= tol.eq_tol),
        residual=residual,
        detail={
            "pair_residual": pair,
            "hat_unital": hat_unital,
            # distance of the transposed dual from the channel itself;
            # diagnostic only, zero is not required for balance
            "hat_vs_channel": float(np.linalg.norm(hat.mat - tau.mat)),
        },
        tol=tol,
    )


def _sqdb_definition(tau, rho, conj, tol) -> CheckResult:
    residual = float(np.linalg.norm(kms_dual(tau, rho).mat - bar_map(conj).mat))
    return CheckResult(
        passed=bool(residual <= tol.eq_tol),
        residual=residual,
        detail={"kms_vs_reversed": residual},
        tol=tol,
    )


def _sqdb_entangled(tau, rho, conj, tol) -> CheckResult:
    pair = _pair_residual(omega_gram(purify(rho)), tau.mat, conj.mat)
    return CheckResult(
        passed=bool(pair <= tol.eq_tol),
        residual=pair,
        detail={"pair_residual": pair},
        tol=tol,
    )


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
    return _db2_entangled(tau, rho, rho_dual(tau, rho), tol)


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
    return _sqdb_entangled(tau, rho, theta_conjugate(tau, th), tol)


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
    applicable = bool(sq.passed and comm <= tol.eq_tol)
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
    """Validate chain data to 1e-12 (finiteness, positivity, normalization, stochasticity)."""
    p = np.asarray(p, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    if p.ndim != 1 or gamma.shape != (len(p), len(p)):
        raise DimensionMismatch(f"chain shapes p {p.shape}, gamma {gamma.shape}")
    for name, x in (("p", p), ("gamma", gamma)):
        if not np.all(np.isfinite(x)):
            raise NotStochastic(f"{name} has a non-finite entry")
    if np.min(p) <= 0.0:
        raise NotStochastic(f"p must be strictly positive (min {np.min(p):.3e})")
    if abs(float(np.sum(p)) - 1.0) > 1e-12:
        raise NotStochastic(f"p must sum to 1, got {np.sum(p):.12g}")
    if np.min(gamma) < -1e-12:
        raise NotStochastic(f"gamma has a negative entry ({np.min(gamma):.3e})")
    rows = np.abs(gamma.sum(axis=1) - 1.0)
    if float(np.max(rows)) > 1e-12:
        raise NotStochastic(f"gamma rows must sum to 1 (worst {np.max(rows):.3e})")
    return ClassicalChain(p=p, gamma=gamma)


def classical_detailed_balance(c: ClassicalChain, tol: Tolerance = DEFAULT_TOL) -> CheckResult:
    """Pairwise reversibility: p_j gamma_jk = p_k gamma_kj."""
    flow = c.p[:, None] * c.gamma
    residual = float(np.max(np.abs(flow - flow.T)))
    return CheckResult(
        passed=bool(residual <= tol.eq_tol),
        residual=residual,
        detail={"pairwise": residual},
        tol=tol,
    )


def classical_phi_balance(c: ClassicalChain, tol: Tolerance = DEFAULT_TOL) -> CheckResult:
    """Functional form of reversibility on the product state.

    With phi(f ox g) = sum_j p_j f_j g_j and (Gamma f)_j = sum_k gamma_jk f_k,
    reversibility says phi[(Gamma f) ox g] = phi[f ox (Gamma g)] for all f, g;
    the residual runs over all coordinate basis pairs.
    """
    residual = _pair_residual(np.diag(c.p), c.gamma, c.gamma)
    return CheckResult(
        passed=bool(residual <= tol.eq_tol),
        residual=residual,
        detail={"functional": residual},
        tol=tol,
    )


@dataclass(frozen=True, eq=False)
class BalanceReport:
    """All balance verdicts for one channel-state pair.

    consistency records whether the three db2 booleans agree and the two
    sqdb booleans agree; these characterizations are provably equivalent,
    so False flags a tolerance artifact (or a bug) rather than physics.
    degenerate_rho is propagated from the state.
    """

    db2_definition: CheckResult
    db2_modular: CheckResult
    db2_entangled: CheckResult
    sqdb_definition: CheckResult
    sqdb_entangled: CheckResult
    delta_commutes: CheckResult
    consistency: bool
    degenerate_rho: bool

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
) -> BalanceReport:
    """Run every checker on one (channel, state, reversing operation) triple."""
    require_dynamics(tau, rho, tol, mode)
    dual = rho_dual(tau, rho)
    conj = theta_conjugate(tau, th)
    db2_def = _db2_definition(dual, tol, mode)
    db2_mod = _db2_modular(tau, rho, tol)
    db2_ent = _db2_entangled(tau, rho, dual, tol)
    sq_def = _sqdb_definition(tau, rho, conj, tol)
    sq_ent = _sqdb_entangled(tau, rho, conj, tol)
    comm = db2_mod.detail["modular_commutator"]
    delta_commutes = CheckResult(
        passed=bool(comm <= tol.eq_tol),
        residual=comm,
        detail={"modular_commutator": comm},
        tol=tol,
    )
    consistency = (
        db2_def.passed == db2_mod.passed == db2_ent.passed
        and sq_def.passed == sq_ent.passed
    )
    if not consistency:
        logger.warning(
            "characterizations disagree: db2 %s/%s/%s sqdb %s/%s",
            db2_def.passed, db2_mod.passed, db2_ent.passed, sq_def.passed, sq_ent.passed,
        )
    return BalanceReport(
        db2_definition=db2_def,
        db2_modular=db2_mod,
        db2_entangled=db2_ent,
        sqdb_definition=sq_def,
        sqdb_entangled=sq_ent,
        delta_commutes=delta_commutes,
        consistency=consistency,
        degenerate_rho=rho.degenerate,
    )


def in_deadband(residual: float, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether a residual sits in the ambiguous band [eq_tol/10, 10*eq_tol].

    Boolean-agreement comparisons between characterizations skip instances
    whose residuals land here: both verdicts are then tolerance artifacts.
    """
    return bool(tol.eq_tol / 10.0 <= residual <= 10.0 * tol.eq_tol)
