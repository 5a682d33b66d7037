"""Thermofield double view: mirror operators and balance via the cyclic vector.

The cyclic vector of the purified state is rho^(1/2) itself, viewed as a
Hilbert-Schmidt vector.  Left multiplication represents the algebra; the
mirror ("tilde") copy of an operator a acts by right multiplication with
a^dag, i.e. tilde(a): X -> X a^dag, which commutes with every left
multiplication.  Two structural identities make this picture work:

  substitution  Delta^(-1/2)(tilde(a) rho^(1/2)) = a^dag rho^(1/2)
  kms           <A Delta(B)> = <B A>  with <X> = tr(rho X)

and mirror correlations reproduce the purified two-copy functional:
<A tilde(B)> = tr(rho^(1/2) A rho^(1/2) B^dag) = omega(A ox conj(B)).

Balance translates into mirror correlation identities:

  db2   <tau(A) tilde(B)> = <A tilde(tau'(B))> for all A, B, and tau'(1) = 1
  sqdb  <tau(A) tilde(B)> = <A tilde(Theta tau Theta (B))> for all A, B

whose booleans must agree with the corresponding checks in balance.  Both
are decided at once by balance's Gram-matrix kernel on the bilinear form
(A, C) -> <A tilde(conj(C))>; the map s in the antilinear mirror slot
enters as conj(s.mat).  The expect_tilde pair loops are test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .balance import MODE_CP, _pair_residual, require_dynamics
from .duals import ReversingOperation, bar_map, modular, rho_dual, theta_conjugate
from .errors import DimensionMismatch
from .linalg import DEFAULT_TOL, CheckResult, Tolerance, matrix_units
from .states import DensityMatrix
from .superop import SuperOperator, pi_rep, transpose_superop


@dataclass(frozen=True, eq=False)
class TildeOperator:
    """Mirror copy of an operator: right multiplication by its adjoint."""

    source: np.ndarray
    rep: SuperOperator


def tilde(a) -> TildeOperator:
    """Build the mirror operator of a: X -> X a^dag."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return TildeOperator(source=a.copy(), rep=pi_rep(np.eye(a.shape[0]), a.conj()))


def check_tilde_substitution(rho: DensityMatrix, tol: Tolerance = DEFAULT_TOL) -> CheckResult:
    """Verify Delta^(-1/2)(tilde(a) rho^(1/2)) = a^dag rho^(1/2) on matrix units."""
    half = rho.power(0.5)
    halfinv = rho.power(-0.5)
    residual = 0.0
    for _, _, e in matrix_units(rho.n):
        moved = tilde(e).rep.apply(half)
        lhs = halfinv @ moved @ half
        rhs = e.conj().T @ half
        residual = max(residual, float(np.linalg.norm(lhs - rhs)))
    return CheckResult(
        passed=bool(residual <= tol.eq_tol),
        residual=residual,
        detail={"substitution": residual},
        tol=tol,
    )


def check_kms(rho: DensityMatrix, tol: Tolerance = DEFAULT_TOL) -> CheckResult:
    """Verify <A Delta(B)> = <B A> on all matrix-unit pairs: max|H Delta - H^T|
    for H = kron(1, rho^T) K, the Gram matrix of (A, B) -> <A B> on the vec
    basis (K the commutation matrix).  The pair loop is a test oracle."""
    n = rho.n
    h = np.kron(np.eye(n), rho.matrix().T) @ transpose_superop(n).mat
    residual = float(np.max(np.abs(h @ modular(rho).delta.mat - h.T)))
    return CheckResult(
        passed=bool(residual <= tol.eq_tol),
        residual=residual,
        detail={"kms": residual},
        tol=tol,
    )


def expect_tilde(rho: DensityMatrix, a, b) -> complex:
    """Mirror correlation <a tilde(b)> in the cyclic vector rho^(1/2).

    Closed form tr(rho^(1/2) a rho^(1/2) b^dag); the representation route
    hs_inner(rho^(1/2), a tilde(b) rho^(1/2)) is the test oracle.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    half = rho.power(0.5)
    return complex(np.trace(half @ a @ half @ b.conj().T))


def _mirror_gram(rho: DensityMatrix) -> np.ndarray:
    """Gram matrix of the bilinear form (A, C) -> <A tilde(conj(C))>."""
    half = rho.power(0.5)
    return np.kron(half, half.T)


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
    pair = _pair_residual(_mirror_gram(rho), tau.mat, dual.mat.conj())
    eye = np.eye(rho.n)
    dual_unital = float(np.linalg.norm(dual.apply(eye) - eye))
    residual = max(pair, dual_unital)
    return CheckResult(
        passed=bool(residual <= tol.eq_tol),
        residual=residual,
        detail={"pair_residual": pair, "dual_unital": dual_unital},
        tol=tol,
    )


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
    reversed_mat = bar_map(theta_conjugate(tau, th)).mat
    pair = _pair_residual(_mirror_gram(rho), tau.mat, reversed_mat.conj())
    return CheckResult(
        passed=bool(pair <= tol.eq_tol),
        residual=pair,
        detail={"pair_residual": pair},
        tol=tol,
    )
