"""Thermofield double view: mirror operators of the cyclic vector.

The cyclic vector of the purified state is rho^(1/2) itself, viewed as a
Hilbert-Schmidt vector.  Left multiplication represents the algebra; the
mirror ("tilde") copy of an operator a acts by right multiplication with
a^dag, i.e. tilde(a): X -> X a^dag, which commutes with every left
multiplication.  This module holds the mirror operator (tilde, returned as
a SuperOperator), the mirror correlation expect_tilde, and the two
structural identities that make the picture work:

  substitution  Delta^(-1/2)(tilde(a) rho^(1/2)) = a^dag rho^(1/2)
  kms           <A Delta(B)> = <B A>  with <X> = tr(rho X)

Mirror correlations reproduce the purified two-copy functional:
<A tilde(B)> = tr(rho^(1/2) A rho^(1/2) B^dag) = omega(A ox conj(B)).
The balance checks in mirror form, check_db2_tfd and check_sqdb_tfd, are
in balance with the other characterizations; the expect_tilde pair loops
are their test oracles.
"""

from __future__ import annotations

import numpy as np

from .duals import _modular_ratios
from .linalg import DEFAULT_TOL, CheckResult, Tolerance, _verdict, as_matrix
from .states import DensityMatrix, _observable
from .superop import SuperOperator, pi_rep


def tilde(a) -> SuperOperator:
    """The mirror operator of a: X -> X a^dag, pi_rep(1, conj(a)).  A
    non-square a raises DimensionMismatch."""
    a = as_matrix(a)
    return pi_rep(np.eye(a.shape[0]), a.conj())


def check_tilde_substitution(rho: DensityMatrix, tol: Tolerance = DEFAULT_TOL) -> CheckResult:
    """Verify Delta^(-1/2)(tilde(a) rho^(1/2)) = a^dag rho^(1/2) on matrix units.

    For a = E_jk, tilde(a) rho^(1/2) = rho^(1/2) E_kj and both sides are
    multiples of E_kj: (d_k^(-1/2) d_k^(1/2)) d_j^(1/2) against d_j^(1/2),
    rho = diag(d).  The residual is the largest gap over all (k, j), one
    elementwise pass; the per-unit loop is a test oracle.
    """
    half = np.power(rho.diag, 0.5)
    lhs = np.outer(np.power(rho.diag, -0.5) * half, half)
    return _verdict(tol, {"substitution": float(np.max(np.abs(lhs - half)))})


def check_kms(rho: DensityMatrix, tol: Tolerance = DEFAULT_TOL) -> CheckResult:
    """Verify <A Delta(B)> = <B A> on all matrix-unit pairs: max|H Delta - H^T|
    for H = kron(1, rho^T) K, the Gram matrix of (A, B) -> <A B> on the vec
    basis (K the commutation matrix), rho = diag(d).  H holds d_j at row
    j + n k, column k + n j, and Delta holds d_k / d_j at k + n j, so the
    residual is max|d_j (d_k / d_j) - d_k| over the n x n pairs (j, k), one
    elementwise pass.  The pair loop is a test oracle."""
    d = rho.diag
    lhs = d[:, None] * _modular_ratios(rho).reshape(rho.n, rho.n)
    return _verdict(tol, {"kms": float(np.max(np.abs(lhs - d)))})


def expect_tilde(rho: DensityMatrix, a, b) -> complex:
    """Mirror correlation <a tilde(b)> in the cyclic vector rho^(1/2).

    Closed form tr(rho^(1/2) a rho^(1/2) b^dag); the representation route
    hs_inner(rho^(1/2), a tilde(b) rho^(1/2)) is the test oracle.
    """
    a = _observable(rho, a)
    b = _observable(rho, b)
    half = rho.power(0.5)
    return complex(np.trace(half @ a @ half @ b.conj().T))
