"""Thermofield double view: mirror operators of the cyclic vector.

The cyclic vector of the purified state is rho^(1/2) itself, viewed as a
Hilbert-Schmidt vector.  Left multiplication represents the algebra; the
mirror ("tilde") copy of an operator a acts by right multiplication with
a^dag, i.e. tilde(a): X -> X a^dag, which commutes with every left
multiplication.  This module holds the mirror operator (tilde, returned as
a SuperOperator) and the mirror correlation expect_tilde.  The two
structural identities that make the picture work hold by construction in
the eigenbasis and are asserted unit by unit in the tests:

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

from .linalg import _square, as_matrix
from .states import DensityMatrix
from .superop import SuperOperator, pi_rep


def tilde(a) -> SuperOperator:
    """The mirror operator of a: X -> X a^dag, pi_rep(1, conj(a)).  A
    non-square a raises DimensionMismatch."""
    a = as_matrix(a)
    return pi_rep(np.eye(a.shape[0]), a.conj())


def expect_tilde(rho: DensityMatrix, a, b) -> complex:
    """Mirror correlation <a tilde(b)> in the cyclic vector rho^(1/2).

    Closed form tr(rho^(1/2) a rho^(1/2) b^dag); the representation route
    hs_inner(rho^(1/2), a tilde(b) rho^(1/2)) is the test oracle.
    """
    a = _square(a, rho.n)
    b = _square(b, rho.n)
    half = rho.power(0.5)
    return complex(np.trace(half @ a @ half @ b.conj().T))
