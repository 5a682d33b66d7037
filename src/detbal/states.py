"""States, purifications and two-copy correlation functionals.

A density matrix is stored in its own eigenbasis: a descending eigenvalue
vector plus the unitary that maps the user basis to that eigenbasis.
Every operation downstream of make_density works in the eigenbasis, so
callers handing in observables or channels expressed in another basis must
conjugate them first (the command-line front end does this automatically).

For an invertible density matrix rho, the map A ox B -> tr(r^dag A r B^T)
with r = rho^(1/2) w (w unitary) is the state of a canonical purification
of rho, written as a functional on two commuting copies of the matrix
algebra.  Its first marginal is always A -> tr(rho A); the second marginal
matches only for w = identity, which is the default.  The classically
correlated counterpart theta_eval, sum_j rho_j a_jj b_jj, shares both
marginals but has no off-diagonal correlations; the gap between the two is
what the balance checks in this package exploit.

A DensityMatrix holds read-only copies of its eigenvalues and basis, and
keeps the values that the balance checks derive from rho alone, each
formed on its first read and read-only: 1 / d, the pair Gram diagonal
kron(d^(1/2), d^(1/2)) of the purified two-copy functional, the modular
ratios d_j / d_k, the KMS weights (d_j d_k)^(1/2) and vec(rho).  Every
check on the same state reads them instead of forming them again.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonUnitary, NotDensity, NotInvertible
from .linalg import (
    DEFAULT_TOL,
    CheckResult,
    Tolerance,
    _eig_descending,
    _hermiticity,
    _read_only,
    _square,
    _verdict,
    as_matrix,
)
from .superop import vec

_DEGENERACY_GAP = 1e-8


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Invertible density matrix in its eigenbasis.

    diag holds the eigenvalues in descending order; basis is the unitary V
    with V^dag rho_user V = diag(diag).  degenerate flags an eigenvalue gap
    below 1e-8, in which case the eigenbasis (and with it the purification
    below) is not canonical: V is still fixed deterministically by the
    eigensolver, but physically distinct choices exist.  diag and basis are
    read-only copies of the arrays given.
    """

    n: int
    diag: np.ndarray
    basis: np.ndarray
    degenerate: bool

    def __post_init__(self):
        object.__setattr__(self, "diag", _read_only(np.array(self.diag)))
        object.__setattr__(self, "basis", _read_only(np.array(self.basis)))

    @cached_property
    def _inverse(self) -> np.ndarray:
        """1 / d, the row scaling of the state dual."""
        return _read_only(1.0 / self.diag)

    @cached_property
    def _pair_gram(self) -> np.ndarray:
        """Diagonal of the Gram matrix kron(r, conj(r)) of omega (w = 1) and
        of the mirror Gram matrix kron(rho^(1/2), (rho^(1/2))^T):
        kron(d^(1/2), d^(1/2)), rho = diag(d)."""
        half = np.sqrt(self.diag)
        return _read_only(np.outer(half, half).ravel())

    @cached_property
    def _modular_ratios(self) -> np.ndarray:
        """Diagonal of the modular map in the matrix-unit basis: d_j / d_k
        at vec index j + n k."""
        return _read_only(np.outer(self._inverse, self.diag).ravel())

    @cached_property
    def _kms_weights(self) -> np.ndarray:
        """(d_j d_k)^(1/2) at [k, j], vec index j + n k: the row and column
        scalings of the kms dual."""
        return _read_only(np.sqrt(np.outer(self.diag, self.diag)))

    @cached_property
    def _vec(self) -> np.ndarray:
        """vec(rho) in the eigenbasis, the state-invariance test vector."""
        return _read_only(vec(self.matrix()))

    def matrix(self) -> np.ndarray:
        """The density matrix in its eigenbasis (diagonal)."""
        return np.diag(self.diag).astype(complex)

    def power(self, z: float) -> np.ndarray:
        """Elementwise spectral power rho**z in the eigenbasis, for real z;
        any other z, numpy complex scalars included, raises TypeError."""
        if not isinstance(z, numbers.Real):
            raise TypeError(f"power wants a real exponent, got {z!r}")
        return np.diag(np.power(self.diag, float(z))).astype(complex)


@dataclass(frozen=True, eq=False)
class Purification:
    """Pure two-copy extension of rho, represented by r = rho^(1/2) w."""

    rho: DensityMatrix
    r: np.ndarray
    w: np.ndarray


def make_density(m, tol: Tolerance = DEFAULT_TOL) -> DensityMatrix:
    """Validate and eigendecompose a density matrix.

    Requires Hermiticity, unit trace to 1e-12, positive semidefiniteness
    within tol.psd_tol, and all eigenvalues above tol.inv_tol (the whole
    toolkit assumes invertible states).  Every comparison fails closed: a
    NaN residual is rejected.  The matrix is copied and checked here once;
    the solve is hermitian_eig's, without its second copy and check.
    """
    m = as_matrix(m)
    hermitian, herm = _hermiticity(m)
    if not hermitian:
        raise NotDensity(f"not Hermitian (residual {herm:.3e})")
    tr = complex(np.trace(m))
    if not abs(tr - 1.0) <= 1e-12:
        raise NotDensity(f"trace must be 1, got {tr.real:.12g}")
    lam, basis = _eig_descending(m)
    if not lam[-1] >= -tol.psd_tol:
        raise NotDensity(f"negative eigenvalue {lam[-1]:.3e}")
    if not lam[-1] > tol.inv_tol:
        raise NotInvertible(
            f"density matrix must be invertible (min eigenvalue {lam[-1]:.3e})"
        )
    degenerate = bool(np.min(-np.diff(lam)) < _DEGENERACY_GAP) if len(lam) > 1 else False
    return DensityMatrix(n=m.shape[0], diag=lam, basis=basis, degenerate=degenerate)


def expectation(rho: DensityMatrix, a) -> complex:
    """tr(rho a) with the observable a expressed in rho's eigenbasis."""
    return complex(np.sum(rho.diag * np.diag(_square(a, rho.n))))


def purify(rho: DensityMatrix, w=None) -> Purification:
    """Purification r = rho^(1/2) w; w defaults to the identity.

    With w = identity both marginals of the induced two-copy functional
    reduce to tr(rho .); any other unitary w reproduces only the first.
    """
    if w is None:
        w = np.eye(rho.n, dtype=complex)
    w = as_matrix(w)
    if w.shape[0] != rho.n:
        raise NonUnitary(f"w has dimension {w.shape[0]}, state has {rho.n}")
    res = float(np.linalg.norm(w.conj().T @ w - np.eye(rho.n)))
    if not res <= 1e-12 * rho.n:
        raise NonUnitary(f"w is not unitary (residual {res:.3e})")
    return Purification(rho=rho, r=rho.power(0.5) @ w, w=w)


def omega_eval(p: Purification, a, b) -> complex:
    """Entangled two-copy expectation tr(r^dag a r b^T) of n x n observables."""
    a = _square(a, p.rho.n)
    b = _square(b, p.rho.n)
    return complex(np.trace(p.r.conj().T @ a @ p.r @ b.T))


def theta_eval(rho: DensityMatrix, a, b) -> complex:
    """Classically correlated two-copy expectation sum_j rho_j a_jj b_jj,
    with both observables expressed in rho's eigenbasis."""
    a = _square(a, rho.n)
    b = _square(b, rho.n)
    return complex(np.sum(rho.diag * np.diag(a) * np.diag(b)))


def marginals_check(p: Purification, tol: Tolerance = DEFAULT_TOL) -> CheckResult:
    """Compare both marginals of the purified state against tr(rho .).

    Sub-residuals are maxima over all matrix units.  The first marginal
    holds for every admissible w; the second is the signature of w =
    identity (or of a maximally mixed rho).  On E_jk the first marginal is
    tr(r^dag E_jk r) = (r r^dag)_kj, the second tr(r^dag r E_kj) =
    (r^dag r)_jk and tr(rho E_jk) = d_j delta_jk, so each is one n x n
    product; the per-unit loop is a test oracle.
    """
    r = p.r
    want = p.rho.matrix()
    first = float(np.max(np.abs(r.conj() @ r.T - want)))
    second = float(np.max(np.abs(r.conj().T @ r - want)))
    return _verdict(tol, {"first_marginal": first, "second_marginal": second})
