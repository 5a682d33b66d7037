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

A DensityMatrix is given its eigenvalues and basis alone, holds them
read-only and forms when it is built what follows from them (_formed): n,
whether the spectrum is degenerate and, read-only, the values that the
balance checks derive from rho alone, each n^2 long at j + n k for the unit
E_jk: the state dual's scalings 1 / d_j and d_j, the pair Gram diagonal
kron(d^(1/2), d^(1/2)) of the purified two-copy functional, the modular
ratios d_j / d_k, the KMS weights (d_j d_k)^(1/2) and vec(rho).  Both duals
read their scalings with one kernel (duals._scaled), whole or at the rows
and columns of a map's stored positions (superop.SuperOperator._place).
Its spectrum is checked once, by make_density's rules (_check_eigenvalues):
a DensityMatrix built directly copies what a caller gives once
(linalg._numeric with own) and checks it, and make_density hands over the
eigendecomposition it made and checked, as superop._adopt hands over a
map's matrix (linalg._handed).  A Purification is given rho and w alone:
it checks w as purify did and forms r = rho^(1/2) w.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DetbalError, DimensionMismatch, NonUnitary, NotDensity, NotInvertible
from .linalg import (
    DEFAULT_TOL,
    CheckResult,
    Tolerance,
    _eig_descending,
    _handed,
    _hermiticity,
    _numeric,
    _require_unitary,
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
    with V^dag rho_user V = diag(diag).  The state forms n = len(diag) and
    degenerate, which flags an eigenvalue gap below 1e-8: the eigenbasis
    (and with it the purification below) is then not canonical, V being
    fixed by the eigensolver among physically distinct choices.

    Built directly, it holds read-only copies of the arrays given
    (linalg._numeric with own): a non-empty vector of real numbers and a
    square matrix of its length, else DimensionMismatch.  What it keeps is
    checked once (_check_spectrum) as make_density checks it, with its
    error types and messages: diag finite (DetbalError), strictly positive
    (NotDensity for a negative entry, NotInvertible for a zero), summing to
    1 within 1e-12 and descending (NotDensity); basis unitary to 1e-12 * n
    in Frobenius norm (NonUnitary).  make_density hands over the
    eigendecomposition it made (linalg._handed) unchecked: eigh's output
    holds all of that by construction, and make_density checks the sum of
    the eigenvalues it keeps by the rule applied here (_check_eigenvalues).
    """

    diag: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        d = _numeric(self.diag, float, own=True)
        if d.ndim != 1 or not len(d):
            raise DimensionMismatch(f"expected a vector of eigenvalues, got shape {d.shape}")
        basis = _square(_numeric(self.basis, own=True), len(d))
        _check_spectrum(d, basis)
        # the copies checked here, then kept as a builder's, frozen
        vars(self).update(vars(_handed(DensityMatrix, **_formed(d, basis))))

    def matrix(self) -> np.ndarray:
        """The density matrix in its eigenbasis (diagonal)."""
        return np.diag(self.diag).astype(complex)

    def power(self, z: float) -> np.ndarray:
        """Elementwise spectral power rho**z in the eigenbasis, for real z;
        any other z, numpy complex scalars included, raises TypeError."""
        if not isinstance(z, numbers.Real):
            raise TypeError(f"power wants a real exponent, got {z!r}")
        return np.diag(np.power(self.diag, float(z))).astype(complex)


def _formed(d: np.ndarray, basis: np.ndarray) -> dict:
    """The eigenvalues d and basis of a DensityMatrix with the values formed
    from d that it keeps, to be handed over (linalg._handed)."""
    n, half, inverse = len(d), np.sqrt(d), 1.0 / d
    return dict(
        n=n,
        degenerate=_degenerate(d[:-1] - d[1:]),
        diag=d,
        basis=basis,
        # the state dual's row and column scalings: 1 / d_j and d_j at j + n k
        _dual_rows=np.tile(inverse, n),
        _dual_cols=np.tile(d, n),
        # diagonal of the Gram matrix kron(r, conj(r)) of omega (w = 1)
        # and of the mirror Gram matrix kron(rho^(1/2), (rho^(1/2))^T)
        _pair_gram=np.outer(half, half).ravel(),
        # the modular map in the matrix-unit basis: d_j / d_k at j + n k
        _modular_ratios=np.outer(inverse, d).ravel(),
        # the kms dual's row and column scalings: (d_j d_k)^(1/2) at j + n k
        _kms_weights=np.sqrt(np.outer(d, d)).ravel(),
        _vec=vec(np.diag(d).astype(complex)),  # the invariance test vector
    )


def _check_spectrum(d: np.ndarray, basis: np.ndarray) -> None:
    """Raise unless d and basis describe an invertible density matrix in its
    eigenbasis (DensityMatrix); every comparison fails closed on a NaN."""
    if not np.isfinite(d).all():
        raise DetbalError("matrix entries must be finite")
    _check_eigenvalues(d, d.min())
    if not (d[:-1] >= d[1:]).all():
        raise NotDensity("eigenvalues must be in descending order")
    _require_unitary(basis, "basis")


def _check_eigenvalues(d: np.ndarray, low, psd=0.0, inv=0.0) -> None:
    """Raise unless the eigenvalues d, the least of them low, are at least
    -psd (NotDensity) and above inv (NotInvertible) and sum to 1 within
    1e-12 (NotDensity), a sum that fails when it overflows: the rules of
    make_density and DensityMatrix, the trace read as the kept sum."""
    if not low >= -psd:
        raise NotDensity(f"negative eigenvalue {low:.3e}")
    if not low > inv:
        raise NotInvertible(f"density matrix must be invertible (min eigenvalue {low:.3e})")
    with np.errstate(over="ignore"):
        total = float(d.sum())
    if not abs(total - 1.0) <= 1e-12:
        raise NotDensity(f"trace must be 1, got {total:.12g}")


def _degenerate(gaps: np.ndarray) -> bool:
    """Whether a gap between neighbours of a descending spectrum,
    lam[:-1] - lam[1:], lies below _DEGENERACY_GAP."""
    return bool(gaps.min() < _DEGENERACY_GAP) if len(gaps) else False


@dataclass(frozen=True, eq=False)
class Purification:
    """Pure two-copy extension of rho, represented by r = rho^(1/2) w, which
    it forms.  w defaults to the identity; one given is read by as_matrix and
    must be unitary on rho's dimension (NonUnitary).  w and r are read-only."""

    rho: DensityMatrix
    w: np.ndarray | None = None

    def __post_init__(self):
        rho = self.rho
        w = np.eye(rho.n, dtype=complex) if self.w is None else as_matrix(self.w)
        if w.shape[0] != rho.n:
            raise NonUnitary(f"w has dimension {w.shape[0]}, state has {rho.n}")
        _require_unitary(w, "w")
        vars(self).update(vars(_handed(Purification, rho=rho, w=w, r=rho.power(0.5) @ w)))


def make_density(m, tol: Tolerance = DEFAULT_TOL) -> DensityMatrix:
    """Validate and eigendecompose a density matrix.

    Requires Hermiticity, positive semidefiniteness within tol.psd_tol, all
    eigenvalues above tol.inv_tol (the whole toolkit assumes invertible
    states) and their sum, the trace, 1 to 1e-12 (_check_eigenvalues).
    Every comparison fails closed: a NaN residual is rejected.  The matrix
    is copied and checked here once; the solve is hermitian_eig's, without
    its second copy and check, and the state it gives is handed over
    unchecked (DensityMatrix).
    """
    m = as_matrix(m)
    hermitian, herm = _hermiticity(m)
    if not hermitian:
        raise NotDensity(f"not Hermitian (residual {herm:.3e})")
    lam, basis = _eig_descending(m)
    _check_eigenvalues(lam, lam[-1], tol.psd_tol, tol.inv_tol)
    return _handed(DensityMatrix, **_formed(lam, basis))


def expectation(rho: DensityMatrix, a) -> complex:
    """tr(rho a) with the observable a expressed in rho's eigenbasis."""
    return complex(np.sum(rho.diag * np.diag(_square(a, rho.n))))


def purify(rho: DensityMatrix, w=None) -> Purification:
    """Purification r = rho^(1/2) w, Purification(rho, w), w the identity by
    default.  With w = identity both marginals of the induced two-copy
    functional reduce to tr(rho .); any other unitary w reproduces only the
    first."""
    return Purification(rho, w)


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
