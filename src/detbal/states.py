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

A DensityMatrix holds its eigenvalues and basis read-only, and forms when
it is built, read-only, the values that the balance checks derive from rho
alone (_formed), each n^2 long at j + n k for the unit E_jk: the state
dual's scalings 1 / d_j and d_j, the pair Gram diagonal kron(d^(1/2),
d^(1/2)) of the purified two-copy functional, the modular ratios d_j / d_k,
the KMS weights (d_j d_k)^(1/2) and vec(rho).  Both duals read their
scalings with one kernel (duals._scaled), whole or at the rows and columns
of a map's stored positions (superop.SuperOperator._place).  Its spectrum
is checked once, by make_density's rules (_check_eigenvalues): a
DensityMatrix built directly copies and checks what a caller gives, and
make_density hands over the eigendecomposition it made and checked, as
superop._adopt hands over a map's matrix (linalg._handed).
"""

from __future__ import annotations

import math
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
    eigensolver, but physically distinct choices exist.

    Built directly, it holds read-only copies of the arrays given: n real
    numbers and an n x n complex matrix, else DimensionMismatch.  What it
    keeps is checked once (_check_spectrum) as make_density checks it, with
    its error types and messages: diag finite (DetbalError), strictly
    positive (NotDensity for a negative entry, NotInvertible for a zero),
    summing to 1 within 1e-12 and descending (NotDensity); basis unitary to
    1e-12 * n in Frobenius norm (NonUnitary); degenerate as the gaps of diag
    say (NotDensity).  make_density hands over the eigendecomposition it
    made (linalg._handed) unchecked: eigh's output holds all of that by
    construction, and make_density checks the sum of the eigenvalues it
    keeps by the rule applied here (_check_eigenvalues).
    """

    n: int
    diag: np.ndarray
    basis: np.ndarray
    degenerate: bool

    def __post_init__(self):
        n = self.n
        d = np.array(_numeric(self.diag, float))
        if d.shape != (n,):
            raise DimensionMismatch(f"expected {n} eigenvalues, got shape {d.shape}")
        basis = np.array(_square(self.basis, n))
        _check_spectrum(d, basis, self.degenerate)
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


def _check_spectrum(d: np.ndarray, basis: np.ndarray, degenerate) -> None:
    """Raise unless d, basis and degenerate describe an invertible density
    matrix in its eigenbasis (DensityMatrix); every comparison fails closed
    on a NaN."""
    n = len(d)
    if not np.isfinite(d).all():
        raise DetbalError("matrix entries must be finite")
    _check_eigenvalues(d, d.min())
    gaps = d[:-1] - d[1:]
    if not (gaps >= 0.0).all():
        raise NotDensity("eigenvalues must be in descending order")
    defect = basis.conj().T @ basis
    defect.flat[:: n + 1] -= 1.0
    ures = math.sqrt(np.vdot(defect, defect).real)
    if not ures <= 1e-12 * n:
        raise NonUnitary(f"basis is not unitary (residual {ures:.3e})")
    if bool(degenerate) != _degenerate(gaps):
        raise NotDensity(
            f"degenerate is {bool(degenerate)}, but the smallest eigenvalue gap is"
            f" {gaps.min(initial=np.inf):.3e} (degenerate below {_DEGENERACY_GAP:g})"
        )


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
    """Pure two-copy extension of rho, represented by r = rho^(1/2) w."""

    rho: DensityMatrix
    r: np.ndarray
    w: np.ndarray


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
    degenerate = _degenerate(lam[:-1] - lam[1:])
    return _handed(DensityMatrix, n=m.shape[0], degenerate=degenerate, **_formed(lam, basis))


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
