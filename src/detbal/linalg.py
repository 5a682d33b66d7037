"""Dense complex linear algebra substrate for small Hilbert spaces.

All downstream modules work with n x n complex matrices at desk scale
(n <= 16 or so).  Eigenproblems go to numpy's LAPACK driver (eigh and
eigvalsh); hermitian_eig returns eigh's (eigenvalues, eigenvectors) pair,
sorted descending.  The driver is deterministic for a fixed numpy/LAPACK
build: identical input bits give identical output bits on one build, though
another build may differ in the last digits or pick another basis inside a
degenerate eigenspace.  Every function here is pure: inputs are never
modified, except that _read_only switches off writes into the array it is
handed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DetbalError, DimensionMismatch, NotHermitian, NotInvertible


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds used by every check in the toolkit.

    eq_tol bounds residuals of functional identities, psd_tol bounds how
    negative an eigenvalue may be (relative to scale) before a matrix stops
    counting as positive semidefinite, and inv_tol is the smallest
    admissible eigenvalue of a state that still counts as invertible.
    """

    eq_tol: float = 1e-9
    psd_tol: float = 1e-9
    inv_tol: float = 1e-12

    def __post_init__(self) -> None:
        for value in (self.eq_tol, self.psd_tol, self.inv_tol):
            if not (np.isfinite(value) and value > 0.0):
                raise ValueError("tolerances must be finite and strictly positive")


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True)
class CheckResult:
    """Verdict of one numerical check plus the residuals behind it.

    detail names the sub-residuals: identity residuals, which must clear
    eq_tol, and negativities (*_negativity), which must clear psd_tol.
    residual is the largest of them and passed records whether each cleared
    its threshold.  Extreme eigenvalues (*_min_eigenvalue, *_max_eigenvalue)
    and hat_vs_channel are diagnostics that decide nothing.  _verdict applies
    this rule.
    """

    passed: bool
    residual: float
    detail: dict[str, float]
    tol: Tolerance


def _verdict(
    tol: Tolerance,
    eq: dict[str, float],
    psd: dict[str, float] | None = None,
    info: dict[str, float] | None = None,
) -> CheckResult:
    """The verdict of every threshold check: the eq residuals must not exceed
    tol.eq_tol, the psd negativities tol.psd_tol; info entries only join
    detail.  residual is Python max over the eq, then the psd entries.  A
    NaN among them fails the check with residual NaN, wherever it stands
    (Python max drops a NaN that does not come first); their sum is NaN
    then, and for nonnegative residuals only then."""
    residual = eq_max = max(eq.values())
    passed = eq_max <= tol.eq_tol
    detail = eq
    if psd is not None:
        residual = max(eq_max, *psd.values())
        passed = passed and max(psd.values()) <= tol.psd_tol
        detail = {**eq, **psd}
    if math.isnan(sum(detail.values())):
        residual, passed = math.nan, False
    if info is not None:
        detail = {**detail, **info}
    return CheckResult(passed=bool(passed), residual=residual, detail=detail, tol=tol)


def _negativity(lam_min, lam_max):
    """max(0, -lam_min) / max(1, lam_max), elementwise: how far a spectrum
    dips below zero relative to its top eigenvalue, floor 1; +0.0 (not -0.0)
    when lam_min is zero."""
    return np.maximum(-lam_min, 0.0) / np.maximum(1.0, lam_max)


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, with writes into it switched off."""
    a.flags.writeable = False
    return a


def _numeric(x, dtype=complex) -> np.ndarray:
    """np.asarray(x, dtype); input numpy cannot shape or read as numbers
    (ragged rows, a string) raises DimensionMismatch."""
    try:
        return np.asarray(x, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatch(f"expected a numeric array: {exc}") from None


def _square(x, n: int) -> np.ndarray:
    """x as a complex n x n array (_numeric), else DimensionMismatch."""
    a = _numeric(x)
    if a.shape != (n, n):
        raise DimensionMismatch(f"expected shape {(n, n)}, got {a.shape}")
    return a


def as_matrix(x) -> np.ndarray:
    """Coerce input to a square, finite, complex ndarray copy."""
    m = _numeric(x).copy()
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise DetbalError("matrix entries must be finite")
    return m


def _hermiticity(m: np.ndarray) -> tuple[bool, float]:
    """Whether the finite matrix m (complex and C-ordered, as as_matrix
    returns it) is Hermitian, ||m - m^dag|| <= 1e-12 * max(1, ||m||) in
    Frobenius norm, and that residual.  Both norms are taken of m / s,
    s = max(1, max |Re m_jk|, max |Im m_jk|), so neither overflows; for
    s = 1 this is the comparison itself."""
    s = float(np.abs(m.view(np.float64)).max(initial=1.0))
    a = m / s if s > 1.0 else m
    res = float(np.linalg.norm(a - a.conj().T))
    return res <= 1e-12 * max(1.0 / s, float(np.linalg.norm(a))), res * s


def require_hermitian(m: np.ndarray) -> np.ndarray:
    """Validate Hermiticity up to 1e-12 * max(1, ||m||) and return m."""
    m = as_matrix(m)
    hermitian, res = _hermiticity(m)
    if not hermitian:
        raise NotHermitian(f"matrix is not Hermitian (residual {res:.3e})")
    return m


def hermitian_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a Hermitian matrix with LAPACK (numpy.linalg.eigh).

    Returns (eigenvalues, eigenvectors) like eigh, with the eigenvalues in
    descending order and the eigenvectors as matching columns.  The input
    is validated by require_hermitian and symmetrized before the solve.
    The sort is stable, so tied eigenvalues keep LAPACK's order, and the
    basis inside a degenerate eigenspace is LAPACK's, fixed for one
    numpy/LAPACK build.
    """
    return _eig_descending(require_hermitian(m))


def _eig_descending(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hermitian_eig's solve of an already validated complex matrix a."""
    lam, v = np.linalg.eigh(0.5 * (a + a.conj().T))
    order = np.argsort(-lam, kind="stable")
    return lam[order], v[:, order]


def mat_power(m, z, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Principal power m**z of a Hermitian positive definite matrix.

    z may be complex; eigenvalues are exponentiated as exp(z * log(lam)).
    Raises NotInvertible when an eigenvalue does not exceed tol.inv_tol.
    """
    lam, u = hermitian_eig(m)
    if float(np.min(lam)) <= tol.inv_tol:
        raise NotInvertible(
            f"matrix power needs strictly positive spectrum (min eigenvalue {np.min(lam):.3e})"
        )
    powered = np.exp(np.asarray(z, dtype=complex) * np.log(lam.astype(complex)))
    return u @ np.diag(powered) @ u.conj().T
