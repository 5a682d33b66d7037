"""Dual maps of a channel relative to a faithful state, and the modular family.

Fix an invertible density matrix rho (diagonal, per states.make_density)
and write <A> = tr(rho A).  For a linear map s on M_n this module builds:

  hs_adjoint   s^dag   adjoint for tr(a^dag b):      <s^dag(A), B>_HS = <A, s(B)>_HS
  trace_dual   s^#     predual of the trace pairing: tr[s^#(A) B] = tr[A s(B)]
  rho_dual     s'      state dual:                   <s'(A) B> = <A s(B)>
  kms_dual     s^(1/2) symmetrized state dual:
               tr(rho^(1/2) s^(1/2)(A) rho^(1/2) B) = tr(rho^(1/2) A rho^(1/2) s(B))
  hat_map      s^hat   transpose conjugate of the state dual: s'(A^T)^T
  theta_conjugate      (Theta s Theta)(A^T)^T for a reversing operation Theta

Closed forms used (all checked against their defining pairings in tests),
for s with matrix M, K the commutation matrix and rho = diag(d):
  s^#(A)     = s^dag(A^dag)^dag                      K M^T K
  s'(A)      = rho^(-1) s^#(rho A)                   K M^T K, rows / d_j, columns * d_j
  s^(1/2)(A) = rho^(-1/2) s^#(rho^(1/2) A rho^(1/2)) rho^(-1/2)
               K M^T K, rows / (d_j d_k)^(1/2), columns * (d_j d_k)^(1/2)
where row or column j + n k belongs to the unit E_jk.  Products with K are
index permutations, so no dual costs a matrix product: K M^T K is read as a
view of M (superop._realign) and scaled into the one array the dual
returns, and the input is never written.  The Theta-conjugate conj(W) M W,
W = kron(conj u, u), is O(n^5), and for the plain transpose (u = 1) it is
s itself, returned as is.

The kms dual preserves complete positivity and is an involution; the state
dual agrees with it exactly when s commutes with the modular map
Delta(A) = rho A rho^(-1).  The one-parameter family Delta^(-iz)(A) =
rho^(-iz) A rho^(iz) extends Delta: z = i gives Delta itself, real z gives
the modular unitary group.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonUnitary, NotInvolutive
from .linalg import DEFAULT_TOL, Tolerance, as_matrix
from .states import DensityMatrix
from .superop import SuperOperator, _kron_sandwich, _realign, _transpose_sides, pi_rep


def hs_adjoint(s: SuperOperator) -> SuperOperator:
    """Adjoint for the Hilbert-Schmidt inner product: the conjugate transpose."""
    return SuperOperator(s.n, s.mat.conj().T)


def bar_map(s: SuperOperator) -> SuperOperator:
    """Transpose conjugate A -> s(A^T)^T; CP for CP input."""
    return SuperOperator(s.n, _transpose_sides(s.mat, s.n))


def trace_dual(s: SuperOperator) -> SuperOperator:
    """The map s^# with tr[s^#(A) B] = tr[A s(B)] for all A, B.

    Computed as s^dag(A^dag)^dag, whose matrix K conj(M^dag) K = K M^T K is
    an index permutation of M; for Hermiticity-preserving s this equals
    hs_adjoint(s).  Kraus maps dualize to their Kraus-adjoint families, so
    unital maps have trace-preserving duals and conversely.
    """
    return SuperOperator(s.n, _trace_dual_view(s).reshape(s.n**2, s.n**2))


def _trace_dual_view(s: SuperOperator) -> np.ndarray:
    """K M^T K as a view of M: reversing the four realigned axes transposes
    M and swaps the two factors of each side."""
    return _realign(s.mat, s.n, (3, 2, 1, 0))


def _check_state(s: SuperOperator, rho: DensityMatrix) -> None:
    if s.n != rho.n:
        raise DimensionMismatch(f"map on M_{s.n} vs state on dimension {rho.n}")


def rho_dual(s: SuperOperator, rho: DensityMatrix) -> SuperOperator:
    """State dual s' with <s'(A) B> = <A s(B)>, via rho^(-1) s^#(rho A).

    rho is diagonal, so left and right multiplication by it scale the rows
    and columns of the matrix of s^#: O(n^4).  The defining pairing is kept
    as a test oracle.  s' is unital iff s preserves <.>, and
    trace-of-rho-preserving iff s is unital.
    """
    _check_state(s, rho)
    n, d = s.n, rho.diag
    # axes (k, j, k', j') of row j + n k, column j' + n k': rows / d_j, columns * d_j'
    m = np.multiply((1.0 / d)[:, None, None], _trace_dual_view(s), order="C")
    m *= d
    return SuperOperator(n, m.reshape(n * n, n * n))


def kms_dual(s: SuperOperator, rho: DensityMatrix) -> SuperOperator:
    """Symmetrized state dual rho^(-1/2) s^#(rho^(1/2) A rho^(1/2)) rho^(-1/2).

    Involutive, completely positive for completely positive s, and equal to
    rho_dual exactly on maps commuting with the modular map.  The products
    with powers of the diagonal rho are row and column scalings: O(n^4).
    """
    _check_state(s, rho)
    n = s.n
    half = np.sqrt(np.outer(rho.diag, rho.diag))  # [k, j] -> (d_j d_k)^(1/2), vec index j + n k
    m = np.divide(_trace_dual_view(s), half[:, :, None, None], order="C")
    m *= half
    return SuperOperator(n, m.reshape(n * n, n * n))


def hat_map(s: SuperOperator, rho: DensityMatrix) -> SuperOperator:
    """Transpose conjugate of the state dual: A -> s'(A^T)^T."""
    return bar_map(rho_dual(s, rho))


@dataclass(frozen=True, eq=False)
class ModularFamily:
    """The modular map of rho and its square root, as superoperators.

    delta is A -> rho A rho^(-1): positive definite and self-adjoint for
    the Hilbert-Schmidt inner product, diagonal in the matrix-unit basis
    with entries rho_j / rho_k.
    """

    rho: DensityMatrix
    delta: SuperOperator
    delta_half: SuperOperator


def modular(rho: DensityMatrix) -> ModularFamily:
    """Build the modular map of rho from its eigenvalue ratios."""
    d = rho.diag
    ratios = np.outer(1.0 / d, d).ravel()  # vec index (col k, row j) -> rho_j / rho_k
    return ModularFamily(
        rho=rho,
        delta=SuperOperator(rho.n, np.diag(ratios).astype(complex)),
        delta_half=SuperOperator(rho.n, np.diag(np.sqrt(ratios)).astype(complex)),
    )


def modular_power(rho: DensityMatrix, z) -> SuperOperator:
    """The analytic modular family at parameter z: A -> rho^(-iz) A rho^(iz).

    Real z gives the unitary modular group; z = i recovers the modular map
    itself and z = -i its inverse (the sign convention is locked by tests).
    """
    left = rho.power(-1j * complex(z))
    right = rho.power(1j * complex(z))
    return pi_rep(left, right.T)


@dataclass(frozen=True, eq=False)
class ReversingOperation:
    """Involutive *-anti-automorphism A -> u A^T u^dag (time reversal).

    For unitary u the map is anti-multiplicative and *-preserving by
    construction.  Applied twice it is A -> w A w^dag with w = u conj(u), so
    it is an involution exactly when w is a phase times the identity;
    make_reversing checks unitarity and that condition.
    """

    u: np.ndarray

    @property
    def n(self) -> int:
        return self.u.shape[0]

    def apply(self, a) -> np.ndarray:
        a = np.asarray(a, dtype=complex)
        return self.u @ a.T @ self.u.conj().T

    def superop(self) -> SuperOperator:
        """Matrix kron(conj u, u) K: the columns of kron(conj u, u) permuted."""
        w = np.kron(self.u.conj(), self.u)
        return SuperOperator(self.n, _transpose_sides(w, self.n, (0, 1, 3, 2)))


def make_reversing(u, tol: Tolerance = DEFAULT_TOL) -> ReversingOperation:
    """Validate u and build the reversing operation A -> u A^T u^dag.

    Checks that u is unitary (NonUnitary otherwise) and that w = u conj(u)
    is a phase times the identity to within tol.eq_tol in Frobenius norm
    (NotInvolutive otherwise).  Anti-multiplicativity and compatibility
    with the adjoint hold for every unitary u and are not re-checked.  The
    spin reversal u = [[0, 1], [-1, 0]] (w = -1) passes; a real rotation
    by an angle other than a multiple of pi/2 fails.  Both comparisons fail
    closed: a NaN residual, as from entries whose products overflow, is
    rejected.
    """
    u = as_matrix(u)
    n = u.shape[0]
    ures = float(np.linalg.norm(u.conj().T @ u - np.eye(n)))
    if not ures <= 1e-12 * n:
        raise NonUnitary(f"u is not unitary (residual {ures:.3e})")
    w = u @ u.conj()
    invol = float(np.linalg.norm(w - (np.trace(w) / n) * np.eye(n)))
    if not invol <= tol.eq_tol:
        raise NotInvolutive(
            f"u conj(u) differs from a phase times the identity by {invol:.3e}; "
            "the operation does not square to the identity"
        )
    return ReversingOperation(u=u)


def transpose_reversing(n: int) -> ReversingOperation:
    """The plain transpose, the canonical reversing operation."""
    return ReversingOperation(u=np.eye(n, dtype=complex))


def theta_conjugate(s: SuperOperator, th: ReversingOperation) -> SuperOperator:
    """The map A -> (Theta s Theta)(A^T)^T = conj(u) s(u A u^dag) u^T.

    Its matrix is conj(W) M W with W = kron(conj u, u), four batched n x n
    products (superop._kron_sandwich); Theta s Theta is bar_map of it.  For
    the plain transpose (u = 1) the map is s, and s itself is returned.
    """
    if s.n != th.n:
        raise DimensionMismatch(f"map on M_{s.n} vs reversing operation on M_{th.n}")
    u = th.u
    if np.array_equal(u, np.eye(s.n)):
        return s
    return SuperOperator(s.n, _kron_sandwich(s.mat, s.n, u.conj(), u, u, u.conj()))
