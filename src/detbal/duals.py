"""Dual maps of a channel relative to a faithful state, and the modular maps.

Fix an invertible density matrix rho (diagonal, per states.make_density)
and write <A> = tr(rho A).  For a linear map s on M_n this module builds:

  hs_adjoint   s^dag   adjoint for tr(a^dag b):      <s^dag(A), B>_HS = <A, s(B)>_HS
  trace_dual   s^#     predual of the trace pairing: tr[s^#(A) B] = tr[A s(B)]
  rho_dual     s'      state dual:                   <s'(A) B> = <A s(B)>
  kms_dual     s^(1/2) symmetrized state dual:
               tr(rho^(1/2) s^(1/2)(A) rho^(1/2) B) = tr(rho^(1/2) A rho^(1/2) s(B))
  bar_map      s^bar   transpose conjugate s(A^T)^T; of the state dual,
                       bar_map(rho_dual(s, rho)) is s^hat: A -> s'(A^T)^T
  theta_conjugate      (Theta s Theta)(A^T)^T for a reversing operation Theta

Closed forms used (all checked against their defining pairings in tests),
for s with matrix M, K the commutation matrix and rho = diag(d):
  s^#(A)     = s^dag(A^dag)^dag                      K M^T K
  s'(A)      = rho^(-1) s^#(rho A)                   K M^T K, rows / d_j, columns * d_j
  s^(1/2)(A) = rho^(-1/2) s^#(rho^(1/2) A rho^(1/2)) rho^(-1/2)
               K M^T K, rows / (d_j d_k)^(1/2), columns * (d_j d_k)^(1/2)
where row or column j + n k belongs to the unit E_jk.  Products with K are
index permutations, so no dual costs a matrix product: K M^T K is read as a
view of M and scaled into the one array the dual returns, O(n^4), and the
input is never written.  When M stores few entries (superop._stored) only
those are scaled, with the rows and columns they take in K M^T K
(SuperOperator._place), and scattered into zeros.  The dual is handed
those positions and the scaled entries as its own (superop._from_entries),
so no dual searches its matrix again or permutes a position: those of its
realignments are read from s.  The row and column scalings are read from
rho, which keeps 1 / d and the KMS weights (d_j d_k)^(1/2)
(states.DensityMatrix).  The Theta-conjugate conj(W) M W,
W = kron(conj u, u), is O(n^5), and for the plain transpose (u = 1) it is
s itself, returned as is: a ReversingOperation keeps whether it is the
plain transpose, and holds a read-only copy of u.

The kms dual preserves complete positivity and is an involution; the state
dual agrees with it exactly when s commutes with the modular map
Delta(A) = rho A rho^(-1).  The one-parameter family
Delta^(-iz)(A) = rho^(-iz) A rho^(iz) of modular_power, formed from the
modular ratios rho keeps, holds Delta: z = i gives Delta itself
(modular_power(rho, 1j)), z = i/2 its square root, real z the modular
unitary group.  All of them are diagonal in the matrix-unit basis.

Thermofield double view.  The cyclic vector of the purified state is
rho^(1/2) itself, viewed as a Hilbert-Schmidt vector.  Left multiplication
represents the algebra; the mirror copy of an operator a acts by right
multiplication with a^dag, tilde(a): X -> X a^dag, which commutes with every
left multiplication.  Two structural identities make the picture work; they
hold by construction in the eigenbasis and are asserted unit by unit in the
tests:

  substitution  Delta^(-1/2)(tilde(a) rho^(1/2)) = a^dag rho^(1/2)
  kms           <A Delta(B)> = <B A>

The mirror correlation is the purified two-copy functional of states:
<A tilde(B)> = tr(rho^(1/2) A rho^(1/2) B^dag) = omega(A ox conj(B)),
omega_eval(purify(rho), A, conj(B)).  The balance checks in mirror form,
check_db2_tfd and check_sqdb_tfd, are in balance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DetbalError, DimensionMismatch, NonUnitary, NotInvolutive
from .linalg import DEFAULT_TOL, Tolerance, _read_only, _square, as_matrix
from .states import DensityMatrix
from .superop import (
    _BAR_AXES,
    _DUAL_AXES,
    _INPUT_TRANSPOSE_AXES,
    SuperOperator,
    _adopt,
    _from_entries,
    _kron_sandwich,
    _realign,
    pi_rep,
)


def hs_adjoint(s: SuperOperator) -> SuperOperator:
    """Adjoint for the Hilbert-Schmidt inner product: the conjugate transpose."""
    return _adopt(s.n, np.conjugate(s.mat.T, order="C"))


def bar_map(s: SuperOperator) -> SuperOperator:
    """Transpose conjugate A -> s(A^T)^T; CP for CP input."""
    n = s.n
    return _adopt(n, _realign(s.mat, n, _BAR_AXES).reshape(n * n, n * n))


def trace_dual(s: SuperOperator) -> SuperOperator:
    """The map s^# with tr[s^#(A) B] = tr[A s(B)] for all A, B.

    Computed as s^dag(A^dag)^dag, whose matrix K conj(M^dag) K = K M^T K is
    an index permutation of M; for Hermiticity-preserving s this equals
    hs_adjoint(s).  Kraus maps dualize to their Kraus-adjoint families, so
    unital maps have trace-preserving duals and conversely.
    """
    n = s.n
    return _adopt(n, _realign(s.mat, n, _DUAL_AXES).reshape(n * n, n * n))


def _check_state(s: SuperOperator, rho: DensityMatrix) -> None:
    if s.n != rho.n:
        raise DimensionMismatch(f"map on M_{s.n} vs state on dimension {rho.n}")


def rho_dual(s: SuperOperator, rho: DensityMatrix) -> SuperOperator:
    """State dual s' with <s'(A) B> = <A s(B)>, via rho^(-1) s^#(rho A).

    rho is diagonal, so left and right multiplication by it scale the rows
    and columns of the matrix of s^#: O(n^4), or O(stored) on the stored
    entries of s (superop._stored), scattered into zeros, where s' stores
    its entries.  The defining pairing is kept as a test oracle.  s' is
    unital iff s preserves <.>, and trace-of-rho-preserving iff s is unital.
    """
    return _dual(s, rho, _rho_dual_entries)


def _dual(s: SuperOperator, rho: DensityMatrix, entries_of) -> SuperOperator:
    """The map whose (n, n, n, n) matrix entries_of(rho, ...) forms from
    the _DUAL_AXES realignment of s.mat: from the whole view, or from its
    stored entries (s._entries), which the dual keeps as its own with their
    positions there (superop._from_entries)."""
    _check_state(s, rho)
    if s._at is None:
        return _from_entries(s, _DUAL_AXES, entries_of(rho, _realign(s.mat, s.n, _DUAL_AXES)))
    return _from_entries(s, _DUAL_AXES, entries_of(rho, s._entries, s))


def _rho_dual_entries(rho: DensityMatrix, dual: np.ndarray, s=None) -> np.ndarray:
    """Entries of rho_dual(s, rho).mat.reshape(n, n, n, n) from those of
    the view dual of s.mat realigned by _DUAL_AXES: all of them, or with s
    given, the stored ones (s._entries).  Axes (k, j, k', j') of row j + n k,
    column j' + n k': rows / d_j, columns * d_j', with 1 / d kept by rho
    (DensityMatrix._inverse)."""
    d, inverse = rho.diag, rho._inverse
    if s is None:
        rows, cols = inverse[:, None, None], d
    else:
        # index k of a position of the realignment is index _DUAL_AXES[k] of s's
        x = s._digits
        rows, cols = inverse.take(x[_DUAL_AXES[1]]), d.take(x[_DUAL_AXES[3]])
    m = np.multiply(rows, dual, order="C")
    m *= cols
    return m


def kms_dual(s: SuperOperator, rho: DensityMatrix) -> SuperOperator:
    """Symmetrized state dual rho^(-1/2) s^#(rho^(1/2) A rho^(1/2)) rho^(-1/2).

    Involutive, completely positive for completely positive s, and equal to
    rho_dual exactly on maps commuting with the modular map.  The products
    with powers of the diagonal rho are row and column scalings: O(n^4), or
    O(stored) as in rho_dual.
    """
    return _dual(s, rho, _kms_dual_entries)


def _kms_dual_entries(rho: DensityMatrix, dual: np.ndarray, s=None) -> np.ndarray:
    """Entries of kms_dual(s, rho).mat.reshape(n, n, n, n) from those of
    the view dual of s.mat realigned by _DUAL_AXES, all of them or with s
    given the stored ones (_rho_dual_entries): rows / (d_j d_k)^(1/2),
    columns * (d_j' d_k')^(1/2), the KMS weights kept by rho
    (DensityMatrix._kms_weights)."""
    half = rho._kms_weights  # [k, j] -> (d_j d_k)^(1/2), vec index j + n k
    if s is None:
        rows, cols = half.reshape(half.shape + (1, 1)), half
    else:
        _, i, j = s._place(_DUAL_AXES)
        rows, cols = half.take(i), half.take(j)
    m = np.divide(dual, rows, order="C")
    m *= cols
    return m


def modular_power(rho: DensityMatrix, z) -> SuperOperator:
    """The analytic modular family at parameter z: A -> rho^(-iz) A rho^(iz).

    Real z gives the unitary modular group; z = i recovers the modular map
    itself and z = -i its inverse (the sign convention is locked by tests).
    Diagonal with entries (rho_j / rho_k)^(-iz); a z for which one of them
    is not finite (a NaN, or an overflow) raises DetbalError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        d = rho._modular_ratios ** (-1j * complex(z))
    if not np.all(np.isfinite(d)):
        raise DetbalError("matrix entries must be finite")
    return _adopt(rho.n, np.diag(d))


def tilde(a) -> SuperOperator:
    """The mirror operator of a: X -> X a^dag, pi_rep(1, conj(a)).  A
    non-square a raises DimensionMismatch."""
    a = as_matrix(a)
    return pi_rep(np.eye(a.shape[0]), a.conj())


@dataclass(frozen=True, eq=False)
class ReversingOperation:
    """Involutive *-anti-automorphism A -> u A^T u^dag (time reversal).

    For unitary u the map is anti-multiplicative and *-preserving by
    construction.  Applied twice it is A -> w A w^dag with w = u conj(u), so
    it is an involution exactly when w is a phase times the identity;
    make_reversing checks unitarity and that condition.  u is a read-only
    copy of the array given.  The operation keeps whether it is the plain
    transpose (_is_transpose), formed on the first read.
    """

    u: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "u", _read_only(np.array(self.u)))

    @property
    def n(self) -> int:
        return self.u.shape[0]

    @cached_property
    def _is_transpose(self) -> bool:
        """Whether u is the identity, so that Theta is the plain transpose."""
        return bool(np.array_equal(self.u, np.eye(self.n)))

    def apply(self, a) -> np.ndarray:
        """Theta(a) for an n x n matrix a; another shape raises DimensionMismatch."""
        return self.u @ _square(a, self.n).T @ self.u.conj().T

    def superop(self) -> SuperOperator:
        """Matrix kron(conj u, u) K: the columns of kron(conj u, u) permuted."""
        n = self.n
        w = np.kron(self.u.conj(), self.u)
        return _adopt(n, _realign(w, n, _INPUT_TRANSPOSE_AXES).reshape(n * n, n * n))


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
    the plain transpose (u = 1, ReversingOperation._is_transpose) the map
    is s, and s itself is returned.
    """
    if s.n != th.n:
        raise DimensionMismatch(f"map on M_{s.n} vs reversing operation on M_{th.n}")
    if th._is_transpose:
        return s
    u = th.u
    return _adopt(s.n, _kron_sandwich(s.mat, s.n, u.conj(), u, u, u.conj()))
