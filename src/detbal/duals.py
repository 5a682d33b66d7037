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
input is never written.  Both duals are that view with its rows and
columns scaled, and differ only in the scalings and the ufunc that applies
the row scaling: one kernel (_scaled) forms either.  When M stores few
entries (superop._stored) only those are scaled, with the rows and columns
they take in K M^T K, read as every kernel reads a stored entry's position
(SuperOperator._place), and scattered into zeros.  The dual is handed
those positions and the scaled entries as its own (superop._from_entries),
so no dual searches its matrix again or permutes a position: those of its
realignments are read from s.  The row and column scalings are read from
rho, which keeps them n^2 long, 1 / d_j and d_j and the KMS weights
(d_j d_k)^(1/2) at j + n k (states.DensityMatrix).  The duals of several
maps on one M_n, a stack (superop._Stack), are formed at once from their
stacked matrices (_dual), as are their Theta-conjugates (_conjugates).  The Theta-conjugate
conj(W) M W, W = kron(conj u, u), is O(n^5), and for the plain transpose
(u = 1) it is s itself, returned as is: a ReversingOperation tests whether
it is the plain transpose when it is built, and holds u read-only, copied
and checked once, as a map's matrix is (linalg._handed).

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

import numpy as np

from .errors import DetbalError, DimensionMismatch, NonUnitary, NotInvolutive
from .linalg import DEFAULT_TOL, Tolerance, _handed, _square, as_matrix
from .states import DensityMatrix
from .superop import (
    _BAR_AXES,
    _DUAL_AXES,
    _INPUT_TRANSPOSE_AXES,
    SuperOperator,
    _Stack,
    _stack,
    _adopt,
    _adopted,
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
    """Raise DimensionMismatch unless the map s and the state rho share n:
    the one such check of every dual, balance kernel and dynamics test."""
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
    return _dual(_stack((s,)), rho)[0]


def _dual(ss: _Stack, rho: DensityMatrix, kms=False) -> _Stack:
    """The state duals, or with kms the kms duals, of the maps of the stack
    ss (_scaled): from their whole views, stacked, or for a map with few
    stored entries, alone (_Stack.stored), from those entries, which its
    dual keeps as its own with their positions (superop._from_entries)."""
    _check_state(ss[0], rho)
    scaling = _scaling(rho, kms)
    s, n = ss.stored, ss[0].n
    if s is None:
        entries = _scaled(scaling, _realign(ss.mats, n, _DUAL_AXES))
        return _adopted(n, entries.reshape(ss.mats.shape), _at=None)
    return _stack((_from_entries(s, _DUAL_AXES, _scaled(scaling, s._entries, s)),))


def _scaling(rho: DensityMatrix, kms=False):
    """(ufunc, rows, cols) of the state dual, or with kms of the kms dual,
    for _scaled, from the arrays rho keeps (states.DensityMatrix)."""
    if kms:
        return np.divide, rho._kms_weights, rho._kms_weights
    return np.multiply, rho._dual_rows, rho._dual_cols


def _scaled(scaling, dual: np.ndarray, s=None) -> np.ndarray:
    """A dual's entries from those of the _DUAL_AXES realignment dual of a
    matrix or a stack, or with s given from the stored ones of s: with
    scaling = (ufunc, rows, cols) (_scaling), the entry at row r and column
    c becomes ufunc(entry, rows[r]) * cols[c], a stored entry's r and c
    read where every kernel reads them (SuperOperator._place)."""
    ufunc, rows, cols = scaling
    if s is None:
        n = dual.shape[-1]
        rows, cols = rows.reshape(n, n, 1, 1), cols.reshape(n, n)
    else:
        _, i, j = s._place(_DUAL_AXES)
        rows, cols = rows.take(i), cols.take(j)
    m = ufunc(dual, rows, order="C")
    m *= cols
    return m


def kms_dual(s: SuperOperator, rho: DensityMatrix) -> SuperOperator:
    """Symmetrized state dual rho^(-1/2) s^#(rho^(1/2) A rho^(1/2)) rho^(-1/2).

    Involutive, completely positive for completely positive s, and equal to
    rho_dual exactly on maps commuting with the modular map.  The products
    with powers of the diagonal rho are row and column scalings: O(n^4), or
    O(stored) as in rho_dual, by the state dual's kernel (_scaled).
    """
    return _dual(_stack((s,)), rho, kms=True)[0]


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
    make_reversing checks unitarity and that condition.  Built directly, it
    holds a read-only copy of the array given, read as make_reversing reads
    it (as_matrix): square, finite and complex, so that superop hands a
    complex matrix over (superop._adopt).  make_reversing,
    transpose_reversing and the command line's eigenbasis rotation hand
    over the u they made and checked (_reversing), with no second copy or
    check.  Whether u is the identity, so that Theta is the plain transpose
    (_is_transpose), is tested once, when Theta is built.
    """

    u: np.ndarray

    def __post_init__(self):
        # u read and copied as make_reversing reads it, then kept as a builder's
        vars(self).update(vars(_reversing(as_matrix(self.u))))

    @property
    def n(self) -> int:
        return self.u.shape[0]

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
    return _reversing(u)


def _reversing(u: np.ndarray) -> ReversingOperation:
    """The ReversingOperation of the square complex array u that a builder
    made and checked, handed over (linalg._handed), with whether it is the
    plain transpose (_is_transpose) tested once."""
    return _handed(ReversingOperation, u=u, _is_transpose=bool(np.array_equal(u, np.eye(len(u)))))


def transpose_reversing(n: int) -> ReversingOperation:
    """The plain transpose, the canonical reversing operation.  A
    non-integer n (a bool is none) or n < 1 raises DimensionMismatch."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise DimensionMismatch(f"transpose dimension must be an integer >= 1, got {n!r}")
    return _reversing(np.eye(n, dtype=complex))


def theta_conjugate(s: SuperOperator, th: ReversingOperation) -> SuperOperator:
    """The map A -> (Theta s Theta)(A^T)^T = conj(u) s(u A u^dag) u^T.

    Its matrix is conj(W) M W with W = kron(conj u, u), four batched n x n
    products (superop._kron_sandwich); Theta s Theta is bar_map of it.  For
    the plain transpose (u = 1, ReversingOperation._is_transpose) the map
    is s, and s itself is returned.
    """
    return _conjugates(_stack((s,)), th)[0]


def _conjugates(ss: _Stack, th: ReversingOperation) -> _Stack:
    """theta_conjugate of each map of the stack ss: ss itself for the plain
    transpose, else one _kron_sandwich of the stacked matrices."""
    n = ss[0].n
    if n != th.n:
        raise DimensionMismatch(f"map on M_{n} vs reversing operation on M_{th.n}")
    if th._is_transpose:
        return ss
    u = th.u
    return _adopted(n, _kron_sandwich(ss.mats, n, u.conj(), u, u, u.conj()))
