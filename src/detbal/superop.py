"""Superoperators on M_n as n^2 x n^2 matrices, plus CP/unital predicates.

Convention: column-stacking vectorization.  vec(X) stacks the columns of X
below one another, so vec(A X B^T) = (B ox A) vec(X) and the map
X -> A X B^T has matrix kron(B, A).  A Kraus map X -> sum_j V_j X V_j^dag
therefore has matrix sum_j kron(conj(V_j), V_j).  Every matrix stored in a
SuperOperator uses this convention; mixing it with row-stacking data will
silently transpose factors, which is why the JSON interchange format tags
superoperator matrices with an explicit "convention" field.  The CP test
solves only the coupled rows of the Choi matrix; the rest are 1x1 blocks.

A SuperOperator holds one C-ordered complex n^2 x n^2 matrix, read-only,
so each realignment of it (_realign, axes defined here only) is a view.
A map keeps two values computed from that matrix on their first read: its
stored entries (_at, below) and the numbers of its CP test
(_choi_spectrum): the Choi Hermiticity residual and the smallest and
largest Choi eigenvalue, which do not depend on the tolerance.  Every CP
test of the map after the first, from any public check, forms its verdict
from those three numbers without solving again.  The positivity probe
(is_positive_map) keeps nothing.

_stored decides, for the CP test and every other O(n^4) kernel, whether a
map's stored entries are followed instead of all n^4: at n >= 7 with at
most n^4 / 8 of them stored.  It finds them in one comparison pass, as the
four indices of each entry in the (n, n, n, n) layout, so the stored
entries of any realignment are a permutation of those indices.  A map
runs that search once, the first time its positions (_at) are read, and
keeps them; a map built from permuted entries of another, as a dual is
(_from_entries), is handed those permuted positions and runs none.
SuperOperator._view is the one place a realignment meets its positions:
it returns the realigned view with _at's index arrays reordered alike.  A
kernel writes its elementwise expression once and is fed either the views
of the dense pass or the gathered entries (_factor, _read).  The CP
test then finds the coupled rows at the stored entries and gathers its
coupled block (all of C if every row couples) and diagonal from the
matrix; the Choi Hermiticity
residual is summed over the stored entries and may differ from the dense
form's in the last bits.  Any other map has the Choi matrix and its
transpose read as views of its matrix, with one n^2 x n^2 buffer.  No
function here writes into its input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DimensionMismatch
from .linalg import (
    DEFAULT_TOL,
    CheckResult,
    Tolerance,
    _negativity,
    _numeric,
    _square,
    _verdict,
    as_matrix,
)


def vec(x) -> np.ndarray:
    """Column-stacking vectorization of a matrix."""
    return _numeric(x).reshape(-1, order="F")


def unvec(v, n: int | None = None) -> np.ndarray:
    """Inverse of vec; n defaults to sqrt(v.size)."""
    v = _numeric(v)
    if n is None:
        n = round(v.size**0.5)
    if n * n != v.size:
        raise DimensionMismatch(f"cannot reshape length {v.size} into {n} x {n}")
    return v.reshape((n, n), order="F")


@dataclass(frozen=True, eq=False)
class SuperOperator:
    """Linear map on M_n stored as its n^2 x n^2 column-stacking matrix, one
    C-ordered complex array, read-only: a view of the input when given as
    one, else converted once.  A non-integer n, n < 1 or another shape
    raises DimensionMismatch."""

    n: int
    mat: np.ndarray

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)):
            raise DimensionMismatch(f"map dimension must be an integer, got {self.n!r}")
        mat = np.ascontiguousarray(_numeric(self.mat)).view()
        if self.n < 1 or mat.shape != (self.n * self.n,) * 2:
            raise DimensionMismatch(f"map on M_{self.n} with a matrix of shape {mat.shape}")
        mat.flags.writeable = False  # a write would leave _at and _choi_spectrum stale
        object.__setattr__(self, "mat", mat)

    @cached_property
    def _at(self):
        """Where mat stores entries (_stored), found on the first read."""
        return _stored(self.mat, self.n)

    @cached_property
    def _choi_spectrum(self):
        """The Choi Hermiticity residual and the extreme eigenvalues of the
        Choi matrix's Hermitian part (_choi_test), solved on the first read."""
        return _choi_test(self)

    def _view(self, axes):
        """mat realigned by axes (_realign) and where that view stores
        entries: _at's index arrays reordered alike, or None when _at is."""
        at = self._at
        return _realign(self.mat, self.n, axes), None if at is None else tuple(at[a] for a in axes)

    def apply(self, x) -> np.ndarray:
        """Evaluate the map on an n x n matrix."""
        return unvec(self.mat @ vec(_square(x, self.n)), self.n)

    def compose(self, other: "SuperOperator") -> "SuperOperator":
        """self after other: (self.compose(other)).apply(x) = self(other(x))."""
        if self.n != other.n:
            raise DimensionMismatch(f"cannot compose maps on M_{self.n} and M_{other.n}")
        return SuperOperator(self.n, self.mat @ other.mat)

    def power(self, k: int) -> "SuperOperator":
        """k-fold composition with itself; k = 0 gives the identity map."""
        if not (k >= 0 and k % 1 == 0):  # inf % 1 and a NaN compare False
            raise ValueError(f"power wants a nonnegative integer, got {k!r}")
        return SuperOperator(self.n, np.linalg.matrix_power(self.mat, int(k)))


def identity_superop(n: int) -> SuperOperator:
    """The identity map on M_n."""
    return SuperOperator(n, np.eye(n * n, dtype=complex))


# The realignments in use (_realign, SuperOperator._view).  Swapping axes
# 0, 1 transposes a map's output, swapping 2, 3 its input.
_SAME_AXES = (0, 1, 2, 3)  # M itself
_CHOI_AXES = (3, 1, 2, 0)  # the Choi matrix (choi)
_DUAL_AXES = (3, 2, 1, 0)  # K M^T K, the trace dual
_BAR_AXES = (1, 0, 3, 2)  # K M K, the transpose conjugate; the Choi mirror
_TRANSPOSE_AXES = (2, 3, 0, 1)  # M^T
_INPUT_TRANSPOSE_AXES = (0, 1, 3, 2)  # M K


def _realign(m: np.ndarray, n: int, axes) -> np.ndarray:
    """m.reshape(n, n, n, n).transpose(axes), a view of the C-ordered m:
    entry (a + n b, j + n k) of m sits at [b, a, k, j] of the reshape."""
    return m.reshape(n, n, n, n).transpose(axes)


def _kron_sandwich(m: np.ndarray, n: int, a, b, j, k) -> np.ndarray:
    """kron(b, a) m kron(k, j) in O(n^5): each n x n factor acts on its own axis
    of m.reshape(n, n, n, n) (row = b-axis, a-axis; column = k-axis, j-axis)."""
    m = m.reshape(n**3, n) @ j
    m = k.T @ m.reshape(n * n, n, n)
    m = b @ m.reshape(n, n**3)
    m = a @ m.reshape(n, n, n * n)
    return m.reshape(n * n, n * n)


def pi_rep(a, b) -> SuperOperator:
    """Two-sided multiplication X -> a X b^T, the product representation.

    The second factor acts through its transpose so that a ox b acts on
    row and column indices independently; the matrix is kron(b, a).
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"factor shapes differ: {a.shape} vs {b.shape}")
    return SuperOperator(a.shape[0], np.kron(b, a))


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A finite Kraus family of square operators of one shape."""

    ops: tuple

    def __post_init__(self):
        if len(self.ops) == 0:
            raise DimensionMismatch("a Kraus channel needs at least one operator")
        if not all(isinstance(v, np.ndarray) for v in self.ops):
            raise DimensionMismatch("Kraus operators must be arrays (make_kraus converts them)")
        shape = self.ops[0].shape
        for v in self.ops:
            if v.shape != shape or v.ndim != 2 or v.shape[0] != v.shape[1]:
                raise DimensionMismatch("Kraus operators must share one square shape")

    @property
    def n(self) -> int:
        return self.ops[0].shape[0]


def make_kraus(ops) -> KrausChannel:
    """Validate a sequence of arrays into a KrausChannel."""
    return KrausChannel(tuple(as_matrix(v) for v in ops))


def from_kraus(k) -> SuperOperator:
    """Superoperator of X -> sum_j V_j X V_j^dag.

    Accepts a KrausChannel or a plain sequence of square matrices.  Each
    term kron(conj V_j, V_j) is one broadcast product, entry (a n + b, c n + d)
    = conj(V_j)[a, c] V_j[b, d]: the same products np.kron forms, bit for bit.
    """
    if not isinstance(k, KrausChannel):
        k = make_kraus(k)
    n = k.n
    mat = np.zeros((n * n, n * n), dtype=complex)
    for v in k.ops:
        mat += (v.conj()[:, None, :, None] * v[None, :, None, :]).reshape(n * n, n * n)
    return SuperOperator(n, mat)


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    """Choi matrix sum_jk E_jk ox s(E_jk) of a superoperator on M_n."""

    n: int
    mat: np.ndarray


def choi(s: SuperOperator) -> ChoiMatrix:
    """Choi matrix in the convention C = sum_jk E_jk ox s(E_jk).

    The map sits in the second tensor factor; C is PSD exactly when s is
    completely positive.  For the identity map C is n times the projector
    onto the canonical maximally entangled vector, eigenvalues (n, 0, ...).

    C is an index realignment of s.mat: entry (a + n b, j + n k) of s.mat is
    s(E_jk)[a, b], which C holds at (j n + a, k n + b).
    """
    n = s.n
    return ChoiMatrix(n, _realign(s.mat, n, _CHOI_AXES).reshape(n * n, n * n))


# Route constants of every O(n^4) kernel (_stored), timed in one process
# against the dense passes of is_completely_positive (2 vCPUs, numpy 2.4,
# one BLAS thread, 20th percentile of 150 alternating timings).  On schur-db2
# maps and their state duals the gathered Choi route is 10-27% slower at
# n <= 5, even at n = 6 and 8-29% faster at n = 7, 8.  On maps whose Choi
# matrix has one random coupled block it is 8-17% faster at n = 8, 12 with
# n^4 / 8 entries stored, 7-10% slower with n^4 / 4.
_GATHER_MIN_N = 7
_GATHER_SHARE = 8  # at most n^4 / _GATHER_SHARE stored entries


def _stored(m: np.ndarray, n: int):
    """Where the matrix m of a SuperOperator on M_n stores entries, or None
    when the kernels should make their dense passes: n below _GATHER_MIN_N
    or more than n^4 / _GATHER_SHARE entries stored.  A dense map is caught
    on its first rows, which alone store more.

    An entry is stored when its real or its imaginary half compares unequal
    to zero, so a NaN is stored.  The stored entries are given in C order
    as the four index arrays (x0, x1, x2, x3) of m.reshape(n, n, n, n):
    row x1 + n x0, column x3 + n x2 of m."""
    if n < _GATHER_MIN_N:
        return None
    limit = m.size // _GATHER_SHARE
    # the entry's two comparison bytes read together as one uint16, counted
    # on the first rows (a count over complex entries costs twice as much)
    first = (m[: limit // len(m) + 1].view(np.float64) != 0).view(np.uint16)
    if np.count_nonzero(first) > limit:
        return None
    pos = np.flatnonzero((m.view(np.float64) != 0).view(np.uint16) != 0)
    return np.unravel_index(pos, (n,) * 4) if len(pos) <= limit else None


def _union(a, b, n: int):
    """The positions in a or b, once each, in C order; None if either is."""
    if a is None or b is None:
        return None
    shape = (n,) * 4
    u = np.sort(np.concatenate((np.ravel_multi_index(a, shape), np.ravel_multi_index(b, shape))))
    if len(u):
        u = u[np.concatenate(([True], u[1:] != u[:-1]))]
    return np.unravel_index(u, shape)


def _factor(v: np.ndarray, at, axes) -> np.ndarray:
    """A kernel factor that depends on the consecutive indices axes of the
    (n, n, n, n) layout only (v has one axis for each): v broadcast along
    them when at is None, else v at the positions at."""
    if at is None:
        return v.reshape(v.shape + (1,) * (3 - axes[-1]))
    return v[tuple(at[a] for a in axes)]


def _read(view: np.ndarray, at):
    """A kernel operand: the (n, n, n, n) view itself when at is None, else
    its entries at the positions at."""
    return view if at is None else view[at]


def _from_entries(n: int, at, entries: np.ndarray) -> SuperOperator:
    """The map on M_n with the given entries: the (n, n, n, n) array itself
    when at is None, else one scatter into zeros at the positions at.  The
    map is handed at as its positions (_at), in the order given."""
    if at is None:
        out = entries
    else:
        out = np.zeros((n,) * 4, dtype=complex)
        out[at] = entries
    s = SuperOperator(n, out.reshape(n * n, n * n))
    s.__dict__["_at"] = at  # where cached_property keeps its value
    return s


def _gathered_choi(s: SuperOperator):
    """(Hermiticity residual, Choi spectrum) of the map s, read from its
    stored entries (_at).

    Only the stored entries and their mirrors can make the Hermitian part
    H = (C + C^dag) / 2 nonzero, so the coupled rows are found there, and
    the coupled block and the diagonal are gathered from s.mat: the same
    values, by the same operations, as in the dense passes, also when every
    row couples and the block is all of C.  ||C|| and ||C - C^dag|| are
    summed over the stored entries; an entry whose mirror is not stored
    counts twice in the second, once for the mirror position.

    Entry [x0, x1, x2, x3] of s.mat.reshape(n, n, n, n) is the Choi entry
    (x1 + n x3, x0 + n x2), and its mirror is entry [x1, x0, x3, x2]: the
    entry at the same position of the _BAR_AXES view."""
    n, m = s.n, s.mat
    big = n * n
    m4, at = s._view(_SAME_AXES)
    x0, x1, x2, x3 = at
    p = x3 * n + x1
    q = x2 * n + x0
    v = m4[at]
    vm = _realign(m, n, _BAR_AXES)[at]
    scale = max(1.0, float(np.sqrt(np.vdot(v, v).real)))
    h = np.conjugate(vm)
    d = v - h
    lone = d[vm == 0]
    herm = float(np.sqrt(np.vdot(d, d).real + np.vdot(lone, lone).real)) / scale
    h += v
    h *= 0.5
    hit = (p != q) & (h != 0)
    rows = np.zeros(big, dtype=bool)
    rows[p[hit]] = True
    rows[q[hit]] = True
    coupled = np.flatnonzero(rows)
    # Choi row j n + a holds its diagonal at [a, a, j, j], row and column
    # (n + 1) a and (n + 1) j of m
    diag = m[:: n + 1, :: n + 1].T.ravel()
    lam = np.conjugate(diag)
    lam += diag
    lam *= 0.5
    lam = lam.real.copy()
    if len(coupled):
        j, a = np.divmod(coupled, n)
        block = m4[a, a[:, None], j, j[:, None]]
        h = np.conjugate(block.T)
        h += block
        h *= 0.5
        lam[coupled] = _block_spectrum(h, herm)
    return herm, lam


def _block_spectrum(h: np.ndarray, herm: float) -> np.ndarray:
    """eigvalsh of the coupled block h; NaNs, unsolved, when the Choi
    Hermiticity residual herm is not finite, as it is whenever an entry of
    the map is (LAPACK may refuse such a block)."""
    if not math.isfinite(herm):
        return np.full(len(h), np.nan)
    return np.linalg.eigvalsh(h)


def _choi_test(s: SuperOperator) -> tuple[float, float, float]:
    """The tol-independent numbers of the CP test on s: the Choi Hermiticity
    residual and the smallest and largest eigenvalue of the Hermitian part
    H = (C + C^dag) / 2 (is_completely_positive).  A map with few stored
    entries (_at) takes H's coupled block and diagonal straight from s.mat,
    and the residual and its scale from the stored entries alone
    (_gathered_choi).  Otherwise C and its transpose are read as views of
    s.mat, and one buffer holds in turn C, C - C^dag and H."""
    n = s.n
    if s._at is not None:
        herm, lam = _gathered_choi(s)
    else:
        big = n * n
        c = _realign(s.mat, n, _CHOI_AXES)
        ct = c.transpose(_TRANSPOSE_AXES)
        h = c.copy()
        scale = max(1.0, float(np.linalg.norm(h)))
        np.conjugate(ct, out=h)
        np.subtract(c, h, out=h)
        herm = float(np.linalg.norm(h)) / scale
        np.conjugate(ct, out=h)
        h += c
        h *= 0.5
        h = h.reshape(big, big)
        lam = h.diagonal().real.copy()
        # nonzero off-diagonal entries, read on the real and imaginary halves
        off = h.view(h.real.dtype).reshape(big * big, -1) != 0
        off[:: big + 1] = False
        coupled = np.flatnonzero(off.reshape(big, -1).any(axis=1))
        if len(coupled) == big:
            lam = _block_spectrum(h, herm)
        elif len(coupled):
            lam[coupled] = _block_spectrum(h[coupled[:, None], coupled], herm)
    return herm, float(lam.min()), float(lam.max())


def is_completely_positive(s: SuperOperator, tol: Tolerance = DEFAULT_TOL) -> CheckResult:
    """CP test: the Choi matrix must be Hermitian and PSD.

    Eigenvalue negativity is measured relative to the largest Choi
    eigenvalue with a floor of 1, so scaling a channel does not move the
    verdict.  detail reports the extreme Choi eigenvalues.

    The spectrum is that of the Hermitian part H = (C + C^dag) / 2.  A row
    of H with no nonzero off-diagonal entry (exact test) keeps its diagonal
    entry; the coupled rows go to eigvalsh as one block, or H whole when
    every row couples.  A map solves it once, on its first CP test, and
    keeps the residual and the two extreme eigenvalues
    (SuperOperator._choi_spectrum); the verdict under tol is formed on
    every call.  Both routes of _choi_test give the same eigenvalues; the
    residual may differ in its last bits.  A map with a non-finite entry
    fails with residual NaN on either route, unsolved (_block_spectrum).
    """
    herm, lam_min, lam_max = s._choi_spectrum
    return _verdict(
        tol,
        {"choi_hermiticity": herm},
        psd={"choi_negativity": float(_negativity(lam_min, lam_max))},
        info={"choi_min_eigenvalue": lam_min, "choi_max_eigenvalue": lam_max},
    )


@lru_cache(maxsize=None)
def _projector_frame(n: int) -> tuple[np.ndarray, ...]:
    """Deterministic rank-1 frame spanning the Hermitian matrices."""
    vecs = []
    eye = np.eye(n, dtype=complex)
    for j in range(n):
        vecs.append(eye[:, j])
    for j in range(n):
        for k in range(j + 1, n):
            vecs.append((eye[:, j] + eye[:, k]) / np.sqrt(2.0))
            vecs.append((eye[:, j] + 1j * eye[:, k]) / np.sqrt(2.0))
    out = tuple(np.outer(v, v.conj()) for v in vecs)
    for p in out:
        p.setflags(write=False)
    return out


def is_positive_map(s: SuperOperator, tol: Tolerance = DEFAULT_TOL) -> CheckResult:
    """Positivity-only test: outputs on a fixed rank-1 projector frame are PSD.

    This is weaker than complete positivity and (like any finite probe
    family) only a necessary condition for positivity, but it is the check
    of choice when the stronger Choi criterion is deliberately disabled.
    """
    outs = np.array([s.apply(p) for p in _projector_frame(s.n)])
    adj = outs.conj().transpose(0, 2, 1)
    scale = np.maximum(1.0, np.linalg.norm(outs, axis=(1, 2)))
    worst_herm = float(np.max(np.linalg.norm(outs - adj, axis=(1, 2)) / scale))
    worst_neg = math.nan  # a non-finite output, which LAPACK may refuse
    if math.isfinite(worst_herm):
        lam = np.linalg.eigvalsh(0.5 * (outs + adj))
        worst_neg = float(np.max(_negativity(lam[:, 0], lam[:, -1])))
    return _verdict(
        tol, {"output_hermiticity": worst_herm}, psd={"output_negativity": worst_neg}
    )


def is_unital(s: SuperOperator, tol: Tolerance = DEFAULT_TOL) -> CheckResult:
    """Unitality test: residual ||s(1) - 1||.

    s(1) = sum_j s(E_jj), and column j + n j of s.mat is vec(s(E_jj)), so
    vec(s(1)) is the sum of the n diagonal-unit columns; 1 sits at the same
    positions j + n j of the result.  No product with vec(1) is formed.
    A -> s(A^T)^T sends 1 to s(1)^T: the same residual, summed in another order.
    """
    n = s.n
    defect = s.mat[:, :: n + 1].sum(axis=1)
    defect[:: n + 1] -= 1.0
    return _verdict(tol, {"unital": float(np.linalg.norm(defect))})


def is_hermitian_map(s: SuperOperator, tol: Tolerance = DEFAULT_TOL) -> CheckResult:
    """Hermiticity-preservation test: s(A^dag) = s(A)^dag on matrix units.

    The map A -> s(A^dag)^dag has matrix K conj(M) K with K the commutation
    matrix.  Column j + n k of M - K conj(M) K is s(E_jk) - s(E_kj)^dag, so
    the largest column norm is the largest defect over the matrix units.
    """
    n = s.n
    diff = s.mat - _realign(s.mat.conj(), n, _BAR_AXES).reshape(n * n, n * n)
    return _verdict(tol, {"hermitian_map": float(np.max(np.linalg.norm(diff, axis=0)))})
