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
No caller can write into it: an input array is kept only when it, and
every array it views, is read-only, and copied otherwise; the builders
here and in duals hand over arrays they made, frozen (_adopt).  A map
keeps values computed from that matrix on their first read, none of which
depends on the tolerance: where it stores entries (_at and more, below),
its unital residual ||s(1) - 1|| (_unital_residual), and the numbers of
its CP test (_choi_spectrum): the Choi Hermiticity residual, the smallest
and largest Choi eigenvalue and the Choi negativity.  Every unitality or
CP test of the map after the first, from any public check, forms its
verdict from those numbers without computing them again.  The positivity
probe (is_positive_map) keeps nothing.

_stored decides, for the CP test and every other O(n^4) kernel, whether a
map's stored entries are followed instead of all n^4: at n >= 7 with at
most n^4 / 8 of them stored.  It finds them in one comparison pass, as
flat C-order positions into mat.ravel().  A map runs that search once, on
the first read of its positions (_at), and keeps them and the entries
stored there (_entries).  A realignment stores the same entries at
permuted positions: SuperOperator._place gives them as flat positions of
the realignment's (n, n, n, n) layout, in _at's order, with the row and
column of each in its n^2 x n^2 layout, formed once per map and
realignment and kept.  So a map's realignment read at its own positions is
_entries, and any other operand there is one take: every realignment in
use is an involution, so the matrix entry behind a position of one
realignment is found through the positions of a composed one (_compose).
A map built from rescaled entries of another's realignment, as a dual is
(_from_entries), is handed those positions and entries and reads the
positions of its own realignments from the other map: it neither searches
nor forms positions.  A kernel writes its elementwise expression once and
is fed either the views of the dense pass or the gathered entries.  The CP
test then finds the coupled rows at the stored entries and takes its
coupled block (a copy of the Choi view if every row couples) and diagonal
from the matrix; the Choi Hermiticity residual is summed over the stored
entries and may differ from the dense form's in the last bits.  Any other
map has the Choi matrix and its transpose read as views of its matrix,
with one n^2 x n^2 buffer.  No function here writes into its input;
_adopt only switches off writes into the array a builder hands it.
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
    """Column-stacking vectorization of a matrix; input that is not 2-D
    raises DimensionMismatch."""
    x = _numeric(x)
    if x.ndim != 2:
        raise DimensionMismatch(f"vec wants a matrix, got shape {x.shape}")
    return x.reshape(-1, order="F")


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
    C-ordered complex array, read-only: the input itself when it is one and
    no caller can write into it (_writable_elsewhere), else a copy or a
    conversion made once.  A non-integer n (a bool is none), n < 1 or
    another shape raises DimensionMismatch."""

    n: int
    mat: np.ndarray

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer)):
            raise DimensionMismatch(f"map dimension must be an integer, got {self.n!r}")
        mat = np.ascontiguousarray(_numeric(self.mat))
        if self.n < 1 or mat.shape != (self.n * self.n,) * 2:
            raise DimensionMismatch(f"map on M_{self.n} with a matrix of shape {mat.shape}")
        if _writable_elsewhere(mat, self.mat):
            mat = mat.copy()
        mat.flags.writeable = False  # a write would leave the kept values stale
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "_placed", {})  # SuperOperator._place, by axes

    @cached_property
    def _at(self):
        """Where mat stores entries (_stored), found on the first read."""
        return _stored(self.mat, self.n)

    @cached_property
    def _entries(self):
        """The stored entries of mat, at _at and in its order."""
        return self.mat.take(self._at)

    @cached_property
    def _unital_residual(self) -> float:
        """||s(1) - 1|| (is_unital), formed on the first read.

        s(1) = sum_j s(E_jj), and column j + n j of mat is vec(s(E_jj)), so
        vec(s(1)) is the sum of the n diagonal-unit columns; 1 sits at the
        same positions j + n j of the result.  No product with vec(1) is
        formed."""
        n = self.n
        defect = self.mat[:, :: n + 1].sum(axis=1)
        defect[:: n + 1] -= 1.0
        return float(np.linalg.norm(defect))

    @cached_property
    def _choi_spectrum(self):
        """The Choi Hermiticity residual, the extreme eigenvalues of the
        Choi matrix's Hermitian part (_choi_test), solved on the first read,
        and the Choi negativity they give."""
        herm, lam_min, lam_max = _choi_test(self)
        return herm, lam_min, lam_max, float(_negativity(lam_min, lam_max))

    def _place(self, axes):
        """Where the realignment of mat by axes (_realign) stores entries,
        for a map with positions (_at): their flat positions in its
        (n, n, n, n) layout, in _at's order, and their rows and columns in
        its n^2 x n^2 layout (flat // n^2, flat % n^2).  Formed once per
        axes from _digits, or read from the map this one was built from
        (_from_entries)."""
        got = self._placed.get(axes)
        if got is None:
            source = self.__dict__.get("_source")
            n = self.n
            if source is not None:
                got = source[0]._place(_compose(source[1], axes))
            elif axes == _SAME_AXES:
                got = (self._at, *_split(self._at, n * n))
            else:
                x = self._digits
                rows = x[axes[0]] * n + x[axes[1]]
                cols = x[axes[2]] * n + x[axes[3]]
                got = (rows * (n * n) + cols, rows, cols)
            self._placed[axes] = got
        return got

    @cached_property
    def _digits(self):
        """The four indices of each stored entry in the (n, n, n, n) layout,
        in _at's order: those of its row and of its column.  They only form
        positions (_place) and the state dual's row and column scalings."""
        _, rows, cols = self._place(_SAME_AXES)
        return (*_split(rows, self.n), *_split(cols, self.n))

    def apply(self, x) -> np.ndarray:
        """Evaluate the map on an n x n matrix."""
        return unvec(self.mat @ vec(_square(x, self.n)), self.n)

    def compose(self, other: "SuperOperator") -> "SuperOperator":
        """self after other: (self.compose(other)).apply(x) = self(other(x))."""
        if self.n != other.n:
            raise DimensionMismatch(f"cannot compose maps on M_{self.n} and M_{other.n}")
        return _adopt(self.n, self.mat @ other.mat)

    def power(self, k: int) -> "SuperOperator":
        """k-fold composition with itself; k = 0 gives the identity map.  A
        bool k raises ValueError, as a negative or fractional one does."""
        # inf % 1 and a NaN compare False
        if isinstance(k, (bool, np.bool_)) or not (k >= 0 and k % 1 == 0):
            raise ValueError(f"power wants a nonnegative integer, got {k!r}")
        return _adopt(self.n, np.linalg.matrix_power(self.mat, int(k)))


def _writable_elsewhere(mat: np.ndarray, given) -> bool:
    """Whether a caller could still write into mat, the array SuperOperator
    made of its input given: mat holds given's memory (numpy converted
    nothing), and mat or an array it views is writable, or its memory is
    a buffer other than bytes.  A converted input is new memory."""
    if isinstance(given, np.ndarray):
        if not np.may_share_memory(mat, given):
            return False
    elif mat.base is None:  # built from a list or a scalar
        return False
    a = mat
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return True
        a = a.base
    return a is not None and not isinstance(a, bytes)


def _adopt(n: int, mat: np.ndarray) -> SuperOperator:
    """The map of a matrix that a builder made for it and keeps no other
    reference to: mat and every array it views are frozen in place, so the
    map keeps mat without a copy."""
    a = mat
    while isinstance(a, np.ndarray):
        a.flags.writeable = False
        a = a.base
    return SuperOperator(n, mat)


# The realignments in use (_realign, SuperOperator._place), each an
# involution.  Swapping axes 0, 1 transposes a map's output, swapping 2, 3
# its input.
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


@lru_cache(maxsize=None)
def _compose(first, then):
    """The realignment by first, then by then, as one: axes first[k] for k
    in then."""
    return tuple(first[k] for k in then)


def _split(flat: np.ndarray, base: int):
    """(flat // base, flat % base), by one floor division: numpy's divmod
    and % take no fast path for a scalar divisor, // does."""
    high = flat // base
    return high, flat - high * base


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
    return _adopt(a.shape[0], np.kron(b, a))


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
    return _adopt(n, mat)


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
# on schur-db2 maps, each call on a new map, so with its search and the
# positions it forms (2 vCPUs, numpy 2.4, one BLAS thread, 20th percentile
# of 120 alternating timings).  run_report with both mirror checks, where
# every kernel shares the positions, is 14% slower gathered at n = 6, 4%
# faster at n = 7 and 21% faster at n = 8.  is_completely_positive alone,
# which forms two realignments' positions for itself, is 38% slower at
# n = 6, 19% slower at n = 7 and 4% faster at n = 8.  On maps whose Choi
# matrix has one random coupled block the CP test alone is 14% faster at
# n = 12 and 10% slower at n = 8 with n^4 / 8 entries stored, 18-44% slower
# with n^4 / 4.
_GATHER_MIN_N = 7
_GATHER_SHARE = 8  # at most n^4 / _GATHER_SHARE stored entries


def _stored(m: np.ndarray, n: int):
    """Where the matrix m of a SuperOperator on M_n stores entries, or None
    when the kernels should make their dense passes: n below _GATHER_MIN_N
    or more than n^4 / _GATHER_SHARE entries stored.  A dense map is caught
    on its first rows, which alone store more.

    An entry is stored when its real or its imaginary half compares unequal
    to zero, so a NaN is stored.  The stored entries are given in C order,
    as their flat positions in m.ravel()."""
    if n < _GATHER_MIN_N:
        return None
    limit = m.size // _GATHER_SHARE
    # the entry's two comparison bytes read together as one uint16, counted
    # on the first rows (a count over complex entries costs twice as much)
    first = (m[: limit // len(m) + 1].view(np.float64) != 0).view(np.uint16)
    if np.count_nonzero(first) > limit:
        return None
    pos = np.flatnonzero((m.view(np.float64) != 0).view(np.uint16) != 0)
    return pos if len(pos) <= limit else None


def _union(s: SuperOperator, a, t: SuperOperator, b):
    """The positions stored by the realignment of s by a or of t by b
    (SuperOperator._place), once each and sorted, and where the entries of
    s and of t (_entries) go among them (_spread); None if s or t has no
    positions (_at).  At the union's other positions a realignment holds
    zero, of either sign, which no norm tells apart."""
    if s._at is None or t._at is None:
        return None
    first, second = s._place(a)[0], t._place(b)[0]
    u = np.concatenate((first, second))
    u.sort()
    if len(u):
        u = u[np.concatenate(([True], u[1:] != u[:-1]))]
    return u, np.searchsorted(u, first), np.searchsorted(u, second)


def _spread(entries: np.ndarray, at: np.ndarray, size: int) -> np.ndarray:
    """entries at the places at of a complex vector of zeros of length size."""
    out = np.zeros(size, dtype=complex)
    out[at] = entries
    return out


def _from_entries(s: SuperOperator, axes, entries: np.ndarray) -> SuperOperator:
    """The map on M_n whose matrix holds entries where the realignment of
    s by axes stores its own: the (n, n, n, n) array entries itself when s
    has no positions (_at), and then neither has the new map, else one
    scatter into zeros.  The new map is then handed those positions and
    entries (_at, _entries), in s's order, and takes the positions of its
    realignments from s (SuperOperator._place)."""
    n = s.n
    if s._at is None:
        new = _adopt(n, entries.reshape(n * n, n * n))
        new.__dict__["_at"] = None  # where cached_property keeps its value
        return new
    flat = s._place(axes)[0]
    new = _adopt(n, _spread(entries, flat, n**4).reshape(n * n, n * n))
    entries.flags.writeable = False
    new.__dict__.update(_at=flat, _entries=entries, _source=(s, axes))
    return new


def _gathered_choi(s: SuperOperator):
    """(Hermiticity residual, Choi spectrum) of the map s, read from its
    stored entries (_at).

    Only the stored entries and their mirrors can make the Hermitian part
    H = (C + C^dag) / 2 nonzero, so the coupled rows are found there, and
    the coupled block and the diagonal are taken from s.mat: the same
    values, by the same operations, as in the dense passes.  When every row
    couples the block is all of C, one copy of the Choi view.  ||C|| and
    ||C - C^dag|| are summed over the stored entries; an entry whose mirror
    is not stored counts twice in the second, once for the mirror position.

    A stored entry sits in the Choi matrix at the row and column of its
    _CHOI_AXES position, and its mirror is the entry of s.mat at its
    _BAR_AXES position."""
    n, m = s.n, s.mat
    big = n * n
    v = s._entries
    vm = m.take(s._place(_BAR_AXES)[0])
    _, p, q = s._place(_CHOI_AXES)
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
    if len(coupled) == big:
        block = _realign(m, n, _CHOI_AXES).reshape(big, big)
    elif len(coupled):
        # Choi entry (j n + a, k n + b) is entry [b, a, k, j] of the reshape
        j, a = np.divmod(coupled, n)
        block = m.reshape(n, n, n, n)[a, a[:, None], j, j[:, None]]
    if len(coupled):
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
    keeps the residual, the two extreme eigenvalues and the negativity
    (SuperOperator._choi_spectrum); the verdict under tol is formed on
    every call.  Both routes of _choi_test give the same eigenvalues; the
    residual may differ in its last bits.  A map with a non-finite entry
    fails with residual NaN on either route, unsolved (_block_spectrum).
    """
    herm, lam_min, lam_max, negativity = s._choi_spectrum
    return _verdict(
        tol,
        {"choi_hermiticity": herm},
        psd={"choi_negativity": negativity},
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
    """Unitality test: residual ||s(1) - 1||, formed once per map and kept
    (SuperOperator._unital_residual); the verdict under tol is formed on
    every call.  A -> s(A^T)^T sends 1 to s(1)^T: the same residual, summed
    in another order.
    """
    return _verdict(tol, {"unital": s._unital_residual})


def is_hermitian_map(s: SuperOperator, tol: Tolerance = DEFAULT_TOL) -> CheckResult:
    """Hermiticity-preservation test: s(A^dag) = s(A)^dag on matrix units.

    The map A -> s(A^dag)^dag has matrix K conj(M) K with K the commutation
    matrix.  Column j + n k of M - K conj(M) K is s(E_jk) - s(E_kj)^dag, so
    the largest column norm is the largest defect over the matrix units.
    """
    n = s.n
    diff = s.mat - _realign(s.mat.conj(), n, _BAR_AXES).reshape(n * n, n * n)
    return _verdict(tol, {"hermitian_map": float(np.max(np.linalg.norm(diff, axis=0)))})
