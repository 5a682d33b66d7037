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
No caller can write into it.  The map makes one copy of what a caller
gives, as every value type does (linalg._numeric with own): a new
C-ordered complex array that shares no memory with the input, whatever
numpy held it in, and freezes that copy.  The builders here, in
duals, generators and the command line hand over C-ordered complex
n^2 x n^2 arrays they made through _adopt, the only path without a copy,
which freezes them and builds the map without checking them again: it
asserts only their type, order and shape, and hands over through
linalg._handed, the path that states, reversing operations, Kraus
families and chains share.  A map keeps values computed from that matrix
on their first read, none of which depends on the tolerance, and nothing
else (SuperOperator): where it stores entries (_at and more, below), its
unital residual ||s(1) - 1|| (_unital_residual), and the numbers of its
CP test (_choi_spectrum): the Choi Hermiticity residual, the smallest and
largest Choi eigenvalue and the Choi negativity.  Every unitality or CP test of
the map after the first, from any public check, forms its verdict from
those numbers without computing them again.  The positivity probe
(is_positive_map) keeps nothing.

Maps on one M_n can be decided together as a _Stack: the dense passes
then run once over their matrices on a leading batch axis (_Stack.mats),
and each element's numbers are the bits its map gives alone: every
elementwise step is the same per element, each norm is formed per element
as np.linalg.norm forms it (linalg._norms), and eigvalsh solves each
matrix of a stack as it would alone.  A lone map is a stack of one, whose
mats is its own matrix: a kernel reads the last axes, so it has one
implementation for one map or several.  _kept forms the unital residuals
and Choi spectra of groups of maps in one stacked pass per group and keeps
them as each map's own.  balance alone groups them, powers of a channel
and their state duals, so that a pass holds at most _GATHER_MIN_N**4
entries: no more memory than one map at the stored-entry route's size.

_stored decides, for the CP test and every other O(n^4) kernel, whether a
map's stored entries are followed instead of all n^4: at n >= 7 with at
most n^4 / 8 of them stored.  It finds them in one comparison pass, as
flat C-order positions into mat.ravel().  A map runs that search once, on
the first read of its positions (_at), and keeps them and the entries
stored there (_entries).  A realignment stores the same entries at
permuted positions: SuperOperator._place gives them as flat positions of
the realignment's (n, n, n, n) layout, in _at's order, with the row and
column of each in its n^2 x n^2 layout, formed once per map and
realignment and kept (_placed).  It is the one accessor of a stored
entry's position: every kernel that reads one, the duals' row and column
scalings and the CP test's Choi rows included, reads it there.  So a
map's realignment read at its own positions is _entries, and any other
operand there is one take: every realignment in use is an involution, so
the matrix entry behind a position of one realignment is found through
the positions of a composed one (_compose).
A map built from rescaled entries of another's realignment, as a dual is
(_from_entries), is handed those positions and entries and reads the
positions of its own realignments from the other map: it neither searches
nor forms positions.  The stored-entry route runs on a stack of one alone
(_Stack.stored).  A kernel writes its elementwise expression once and
is fed either the views of the dense pass or the gathered entries.  The CP
test then finds the coupled rows at the stored entries and takes its
coupled block (a copy of the Choi view if every row couples) and diagonal
from the matrix; the Choi Hermiticity residual is summed over the stored
entries and may differ from the dense form's in the last bits.  Any other
map has the Choi matrix and its transpose read as views of its matrix,
with one n^2 x n^2 buffer.  No function here writes into its input;
_adopt only switches off writes into the arrays a builder hands it.
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
    _handed,
    _negativity,
    _norms,
    _numeric,
    _read_only,
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
    C-ordered complex array, read-only: the one copy made of what a caller
    gives (linalg._numeric with own).  A non-integer n (a bool is none), n < 1 or another
    shape raises DimensionMismatch.  It holds n, mat, _placed (_place) and,
    once read, _at, _entries, _unital_residual and _choi_spectrum; a map
    built from another's entries (_from_entries) also holds _source."""

    n: int
    mat: np.ndarray

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer)):
            raise DimensionMismatch(f"map dimension must be an integer, got {self.n!r}")
        mat = _numeric(self.mat, own=True)
        if self.n < 1 or mat.shape != (self.n * self.n,) * 2:
            raise DimensionMismatch(f"map on M_{self.n} with a matrix of shape {mat.shape}")
        mat.flags.writeable = False  # a write would leave the kept values stale
        vars(self).update(mat=mat, _placed={})  # _placed: SuperOperator._place, by axes

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
        """||s(1) - 1|| (is_unital, _unital_residuals), formed on the first
        read, or kept from a stacked pass (_kept)."""
        return _unital_residuals(self.mat, self.n)[0]

    @cached_property
    def _choi_spectrum(self):
        """The Choi Hermiticity residual, the extreme eigenvalues of the
        Choi matrix's Hermitian part and the Choi negativity they give
        (_choi_test), solved on the first read, or kept from a stacked pass
        (_kept)."""
        return _choi_test(_stack((self,)))[0]

    def _place(self, axes):
        """Where the realignment of mat by axes (_realign) stores entries,
        for a map with positions (_at): their flat positions in its
        (n, n, n, n) layout, in _at's order, and their rows and columns in
        its n^2 x n^2 layout (flat // n^2, flat % n^2).  Formed once per
        axes from the four indices of each entry, split from the rows and
        columns of _SAME_AXES, or read from the map this one was built from
        (_from_entries).  Every kernel that reads a stored entry's position
        reads it here."""
        got = self._placed.get(axes)
        if got is None:
            source = self.__dict__.get("_source")
            n = self.n
            if source is not None:
                got = source[0]._place(_compose(source[1], axes))
            elif axes == _SAME_AXES:
                got = (self._at, *_split(self._at, n * n))
            else:
                _, rows, cols = self._place(_SAME_AXES)
                x = (*_split(rows, n), *_split(cols, n))
                rows = x[axes[0]] * n + x[axes[1]]
                cols = x[axes[2]] * n + x[axes[3]]
                got = (rows * (n * n) + cols, rows, cols)
            self._placed[axes] = got
        return got

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


def _adopt(n: int, mat: np.ndarray, **kept) -> SuperOperator:
    """The map on M_n of a C-ordered complex n^2 x n^2 matrix that a builder
    made for it and keeps no other reference to, handed over (_handed):
    mat is kept without a copy or a check, with the values kept handed over
    as its own (_from_entries).  The assertion names a builder that breaks
    that contract."""
    assert mat.dtype == np.complex128 and mat.flags.c_contiguous and mat.shape == (n * n, n * n)
    return _handed(SuperOperator, n=n, mat=mat, _placed={}, **kept)


class _Stack(tuple):
    """Maps on one M_n decided together (_stack).  The dense passes run over
    their matrices, mats: the one map's matrix itself, or those of several
    on a leading axis (one copy, or the array they are views of), so that
    a kernel reads the last two axes and a stack of one costs what a map
    alone did.  The stored-entry route runs on a stack of one alone: stored
    is its map when that map stores few entries (_at), else None."""


def _stack(maps, mats=None) -> _Stack:
    """The _Stack of maps, with mats when their matrices are views of it.  A
    function rather than a __new__: a check builds a stack of one per
    operand, and this way costs less (timed after gc.collect())."""
    ss = tuple.__new__(_Stack, maps)
    if len(ss) == 1:
        s = ss[0]
        ss.mats = s.mat if mats is None else mats
        ss.stored = s if s._at is not None else None
    else:
        ss.mats = np.array([s.mat for s in ss]) if mats is None else mats
        ss.stored = None
    return ss


def _adopted(n: int, mats: np.ndarray, **kept) -> _Stack:
    """The maps on M_n of the C-ordered complex n^2 x n^2 matrix mats, or of
    each matrix of a stack of them (leading axis), that a builder made
    (_adopt), each map's matrix a view of it, as one stack whose mats is
    that array."""
    if mats.ndim == 2:
        return _stack([_adopt(n, mats, **kept)], mats)
    return _stack([_adopt(n, m, **kept) for m in mats], mats)


def _kept(groups, cp: bool) -> None:
    """Form the unital residual and, with cp, the Choi spectrum of each map
    of the groups that lacks them (_unital_residuals, _choi_test), in one
    stacked pass per group, and keep them as the map's own.  A group with
    fewer than two such maps leaves them to their first read, as a lone map
    of the stored-entry route forms its own.  The caller sizes the groups:
    balance, which splits the time powers of a channel into stacks."""
    for group in groups:
        stack = ()
        for name in ("_choi_spectrum", "_unital_residual") if cp else ("_unital_residual",):
            todo = [s for s in group if name not in vars(s)]
            if len(todo) < 2:
                continue
            if list(stack) != todo:
                stack = _stack(todo)
            if name == "_choi_spectrum":
                values = _choi_test(stack)
            else:
                values = _unital_residuals(stack.mats, stack[0].n)
            for s, value in zip(stack, values):
                vars(s)[name] = value


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
    entry (a + n b, j + n k) of m sits at [b, a, k, j] of the reshape.  For
    a stack of matrices on one leading axis, each is realigned."""
    if m.ndim == 2:
        return m.reshape(n, n, n, n).transpose(axes)
    return m.reshape(len(m), n, n, n, n).transpose(_behind(axes))


@lru_cache(maxsize=None)
def _behind(axes):
    """axes behind a leading axis that stays in place."""
    return (0, *(a + 1 for a in axes))


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
    of m.reshape(n, n, n, n) (row = b-axis, a-axis; column = k-axis, j-axis).
    For a stack of matrices on leading axes, each is sandwiched; every
    product is one per matrix, as for a matrix alone."""
    shape = m.shape
    m = m.reshape(-1, n**3, n) @ j
    m = k.T @ m.reshape(-1, n, n)
    m = b @ m.reshape(-1, n, n**3)
    m = a @ m.reshape(-1, n, n * n)
    return m.reshape(shape)


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
    """A finite Kraus family of square operators of one shape: a tuple of
    read-only copies of the operators given, each read by as_matrix, or of
    those a builder made and hands over (linalg._handed).  An empty family
    or two shapes raise DimensionMismatch."""

    ops: tuple

    def __post_init__(self):
        ops = tuple(as_matrix(v) for v in self.ops)
        if not ops:
            raise DimensionMismatch("a Kraus channel needs at least one operator")
        if any(v.shape != ops[0].shape for v in ops):
            raise DimensionMismatch("Kraus operators must share one square shape")
        vars(self).update(vars(_handed(KrausChannel, ops=ops)))

    @property
    def n(self) -> int:
        return self.ops[0].shape[0]


def make_kraus(ops) -> KrausChannel:
    """Validate square matrices into a KrausChannel: KrausChannel(ops)."""
    return KrausChannel(ops)


def from_kraus(k) -> SuperOperator:
    """Superoperator of X -> sum_j V_j X V_j^dag.

    Accepts a KrausChannel or a plain sequence of square matrices.  Each
    term kron(conj V_j, V_j) is one broadcast product, entry (a n + b, c n + d)
    = conj(V_j)[a, c] V_j[b, d]: the same products np.kron forms, bit for bit.
    """
    if not isinstance(k, KrausChannel):
        k = KrausChannel(k)
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


def _union(ss: _Stack, a, ts: _Stack, b):
    """The positions stored by the realignment of s by a or of t by b
    (SuperOperator._place), once each and sorted, and where the entries of
    s and of t (_entries) go among them (_spread), for the one map s of the
    stack ss and t of ts; None unless both run the stored-entry route
    (_Stack.stored).  At the union's other positions a realignment holds
    zero, of either sign, which no norm tells apart."""
    s, t = ss.stored, ts.stored
    if s is None or t is None:
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
    the map s with positions (_at) by axes stores its own: one scatter into
    zeros.  The new map is handed those positions and entries (_at,
    _entries), in s's order, and takes the positions of its realignments
    from s (SuperOperator._place)."""
    n = s.n
    flat = s._place(axes)[0]
    mat = _spread(entries, flat, n**4).reshape(n * n, n * n)
    return _adopt(n, mat, _at=flat, _entries=_read_only(entries), _source=(s, axes))


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
        j, a = _split(coupled, n)
        block = m.reshape(n, n, n, n)[a, a[:, None], j, j[:, None]]
    if len(coupled):
        h = np.conjugate(block.T)
        h += block
        h *= 0.5
        lam[coupled] = np.linalg.eigvalsh(h) if math.isfinite(herm) else np.nan
    return herm, lam


def _choi_test(ss: _Stack) -> list[tuple[float, float, float, float]]:
    """The tol-independent numbers of the CP test on each map of the stack
    ss: the Choi Hermiticity residual, the smallest and largest eigenvalue
    of the Hermitian part H = (C + C^dag) / 2 (is_completely_positive) and
    the Choi negativity they give.  A map with few stored entries, alone
    (_Stack.stored), takes H's coupled block and diagonal straight from
    s.mat, and the residual and its scale from the stored entries alone
    (_gathered_choi).  Otherwise C and its transpose are read as views of
    the stacked matrices, and one buffer holds in turn C, C - C^dag and H.

    The maps whose coupled rows are the same go to eigvalsh as one stack,
    which solves each block as it would alone.  A map whose Hermiticity
    residual is not finite, as it is whenever an entry of the map is, keeps
    NaN at its coupled rows, unsolved (LAPACK may refuse such a block)."""
    s = ss.stored
    if s is not None:
        herm, lam = _gathered_choi(s)
        return [_spectrum(herm, lam)]
    n = ss[0].n
    big = n * n
    c = _realign(ss.mats, n, _CHOI_AXES)
    ct = _realign(ss.mats, n, _compose(_CHOI_AXES, _TRANSPOSE_AXES))
    h = c.copy()
    scale = _norms(h.reshape(-1, big * big))
    np.conjugate(ct, out=h)
    np.subtract(c, h, out=h)
    herm = _norms(h.reshape(-1, big * big))
    for i, x in enumerate(scale):
        herm[i] /= max(1.0, x)
    np.conjugate(ct, out=h)
    h += c
    h *= 0.5
    h = h.reshape(-1, big, big)
    # nonzero off-diagonal entries, read on the real and imaginary halves
    off = h.view(h.real.dtype).reshape(len(h), big * big, -1) != 0
    off[:, :: big + 1] = False
    coupled = off.reshape(len(h), big, -1).any(axis=2)
    if coupled.all() and all(map(math.isfinite, herm)):
        lam = np.linalg.eigvalsh(h)
    else:
        lam = h.diagonal(0, 1, 2).real.copy()
        same = {}
        for i, (x, rows) in enumerate(zip(herm, coupled)):
            if math.isfinite(x):
                same.setdefault(rows.tobytes(), []).append(i)
            else:
                lam[i, rows] = np.nan
        for group in same.values():
            rows = np.flatnonzero(coupled[group[0]])
            if len(rows):
                group = np.array(group)[:, None]
                lam[group, rows] = np.linalg.eigvalsh(h[group[:, :, None], rows[:, None], rows])
    return [_spectrum(x, row) for x, row in zip(herm, lam)]


def _spectrum(herm: float, lam: np.ndarray) -> tuple[float, float, float, float]:
    """The numbers a map keeps of its CP test (SuperOperator._choi_spectrum)
    from the Choi Hermiticity residual and eigenvalues lam."""
    lam_min, lam_max = float(lam.min()), float(lam.max())
    return herm, lam_min, lam_max, float(_negativity(lam_min, lam_max))


def _unital_residuals(mats: np.ndarray, n: int) -> list[float]:
    """||s(1) - 1|| (is_unital) for the map s on M_n of the matrix mats, or
    for each map of a stack of matrices (leading axis).

    s(1) = sum_j s(E_jj), and column j + n j of a map's matrix is
    vec(s(E_jj)), so vec(s(1)) is the sum of the n diagonal-unit columns; 1
    sits at the same positions j + n j of the result.  No product with
    vec(1) is formed."""
    defect = mats[..., :: n + 1].sum(axis=-1)
    defect[..., :: n + 1] -= 1.0
    return _norms(defect.reshape(-1, n * n))


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
    fails with residual NaN on either route, unsolved (_choi_test).
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
