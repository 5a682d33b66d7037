"""Superoperators on M_n as n^2 x n^2 matrices, plus CP/unital predicates.

Convention: column-stacking vectorization.  vec(X) stacks the columns of X
below one another, so vec(A X B^T) = (B ox A) vec(X) and the map
X -> A X B^T has matrix kron(B, A).  A Kraus map X -> sum_j V_j X V_j^dag
therefore has matrix sum_j kron(conj(V_j), V_j).  Every matrix stored in a
SuperOperator uses this convention; mixing it with row-stacking data will
silently transpose factors, which is why the JSON interchange format tags
superoperator matrices with an explicit "convention" field.  The CP test
solves only the coupled rows of the Choi matrix; the rest are 1x1 blocks.
It reads the Choi matrix and its transpose as views of the map's matrix
and keeps one n^2 x n^2 buffer; no function here writes into its input.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch
from .linalg import DEFAULT_TOL, CheckResult, Tolerance, _negativity, _verdict, as_matrix


def vec(x) -> np.ndarray:
    """Column-stacking vectorization of a matrix."""
    return np.asarray(x, dtype=complex).reshape(-1, order="F")


def unvec(v, n: int | None = None) -> np.ndarray:
    """Inverse of vec; n defaults to sqrt(len(v))."""
    v = np.asarray(v, dtype=complex)
    if n is None:
        n = round(len(v) ** 0.5)
    if n * n != v.size:
        raise DimensionMismatch(f"cannot reshape length {v.size} into {n} x {n}")
    return v.reshape((n, n), order="F")


@dataclass(frozen=True, eq=False)
class SuperOperator:
    """Linear map on M_n stored as its n^2 x n^2 column-stacking matrix."""

    n: int
    mat: np.ndarray

    def apply(self, x) -> np.ndarray:
        """Evaluate the map on an n x n matrix."""
        x = np.asarray(x, dtype=complex)
        if x.shape != (self.n, self.n):
            raise DimensionMismatch(f"expected shape {(self.n, self.n)}, got {x.shape}")
        return unvec(self.mat @ vec(x), self.n)

    def compose(self, other: "SuperOperator") -> "SuperOperator":
        """self after other: (self.compose(other)).apply(x) = self(other(x))."""
        if self.n != other.n:
            raise DimensionMismatch(f"cannot compose maps on M_{self.n} and M_{other.n}")
        return SuperOperator(self.n, self.mat @ other.mat)

    def power(self, k: int) -> "SuperOperator":
        """k-fold composition with itself; k = 0 gives the identity map."""
        if k < 0 or k != int(k):
            raise ValueError(f"power wants a nonnegative integer, got {k!r}")
        return SuperOperator(self.n, np.linalg.matrix_power(self.mat, int(k)))


def identity_superop(n: int) -> SuperOperator:
    """The identity map on M_n."""
    return SuperOperator(n, np.eye(n * n, dtype=complex))


def _realign(m: np.ndarray, n: int, axes) -> np.ndarray:
    """m.reshape(n, n, n, n).transpose(axes), a view of m: entry
    (a + n b, j + n k) of m sits at [b, a, k, j] of the reshape."""
    return m.reshape(n, n, n, n).transpose(axes)


def _transpose_sides(m: np.ndarray, n: int, axes=(1, 0, 3, 2)) -> np.ndarray:
    """K m K for the commutation matrix K, vec(X^T) = K vec(X): swapping
    axes 0, 1 of the realignment transposes the output and 2, 3 the input
    (m K).  A copy; the kernels read _realign's view instead."""
    return _realign(m, n, axes).reshape(n * n, n * n)


def _kron_sandwich(m: np.ndarray, n: int, a, b, j, k) -> np.ndarray:
    """kron(b, a) m kron(k, j) in O(n^5): each n x n factor acts on its own axis
    of m.reshape(n, n, n, n) (row = b-axis, a-axis; column = k-axis, j-axis)."""
    m = m.reshape(n**3, n) @ j
    m = k.T @ m.reshape(n * n, n, n)
    m = b @ m.reshape(n, n**3)
    m = a @ m.reshape(n, n, n * n)
    return m.reshape(n * n, n * n)


def transpose_superop(n: int) -> SuperOperator:
    """The transpose map X -> X^T; its matrix is the commutation matrix."""
    return SuperOperator(n, _transpose_sides(np.eye(n * n, dtype=complex), n, (0, 1, 3, 2)))


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
    """A finite Kraus family; unital=True asserts sum_j V_j V_j^dag = 1."""

    ops: tuple
    unital: bool = False

    def __post_init__(self):
        if len(self.ops) == 0:
            raise DimensionMismatch("a Kraus channel needs at least one operator")
        shape = self.ops[0].shape
        for v in self.ops:
            if v.shape != shape or v.ndim != 2 or v.shape[0] != v.shape[1]:
                raise DimensionMismatch("Kraus operators must share one square shape")
        if self.unital:
            n = shape[0]
            acc = sum(v @ v.conj().T for v in self.ops)
            res = float(np.linalg.norm(acc - np.eye(n)))
            if not res <= DEFAULT_TOL.eq_tol:
                raise DimensionMismatch(
                    f"Kraus family flagged unital misses sum V V^dag = 1 by {res:.3e}"
                )

    @property
    def n(self) -> int:
        return self.ops[0].shape[0]


def make_kraus(ops, unital: bool = False) -> KrausChannel:
    """Validate a sequence of arrays into a KrausChannel."""
    return KrausChannel(tuple(as_matrix(v) for v in ops), unital=unital)


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


# axes of the realignment that reads s.mat as its Choi matrix (see choi)
_CHOI_AXES = (3, 1, 2, 0)


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


def _hermitian_spectrum(h: np.ndarray) -> np.ndarray:
    """Eigenvalues of the Hermitian h, unordered: a row with no nonzero
    off-diagonal entry (exact test) keeps its diagonal entry unsolved.
    With every row coupled, h itself goes to the solver; otherwise one
    copy of the coupled block does."""
    lam = h.diagonal().real.copy()
    off = h != 0
    np.fill_diagonal(off, False)
    coupled = np.flatnonzero(off.any(axis=1))
    if len(coupled) == len(h):
        return np.linalg.eigvalsh(h)
    if len(coupled):
        lam[coupled] = np.linalg.eigvalsh(h[coupled[:, None], coupled])
    return lam


def is_completely_positive(s: SuperOperator, tol: Tolerance = DEFAULT_TOL) -> CheckResult:
    """CP test: the Choi matrix must be Hermitian and PSD.

    Eigenvalue negativity is measured relative to the largest Choi
    eigenvalue with a floor of 1, so scaling a channel does not move the
    verdict.  detail reports the extreme Choi eigenvalues.

    The Choi matrix C and its transpose are read as views of s.mat, and one
    buffer holds in turn C, C - C^dag (for the Hermiticity residual) and
    the Hermitian part (C + C^dag) / 2 that the solver sees.
    """
    n = s.n
    c = _realign(s.mat, n, _CHOI_AXES)
    ct = c.transpose(2, 3, 0, 1)
    h = c.astype(np.result_type(s.mat, 0.5), order="C")
    scale = max(1.0, float(np.linalg.norm(h)))
    np.conjugate(ct, out=h)
    np.subtract(c, h, out=h)
    herm = float(np.linalg.norm(h)) / scale
    np.conjugate(ct, out=h)
    h += c
    h *= 0.5
    lam = _hermitian_spectrum(h.reshape(n * n, n * n))
    lam_max = float(lam.max())
    lam_min = float(lam.min())
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
    """
    return _verdict(tol, {"unital": float(np.linalg.norm(_unital_defect(s)))})


def _unital_defect(s: SuperOperator) -> np.ndarray:
    """vec(s(1)) - vec(1), from the diagonal-unit columns of s.mat."""
    n = s.n
    out = s.mat[:, :: n + 1].sum(axis=1, dtype=complex)
    out[:: n + 1] -= 1.0
    return out


def is_hermitian_map(s: SuperOperator, tol: Tolerance = DEFAULT_TOL) -> CheckResult:
    """Hermiticity-preservation test: s(A^dag) = s(A)^dag on matrix units.

    The map A -> s(A^dag)^dag has matrix K conj(M) K with K the commutation
    matrix.  Column j + n k of M - K conj(M) K is s(E_jk) - s(E_kj)^dag, so
    the largest column norm is the largest defect over the matrix units.
    """
    diff = s.mat - _transpose_sides(s.mat.conj(), s.n)
    return _verdict(tol, {"hermitian_map": float(np.max(np.linalg.norm(diff, axis=0)))})
