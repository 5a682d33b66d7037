"""Seeded generators for states, channels and chains with known balance status.

Families (all deterministic in their integer seed):

  schur_db2_channel   entrywise multiplication A -> h o A by a PSD matrix
                      with unit diagonal: CP, unital, commutes with the
                      modular map and preserves the state, so it satisfies
                      standard detailed balance by construction.
  gad_sqdb_channel    two-operator amplitude-damping-type qubit channel
                      tuned to the state diag(p, 1-p): satisfies square-root
                      balance for the transpose reversing operation while
                      failing modular commutation for every s > 0.  The
                      positive control for "sqdb without db2".
  random_unital_channel  Kraus family normalized on the left by the inverse
                      square root of sum V V^dag: exactly unital, otherwise
                      structureless.  Negative control: balance residuals
                      are O(1) with overwhelming probability.
  degenerate_db2_channel  convex mixture of conjugations by block unitaries
                      commuting with a degenerate state: standard balance
                      with a degenerate spectrum.
  symmetrized_sqdb_channel  (beta + Theta kms_dual(beta) Theta) / 2 for a
                      state-preserving channel beta: square-root balanced by
                      symmetrization, generally without modular commutation.
  metropolis_chain    classical reversible chain (uniform proposal,
                      Metropolis acceptance); cycle_chain is the standard
                      irreversible counterexample.
"""

from __future__ import annotations

import math

import numpy as np

from .balance import ClassicalChain
from .duals import bar_map, kms_dual
from .errors import DetbalError
from .linalg import _handed, hermitian_eig, mat_power
from .states import DensityMatrix, make_density
from .superop import KrausChannel, SuperOperator, _adopt, from_kraus


def _gaussian(rng, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _unitary(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(_gaussian(rng, n))
    d = np.diag(r)
    return q * (d / np.abs(d)).conj()


def random_unitary(n: int, seed: int) -> np.ndarray:
    """Haar-ish unitary from QR of a complex Gaussian with phase fixing."""
    return _unitary(np.random.default_rng(seed), n)


def random_density(n: int, min_eig: float = 0.05, seed: int = 0) -> DensityMatrix:
    """Random invertible state: flat simplex spectrum squeezed above min_eig,
    conjugated by a random unitary before re-diagonalization."""
    if n < 1:
        raise ValueError(f"dimension n must be at least 1, got {n}")
    if not 0.0 < min_eig < 1.0 / n:
        raise ValueError(f"min_eig must lie in (0, 1/{n}), got {min_eig}")
    rng = np.random.default_rng(seed)
    lam = rng.dirichlet(np.ones(n))
    lam = min_eig + (1.0 - n * min_eig) * lam
    u = _unitary(rng, n)
    return make_density(u @ np.diag(lam) @ u.conj().T)


def schur_multiplier_matrix(n: int, seed: int) -> np.ndarray:
    """Random PSD matrix with unit diagonal (a correlation-like matrix)."""
    g = _gaussian(np.random.default_rng(seed), n)
    h = g.conj().T @ g
    d = np.sqrt(np.real(np.diag(h)))
    return h / np.outer(d, d)


def schur_kraus(h) -> KrausChannel:
    """Kraus family of the entrywise multiplier A -> h o A.

    Spectral form: h = sum_m lam_m w_m w_m^dag gives diagonal Kraus
    operators diag(sqrt(lam_m) w_m); eigenvalues at numerical zero are
    dropped.  Unital exactly when diag(h) = 1.  hermitian_eig validated h,
    so the operators are finite square arrays, handed over unchecked
    (linalg._handed).
    """
    lams, ws = hermitian_eig(h)
    ops = []
    scale = max(1.0, float(lams[0]))
    for lam, w in zip(lams, ws.T):
        if lam <= 1e-14 * scale:
            continue
        ops.append(np.diag(math.sqrt(lam) * w))
    return _handed(KrausChannel, ops=tuple(ops))


def schur_db2_channel(rho: DensityMatrix, seed: int) -> SuperOperator:
    """Entrywise multiplier channel, standard-balanced for any state rho
    diagonal in the working basis.

    Construction guarantees (each an algebraic identity, verified in tests):
    CP (the multiplier is PSD), unital (unit diagonal), modular commutation
    (both maps are diagonal in the matrix-unit basis) and state invariance
    (diagonal entries are fixed).
    """
    h = schur_multiplier_matrix(rho.n, seed)
    return from_kraus(schur_kraus(h))


def gad_kraus(p: float, s: float) -> KrausChannel:
    """Kraus pair of the square-root-balanced qubit channel at diag(p, 1-p).

    Requires 1/2 < p < 1 and 0 < s <= (1-p)/p.  The family
      V1 = diag(a, b), V2 = c E01 + d E10
    with a^2 = 1-s, c^2 = s, d^2 = ps/(1-p), b^2 = 1 - ps/(1-p) satisfies
    sum V V^dag = 1 (unital) and sum V^dag rho V = rho (state-preserving)
    identically in (p, s).  At s = (1-p)/p rounding can leave b^2 a few
    ulps below zero, so it is clamped at 0.  Both operators are finite for
    (p, s) in range, so they are handed over unchecked (linalg._handed).
    """
    if not 0.5 < p < 1.0:
        raise ValueError(f"p must lie in (1/2, 1), got {p}")
    q = 1.0 - p
    if not 0.0 < s <= q / p:
        raise ValueError(f"s must lie in (0, {q / p:.6g}], got {s}")
    a = math.sqrt(1.0 - s)
    c = math.sqrt(s)
    d = math.sqrt(p * s / q)
    b = math.sqrt(max(0.0, 1.0 - p * s / q))
    v1 = np.diag([a, b]).astype(complex)
    v2 = np.array([[0.0, c], [d, 0.0]], dtype=complex)
    return _handed(KrausChannel, ops=(v1, v2))


def gad_sqdb_channel(p: float, s: float) -> tuple[SuperOperator, DensityMatrix]:
    """Channel and state of the sqdb-without-commutation control family."""
    k = gad_kraus(p, s)
    return from_kraus(k), make_density(np.diag([p, 1.0 - p]))


def random_unital_kraus(n: int, k: int, seed: int) -> KrausChannel:
    """k Gaussian Kraus operators renormalized to an exactly unital family.

    W_j = M^(-1/2) V_j with M = sum V V^dag; k = 1 reduces to a single
    unitary.  Resamples in the measure-zero event that M is near singular.
    Every W_j is finite then, so the family is handed over unchecked
    (linalg._handed).
    """
    if k < 1:
        raise ValueError(f"need at least one Kraus operator, got {k}")
    rng = np.random.default_rng(seed)
    for _ in range(100):
        vs = [_gaussian(rng, n) for _ in range(k)]
        m = sum(v @ v.conj().T for v in vs)
        lam = np.linalg.eigvalsh(m)
        if lam[0] > 1e-8 * lam[-1]:
            root = mat_power(m, -0.5)
            return _handed(KrausChannel, ops=tuple(root @ v for v in vs))
    raise DetbalError("could not draw a nonsingular Kraus normalization")


def random_unital_channel(n: int, k: int, seed: int) -> SuperOperator:
    """Structureless unital channel; the statistical negative control."""
    return from_kraus(random_unital_kraus(n, k, seed))


def degenerate_db2_channel(
    seed: int, spectrum=(0.5, 0.25, 0.25)
) -> tuple[SuperOperator, DensityMatrix]:
    """Standard-balanced channel over a state with a repeated eigenvalue.

    Convex mixture of three conjugations by unitaries block-diagonal along
    the eigenvalue multiplicities: each commutes with the state, so the
    mixture is CP, unital, modular-commuting and state-preserving, while the
    degenerate spectrum exercises the non-canonical-basis code path.  The
    spectrum may come in any order: the blocks follow rho.diag, the
    descending eigenbasis that the channel is stated in.
    """
    spectrum = np.asarray(spectrum, dtype=float)
    rho = make_density(np.diag(spectrum))
    if not rho.degenerate:
        raise ValueError("spectrum must contain a repeated eigenvalue")
    rng = np.random.default_rng(seed)
    lam = rho.diag
    blocks = []
    start = 0
    for j in range(1, len(lam) + 1):
        if j == len(lam) or abs(lam[j] - lam[j - 1]) > 1e-12:
            blocks.append((start, j))
            start = j
    n = rho.n
    weights = rng.dirichlet(np.ones(3))
    mat = np.zeros((n * n, n * n), dtype=complex)
    for w in weights:
        u = np.zeros((n, n), dtype=complex)
        for lo, hi in blocks:
            u[lo:hi, lo:hi] = _unitary(rng, hi - lo)
        mat += w * np.kron(u.conj(), u)
    return _adopt(n, mat), rho


def symmetrized_sqdb_channel(
    p: float, s: float, phi: float = 0.9
) -> tuple[SuperOperator, DensityMatrix]:
    """Square-root-balanced qubit channel built by symmetrization.

    Start from beta = (conjugation by diag(1, e^i phi)) after the gad
    channel: CP, unital and state-preserving but generally not balanced in
    either sense.  Averaging beta with Theta kms_dual(beta) Theta (Theta
    the transpose) lands exactly on the square-root condition: kms_dual is
    an involution and commutes with the transpose conjugation at a diagonal
    state (both identities are pinned in tests).
    """
    gad, rho = gad_sqdb_channel(p, s)
    ph = np.diag([1.0, np.exp(1j * phi)])
    beta = _adopt(2, np.kron(ph.conj(), ph) @ gad.mat)
    partner = bar_map(kms_dual(beta, rho))
    return _adopt(2, 0.5 * (beta.mat + partner.mat)), rho


def metropolis_chain(n: int, seed: int) -> ClassicalChain:
    """Reversible chain: uniform proposal, Metropolis acceptance min(1, p_k/p_j).
    p is positive with unit sum up to rounding, the off-diagonal rates are
    at most 1/(n-1) and each diagonal entry completes its row of gamma, so
    the chain is handed over unchecked (linalg._handed)."""
    if n < 2:
        raise ValueError(f"need at least two states, got {n}")
    rng = np.random.default_rng(seed)
    floor = 1.0 / (20.0 * n)
    p = rng.dirichlet(np.ones(n))
    p = floor + (1.0 - n * floor) * p
    gamma = np.zeros((n, n))
    for j in range(n):
        for k in range(n):
            if j != k:
                gamma[j, k] = min(1.0, p[k] / p[j]) / (n - 1)
        gamma[j, j] = 1.0 - gamma[j].sum()
    return _handed(ClassicalChain, p=p, gamma=gamma)


def cycle_chain(n: int) -> ClassicalChain:
    """Deterministic rotation j -> j+1 over the uniform distribution.

    Stationary but maximally irreversible: every pairwise flow difference
    equals 1/n, so the balance residual is exactly 1/n.  The uniform p and
    the permutation gamma are exact, so the chain is handed over unchecked
    (linalg._handed).
    """
    if n < 3:
        raise ValueError(f"a cycle needs at least three states, got {n}")
    p = np.full(n, 1.0 / n)
    gamma = np.zeros((n, n))
    for j in range(n):
        gamma[j, (j + 1) % n] = 1.0
    return _handed(ClassicalChain, p=p, gamma=gamma)
