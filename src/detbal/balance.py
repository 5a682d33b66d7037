"""Detailed balance deciders for quantum channels and classical chains.

Two balance notions are decided for a channel tau (completely positive and
unital, in the eigenbasis of the invertible state rho):

Standard detailed balance ("db2"): the state dual tau' is again a channel,
i.e. completely positive and unital.  Three equivalent characterizations
are implemented and cross-checked:

  definition   tau' is CP and unital
  modular      tau commutes with Delta(A) = rho A rho^(-1), and tau
               preserves the state: <tau(A)> = <A> for all A
  entangled    omega[A ox tau_hat(B)] = omega[tau(A) ox B] over all matrix
               unit pairs, and tau_hat(1) = 1, where omega is the purified
               two-copy functional and tau_hat the transposed state dual

Square-root detailed balance ("sqdb") relative to a reversing operation
Theta: the kms dual of tau equals Theta tau Theta.  Two characterizations:

  definition   ||kms_dual(tau) - Theta tau Theta|| = 0
  entangled    omega[A ox tau^Theta(B)] = omega[tau(A) ox B] over all
               matrix unit pairs

Both notions also have a mirror (thermofield) form, stated with the mirror
correlation <A tilde(B)> = tr(rho^(1/2) A rho^(1/2) B^dag) (see duals):

  db2_tfd      <tau(A) tilde(B)> = <A tilde(tau'(B))> for all A, B, and
               tau'(1) = 1
  sqdb_tfd     <tau(A) tilde(B)> = <A tilde(Theta tau Theta(B))> for all A, B

tau_hat(1) = tau'(1)^T, so the three db2 checks that ask for unitality
report one residual, the state dual's kept _unital_residual: dual_unital
of the definition and the mirror form, hat_unital of the entangled form.

Every pair identity is decided at once: a bilinear form with Gram matrix G
on the vec basis, F(A, B) = vec(A)^T G vec(B), has F(E_i, R(E_j)) =
F(L(E_i), E_j) on all matrix-unit pairs iff G R = L^T G.  G = diag(g) with
g = kron(d^(1/2), d^(1/2)) for rho = diag(d) (entangled, mirror) or p, so
_pair_residual is max|g_i R_ij - L_ji g_j|, O(n^4), with L = tau and R a
realignment of a map; the pair loops and dense Gram products are test
oracles.  A map s in the antilinear mirror slot enters as conj(s.mat).

A map finds where it stores entries once, on the first read of its
positions (superop._stored), and every check on it reuses them.  When it
stores few, every kernel runs over those entries instead of all n^4: the
duals, the transpose conjugate and the Choi matrix are realignments of tau,
so they store tau's entries at permuted flat positions, which a map forms
once per realignment (SuperOperator._place) and a dual reads from tau.
Each operand is then the map's own stored entries (_entries) or one take
of a matrix at such positions.  A pair maximum runs over the stored
entries of R and the transposed ones of L, a norm over the sorted union of
its operands' stored positions, where each operand's own entries are
spread (superop._union).

Every kernel takes maps on one M_n as a stack (superop._Stack) and returns
one number per map: the modular commutators (_commutators), the state
invariances (_invariances), the pair maxima (_pair_residual, _pair_max) and
the two distances of the definition checks (_distances, one kernel for
both).  The dense passes run once over the stacked matrices, on a leading
batch axis; the stored-entry route runs on a stack of one.  Each
characterization is one function of stacks of the operands it reads, the
maps, their state duals or their Theta-conjugates (duals._dual,
duals._conjugates), with one CheckResult per map: _db2_definition,
_db2_modular, _db2_entangled, _sqdb_definition, _sqdb_entangled, _db2_tfd
and _sqdb_tfd.  A public check is require_dynamics, its one operand on a
stack of one and its one function.  _reports forms the operands of several
maps once, solves their Choi spectra and unital residuals in stacked
passes (superop._kept), admits the maps in order and calls all seven;
run_report is a stack of one, and _power_reports alone splits the command
line's time powers into stacks (_stack_size).  A map's numbers are the
same bits alone or stacked.

On channels commuting with the modular map the kms and state duals
coincide, so there sqdb implies db2; sqdb does not require that commutation.

Channels that are not CP+unital are rejected with InputNotDynamics before
any balance verdict; balance failures and input errors never mix.  Every
public check runs that dynamics test itself, but a map solves its Choi
spectrum and forms its unital residual once
(superop.SuperOperator._choi_spectrum, _unital_residual): a second check on
the same channel reads the kept numbers and forms its verdict under its
own tolerance.  A state dual is a new map per call that builds it, so its
spectrum and residual are formed once per such call.  What depends on the
state alone, the pair Gram g, the modular ratios, the KMS weights, the
state dual's scalings and vec(rho), the state forms when it is built
(states.DensityMatrix), and a reversing operation tests then whether it is
the plain transpose (duals.ReversingOperation): a value formed from n or
n^2 numbers is formed with its object, one that reads a map's matrix on
its first read.  No value is kept per pair of objects.  One function
checks that a map and the state share their dimension (duals._check_state).
A positivity-only mode replaces both CP tests with the weaker fixed-frame
positivity probe for callers who want plain positive dynamics; that probe
runs on every call.

A classical chain is checked once, as every value type is
(linalg._handed): a caller's data by ClassicalChain or make_chain, while
a time power (_chain_reports) or a generated chain is handed over; the
classical checks read a chain as it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .duals import (
    _check_state,
    _conjugates,
    _dual,
    _scaled,
    _scaling,
    ReversingOperation,
)
from .errors import DimensionMismatch, InputNotDynamics, NotStochastic
from .linalg import DEFAULT_TOL, CheckResult, Tolerance, _handed, _norms, _numeric, _verdict
from .states import DensityMatrix
from .superop import (
    _BAR_AXES,
    _DUAL_AXES,
    _SAME_AXES,
    _GATHER_MIN_N,
    _TRANSPOSE_AXES,
    SuperOperator,
    _Stack,
    _stack,
    _compose,
    _kept,
    _realign,
    _spread,
    _union,
    is_completely_positive,
    is_positive_map,
    is_unital,
)

MODE_CP = "cp"
MODE_POSITIVITY = "positivity"


def _cp_check(s: SuperOperator, tol: Tolerance, mode: str) -> CheckResult:
    if mode == MODE_CP:
        return is_completely_positive(s, tol)
    if mode == MODE_POSITIVITY:
        return is_positive_map(s, tol)
    raise ValueError(f"unknown mode {mode!r}")


def require_dynamics(
    tau: SuperOperator,
    rho: DensityMatrix,
    tol: Tolerance = DEFAULT_TOL,
    mode: str = MODE_CP,
) -> CheckResult:
    """Raise InputNotDynamics unless tau is a (completely) positive unital map;
    return its complete positivity (positivity in MODE_POSITIVITY) check."""
    _check_state(tau, rho)
    cp = _cp_check(tau, tol, mode)
    if not cp.passed:
        raise InputNotDynamics(
            f"channel is not {'completely positive' if mode == MODE_CP else 'positive'}"
            f" (residual {cp.residual:.3e})"
        )
    un = is_unital(tau, tol)
    if not un.passed:
        raise InputNotDynamics(f"channel is not unital (residual {un.residual:.3e})")
    return cp


def _commutators(ss: _Stack, rho: DensityMatrix) -> list[float]:
    """delta_commutator_residual of each map of the stack ss."""
    _check_state(ss[0], rho)
    r = rho._modular_ratios
    s = ss.stored
    if s is None:
        n = ss[0].n
        r = r.reshape(n, n)
        rows, cols, entries = r.reshape(n, n, 1, 1), r, _realign(ss.mats, n, _SAME_AXES)
    else:
        _, i, j = s._place(_SAME_AXES)
        rows, cols, entries = r.take(i), r.take(j), s._entries
    out = np.empty(entries.shape, dtype=complex)
    np.subtract(cols, rows, out=out, dtype=complex)
    out *= entries
    return _norms(out.reshape(len(ss), -1))


def delta_commutator_residual(tau: SuperOperator, rho: DensityMatrix) -> float:
    """Frobenius norm of tau Delta - Delta tau on the superoperator level;
    Delta = diag(r), r = kron(1/d, d) (DensityMatrix._modular_ratios), so
    entry (i, j) is tau_ij (r_j - r_i), summed over the entries tau stores
    (superop._stored) or all of them."""
    return _commutators(_stack((tau,)), rho)[0]


def _pair_residual(
    g: np.ndarray, taus: _Stack, others: _Stack, axes=_SAME_AXES, mirror=False
) -> list[float]:
    """Largest |F(e_i, R e_j) - F(tau e_i, e_j)| over basis pairs, for
    F(x, y) = x^T diag(g) y and R the realignment of other by axes:
    max|g_i R_ij - tau_ji g_j|, O(n^4), for each map tau of the stack taus
    and other of others.  With mirror R is conjugated: other in the
    antilinear mirror slot.  R is read as a view, never copied; the dense
    pass is one _pair_max over the stacks, with two complex temporaries of
    the stacks' size and the real array of their absolute difference.

    When R and tau both store few entries, alone (_Stack.stored), every
    other term is zero: the maximum runs over the stored entries of R and
    the transposed ones of tau, and each operand there is a map's own
    entries or one take at the other map's positions.  The two partial
    maxima are joined by np.maximum, which keeps a NaN."""
    n = taus[0].n
    tau, other = taus.stored, others.stored
    if tau is None or other is None:
        right = _realign(others.mats, n, axes)
        left_t = taus.mats.swapaxes(-1, -2)
        worst = _pair_max(g.reshape(n, n, 1, 1), right, left_t, g, mirror, (-2, -1))
        return worst.reshape(-1).tolist()
    worst = 0.0
    # tau^T read at R's positions, and R at those of tau^T
    _, i, j = other._place(axes)
    left_t = tau.mat.take(other._place(_compose(axes, _TRANSPOSE_AXES))[0])
    worst = np.maximum(worst, _pair_max(g.take(i), other._entries, left_t, g.take(j), mirror))
    _, i, j = tau._place(_TRANSPOSE_AXES)
    right = other.mat.take(tau._place(_compose(_TRANSPOSE_AXES, axes))[0])
    worst = np.maximum(worst, _pair_max(g.take(i), right, tau._entries, g.take(j), mirror))
    return [float(worst)]


def _pair_max(rows, right, left_t, g, conj, axis=None):
    """max|rows right - left_t g| (conj(rows right) with conj) over axis,
    over whole operands, each element of a stack, or gathered entries; a
    NaN entry makes its maximum NaN, and no entry at all gives 0."""
    blk = np.multiply(rows, right, order="C")
    if conj:
        np.conjugate(blk, out=blk)
    flat = blk.reshape(left_t.shape)
    flat -= left_t * g
    return np.abs(flat).max(axis=axis, initial=0.0)


def _invariances(ss: _Stack, rho: DensityMatrix) -> list[float]:
    """max |<tau(E_i)> - <E_i>| over the matrix units, for each map tau of
    the stack ss: vec(rho) = tau^T vec(rho), one product per map."""
    r = rho._vec
    return np.abs(r - ss.mats.swapaxes(-1, -2) @ r).max(axis=-1).reshape(-1).tolist()


def _distances(xs: _Stack, a, ys: _Stack, b, scale=None) -> list[float]:
    """||scale(x realigned by a) - y realigned by b|| for each map x of the
    stack xs and y of ys, over the stored entries of either (_union) or all
    of them, scale a dual's (duals._scaling, with a = _DUAL_AXES): the
    transposed state dual from tau, or the kms dual from Theta tau Theta."""
    both = _union(xs, a, ys, b)
    if both is None:
        n = xs[0].n
        left, right = _realign(xs.mats, n, a), _realign(ys.mats, n, b)
        if scale is not None:
            left = _scaled(scale, left)
    else:
        u, at_x, at_y = both
        x = xs[0]
        entries = x._entries if scale is None else _scaled(scale, x._entries, x)
        left = _spread(entries, at_x, len(u))
        right = _spread(ys[0]._entries, at_y, len(u))
    return _norms(np.subtract(left, right, order="C").reshape(len(xs), -1))


def _db2_definition(duals: _Stack, tol, mode) -> list[CheckResult]:
    """db2 by its definition on each state dual of the stack duals: CP
    (positive in MODE_POSITIVITY) and unital."""
    out = []
    for dual in duals:
        cp, un = _cp_check(dual, tol, mode), is_unital(dual, tol)
        detail = {f"dual_{k}": v for k, v in cp.detail.items()}
        detail["dual_unital"] = un.residual
        # Python max alone would drop a NaN that does not come first
        residual = max(cp.residual, un.residual)
        if math.isnan(cp.residual + un.residual):
            residual = math.nan
        out.append(CheckResult(bool(cp.passed and un.passed), residual, detail, tol))
    return out


def _db2_modular(taus: _Stack, rho, tol) -> list[CheckResult]:
    """db2 via modular commutation plus state invariance."""
    return [
        _verdict(tol, {"modular_commutator": c, "state_invariance": i})
        for c, i in zip(_commutators(taus, rho), _invariances(taus, rho))
    ]


def _db2_entangled(taus: _Stack, duals: _Stack, rho, tol) -> list[CheckResult]:
    """db2 via the purified two-copy functional, with tau_hat = bar_map(dual):
    tau_hat(1) = dual(1)^T, so hat_unital is the dual's unital residual.
    hat_vs_channel is diagnostic only: zero is not required for balance."""
    pairs = _pair_residual(rho._pair_gram, taus, duals, _BAR_AXES)
    hats = _distances(duals, _BAR_AXES, taus, _SAME_AXES)
    return [
        _verdict(
            tol,
            {"pair_residual": pair, "hat_unital": dual._unital_residual},
            info={"hat_vs_channel": hat},
        )
        for pair, dual, hat in zip(pairs, duals, hats)
    ]


def _sqdb_definition(taus: _Stack, conjs: _Stack, rho, tol) -> list[CheckResult]:
    """sqdb by its definition: the kms dual equals Theta tau Theta."""
    kms = _distances(taus, _DUAL_AXES, conjs, _BAR_AXES, _scaling(rho, kms=True))
    return [_verdict(tol, {"kms_vs_reversed": x}) for x in kms]


def _sqdb_entangled(taus: _Stack, conjs: _Stack, rho, tol) -> list[CheckResult]:
    """sqdb via the purified two-copy functional."""
    pairs = _pair_residual(rho._pair_gram, taus, conjs)
    return [_verdict(tol, {"pair_residual": x}) for x in pairs]


def _db2_tfd(taus: _Stack, duals: _Stack, rho, tol) -> list[CheckResult]:
    """db2 in mirror form, with the state dual's unital residual."""
    pairs = _pair_residual(rho._pair_gram, taus, duals, mirror=True)
    return [
        _verdict(tol, {"pair_residual": x, "dual_unital": dual._unital_residual})
        for x, dual in zip(pairs, duals)
    ]


def _sqdb_tfd(taus: _Stack, conjs: _Stack, rho, tol) -> list[CheckResult]:
    """sqdb in mirror form."""
    pairs = _pair_residual(rho._pair_gram, taus, conjs, _BAR_AXES, mirror=True)
    return [_verdict(tol, {"pair_residual": x}) for x in pairs]


def check_db2_definition(
    tau: SuperOperator, rho: DensityMatrix, tol: Tolerance = DEFAULT_TOL, mode: str = MODE_CP
) -> CheckResult:
    """Standard balance by its definition: the state dual is CP and unital."""
    require_dynamics(tau, rho, tol, mode)
    return _db2_definition(_dual(_stack((tau,)), rho), tol, mode)[0]


def check_db2_modular(
    tau: SuperOperator, rho: DensityMatrix, tol: Tolerance = DEFAULT_TOL, mode: str = MODE_CP
) -> CheckResult:
    """Standard balance via modular commutation plus state invariance."""
    require_dynamics(tau, rho, tol, mode)
    return _db2_modular(_stack((tau,)), rho, tol)[0]


def check_db2_entangled(
    tau: SuperOperator, rho: DensityMatrix, tol: Tolerance = DEFAULT_TOL, mode: str = MODE_CP
) -> CheckResult:
    """Standard balance via the purified two-copy functional."""
    require_dynamics(tau, rho, tol, mode)
    taus = _stack((tau,))
    return _db2_entangled(taus, _dual(taus, rho), rho, tol)[0]


def check_sqdb_definition(
    tau: SuperOperator,
    rho: DensityMatrix,
    th: ReversingOperation,
    tol: Tolerance = DEFAULT_TOL,
    mode: str = MODE_CP,
) -> CheckResult:
    """Square-root balance by its definition: kms dual equals Theta tau Theta."""
    require_dynamics(tau, rho, tol, mode)
    taus = _stack((tau,))
    return _sqdb_definition(taus, _conjugates(taus, th), rho, tol)[0]


def check_sqdb_entangled(
    tau: SuperOperator,
    rho: DensityMatrix,
    th: ReversingOperation,
    tol: Tolerance = DEFAULT_TOL,
    mode: str = MODE_CP,
) -> CheckResult:
    """Square-root balance via the purified two-copy functional."""
    require_dynamics(tau, rho, tol, mode)
    taus = _stack((tau,))
    return _sqdb_entangled(taus, _conjugates(taus, th), rho, tol)[0]


def check_db2_tfd(
    tau: SuperOperator, rho: DensityMatrix, tol: Tolerance = DEFAULT_TOL, mode: str = MODE_CP
) -> CheckResult:
    """Standard balance in mirror form: <tau(A) tilde(B)> = <A tilde(tau'(B))>
    on all matrix-unit pairs, plus unitality of the state dual."""
    require_dynamics(tau, rho, tol, mode)
    taus = _stack((tau,))
    return _db2_tfd(taus, _dual(taus, rho), rho, tol)[0]


def check_sqdb_tfd(
    tau: SuperOperator,
    rho: DensityMatrix,
    th: ReversingOperation,
    tol: Tolerance = DEFAULT_TOL,
    mode: str = MODE_CP,
) -> CheckResult:
    """Square-root balance in mirror form:
    <tau(A) tilde(B)> = <A tilde(Theta tau Theta(B))> on matrix-unit pairs."""
    require_dynamics(tau, rho, tol, mode)
    taus = _stack((tau,))
    return _sqdb_tfd(taus, _conjugates(taus, th), rho, tol)[0]


@dataclass(frozen=True, eq=False)
class ClassicalChain:
    """Finite Markov chain: strictly positive distribution p, row-stochastic
    gamma.  p and gamma are read-only copies of the real arrays given, one
    each (linalg._numeric with own), checked as make_chain checks them
    (_check_chain), with its error types and messages.  A chain that a
    builder made from checked or exact data, each time power gamma^k of the
    command line or a generator's chain, is handed over (linalg._handed)
    without a copy or a check."""

    p: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        p, gamma = (_numeric(x, float, own=True) for x in (self.p, self.gamma))
        _check_chain(p, gamma)
        vars(self).update(vars(_handed(ClassicalChain, p=p, gamma=gamma)))

    @property
    def n(self) -> int:
        return len(self.p)


def make_chain(p, gamma) -> ClassicalChain:
    """Validate chain data to 1e-12 (finiteness, positivity, normalization,
    stochasticity) into a ClassicalChain; every comparison fails closed on a
    NaN.  The same as ClassicalChain(p, gamma)."""
    return ClassicalChain(p=p, gamma=gamma)


def _check_chain(p: np.ndarray, gamma: np.ndarray) -> None:
    """Raise unless the real arrays p and gamma describe a chain
    (ClassicalChain)."""
    if p.ndim != 1 or not len(p) or gamma.shape != (len(p), len(p)):
        raise DimensionMismatch(f"chain shapes p {p.shape}, gamma {gamma.shape}")
    for name, x in (("p", p), ("gamma", gamma)):
        if not np.all(np.isfinite(x)):
            raise NotStochastic(name, "has a non-finite entry")
    if not np.min(p) > 0.0:
        raise NotStochastic("p", f"must be strictly positive (min {np.min(p):.3e})")
    if not abs(float(np.sum(p)) - 1.0) <= 1e-12:
        raise NotStochastic("p", f"must sum to 1, got {np.sum(p):.12g}")
    if not np.min(gamma) >= -1e-12:
        raise NotStochastic("gamma", f"has a negative entry ({np.min(gamma):.3e})")
    rows = np.abs(gamma.sum(axis=1) - 1.0)
    if not float(np.max(rows)) <= 1e-12:
        raise NotStochastic("gamma", f"rows must sum to 1 (worst {np.max(rows):.3e})")


def classical_detailed_balance(c: ClassicalChain, tol: Tolerance = DEFAULT_TOL) -> CheckResult:
    """Pairwise reversibility: p_j gamma_jk = p_k gamma_kj."""
    flow = c.p[:, None] * c.gamma
    return _verdict(tol, {"pairwise": float(np.max(np.abs(flow - flow.T)))})


def classical_phi_balance(c: ClassicalChain, tol: Tolerance = DEFAULT_TOL) -> CheckResult:
    """Functional form of reversibility on the product state.

    With phi(f ox g) = sum_j p_j f_j g_j and (Gamma f)_j = sum_k gamma_jk f_k,
    reversibility says phi[(Gamma f) ox g] = phi[f ox (Gamma g)] for all f, g;
    the residual runs over all coordinate basis pairs.  On a basis pair it
    reduces to p_j gamma_jk - gamma_kj p_k, the products of
    classical_detailed_balance, so the two residuals are bit-identical and
    the command line's classical consistency flag cannot fail.
    """
    functional = _pair_max(c.p[:, None], c.gamma, c.gamma.T, c.p, False)
    return _verdict(tol, {"functional": float(functional)})


@dataclass(frozen=True, eq=False)
class BalanceReport:
    """All balance verdicts for one channel-state pair.

    consistency records whether the three db2 booleans agree and the two
    sqdb booleans agree; these characterizations are provably equivalent,
    so False flags a tolerance artifact (or a bug) rather than physics.
    degenerate_rho is propagated from the state, dynamics from require_dynamics;
    the mirror fields db2_tfd, sqdb_tfd, tfd_agrees are None unless tfd=True.
    """

    db2_definition: CheckResult
    db2_modular: CheckResult
    db2_entangled: CheckResult
    sqdb_definition: CheckResult
    sqdb_entangled: CheckResult
    delta_commutes: CheckResult
    consistency: bool
    degenerate_rho: bool
    dynamics: CheckResult
    db2_tfd: CheckResult | None
    sqdb_tfd: CheckResult | None
    tfd_agrees: bool | None  # db2_tfd, sqdb_tfd agree with db2_entangled, sqdb_definition

    @property
    def db2(self) -> bool:
        return self.db2_definition.passed

    @property
    def sqdb(self) -> bool:
        return self.sqdb_definition.passed


def run_report(
    tau: SuperOperator,
    rho: DensityMatrix,
    th: ReversingOperation,
    tol: Tolerance = DEFAULT_TOL,
    mode: str = MODE_CP,
    tfd: bool = False,
) -> BalanceReport:
    """Run every checker on one (channel, state, reversing operation) triple,
    with the mirror checks if tfd; all share one dynamics check, state dual
    (and its unital residual) and Theta-conjugate, tau's stored entries and
    the values rho keeps, the pair Gram among them."""
    return _reports((tau,), rho, th, tol, mode, tfd)[0]


def _stack_size(n: int) -> int:
    """How many maps on M_n one stack holds: at most _GATHER_MIN_N**4 entries."""
    return max(1, _GATHER_MIN_N**4 // n**4)


def _power_reports(tau, rho, th, powers, tol=DEFAULT_TOL, mode=MODE_CP, tfd=False):
    """run_report on tau^k for each k of the command line's powers, in order,
    in stacks of _stack_size(n), one power at a time from the stored-entry
    route's size on.  Without power 1, tau is admitted first: a power of a
    map that is no channel can be one (the transpose squares to the identity)."""
    if 1 not in powers:
        require_dynamics(tau, rho, tol, mode)
    size = _stack_size(tau.n)
    reports = []
    for at in range(0, len(powers), size):
        maps = [tau if k == 1 else tau.power(k) for k in powers[at : at + size]]
        reports += _reports(maps, rho, th, tol, mode, tfd)
    return reports


def _chain_reports(chain, powers, tol):
    """(pairwise, functional, balanced, consistency) of gamma^k for each k of
    powers, in order: both classical checks, the pairwise verdict and its
    agreement with the functional one.  Each power is handed over
    (linalg._handed): its row sums drift from 1 by rounding alone."""
    out = []
    for k in powers:
        chain_k = _handed(ClassicalChain, p=chain.p, gamma=np.linalg.matrix_power(chain.gamma, k))
        pairwise = classical_detailed_balance(chain_k, tol)
        functional = classical_phi_balance(chain_k, tol)
        out.append((pairwise, functional, pairwise.passed, pairwise.passed == functional.passed))
    return out


def _reports(maps, rho, th, tol=DEFAULT_TOL, mode=MODE_CP, tfd=False) -> list[BalanceReport]:
    """run_report on each of the maps, all on one M_n, as one stack, with
    the bits run_report gives each alone.  The Choi spectra and unital
    residuals of the maps and their duals are solved in one pass if all fit
    one stack (_stack_size), else in one per stack (superop._kept).  The
    first map in order that is no channel raises InputNotDynamics."""
    taus = _stack(maps)
    duals = _dual(taus, rho)
    together = 2 * len(taus) <= _stack_size(taus[0].n)
    _kept([(*taus, *duals)] if together else [taus, duals], mode == MODE_CP)
    dynamics = [require_dynamics(s, rho, tol, mode) for s in taus]
    conjs = _conjugates(taus, th)
    db2 = zip(
        _db2_definition(duals, tol, mode),
        _db2_modular(taus, rho, tol),
        _db2_entangled(taus, duals, rho, tol),
    )
    sqdb = zip(_sqdb_definition(taus, conjs, rho, tol), _sqdb_entangled(taus, conjs, rho, tol))
    mirror = [(None, None)] * len(taus)
    if tfd:
        mirror = zip(_db2_tfd(taus, duals, rho, tol), _sqdb_tfd(taus, conjs, rho, tol))
    return [_report(rho, tol, *row) for row in zip(dynamics, db2, sqdb, mirror)]


def _report(rho, tol, dynamics, db2, sqdb, mirror) -> BalanceReport:
    """One report from its map's checks (_reports), in BalanceReport's field
    order; delta_commutes reads the modular check's commutator."""
    (definition, modular, entangled), (sq_definition, sq_entangled), (db2_tfd, sq_tfd) = (
        db2, sqdb, mirror
    )
    consistency = (
        definition.passed == modular.passed == entangled.passed
        and sq_definition.passed == sq_entangled.passed
    )
    delta = _verdict(tol, {"modular_commutator": modular.detail["modular_commutator"]})
    agrees = None
    if db2_tfd is not None:
        agrees = db2_tfd.passed == entangled.passed and sq_tfd.passed == sq_definition.passed
    return BalanceReport(*db2, *sqdb, delta, consistency, rho.degenerate, dynamics, *mirror, agrees)


def in_deadband(residual: float, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether a residual sits in the ambiguous band [eq_tol/10, 10*eq_tol].

    Boolean-agreement comparisons between characterizations skip instances
    whose residuals land here: both verdicts are then tolerance artifacts.
    """
    return bool(tol.eq_tol / 10.0 <= residual <= 10.0 * tol.eq_tol)
