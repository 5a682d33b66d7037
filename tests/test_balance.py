"""Balance checkers: positive/negative controls and cross-characterization
agreement on the constructive families."""

import math

import numpy as np
import pytest

from detbal.balance import (
    check_db2_definition,
    check_db2_entangled,
    check_db2_modular,
    check_db2_tfd,
    check_sqdb_definition,
    check_sqdb_entangled,
    classical_detailed_balance,
    classical_phi_balance,
    delta_commutator_residual,
    in_deadband,
    make_chain,
    run_report,
)
from detbal.duals import make_reversing, rho_dual, transpose_reversing
from detbal.errors import (
    DimensionMismatch,
    InputNotDynamics,
    NotStochastic,
)
from detbal.generators import (
    cycle_chain,
    degenerate_db2_channel,
    gad_sqdb_channel,
    metropolis_chain,
    random_density,
    random_unital_channel,
    schur_db2_channel,
)
from detbal.states import make_density
from detbal.superop import SuperOperator, from_kraus, is_unital, vec
from test_pair_kernel import matrix_unit

COMMUTATOR_E01 = 0.9237604307034012  # sqrt(0.12) * (3 - 1/3) for p=3/4, s=1/5


def rho_34():
    return make_density(np.diag([0.75, 0.25]))


def haar_unitary(n, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r))).conj()


def pinch_channel(rho):
    """A -> tr(rho A) 1, a balanced channel for every rho."""
    n = rho.n
    return SuperOperator(n, np.outer(vec(np.eye(n)), vec(rho.matrix()).conj()))


def test_identity_channel_passes_everything():
    rho = rho_34()
    th = transpose_reversing(2)
    rep = run_report(from_kraus([np.eye(2)]), rho, th)
    for res in (
        rep.db2_definition,
        rep.db2_modular,
        rep.db2_entangled,
        rep.sqdb_definition,
        rep.sqdb_entangled,
        rep.delta_commutes,
    ):
        assert res.passed
        assert res.residual <= 1e-12
    assert rep.consistency
    assert not rep.degenerate_rho


def test_schur_channel_is_db2_and_sqdb():
    rho = rho_34()
    tau = schur_db2_channel(rho, seed=5)
    rep = run_report(tau, rho, transpose_reversing(2))
    assert rep.db2 and rep.sqdb and rep.consistency
    assert rep.db2_definition.residual <= 1e-9
    assert rep.db2_modular.residual <= 1e-9
    assert rep.db2_entangled.residual <= 1e-9


def test_pinch_channel_passes():
    rho = rho_34()
    tau = pinch_channel(rho)
    assert check_db2_modular(tau, rho).passed
    assert check_db2_definition(tau, rho).passed
    assert check_db2_entangled(tau, rho).passed
    assert check_sqdb_definition(tau, rho, transpose_reversing(2)).passed


def test_rotating_unitary_conjugation_fails_db2():
    # conjugation by a unitary that moves rho: CP and unital, not balanced
    rho = rho_34()
    u = haar_unitary(2, 3)
    tau = from_kraus([u])
    d = check_db2_definition(tau, rho)
    m = check_db2_modular(tau, rho)
    e = check_db2_entangled(tau, rho)
    assert not (d.passed or m.passed or e.passed)
    assert d.detail["dual_unital"] > 1e-3


@pytest.mark.parametrize("n", [2, 3, 5])
def test_report_unitality_residuals_match_the_single_checks(n):
    """run_report reads the state dual's unitality once; both residuals
    read from it are the bits that is_unital and check_db2_entangled give."""
    rho = make_density(np.diag(np.arange(1.0, n + 1) / (n * (n + 1) / 2)))
    tau = from_kraus([haar_unitary(n, 20 + n)])  # moves rho: nonzero defects
    rep = run_report(tau, rho, transpose_reversing(n))
    dual = rho_dual(tau, rho)
    assert rep.db2_definition.detail["dual_unital"] == is_unital(dual).residual > 1e-3
    alone = check_db2_entangled(tau, rho).detail["hat_unital"]
    assert rep.db2_entangled.detail["hat_unital"] == alone > 1e-3
    assert check_db2_definition(tau, rho).detail == rep.db2_definition.detail


@pytest.mark.parametrize("family", ["random-unital", "schur-db2"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_db2_checks_read_one_dual_unitality_residual(n, family):
    """hat_unital and the dual_unital of db2_definition and db2_tfd are one
    residual: the same bits in run_report and in the standalone checks."""
    th = transpose_reversing(n)
    for seed in range(30):
        rho = random_density(n, seed=seed)
        if family == "random-unital":
            tau = random_unital_channel(n, 3, seed)
        else:
            tau = schur_db2_channel(rho, seed)
        rep = run_report(tau, rho, th, tfd=True)
        residuals = [
            rep.db2_definition.detail["dual_unital"],
            rep.db2_entangled.detail["hat_unital"],
            rep.db2_tfd.detail["dual_unital"],
            check_db2_definition(tau, rho).detail["dual_unital"],
            check_db2_entangled(tau, rho).detail["hat_unital"],
            check_db2_tfd(tau, rho).detail["dual_unital"],
        ]
        assert len({np.float64(r).tobytes() for r in residuals}) == 1, (seed, residuals)


def test_gad_channel_sqdb_but_not_db2():
    tau, rho = gad_sqdb_channel(0.75, 0.2)
    th = transpose_reversing(2)
    rep = run_report(tau, rho, th)
    assert not rep.db2
    assert rep.sqdb
    assert rep.consistency
    assert rep.sqdb_definition.residual <= 1e-10
    assert rep.sqdb_entangled.residual <= 1e-10
    assert not rep.delta_commutes.passed


def test_gad_commutator_frozen_value():
    tau, rho = gad_sqdb_channel(0.75, 0.2)
    from detbal.duals import modular_power

    delta = modular_power(rho, 1j)
    e01 = matrix_unit(2, 0, 1)
    gap = tau.apply(delta.apply(e01)) - delta.apply(tau.apply(e01))
    assert np.linalg.norm(gap) == pytest.approx(COMMUTATOR_E01, abs=1e-12)
    assert delta_commutator_residual(tau, rho) > 0.9


def test_gad_entangled_identities_on_unit_pairs():
    from detbal.states import omega_eval, purify

    tau, rho = gad_sqdb_channel(0.75, 0.2)
    p = purify(rho)
    pairs = [((0, 1), (0, 1)), ((0, 1), (1, 0)), ((0, 0), (0, 0)), ((0, 0), (1, 1))]
    for (j1, k1), (j2, k2) in pairs:
        a = matrix_unit(2, j1, k1)
        b = matrix_unit(2, j2, k2)
        lhs = omega_eval(p, a, tau.apply(b))
        rhs = omega_eval(p, tau.apply(a), b)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_random_unital_channel_fails_all():
    rng_seeds = [11, 12, 13]
    rho = rho_34()
    th = transpose_reversing(2)
    for seed in rng_seeds:
        tau = random_unital_channel(2, 3, seed)
        rep = run_report(tau, rho, th)
        assert rep.consistency
        assert not rep.db2
        # residuals are far outside the deadband
        assert rep.db2_modular.residual > 1e-3
        assert rep.sqdb_definition.residual > 1e-3


def test_degenerate_family_passes_db2():
    tau, rho = degenerate_db2_channel(seed=21)
    rep = run_report(tau, rho, transpose_reversing(3))
    assert rep.degenerate_rho
    assert rep.db2
    assert rep.consistency
    assert rep.db2_definition.residual <= 1e-9
    assert rep.db2_entangled.residual <= 1e-9


def test_non_dynamics_rejected_not_failed():
    rho = rho_34()
    # sub-unital map
    tau = from_kraus([0.9 * np.eye(2)])
    with pytest.raises(InputNotDynamics):
        check_db2_definition(tau, rho)
    with pytest.raises(InputNotDynamics):
        run_report(tau, rho, transpose_reversing(2))
    # non-CP map (transpose) is rejected as input, not reported as imbalance
    with pytest.raises(InputNotDynamics):
        check_db2_modular(transpose_reversing(2).superop(), rho)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        check_db2_definition(from_kraus([np.eye(3)]), rho_34())


@pytest.mark.parametrize("n,m", [(3, 2), (2, 1)])
def test_delta_commutator_rejects_a_state_of_another_dimension(n, m):
    # numpy would report a broadcast error (n = 3) or a non-broadcastable
    # output operand (n = 2) instead
    rho = make_density(np.diag(np.arange(m, 0, -1.0) / (m * (m + 1) / 2)))
    with pytest.raises(DimensionMismatch, match=f"map on M_{n} vs state on dimension {m}"):
        delta_commutator_residual(from_kraus([np.eye(n)]), rho)


def test_positivity_only_mode():
    rho = rho_34()
    tau = schur_db2_channel(rho, seed=6)
    res = check_db2_definition(tau, rho, mode="positivity")
    assert res.passed
    rep = run_report(tau, rho, transpose_reversing(2), mode="positivity")
    assert rep.db2 and rep.consistency


def test_powers_preserve_balance():
    rho = rho_34()
    th = transpose_reversing(2)
    tau = schur_db2_channel(rho, seed=7)
    for k in (2, 3):
        rep = run_report(tau.power(k), rho, th)
        assert rep.db2 and rep.consistency
    gad, grho = gad_sqdb_channel(0.8, 0.1)
    for k in (2, 3):
        rep = run_report(gad.power(k), grho, th)
        assert rep.sqdb and not rep.db2 and rep.consistency


def test_sqdb_with_nontrivial_reversing_unitary():
    # theta built from a diagonal-phase unitary is a valid reversing
    # operation; diagonal-basis multipliers remain sqdb because the phases
    # cancel entrywise
    rho = rho_34()
    th = make_reversing(np.diag([1.0, 1j]))
    assert check_sqdb_definition(from_kraus([np.eye(2)]), rho, th).passed
    assert check_sqdb_entangled(from_kraus([np.eye(2)]), rho, th).passed
    tau = schur_db2_channel(rho, seed=30)
    assert check_sqdb_definition(tau, rho, th).passed
    assert check_sqdb_entangled(tau, rho, th).passed


def _embedded_chain(c, order):
    """The chain c as a channel with Kraus operators sqrt(gamma_jk) E_jk at
    rho = diag(p), its states taken in the given order."""
    p, gamma = c.p[order], c.gamma[np.ix_(order, order)]
    n = len(p)
    ops = [
        math.sqrt(gamma[j, k]) * matrix_unit(n, j, k)
        for j in range(n)
        for k in range(n)
        if gamma[j, k] > 0.0
    ]
    return from_kraus(ops), make_density(np.diag(p)), make_chain(p, gamma)


def _classical_limit_chains():
    cycle = cycle_chain(4)
    yield "cycle", cycle, (False, True, False)
    yield "lazy-cycle", make_chain(cycle.p, 0.5 * (np.eye(4) + cycle.gamma)), (False, True, False)
    for seed in (1, 2, 3):
        yield f"metropolis-{seed}", metropolis_chain(4, seed), (True, True, True)


@pytest.mark.parametrize(
    "chain,expected", [pytest.param(c, e, id=name) for name, c, e in _classical_limit_chains()]
)
def test_classical_limit_of_the_quantum_verdicts(chain, expected):
    # with p descending, sqdb (Theta the transpose) tracks pairwise
    # reversibility, while db2 only asks the state dual to be a channel: the
    # doubly stochastic cycle at uniform p passes it
    tau, rho, ordered = _embedded_chain(chain, np.argsort(-chain.p, kind="stable"))
    rep = run_report(tau, rho, transpose_reversing(4), tfd=True)
    assert (classical_detailed_balance(ordered).passed, rep.db2, rep.sqdb) == expected
    assert rep.consistency and rep.tfd_agrees


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_chain_in_ascending_order_is_read_in_the_wrong_basis(seed):
    # make_density sorts p descending, so a channel built in ascending
    # order is not given in rho's eigenbasis
    chain = metropolis_chain(4, seed)
    tau, rho, _ = _embedded_chain(chain, np.argsort(chain.p, kind="stable"))
    rep = run_report(tau, rho, transpose_reversing(4))
    assert (rep.db2, rep.sqdb) == (False, False)


def test_entangled_checks_match_definition_booleans():
    th = transpose_reversing(2)
    rho = rho_34()
    pool = [
        (from_kraus([np.eye(2)]), rho),
        (schur_db2_channel(rho, 10), rho),
        (pinch_channel(rho), rho),
        gad_sqdb_channel(0.75, 0.2),
        gad_sqdb_channel(0.9, 0.05),
        (random_unital_channel(2, 2, 14), rho),
        (random_unital_channel(2, 4, 15), rho),
        (from_kraus([haar_unitary(2, 16)]), rho),
    ]
    for tau, r in pool:
        rep = run_report(tau, r, th)
        assert rep.consistency, (rep.db2_definition, rep.db2_modular, rep.db2_entangled)


def test_deadband_predicate():
    assert in_deadband(1e-9)
    assert in_deadband(1e-10)
    assert in_deadband(1e-8)
    assert not in_deadband(9e-11)
    assert not in_deadband(1.1e-8)
    assert not in_deadband(0.0)


def test_make_chain_validation():
    with pytest.raises(NotStochastic):
        make_chain([0.5, 0.5], [[1.0, 0.1], [0.0, 1.0]])
    with pytest.raises(NotStochastic):
        make_chain([0.7, 0.2], [[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(NotStochastic):
        make_chain([1.5, -0.5], [[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(DimensionMismatch):
        make_chain([0.5, 0.5], [[1.0]])
    with pytest.raises(DimensionMismatch):  # ragged rows, which numpy cannot shape
        make_chain([0.5, 0.5], [[1, 0], [0]])
    with pytest.raises(DimensionMismatch):  # no state at all
        make_chain([], np.zeros((0, 0)))
    with pytest.raises(NotStochastic, match="p has a non-finite entry"):
        make_chain([np.nan, 0.5], [[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(NotStochastic, match="gamma has a non-finite entry"):
        make_chain([0.5, 0.5], [[1.0, 0.0], [np.nan, 1.0]])


def test_classical_metropolis_reversible():
    for n, seed in [(2, 0), (3, 1), (5, 2)]:
        chain = metropolis_chain(n, seed)
        a = classical_detailed_balance(chain)
        b = classical_phi_balance(chain)
        assert a.passed and b.passed
        assert a.residual <= 1e-15
        assert b.residual <= 1e-15


def test_classical_cycle_residual_is_one_third():
    chain = cycle_chain(3)
    res = classical_detailed_balance(chain)
    assert not res.passed
    assert res.residual == pytest.approx(1.0 / 3.0, abs=1e-15)
    phi = classical_phi_balance(chain)
    assert not phi.passed
    assert phi.residual == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_classical_identity_chain_passes():
    chain = make_chain([0.3, 0.7], np.eye(2))
    assert classical_detailed_balance(chain).passed
    assert classical_phi_balance(chain).passed


def test_classical_two_forms_agree_in_boolean():
    chains = [
        metropolis_chain(3, 5),
        metropolis_chain(4, 6),
        cycle_chain(3),
        cycle_chain(4),
        make_chain([0.25, 0.75], [[0.9, 0.1], [0.2, 0.8]]),
    ]
    for chain in chains:
        assert (
            classical_detailed_balance(chain).passed
            == classical_phi_balance(chain).passed
        )


def test_report_is_deterministic():
    rho = rho_34()
    th = transpose_reversing(2)
    tau = random_unital_channel(2, 3, 77)
    rep1 = run_report(tau, rho, th)
    tau2 = random_unital_channel(2, 3, 77)
    rep2 = run_report(tau2, rho, th)
    for name in (
        "db2_definition",
        "db2_modular",
        "db2_entangled",
        "sqdb_definition",
        "sqdb_entangled",
        "delta_commutes",
    ):
        a = getattr(rep1, name)
        b = getattr(rep2, name)
        assert a.passed == b.passed
        assert a.residual == b.residual
        assert a.detail == b.detail
