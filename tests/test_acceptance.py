"""Acceptance gate: the ten primary criteria, one test and one verdict line each.

Every test prints "ACCEPTANCE <k> <name>: PASS/FAIL (counts)" (visible with
pytest -s, or in the captured output on failure) and asserts the criterion
at its stated tolerance.  The instance pool is deterministic, so a verdict
obtained once holds for every rerun on the same build.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from detbal import (
    BalanceReport,
    DensityMatrix,
    ReversingOperation,
    SuperOperator,
    check_db2_tfd,
    check_sqdb_tfd,
    classical_detailed_balance,
    classical_phi_balance,
    cycle_chain,
    degenerate_db2_channel,
    gad_sqdb_channel,
    hs_adjoint,
    in_deadband,
    is_completely_positive,
    is_hermitian_map,
    kms_dual,
    make_density,
    marginals_check,
    matrix_units,
    metropolis_chain,
    modular,
    modular_power,
    omega_eval,
    purify,
    random_density,
    random_unital_channel,
    rho_dual,
    run_report,
    schur_db2_channel,
    symmetrized_sqdb_channel,
    theta_eval,
    transpose_reversing,
    unvec,
    vec,
)
from detbal.cli import main, parse_problem, run_checks
from test_pair_kernel import kms_oracle, tilde_substitution_oracle


@dataclass(frozen=True, eq=False)
class Instance:
    family: str
    base: bool
    tau: SuperOperator
    rho: DensityMatrix
    theta: ReversingOperation
    report: BalanceReport


def _verdict(tag: str, ok: bool, note: str) -> None:
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} ({note})")
    assert ok, f"{tag} failed: {note}"


def _build_pool() -> list:
    instances = []

    def add(family, base, tau, rho):
        th = transpose_reversing(rho.n)
        instances.append(
            Instance(family, base, tau, rho, th, run_report(tau, rho, th))
        )

    for i in range(70):
        rho = random_density(2 + i % 3, seed=1000 + i)
        add("schur", True, schur_db2_channel(rho, seed=2000 + i), rho)
    for i in range(30):
        p = 0.55 + 0.40 * i / 29.0
        s = (0.15 + 0.80 * (i % 5) / 4.0) * (1.0 - p) / p
        tau, rho = gad_sqdb_channel(p, s)
        add("gad", True, tau, rho)
    for i in range(60):
        rho = random_density(2 + i % 3, seed=3000 + i)
        add("unital", True, random_unital_channel(2 + i % 3, 1 + i % 4, seed=4000 + i), rho)
    for i in range(10):
        rho = random_density(2 + i % 3, seed=5000 + i)
        tau = schur_db2_channel(rho, seed=5100 + i)
        add("schur-power", False, tau.power(2 + i % 2), rho)
    for i in range(5):
        p = 0.60 + 0.06 * i
        tau, rho = gad_sqdb_channel(p, (0.2 + 0.15 * i) * (1.0 - p) / p)
        add("gad-power", False, tau.power(2 + i % 2), rho)
    for i in range(5):
        rho = random_density(2 + i % 3, seed=5200 + i)
        tau = random_unital_channel(2 + i % 3, 2 + i % 3, seed=5300 + i)
        add("unital-power", False, tau.power(2 + i % 2), rho)
    for i in range(15):
        tau, rho = degenerate_db2_channel(seed=5400 + i)
        add("degenerate", False, tau, rho)
    for i in range(5):
        p = 0.62 + 0.05 * i
        s = (0.3 + 0.15 * i) * (1.0 - p) / p
        tau, rho = symmetrized_sqdb_channel(p, s, 0.3 + 0.4 * i)
        add("symmetrized", False, tau, rho)
    return instances


@pytest.fixture(scope="module")
def pool():
    return _build_pool()


def _balance_residuals(report: BalanceReport):
    return (
        report.db2_definition.residual,
        report.db2_modular.residual,
        report.db2_entangled.residual,
        report.sqdb_definition.residual,
        report.sqdb_entangled.residual,
    )


def test_criterion_01_equivalence_suite(pool):
    counts = {}
    for inst in pool:
        counts[inst.family] = counts.get(inst.family, 0) + 1
    base = {
        "schur": counts.get("schur", 0),
        "gad": counts.get("gad", 0),
        "unital": counts.get("unital", 0),
    }
    mixed = len(pool) - sum(base.values())
    sized = (
        len(pool) >= 200
        and base["schur"] >= 70
        and base["gad"] >= 30
        and base["unital"] >= 60
        and mixed >= 40
    )
    excluded = 0
    disagreements = 0
    for inst in pool:
        if any(in_deadband(r) for r in _balance_residuals(inst.report)):
            excluded += 1
            continue
        rep = inst.report
        db2_bools = {
            rep.db2_definition.passed,
            rep.db2_modular.passed,
            rep.db2_entangled.passed,
        }
        sqdb_bools = {rep.sqdb_definition.passed, rep.sqdb_entangled.passed}
        if len(db2_bools) > 1 or len(sqdb_bools) > 1:
            disagreements += 1
    _verdict(
        "1 equivalence-suite",
        sized and disagreements == 0,
        f"{len(pool)} instances, {excluded} deadband-excluded, "
        f"{disagreements} disagreements",
    )


def test_criterion_02_positive_controls(pool):
    worst_db2 = 0.0
    worst_sqdb = 0.0
    n_schur = n_gad = 0
    ok = True
    for inst in pool:
        if inst.family == "schur" and inst.base:
            n_schur += 1
            rep = inst.report
            r = max(
                rep.db2_definition.residual,
                rep.db2_modular.residual,
                rep.db2_entangled.residual,
            )
            worst_db2 = max(worst_db2, r)
            ok = ok and rep.db2 and r <= 1e-9
        if inst.family == "gad" and inst.base:
            n_gad += 1
            rep = inst.report
            r = max(rep.sqdb_definition.residual, rep.sqdb_entangled.residual)
            worst_sqdb = max(worst_sqdb, r)
            ok = ok and rep.sqdb and r <= 1e-9
    _verdict(
        "2 positive-controls",
        ok and n_schur == 70 and n_gad == 30,
        f"{n_schur} schur worst db2 residual {worst_db2:.2e}, "
        f"{n_gad} gad worst sqdb residual {worst_sqdb:.2e}",
    )


def test_criterion_03_sqdb_without_commutation():
    tau, rho = gad_sqdb_channel(0.75, 0.2)
    delta = modular(rho)
    comm = tau.mat @ delta.mat - delta.mat @ tau.mat
    e01 = np.array([[0, 1], [0, 0]], dtype=complex)
    norm_on_e01 = float(np.linalg.norm(unvec(comm @ vec(e01), 2)))
    report = run_report(tau, rho, transpose_reversing(2))
    sq = max(report.sqdb_definition.residual, report.sqdb_entangled.residual)
    ok = abs(norm_on_e01 - 0.92376) <= 1e-4 and sq <= 1e-10 and report.sqdb
    _verdict(
        "3 sqdb-without-commutation",
        ok,
        f"commutator on E01 {norm_on_e01:.6f}, sqdb residual {sq:.2e}",
    )


def test_criterion_04_kms_dual_algebra():
    worst_inv = 0.0
    worst_eig = 0.0
    for i in range(100):
        n = 2 + i % 3
        rho = random_density(n, seed=7000 + i)
        tau = random_unital_channel(n, 1 + i % 4, seed=7100 + i)
        twice = kms_dual(kms_dual(tau, rho), rho)
        worst_inv = max(worst_inv, float(np.linalg.norm(twice.mat - tau.mat)))
        cp = is_completely_positive(kms_dual(tau, rho))
        worst_eig = min(worst_eig, cp.detail["choi_min_eigenvalue"])
    ok = worst_inv <= 1e-10 and worst_eig >= -1e-9
    _verdict(
        "4 kms-dual-algebra",
        ok,
        f"100 channels, worst involution {worst_inv:.2e}, "
        f"worst Choi eigenvalue {worst_eig:.2e}",
    )


def test_criterion_05_omega_state():
    rng = np.random.default_rng(71)
    states = [make_density(np.diag([0.75, 0.25]))] + [
        random_density(2 + i % 3, seed=7200 + i) for i in range(6)
    ]
    worst_norm = 0.0
    worst_marginal = 0.0
    positive = True
    for rho in states:
        pur = purify(rho)
        eye = np.eye(rho.n)
        worst_norm = max(worst_norm, abs(omega_eval(pur, eye, eye) - 1.0))
        worst_marginal = max(worst_marginal, marginals_check(pur).residual)
        for _ in range(100):
            g = rng.standard_normal((rho.n, rho.n)) + 1j * rng.standard_normal(
                (rho.n, rho.n)
            )
            a = g + g.conj().T
            positive = positive and omega_eval(pur, a, a.T).real > 0.0
    rho34 = states[0]
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    contrast = omega_eval(purify(rho34), sx, sx.T)
    uncorrelated = theta_eval(rho34, sx, sx)
    ok = (
        worst_norm <= 1e-12
        and worst_marginal <= 1e-12
        and positive
        and abs(contrast - np.sqrt(3) / 2) <= 1e-10
        and abs(uncorrelated) == 0.0
    )
    _verdict(
        "5 omega-state",
        ok,
        f"norm {worst_norm:.2e}, marginals {worst_marginal:.2e}, "
        f"contrast {contrast.real:.12f} vs sqrt(3)/2, theta {abs(uncorrelated):.1e}",
    )


def test_criterion_06_modular_machinery(pool):
    rho34 = make_density(np.diag([0.75, 0.25]))
    delta_err = float(
        np.linalg.norm(
            modular(rho34).mat - np.diag([1.0, 1.0 / 3.0, 3.0, 1.0])
        )
    )
    hermitian_pairs = 0
    worst_form = 0.0
    worst_group = 0.0
    commuting = 0
    for inst in pool:
        dual = rho_dual(inst.tau, inst.rho)
        if is_hermitian_map(inst.tau).passed and is_hermitian_map(dual).passed:
            hermitian_pairs += 1
            half = inst.rho.power(0.5)
            halfinv = inst.rho.power(-0.5)
            adj = hs_adjoint(inst.tau)
            for _, _, e in matrix_units(inst.rho.n):
                direct = halfinv @ adj.apply(half @ e @ half) @ halfinv
                worst_form = max(
                    worst_form, float(np.linalg.norm(dual.apply(e) - direct))
                )
        if inst.report.delta_commutes.passed:
            commuting += 1
            for z in (-1.0, -0.5, 0.5, 1.0):
                mz = modular_power(inst.rho, z)
                worst_group = max(
                    worst_group,
                    float(
                        np.linalg.norm(
                            inst.tau.compose(mz).mat - mz.compose(inst.tau).mat
                        )
                    ),
                )
    ok = (
        delta_err <= 1e-12
        and hermitian_pairs > 0
        and worst_form <= 1e-10
        and commuting > 0
        and worst_group <= 1e-10
    )
    _verdict(
        "6 modular-machinery",
        ok,
        f"delta {delta_err:.2e}, {hermitian_pairs} Hermitian pairs worst "
        f"{worst_form:.2e}, {commuting} commuting worst group {worst_group:.2e}",
    )


def test_criterion_07_thermofield_layer(pool):
    worst_sub = 0.0
    worst_kms = 0.0
    mismatches = 0
    seen = set()
    for inst in pool:
        if id(inst.rho) not in seen:
            seen.add(id(inst.rho))
            worst_sub = max(worst_sub, tilde_substitution_oracle(inst.rho))
            worst_kms = max(worst_kms, kms_oracle(inst.rho))
        db2_mirror = check_db2_tfd(inst.tau, inst.rho)
        sqdb_mirror = check_sqdb_tfd(inst.tau, inst.rho, inst.theta)
        if (
            db2_mirror.passed != inst.report.db2_entangled.passed
            or sqdb_mirror.passed != inst.report.sqdb_definition.passed
        ):
            mismatches += 1
    ok = worst_sub <= 1e-11 and worst_kms <= 1e-11 and mismatches == 0
    _verdict(
        "7 thermofield-layer",
        ok,
        f"{len(seen)} states sub {worst_sub:.2e} kms {worst_kms:.2e}, "
        f"{mismatches} boolean mismatches on {len(pool)} instances",
    )


def test_criterion_08_classical_baseline():
    chains = [metropolis_chain(2 + i % 5, seed=7300 + i) for i in range(10)]
    metropolis_ok = all(classical_detailed_balance(c).passed for c in chains)
    cyc = cycle_chain(3)
    cyc_res = classical_detailed_balance(cyc).residual
    cycle_ok = (
        abs(cyc_res - 1.0 / 3.0) <= 1e-12 and not classical_detailed_balance(cyc).passed
    )
    chains += [cycle_chain(n) for n in (3, 4, 5)]
    agree = all(
        classical_detailed_balance(c).passed == classical_phi_balance(c).passed
        for c in chains
    )
    ok = metropolis_ok and cycle_ok and agree
    _verdict(
        "8 classical-baseline",
        ok,
        f"10 metropolis pass, 3-cycle residual {cyc_res:.12f}, "
        f"{len(chains)} chains boolean-agree={agree}",
    )


def test_criterion_09_choi_discrimination(pool):
    cp = is_completely_positive(transpose_reversing(2).superop())
    eig = cp.detail["choi_min_eigenvalue"]
    transpose_ok = not cp.passed and abs(eig + 1.0) <= 1e-10
    kraus_cp = all(
        is_completely_positive(inst.tau).passed for inst in pool
    )
    ok = transpose_ok and kraus_cp
    _verdict(
        "9 choi-discrimination",
        ok,
        f"transpose min eigenvalue {eig:.12f}, {len(pool)} pool channels CP",
    )


def test_criterion_10_cli_round_trip(tmp_path, capsys):
    names = (
        "db2_definition",
        "db2_modular",
        "db2_entangled",
        "sqdb_definition",
        "sqdb_entangled",
        "delta_commutes",
    )
    bit_exact = True
    # at n = 8 the complete-positivity tests gather the Choi block from the
    # stored entries; file and memory must take the same route
    for n in (2, 6, 8):
        rho = random_density(n, seed=9)
        tau = schur_db2_channel(rho, seed=9)
        expected = run_report(tau, rho, transpose_reversing(n))
        path = tmp_path / f"schur{n}.json"
        assert main(["generate", "schur-db2", "--n", str(n), "--seed", "9", "--out", str(path)]) == 0
        checks = run_checks(parse_problem(str(path)))["reports"][0]["checks"]
        bit_exact = bit_exact and all(
            checks[name]["residual"] == getattr(expected, name).residual
            and checks[name]["detail"] == getattr(expected, name).detail
            for name in names
        )

    gad = tmp_path / "gad.json"
    assert main(["generate", "gad-sqdb", "--p", "0.75", "--s", "0.2", "--out", str(gad)]) == 0
    exit_sqdb = main(["check", str(gad), "--assert", "sqdb"])
    exit_db2 = main(["check", str(gad), "--assert", "db2"])
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    exit_bad = main(["check", str(bad)])

    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    main(["generate", "schur-db2", "--n", "3", "--seed", "7", "--out", str(a)])
    main(["generate", "schur-db2", "--n", "3", "--seed", "7", "--out", str(b)])
    byte_exact = a.read_bytes() == b.read_bytes()
    capsys.readouterr()

    ok = (
        bit_exact
        and exit_sqdb == 0
        and exit_db2 == 1
        and exit_bad == 2
        and byte_exact
    )
    _verdict(
        "10 cli-round-trip",
        ok,
        f"bit-exact={bit_exact}, exits {exit_sqdb}/{exit_db2}/{exit_bad}, "
        f"regenerate byte-exact={byte_exact}",
    )
