"""Tests for the JSON problem-file front end."""

import json
import subprocess
import sys

import numpy as np
import pytest

from detbal import (
    InputNotDynamics,
    NotInvolutive,
    SchemaError,
    gad_sqdb_channel,
    random_density,
    random_unitary,
    run_report,
    schur_db2_channel,
    transpose_reversing,
)
from detbal.cli import generate_payload, main, parse_problem, run_checks

QUANTUM_CHECKS = (
    "db2_definition",
    "db2_modular",
    "db2_entangled",
    "sqdb_definition",
    "sqdb_entangled",
    "delta_commutes",
)


def _enc(m):
    m = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def _write(tmp_path, payload, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _gad_file(tmp_path):
    return _write(tmp_path, generate_payload("gad-sqdb", None, 3, 0.75, 0.2, 0))


def test_generate_gad_parses_back(tmp_path):
    parsed = parse_problem(_gad_file(tmp_path))
    assert parsed.kind == "quantum"
    assert parsed.rho.n == 2
    assert np.allclose(parsed.rho.diag, [0.75, 0.25], atol=0)
    assert parsed.powers == (1,)
    assert parsed.theta.n == 2


def test_generate_deterministic_bytes(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["generate", "schur-db2", "--n", "3", "--seed", "7", "--out", str(a)]) == 0
    assert main(["generate", "schur-db2", "--n", "3", "--seed", "7", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().endswith(b"\n")


def test_roundtrip_schur_residuals_bit_exact(tmp_path):
    rho = random_density(2, seed=9)
    tau = schur_db2_channel(rho, seed=9)
    expected = run_report(tau, rho, transpose_reversing(2))
    path = _write(tmp_path, generate_payload("schur-db2", 2, 3, 0.75, 0.2, 9))
    payload = run_checks(parse_problem(path))
    checks = payload["reports"][0]["checks"]
    for name in QUANTUM_CHECKS:
        assert checks[name]["residual"] == getattr(expected, name).residual


def test_roundtrip_gad_residuals_bit_exact(tmp_path):
    tau, rho = gad_sqdb_channel(0.75, 0.2)
    expected = run_report(tau, rho, transpose_reversing(2))
    payload = run_checks(parse_problem(_gad_file(tmp_path)))
    checks = payload["reports"][0]["checks"]
    for name in QUANTUM_CHECKS:
        assert checks[name]["residual"] == getattr(expected, name).residual
    assert payload["reports"][0]["sqdb"] is True
    assert payload["reports"][0]["db2"] is False


def test_exit_codes_for_assertions(tmp_path, capsys):
    path = _gad_file(tmp_path)
    assert main(["check", path, "--assert", "sqdb"]) == 0
    assert main(["check", path, "--assert", "db2"]) == 1
    assert main(["check", path]) == 0
    capsys.readouterr()


def test_exit_code_2_on_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["check", str(bad)]) == 2
    assert main(["check", str(tmp_path / "missing.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_trace_error_names_rho_field(tmp_path):
    payload = generate_payload("gad-sqdb", None, 3, 0.75, 0.2, 0)
    payload["rho"] = [0.45, 0.45]
    with pytest.raises(SchemaError) as err:
        parse_problem(_write(tmp_path, payload))
    assert err.value.field == "rho"


def test_matrix_channel_requires_convention_tag(tmp_path):
    base = {
        "kind": "quantum",
        "rho": [0.75, 0.25],
        "channel": {"kind": "matrix", "data": _enc(np.eye(4))},
    }
    with pytest.raises(SchemaError) as err:
        parse_problem(_write(tmp_path, base))
    assert err.value.field == "channel.convention"
    base["channel"]["convention"] = "column-stacking"
    parsed = parse_problem(_write(tmp_path, base, "ok.json"))
    assert np.allclose(parsed.tau.mat, np.eye(4), atol=0)


def test_matrix_channel_must_be_unital_and_hermitian_preserving(tmp_path):
    payload = {
        "kind": "quantum",
        "rho": [0.75, 0.25],
        "channel": {
            "kind": "matrix",
            "convention": "column-stacking",
            "data": _enc(0.9 * np.eye(4)),
        },
    }
    with pytest.raises(InputNotDynamics):
        parse_problem(_write(tmp_path, payload))


def test_positive_only_matrix_channel_needs_flag(tmp_path, capsys):
    # The transpose map is Hermiticity-preserving and unital, so it parses,
    # but it is not completely positive: plain check exits 2, the
    # positivity-only mode accepts it.
    k = np.zeros((4, 4))
    for r in range(2):
        for c in range(2):
            k[r + 2 * c, c + 2 * r] = 1.0
    payload = {
        "kind": "quantum",
        "rho": [0.75, 0.25],
        "channel": {"kind": "matrix", "convention": "column-stacking", "data": _enc(k)},
    }
    path = _write(tmp_path, payload)
    assert main(["check", path]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["check", path, "--positivity-only"]) == 0
    capsys.readouterr()


def test_unitary_theta_diag_1_i_is_involutive(tmp_path):
    payload = {
        "kind": "quantum",
        "rho": [0.75, 0.25],
        "channel": {"kind": "kraus", "data": [_enc(np.eye(2))]},
        "theta": {"kind": "unitary", "u": _enc(np.diag([1.0, 1.0j]))},
    }
    parsed = parse_problem(_write(tmp_path, payload))
    report = run_checks(parsed)
    assert report["reports"][0]["sqdb"] is True


def test_unitary_theta_rejects_non_involutive(tmp_path, capsys):
    c = np.cos(np.pi / 4)
    rot = np.array([[c, -c], [c, c]])
    payload = {
        "kind": "quantum",
        "rho": [0.75, 0.25],
        "channel": {"kind": "kraus", "data": [_enc(np.eye(2))]},
        "theta": {"kind": "unitary", "u": _enc(rot)},
    }
    with pytest.raises(NotInvolutive):
        parse_problem(_write(tmp_path, payload))
    assert main(["check", _write(tmp_path, payload, "again.json")]) == 2
    capsys.readouterr()


def test_nondiagonal_rho_rotates_channel_along(tmp_path):
    # Express a known balanced pair in a scrambled basis; parsing must undo
    # the scrambling well enough that the verdicts survive.
    rho = random_density(2, seed=14)
    tau_ops = []
    from detbal.generators import schur_kraus, schur_multiplier_matrix

    ops = schur_kraus(schur_multiplier_matrix(2, 14)).ops
    v = random_unitary(2, seed=15)
    rho_user = v @ rho.matrix() @ v.conj().T
    tau_ops = [v @ op @ v.conj().T for op in ops]
    payload = {
        "kind": "quantum",
        "rho": _enc(rho_user),
        "channel": {"kind": "kraus", "data": [_enc(op) for op in tau_ops]},
    }
    parsed = parse_problem(_write(tmp_path, payload))
    assert np.allclose(parsed.rho.diag, rho.diag, atol=1e-12)
    report = run_checks(parsed)
    rep = report["reports"][0]
    assert rep["db2"] is True
    assert rep["consistency"] is True
    assert rep["checks"]["db2_definition"]["residual"] <= 1e-9


def test_classical_cycle_residual_and_exit(tmp_path, capsys):
    path = _write(tmp_path, generate_payload("cycle", 3, 3, 0.75, 0.2, 0))
    payload = run_checks(parse_problem(path), assertion="db2")
    rep = payload["reports"][0]
    assert abs(rep["checks"]["pairwise"]["residual"] - 1.0 / 3.0) <= 1e-15
    assert rep["balanced"] is False
    assert rep["consistency"] is True
    assert payload["ok"] is False
    assert main(["check", path, "--assert", "db2"]) == 1
    capsys.readouterr()


def test_classical_metropolis_passes(tmp_path, capsys):
    path = _write(tmp_path, generate_payload("metropolis", 4, 3, 0.75, 0.2, 5))
    assert main(["check", path, "--assert", "db2", "--powers", "1,2"]) == 0
    out = capsys.readouterr().out
    assert "power 2" in out


def test_file_time_powers_and_flag_override(tmp_path):
    payload = generate_payload("schur-db2", 2, 3, 0.75, 0.2, 3)
    payload["time_powers"] = [1, 2]
    path = _write(tmp_path, payload)
    two = run_checks(parse_problem(path))
    assert [r["power"] for r in two["reports"]] == [1, 2]
    assert all(r["db2"] for r in two["reports"])


def test_powers_flag_validation(tmp_path, capsys):
    path = _gad_file(tmp_path)
    assert main(["check", path, "--powers", "0"]) == 2
    assert main(["check", path, "--powers", "x"]) == 2
    capsys.readouterr()


def test_json_format_is_deterministic(tmp_path, capsys):
    path = _gad_file(tmp_path)
    assert main(["check", path, "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["check", path, "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["kind"] == "quantum"
    assert doc["reports"][0]["sqdb"] is True
    assert set(doc["reports"][0]["checks"]) == set(QUANTUM_CHECKS)


def test_text_output_has_no_escape_codes_when_piped(tmp_path, capsys):
    # Captured stdout is not a tty, so color must be off even without NO_COLOR.
    assert main(["check", _gad_file(tmp_path)]) == 0
    assert "\x1b[" not in capsys.readouterr().out


def test_tfd_flag_rejected_for_classical(tmp_path, capsys):
    path = _write(tmp_path, generate_payload("cycle", 3, 3, 0.75, 0.2, 0))
    assert main(["check", path, "--tfd"]) == 2
    capsys.readouterr()


def test_tfd_flag_adds_mirror_checks(tmp_path):
    payload = run_checks(parse_problem(_gad_file(tmp_path)), tfd=True)
    rep = payload["reports"][0]
    assert rep["tfd_agrees"] is True
    assert rep["checks"]["sqdb_tfd"]["passed"] is True
    assert rep["checks"]["db2_tfd"]["passed"] is False


def test_tol_flag_reaches_the_checkers(tmp_path, capsys):
    # --tol overrides eq_tol: loosening it flips the equality-based
    # modular check on the gad instance, while the definition check keeps
    # failing because its defect is a Choi negativity governed by psd_tol.
    path = _gad_file(tmp_path)
    assert main(["check", path, "--format", "json"]) == 0
    strict = json.loads(capsys.readouterr().out)["reports"][0]["checks"]
    assert main(["check", path, "--format", "json", "--tol", "10"]) == 0
    loose = json.loads(capsys.readouterr().out)["reports"][0]["checks"]
    assert strict["db2_modular"]["passed"] is False
    assert loose["db2_modular"]["passed"] is True
    assert loose["delta_commutes"]["passed"] is True
    assert loose["db2_definition"]["passed"] is False
    assert main(["check", path, "--tol", "-1"]) == 2
    assert main(["check", path, "--tol", "nan"]) == 2
    assert "--tol: must be a finite positive number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "tol",
    [{"eq_tol": float("inf"), "psd_tol": float("inf")}, {"eq_tol": float("nan")}],
)
def test_non_finite_tolerances_are_schema_errors(tmp_path, capsys, tol):
    # json.dumps writes Infinity / NaN, which json.load accepts
    payload = dict(generate_payload("random-unital", 3, 3, 0.75, 0.2, 5), tol=tol)
    path = _write(tmp_path, payload)
    assert main(["check", path, "--assert", "db2"]) == 2
    assert "error: tol.eq_tol: must be a finite positive number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "p,gamma,name",
    [
        ([float("nan"), 0.5], [[1.0, 0.0], [0.0, 1.0]], "p"),
        ([0.5, 0.5], [[1.0, 0.0], [float("nan"), 1.0]], "gamma"),
    ],
    ids=["p", "gamma"],
)
def test_non_finite_chain_entries_are_rejected(tmp_path, capsys, p, gamma, name):
    path = _write(tmp_path, {"kind": "classical", "p": p, "gamma": gamma})
    assert main(["check", path, "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert f"{name} has a non-finite entry" in captured.err


HUGE = 10**400  # a JSON integer literal no float can hold


def _overflow_payload(field):
    if field in ("p", "gamma[0]"):
        payload = generate_payload("metropolis", 2, 3, 0.75, 0.2, 0)
        if field == "p":
            payload["p"][0] = HUGE
        else:
            payload["gamma"][0][0] = HUGE
        return payload
    payload = generate_payload("gad-sqdb", None, 3, 0.75, 0.2, 0)
    if field == "tol.eq_tol":
        payload["tol"] = {"eq_tol": HUGE}
    elif field == "rho":
        payload["rho"][0] = HUGE
    elif field == "channel.data[0][0][0]":
        payload["channel"]["data"][0][0][0] = [HUGE, 0.0]
    else:
        payload["theta"] = {"kind": "unitary", "u": _enc(np.eye(2))}
        payload["theta"]["u"][0][0] = [1.0, HUGE]
    return payload


@pytest.mark.parametrize(
    "field", ["tol.eq_tol", "rho", "channel.data[0][0][0]", "theta.u[0][0]", "p", "gamma[0]"]
)
def test_integers_too_large_for_a_float_are_schema_errors(tmp_path, capsys, field):
    path = _write(tmp_path, _overflow_payload(field))
    assert main(["check", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ")


def test_generate_stdout_and_param_error(capsys):
    assert main(["generate", "cycle"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "classical"
    assert main(["generate", "gad-sqdb", "--p", "0.4"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("family", ["schur-db2", "random-unital"])
@pytest.mark.parametrize("n", [0, -2])
def test_generate_rejects_nonpositive_dimension(family, n, capsys):
    assert main(["generate", family, "--n", str(n)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"dimension n must be at least 1, got {n}" in err


@pytest.mark.parametrize("family", ["schur-db2", "random-unital"])
def test_generate_accepts_dimension_one(family, capsys):
    assert main(["generate", family, "--n", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["rho"] == [pytest.approx(1.0, abs=1e-15)]


def test_unknown_and_missing_fields(tmp_path):
    good = generate_payload("gad-sqdb", None, 3, 0.75, 0.2, 0)
    junk = dict(good)
    junk["junk"] = 1
    with pytest.raises(SchemaError) as err:
        parse_problem(_write(tmp_path, junk))
    assert err.value.field == "junk"
    nochannel = {k: v for k, v in good.items() if k != "channel"}
    with pytest.raises(SchemaError) as err:
        parse_problem(_write(tmp_path, nochannel, "n.json"))
    assert err.value.field == "channel"


def test_matrix_entries_must_be_pairs(tmp_path):
    payload = {
        "kind": "quantum",
        "rho": [[0.75, 0.0], [0.0, 0.25]],
        "channel": {"kind": "kraus", "data": [_enc(np.eye(2))]},
    }
    with pytest.raises(SchemaError):
        parse_problem(_write(tmp_path, payload))


def test_module_runs_as_script(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "detbal.cli", "generate", "metropolis", "--n", "3"],
        capture_output=True,
        text=True,
        check=True,
    )
    doc = json.loads(out.stdout)
    assert doc["kind"] == "classical"
    path = tmp_path / "chain.json"
    path.write_text(out.stdout, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "detbal.cli", "check", str(path), "--assert", "db2"],
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0
