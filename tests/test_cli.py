"""Tests for the JSON problem-file front end."""

import collections
import json
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import detbal.balance
import detbal.duals
import detbal.states
import detbal.superop
from detbal import (
    MODE_CP,
    MODE_POSITIVITY,
    NotInvolutive,
    SchemaError,
    Tolerance,
    cycle_chain,
    degenerate_db2_channel,
    gad_sqdb_channel,
    metropolis_chain,
    random_density,
    random_unital_channel,
    random_unitary,
    run_report,
    schur_db2_channel,
    symmetrized_sqdb_channel,
    transpose_reversing,
)
import detbal.cli
from detbal.cli import (
    ParsedProblem,
    _build_parser,
    _finite,
    _is_number,
    _parse_matrix,
    _render_json,
    _verdict,
    generate_payload,
    main,
    parse_problem,
    run_checks,
)
from detbal.balance import ClassicalChain
from detbal.duals import ReversingOperation
from detbal.generators import gad_kraus
from detbal.linalg import DEFAULT_TOL
from detbal.states import DensityMatrix
from detbal.superop import KrausChannel

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


NOT_HERMITIAN_PRESERVING = np.eye(4, dtype=complex)
NOT_HERMITIAN_PRESERVING[1, 2] = 0.5j


@pytest.mark.parametrize("powers", ["1", "2"])
@pytest.mark.parametrize(
    "mat, cp_line, positive_line",
    [
        (
            0.9 * np.eye(4),
            "channel is not unital (residual 1.414e-01)",
            "channel is not unital (residual 1.414e-01)",
        ),
        # the relative Choi Hermiticity residual ||C - C^dag|| / ||C|| fails
        # the CP test, and the output Hermiticity the positivity probe
        (
            NOT_HERMITIAN_PRESERVING,
            "channel is not completely positive (residual 3.430e-01)",
            "channel is not positive (residual 3.430e-01)",
        ),
        # the transpose map is unital and positive but not CP
        (np.eye(4)[[0, 2, 1, 3]], "channel is not completely positive (residual 1.000e+00)", None),
    ],
    ids=["not-unital", "not-hermitian-preserving", "transpose"],
)
@pytest.mark.parametrize("positivity_only", [False, True], ids=["cp", "positivity"])
def test_matrix_channel_must_be_unital_and_hermitian_preserving(
    tmp_path, capsys, mat, cp_line, positive_line, positivity_only, powers
):
    # a matrix channel is read as given and admitted by require_dynamics,
    # as a Kraus channel is, before any verdict and whichever powers are asked
    payload = {
        "kind": "quantum",
        "rho": [0.75, 0.25],
        "channel": {"kind": "matrix", "convention": "column-stacking", "data": _enc(mat)},
    }
    path = _write(tmp_path, payload)
    flags = ["--positivity-only"] if positivity_only else []
    line = positive_line if positivity_only else cp_line
    code = main(["check", path, "--powers", powers, *flags])
    captured = capsys.readouterr()
    if line is None:
        assert (code, captured.err) == (0, "")
        assert "mode=positivity" in captured.out
    else:
        assert (code, captured.out, captured.err) == (2, "", f"error: {line}\n")


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
    with pytest.raises(SchemaError) as err:
        parse_problem(_write(tmp_path, payload))
    assert err.value.field == "theta.u"
    assert isinstance(err.value.__cause__, NotInvolutive)
    assert main(["check", _write(tmp_path, payload, "again.json")]) == 2
    capsys.readouterr()


def test_nondiagonal_rho_rotates_channel_along(tmp_path, monkeypatch):
    # Express a known balanced pair in a scrambled basis; parsing must undo
    # the scrambling well enough that the verdicts survive, and builds the
    # superoperator once, from the rotated Kraus operators.
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
    built = []
    real = detbal.cli.from_kraus
    monkeypatch.setattr(detbal.cli, "from_kraus", lambda k: built.append(k) or real(k))
    parsed = parse_problem(_write(tmp_path, payload))
    assert len(built) == 1
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


def test_huge_power_prints_one_error_line(tmp_path, capsys):
    # tau^k overflows to inf and nan on the way to the eigensolver
    path = tmp_path / "p.json"
    assert main(["generate", "schur-db2", "--n", "3", "--seed", "0", "--out", str(path)]) == 0
    assert main(["check", str(path), "--powers", "99999999999999999999999"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: channel is not completely positive (residual nan)\n"
    # the positivity probe leaves the non-finite outputs unsolved too
    assert main(["check", str(path), "--powers", "99999999999999999999999", "--positivity-only"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: channel is not positive (residual nan)\n"


@pytest.mark.parametrize(
    "argv, extra", [(["--powers", "2"], {}), ([], {"time_powers": [2]})], ids=["flag", "file"]
)
def test_powers_without_one_still_admit_the_files_map(tmp_path, capsys, argv, extra):
    # the transpose map on M_2 is Hermiticity-preserving and unital but not
    # CP, and its square is the identity channel
    payload = {
        "rho": [0.6, 0.4],
        "channel": {
            "kind": "matrix",
            "convention": "column-stacking",
            "data": _enc(np.eye(4)[[0, 2, 1, 3]]),
        },
        **extra,
    }
    path = _write(tmp_path, payload)
    assert main(["check", path, *argv, "--assert", "db2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: channel is not completely positive (residual 1.000e+00)\n"


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


def test_tfd_run_shares_the_reports_work(tmp_path, monkeypatch):
    """The powers of a small file are decided as one stack
    (balance._reports), with the mirror checks included: one stacked state
    dual and one stacked Theta-conjugate, and one stacked solve of the Choi
    spectra and one of the unital residuals for the powers and their state
    duals together.  Each map's CP and unitality verdict is then read from
    its kept numbers, and no map searches for stored entries below the
    stored-entry route's size."""
    parsed = parse_problem(_write(tmp_path, generate_payload("schur-db2", 3, 3, 0.75, 0.2, 4)))
    calls = collections.Counter()

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in ("is_completely_positive", "is_unital", "_dual", "_conjugates"):
        monkeypatch.setattr(detbal.balance, name, counted(name, getattr(detbal.balance, name)))
    for name in ("_stored", "_choi_test", "_unital_residuals"):
        monkeypatch.setattr(detbal.superop, name, counted(name, getattr(detbal.superop, name)))
    payload = run_checks(replace(parsed, powers=(1, 2)), tfd=True)
    assert all(r["tfd_agrees"] for r in payload["reports"])
    assert calls == {
        "_choi_test": 1,
        "_unital_residuals": 1,
        "is_completely_positive": 4,
        "is_unital": 4,
        "_dual": 1,
        "_conjugates": 1,
    }


def test_reused_parser_keeps_no_state_between_calls(tmp_path, capsys):
    """main builds its parser once per process; each call must print what it
    prints as the first call of a fresh process."""
    assert _build_parser() is _build_parser()
    path = _gad_file(tmp_path)
    runs = [
        ["check", path, "--tfd", "--powers", "1,2", "--format", "json"],
        ["check", path],
        ["check", path, "--format", "text", "--tol", "1e-6"],
    ]
    outputs = []
    for argv in runs:
        code = main(argv)
        outputs.append((code, capsys.readouterr().out))
    assert "tfd_agrees" in outputs[0][1] and "tfd_agrees" not in outputs[1][1]
    for argv, (code, out) in zip(runs, outputs):
        fresh = subprocess.run(
            [sys.executable, "-m", "detbal.cli", *argv], capture_output=True, text=True
        )
        assert (code, out) == (fresh.returncode, fresh.stdout)


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


POSITIVE = "must be a finite positive number"
POWERS = "expected a non-empty array of integers >= 1"


@pytest.mark.parametrize(
    "changes,flags,line",
    [
        ({"tol": {"eq_tol": 0}}, [], f"tol.eq_tol: {POSITIVE}"),
        ({}, ["--tol", "0"], f"--tol: {POSITIVE}"),
        ({"time_powers": [0]}, [], f"time_powers: {POWERS}"),
        ({}, ["--powers", "0"], f"--powers: {POWERS}"),
        ({}, ["--powers", "x"], "--powers: expected comma-separated integers"),
    ],
    ids=["tol-file", "tol-flag", "powers-file", "powers-flag", "powers-flag-token"],
)
def test_a_flag_and_its_file_field_give_one_message(tmp_path, capsys, changes, flags, line):
    # each flag is read by the reader of its file field, under its own name
    payload = dict(generate_payload("gad-sqdb", None, 3, 0.75, 0.2, 0), **changes)
    assert main(["check", _write(tmp_path, payload), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {line}\n"


@pytest.mark.parametrize("family", ["schur-db2", "gad-sqdb", "random-unital", "metropolis", "cycle"])
def test_generate_rejects_a_negative_seed(family, capsys):
    assert main(["generate", family, "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --seed: must be a non-negative integer, got -1\n"


@pytest.mark.parametrize(
    "p,gamma,name",
    [
        ([float("nan"), 0.5], [[1.0, 0.0], [0.0, 1.0]], "p[0]"),
        ([0.5, 0.5], [[1.0, 0.0], [float("nan"), 1.0]], "gamma[1][0]"),
    ],
    ids=["p", "gamma"],
)
def test_non_finite_chain_entries_are_rejected(tmp_path, capsys, p, gamma, name):
    # the real-vector reader names the entry at fault, as a flat rho's
    path = _write(tmp_path, {"kind": "classical", "p": p, "gamma": gamma})
    assert main(["check", path, "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {name}: must be a finite number, got nan\n"


@pytest.mark.parametrize(
    "p,message",
    [([0.3, 0.3], "p must sum to 1, got 0.6"), ([1.5, -0.5], "p must be strictly positive")],
    ids=["sum", "negative"],
)
def test_chain_errors_in_p_are_reported_under_p(tmp_path, capsys, p, message):
    path = _write(tmp_path, {"kind": "classical", "p": p, "gamma": [[1.0, 0.0], [0.0, 1.0]]})
    assert main(["check", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: p: ")
    assert message in err


def test_chain_errors_in_gamma_are_reported_under_gamma(tmp_path, capsys):
    path = _write(tmp_path, {"kind": "classical", "p": [0.5, 0.5], "gamma": [[1.5, -0.5], [0.0, 1.0]]})
    assert main(["check", path]) == 2
    assert capsys.readouterr().err.startswith("error: gamma: gamma has a negative entry")


NON_FINITE_FIELDS = ["rho[1]", "rho[1][1]", "channel.data[0][0][0]", "channel.data[1][2]", "theta.u[1][0]"]


def _non_finite_text(field, token):
    """A gad-sqdb problem file with the JSON number token at field; rho[1]
    uses the flat form of rho, rho[1][1] its matrix form and
    channel.data[1][2] a matrix channel."""
    payload = generate_payload("gad-sqdb", None, 3, 0.75, 0.2, 0)
    mark = "NON_FINITE"
    if field == "rho[1]":
        payload["rho"][1] = mark
    elif field == "rho[1][1]":
        payload["rho"] = _enc(np.diag(payload["rho"]))
        payload["rho"][1][1] = [mark, 0.0]
    elif field == "channel.data[0][0][0]":
        payload["channel"]["data"][0][0][0] = [mark, 0.0]
    elif field == "channel.data[1][2]":
        ops = [np.asarray(m)[..., 0] + 1j * np.asarray(m)[..., 1] for m in payload["channel"]["data"]]
        data = _enc(sum(np.kron(v.conj(), v) for v in ops))
        data[1][2] = [0.0, mark]
        payload["channel"] = {"kind": "matrix", "convention": "column-stacking", "data": data}
    else:
        payload["theta"] = {"kind": "unitary", "u": _enc(np.eye(2))}
        payload["theta"]["u"][1][0] = [mark, 0.0]
    return json.dumps(payload).replace(f'"{mark}"', token)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
@pytest.mark.parametrize("field", NON_FINITE_FIELDS)
def test_non_finite_numbers_are_schema_errors(tmp_path, capsys, field, token):
    # json.load reads NaN and Infinity, and 1e400 as inf
    path = tmp_path / "problem.json"
    path.write_text(_non_finite_text(field, token), encoding="utf-8")
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field}: must be a finite number, got ")


HUGE = 10**400  # a JSON integer literal no float can hold


def _overflow_payload(field):
    if field in ("p[0]", "gamma[0][0]"):
        payload = generate_payload("metropolis", 2, 3, 0.75, 0.2, 0)
        if field == "p[0]":
            payload["p"][0] = HUGE
        else:
            payload["gamma"][0][0] = HUGE
        return payload
    payload = generate_payload("gad-sqdb", None, 3, 0.75, 0.2, 0)
    if field == "tol.eq_tol":
        payload["tol"] = {"eq_tol": HUGE}
    elif field == "rho[0]":
        payload["rho"][0] = HUGE
    elif field == "channel.data[0][0][0]":
        payload["channel"]["data"][0][0][0] = [HUGE, 0.0]
    else:
        payload["theta"] = {"kind": "unitary", "u": _enc(np.eye(2))}
        payload["theta"]["u"][0][0] = [1.0, HUGE]
    return payload


@pytest.mark.parametrize(
    "field",
    ["tol.eq_tol", "rho[0]", "channel.data[0][0][0]", "theta.u[0][0]", "p[0]", "gamma[0][0]"],
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


@pytest.mark.parametrize(
    "argv, line",
    [
        (["metropolis", "--n", "1"], "--n: need at least two states, got 1"),
        (["cycle", "--n", "2"], "--n: a cycle needs at least three states, got 2"),
        (["schur-db2", "--n", "0"], "--n: dimension n must be at least 1, got 0"),
        (["random-unital", "--n", "0"], "--n: dimension n must be at least 1, got 0"),
        (["random-unital", "--k", "0"], "--k: need at least one Kraus operator, got 0"),
        (["gad-sqdb", "--p", "2"], "--p: p must lie in (1/2, 1), got 2.0"),
        (["gad-sqdb", "--s", "2"], "--s: s must lie in (0, 0.333333], got 2.0"),
    ],
    ids=["metropolis-n", "cycle-n", "schur-n", "unital-n", "unital-k", "gad-p", "gad-s"],
)
def test_generate_names_the_flag_of_a_bad_family_parameter(argv, line, capsys):
    assert main(["generate", *argv]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {line}\n")


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


EYE2 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
EYE4 = [[[1.0 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
EYE3 = [[[float(i == j), 0.0] for j in range(3)] for i in range(3)]
# diag(1e308, 1, 1): u^dag u overflows, so the unitarity residual is nan
HUGE_U3 = [[[1e308 if i == j == 0 else float(i == j), 0.0] for j in range(3)] for i in range(3)]

# (id, changes to a qubit problem file, or to a two-state chain when "p" is
# among them, with None dropping a key; and the one error line the file must
# produce).  A list is the whole file, a string the file's text.
MALFORMED_FILES = [
    ("top-level-list", [1, 2], "file: expected an object"),
    # json.load raises RecursionError on it
    (
        "nested-too-deeply",
        '{"rho": ' + "[" * 100000 + "]" * 100000 + "}",
        "file: invalid JSON: nested too deeply",
    ),
    ("kind", {"kind": "other"}, 'kind: expected "quantum" or "classical"'),
    ("unknown-sorted", {"zzz": 1, "aaa": 2}, "aaa: unknown field"),
    ("classical-unknown", {"p": [0.5, 0.5], "extra": 1}, "extra: unknown field"),
    ("classical-missing", {"p": [0.5, 0.5], "gamma": None}, "gamma: missing"),
    ("tol-list", {"tol": [1e-9]}, "tol: expected an object"),
    ("tol-unknown-sorted", {"tol": {"zeta": 1, "alpha": 2}}, "tol.alpha: unknown field"),
    ("channel-list", {"channel": [EYE2]}, "channel: expected an object"),
    ("channel-kind", {"channel": {"kind": "other"}}, 'channel.kind: expected "kraus" or "matrix"'),
    (
        "kraus-unknown",
        {"channel": {"kind": "kraus", "data": [EYE2], "convention": "column-stacking"}},
        "channel.convention: unknown field",
    ),
    (
        "matrix-unknown",
        {"channel": {"kind": "matrix", "convention": "column-stacking", "data": EYE4, "x": 1}},
        "channel.x: unknown field",
    ),
    (
        "kraus-empty",
        {"channel": {"kind": "kraus", "data": []}},
        "channel.data: expected a non-empty array of matrices",
    ),
    (
        "kraus-shape",
        {"channel": {"kind": "kraus", "data": [EYE4]}},
        "channel.data[0]: expected a 2x2 matrix, got (4, 4)",
    ),
    (
        "matrix-shape",
        {"channel": {"kind": "matrix", "convention": "column-stacking", "data": EYE2}},
        "channel.data: expected a 4x4 matrix, got (2, 2)",
    ),
    ("theta-list", {"theta": [EYE2]}, "theta: expected an object"),
    ("theta-kind", {"theta": {"kind": "other"}}, 'theta.kind: expected "transpose" or "unitary"'),
    ("theta-transpose-u", {"theta": {"kind": "transpose", "u": EYE2}}, "theta.u: unknown field"),
    (
        "theta-unitary-extra",
        {"theta": {"kind": "unitary", "u": EYE2, "extra": 1}},
        "theta.extra: unknown field",
    ),
    (
        "theta-u-shape",
        {"theta": {"kind": "unitary", "u": EYE4}},
        "theta.u: expected a 2x2 matrix, got (4, 4)",
    ),
    (
        "theta-u-not-unitary",
        {"theta": {"kind": "unitary", "u": [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}},
        "theta.u: u is not unitary (residual 3.000e+00)",
    ),
    (
        "theta-u-overflow",
        {
            "rho": [0.5, 0.3, 0.2],
            "channel": {"kind": "kraus", "data": [EYE3]},
            "theta": {"kind": "unitary", "u": HUGE_U3},
        },
        "theta.u: u is not unitary (residual nan)",
    ),
    # the trace and the norm overflow; no RuntimeWarning may reach stderr
    ("rho-overflow", {"rho": [1e308, 1e308]}, "rho: trace must be 1, got inf"),
    # the Hermiticity residual and its bound overflow alike; rescaled, neither
    # does, and the huge entries fail as the small ones do
    (
        "rho-not-hermitian",
        {"rho": [[[0.5, 0], [0, 1e-3]], [[0, 1e-3], [0.5, 0]]]},
        "rho: not Hermitian (residual 2.828e-03)",
    ),
    (
        "rho-not-hermitian-overflow",
        {"rho": [[[0.5, 0], [0, 1e300]], [[0, 1e300], [0.5, 0]]]},
        "rho: not Hermitian (residual 2.828e+300)",
    ),
    # a unit trace with off-diagonal entries whose sum would overflow in the
    # solve: the symmetrization halves first, and the eigenvalue is finite
    (
        "rho-offdiagonal-overflow",
        {"rho": [[[0.5, 0], [1e308, 0]], [[1e308, 0], [0.5, 0]]]},
        "rho: negative eigenvalue -1.000e+308",
    ),
    # a finite Kraus entry whose square overflows in the checks, not at parse
    (
        "kraus-overflow",
        {
            "rho": [0.6, 0.4],
            "channel": {"kind": "kraus", "data": [[[[1e160, 0], [0, 0]], [[0, 0], [1, 0]]]]},
        },
        "channel is not completely positive (residual nan)",
    ),
    (
        "gamma-overflow",
        {"p": [0.5, 0.5], "gamma": [[1e308, 1e308], [0.0, 1.0]]},
        "gamma: gamma rows must sum to 1 (worst inf)",
    ),
    ("gamma-not-rows", {"p": [0.5, 0.5], "gamma": [1, 0]}, "gamma: expected a nested array of rows"),
    # a flat rho, p and each gamma row are read by one reader of a real
    # vector, which names the entry at fault
    ("rho-nan", {"rho": [0.5, float("nan")]}, "rho[1]: must be a finite number, got nan"),
    ("p-entry", {"p": [0.5, "x"]}, "p[1]: expected a number"),
    ("p-nan", {"p": [float("nan"), 0.5]}, "p[0]: must be a finite number, got nan"),
    (
        "gamma-row",
        {"p": [0.5, 0.5], "gamma": [[1.0, 0.0], [0.0, "x"]]},
        "gamma[1][1]: expected a number",
    ),
    (
        "gamma-ragged",
        {"p": [0.5, 0.5], "gamma": [[0.5, 0.5], [1.0]]},
        "gamma: row 1 has length 1, expected 2",
    ),
    ("gamma-empty", {"p": [0.5, 0.5], "gamma": []}, "gamma: chain shapes p (2,), gamma (0,)"),
    (
        "gamma-shape",
        {"p": [0.5, 0.5], "gamma": [[1.0]]},
        "gamma: chain shapes p (2,), gamma (1, 1)",
    ),
]


@pytest.mark.parametrize(
    "changes,line",
    [pytest.param(*case[1:3], id=case[0], marks=case[3:]) for case in MALFORMED_FILES],
)
def test_malformed_files_name_the_field_at_fault(tmp_path, capsys, changes, line):
    if isinstance(changes, dict):
        if "p" in changes:
            payload = {"kind": "classical", "p": [0.5, 0.5], "gamma": [[1.0, 0.0], [0.0, 1.0]]}
        else:
            payload = generate_payload("gad-sqdb", None, 3, 0.75, 0.2, 0)
        payload.update(changes)
        payload = {k: v for k, v in payload.items() if v is not None}
    else:
        payload = changes
    path = tmp_path / "problem.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload), encoding="utf-8")
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {line}\n"


def test_file_tolerances_reach_the_checkers(tmp_path, capsys, monkeypatch):
    # eq_tol = 10 flips the modular check on the gad instance, as --tol 10 does
    payload = generate_payload("gad-sqdb", None, 3, 0.75, 0.2, 0)
    payload["tol"] = {"eq_tol": 10.0, "psd_tol": 1e-8, "inv_tol": 1e-10}
    seen = []
    real = detbal.balance._reports
    monkeypatch.setattr(
        detbal.balance, "_reports", lambda *args: seen.append(args[3]) or real(*args)
    )
    assert main(["check", _write(tmp_path, payload), "--format", "json"]) == 0
    checks = json.loads(capsys.readouterr().out)["reports"][0]["checks"]
    assert checks["db2_modular"]["passed"] is True
    assert seen == [Tolerance(eq_tol=10.0, psd_tol=1e-8, inv_tol=1e-10)]


def test_text_output_with_mirror_checks(tmp_path, capsys):
    assert main(["check", _gad_file(tmp_path), "--tfd"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "problem: quantum, n=2, degenerate_rho=False, mode=cp"
    names = [line.split()[0] for line in lines[2:-1]]
    assert names == [*QUANTUM_CHECKS, "db2_tfd", "sqdb_tfd"]
    assert lines[-1] == "  db2: no  sqdb: yes  consistency: ok  tfd_agrees: yes"


def test_verdicts_are_colored_on_a_terminal(tmp_path, capsys, monkeypatch):
    assert _verdict(True, True) == "\x1b[32mpass\x1b[0m"
    assert _verdict(False, True, "yes", "no") == "\x1b[31mno\x1b[0m"
    path = _gad_file(tmp_path)
    monkeypatch.delenv("NO_COLOR", raising=False)
    monkeypatch.setattr(sys.stdout, "isatty", lambda: True)
    assert main(["check", path, "--assert", "sqdb"]) == 0
    out = capsys.readouterr().out
    assert "  sqdb: \x1b[32myes\x1b[0m" in out
    assert out.endswith("assert sqdb: \x1b[32mok\x1b[0m\n")
    monkeypatch.setenv("NO_COLOR", "1")
    assert main(["check", path]) == 0
    assert "\x1b[" not in capsys.readouterr().out


# (file, flags, exit code, text report): every verdict word is a
# placeholder, filled in plain or in its color; residuals are not pinned
GOLDEN_TEXT = {
    "classical-assert-db2": (
        ("cycle", 4),
        ["--assert", "db2", "--powers", "1,2"],
        1,
        [
            "problem: classical, n=4",
            "power 1",
            "  pairwise    {fail}  residual R",
            "  functional  {fail}  residual R",
            "  balanced: {no}  consistency: {ok}",
            "power 2",
            "  pairwise    {pass}  residual R",
            "  functional  {pass}  residual R",
            "  balanced: {yes}  consistency: {ok}",
            "assert db2: {FAILED}",
        ],
    ),
    "quantum-tfd-assert-sqdb": (
        ("gad-sqdb", None),
        ["--tfd", "--assert", "sqdb"],
        0,
        [
            "problem: quantum, n=2, degenerate_rho=False, mode=cp",
            "power 1",
            "  db2_definition   {fail}  residual R",
            "  db2_modular      {fail}  residual R",
            "  db2_entangled    {fail}  residual R",
            "  sqdb_definition  {pass}  residual R",
            "  sqdb_entangled   {pass}  residual R",
            "  delta_commutes   {fail}  residual R",
            "  db2_tfd          {fail}  residual R",
            "  sqdb_tfd         {pass}  residual R",
            "  db2: {no}  sqdb: {yes}  consistency: {ok}  tfd_agrees: {yes}",
            "assert sqdb: {ok}",
        ],
    ),
}


@pytest.mark.parametrize("color", [False, True], ids=["plain", "color"])
@pytest.mark.parametrize("case", list(GOLDEN_TEXT))
def test_text_report_golden(tmp_path, capsys, monkeypatch, case, color):
    (family, n), flags, code, lines = GOLDEN_TEXT[case]
    path = _write(tmp_path, generate_payload(family, n, 3, 0.75, 0.2, 0))
    monkeypatch.delenv("NO_COLOR", raising=False)
    monkeypatch.setattr(sys.stdout, "isatty", lambda: color)
    assert main(["check", path, *flags]) == code
    words = {w: f"\x1b[32m{w}\x1b[0m" if color else w for w in ("pass", "yes", "ok")}
    words.update({w: f"\x1b[31m{w}\x1b[0m" if color else w for w in ("fail", "no", "FAILED")})
    out = re.sub(r"residual \S+", "residual R", capsys.readouterr().out)
    assert out == "".join(line.format(**words) + "\n" for line in lines)


def test_non_utf8_file_is_reported_under_file(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'\xff{"kind": "quantum"}')
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: file: 'utf-8' codec can't decode byte 0xff")



def _rotated_gad_payloads():
    """One problem stated twice: gad-sqdb at diag(0.7, 0.3) rotated by
    v = (1 + i sx) / sqrt(2), with the reversing unitary sx, and the same
    problem in rho's eigenbasis, where Theta's unitary is v^dag sx conj(v)
    = -i (the plain transpose, up to a phase)."""
    v = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / np.sqrt(2.0)
    ops = gad_kraus(0.7, 0.2).ops
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    rotated = {
        "rho": _enc(v @ np.diag([0.7, 0.3]) @ v.conj().T),
        "channel": {"kind": "kraus", "data": [_enc(v @ op @ v.conj().T) for op in ops]},
        "theta": {"kind": "unitary", "u": _enc(sx)},
    }
    eigen = {
        "rho": [0.7, 0.3],
        "channel": {"kind": "kraus", "data": [_enc(op) for op in ops]},
        "theta": {"kind": "unitary", "u": _enc(v.conj().T @ sx @ v.conj())},
    }
    return rotated, eigen


def test_rotated_file_and_its_eigenbasis_twin_agree(tmp_path):
    rotated, eigen = _rotated_gad_payloads()
    verdicts = []
    for name, payload in (("rotated.json", rotated), ("eigen.json", eigen)):
        report = run_checks(parse_problem(_write(tmp_path, payload, name)), tfd=True)
        rep = report["reports"][0]
        verdicts.append([rep[k] for k in ("db2", "sqdb", "consistency", "tfd_agrees")])
    assert verdicts[0] == verdicts[1] == [False, True, True, True]


def test_each_value_is_checked_once(tmp_path, monkeypatch):
    """A value read from a file is checked once, and what is built from it
    is handed over (linalg._handed): make_density's eigendecomposition never
    runs DensityMatrix's spectrum check, and a unitary Theta's u is copied
    and checked once, by the ReversingOperation that make_reversing builds,
    not again when it is rotated to rho's eigenbasis; the plain transpose copies none.  A Kraus
    file's operators are coerced once, when the file is read, and handed
    over, in the user basis and rotated, with no copy or check by
    KrausChannel.  A classical file's chain is checked once, at parse, and
    each of its time powers is handed over.  A state, reversing operation,
    Kraus family or chain built directly is checked once."""
    calls = collections.Counter()

    def counted(module, name, key=None):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[key or name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(detbal.states, "_check_spectrum")
    counted(detbal.duals, "as_matrix")
    counted(detbal.superop, "as_matrix", "kraus_as_matrix")
    counted(detbal.balance, "_check_chain")
    rotated, _ = _rotated_gad_payloads()
    assert main(["check", _write(tmp_path, rotated), "--format", "json", "--tfd"]) == 0
    assert calls == {"as_matrix": 1}
    calls.clear()
    assert main(["check", _gad_file(tmp_path), "--format", "json", "--tfd"]) == 0
    assert calls == {}
    path = _write(tmp_path, generate_payload("metropolis", 3, 3, 0.75, 0.2, 0), "chain.json")
    assert main(["check", path, "--powers", "1,2,3"]) == 0
    assert calls == {"_check_chain": 1}
    calls.clear()
    DensityMatrix([0.75, 0.25], np.eye(2))
    ReversingOperation(np.eye(2))
    ClassicalChain([0.5, 0.5], np.eye(2))
    KrausChannel(([[1, 0], [0, 1]],))
    assert calls == {
        "_check_spectrum": 1, "as_matrix": 1, "_check_chain": 1, "kraus_as_matrix": 1
    }


def test_large_classical_powers_are_not_rebuilt_through_make_chain(tmp_path, capsys):
    # the row sums of gamma^k drift past make_chain's 1e-12 at k = 10^5
    path = tmp_path / "chain.json"
    assert main(["generate", "metropolis", "--n", "4", "--seed", "3", "--out", str(path)]) == 0
    assert main(["check", str(path), "--powers", "100000,1000000"]) == 0
    out = capsys.readouterr().out
    assert out.count("balanced: yes") == 2


@pytest.mark.parametrize("n", [20, 24])
@pytest.mark.parametrize("family", ["schur-db2", "random-unital"])
def test_generate_draws_a_state_at_n_20_and_beyond(tmp_path, family, n):
    """random_density's default smallest eigenvalue, 0.05, is no longer
    below 1/n from n = 20 on, so the state is drawn with 0.5 / n there: the
    file is written and checked, and a schur-db2 file passes db2 with the
    mirror checks."""
    path = tmp_path / "p.json"
    assert main(["generate", family, "--n", str(n), "--out", str(path)]) == 0
    rho = json.loads(path.read_text(encoding="utf-8"))["rho"]
    assert len(rho) == n and min(rho) > 0.49 / n
    code = main(["check", str(path), "--tfd", "--assert", "db2"])
    assert code == (0 if family == "schur-db2" else 1)


def test_generate_keeps_the_default_state_below_n_20():
    """Below n = 20 the state is random_density's default draw, so files
    stay as they were."""
    for n in (2, 19):
        want = [float(x) for x in random_density(n, seed=5).diag]
        for family in ("schur-db2", "random-unital"):
            assert generate_payload(family, n, 3, 0.75, 0.2, 5)["rho"] == want


def test_generate_gad_sqdb_is_a_qubit_family(capsys):
    for n in (1, 3, 5):
        assert main(["generate", "gad-sqdb", "--n", str(n)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --n: gad-sqdb is a qubit family, n must be 2, got {n}\n"
    assert main(["generate", "gad-sqdb", "--n", "2"]) == 0
    two = capsys.readouterr().out
    assert main(["generate", "gad-sqdb"]) == 0
    assert capsys.readouterr().out == two


def test_generate_into_a_missing_directory_is_an_input_error(tmp_path, capsys):
    out = tmp_path / "no" / "such" / "x.json"
    assert main(["generate", "cycle", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --out: ")
    assert not out.exists()


def test_matrix_entries_must_be_pairs(tmp_path):
    payload = {
        "kind": "quantum",
        "rho": [[0.75, 0.0], [0.0, 0.25]],
        "channel": {"kind": "kraus", "data": [_enc(np.eye(2))]},
    }
    with pytest.raises(SchemaError):
        parse_problem(_write(tmp_path, payload))


@pytest.mark.parametrize("entry", [True, "0.5", None], ids=["bool", "string", "null"])
def test_flat_rho_names_the_entry_that_is_not_a_number(tmp_path, capsys, entry):
    payload = generate_payload("gad-sqdb", None, 3, 0.75, 0.2, 0)
    payload["rho"] = [0.5, entry]
    assert main(["check", _write(tmp_path, payload)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: rho[1]: expected a number\n"


def _complex_entry(x, field):
    if not (isinstance(x, list) and len(x) == 2 and all(_is_number(v) for v in x)):
        raise SchemaError(field, "complex entries must be [re, im] pairs of numbers")
    return complex(_finite(x[0], field), _finite(x[1], field))


def _parse_matrix_entries(data, field):
    """The per-entry oracle of _parse_matrix, for data that are non-empty rows."""
    width = len(data[0])
    out = np.zeros((len(data), width), dtype=complex)
    for i, row in enumerate(data):
        if len(row) != width:
            raise SchemaError(field, f"row {i} has length {len(row)}, expected {width}")
        for j, x in enumerate(row):
            out[i, j] = _complex_entry(x, f"{field}[{i}][{j}]")
    return out


def _random_entries(rng, rows, width):
    """Rows of [re, im] pairs: floats over many magnitudes, signed zeros and
    integers, some beyond 2**53 and 2**64."""
    pool = [0.0, -0.0, 0, 1, -7, 2**53 + 1, -(2**64) - 3, 10**300, 5e-324, -1.5e300]
    out = []
    for _ in range(rows):
        row = []
        for _ in range(width):
            pair = []
            for _ in range(2):
                if rng.random() < 0.3:
                    pair.append(pool[rng.integers(len(pool))])
                else:
                    pair.append(float(rng.standard_normal() * 10.0 ** rng.integers(-300, 300)))
            row.append(pair)
        out.append(row)
    return out


@pytest.mark.parametrize("rows,width", [(1, 1), (2, 2), (3, 5), (16, 16)])
def test_fast_matrix_parse_is_bit_equal_to_the_entry_loop(rows, width):
    rng = np.random.default_rng(rows * 100 + width)
    for _ in range(5):
        data = _random_entries(rng, rows, width)
        fast = _parse_matrix(data, "m")
        slow = _parse_matrix_entries(data, "m")
        assert fast.dtype == slow.dtype and fast.shape == slow.shape
        assert fast.tobytes() == slow.tobytes()


def test_fast_matrix_parse_skips_the_entry_loop_on_good_data(monkeypatch):
    def refuse(data, field):
        raise AssertionError("per-entry loop reached")

    monkeypatch.setattr(detbal.cli, "_matrix_fault", refuse)
    data = _enc(random_unitary(4, seed=3))
    data[0][0] = [1, -0.0]
    assert _parse_matrix(data, "m")[0, 0] == complex(1.0, -0.0)


def _malformed(kind):
    data = [[[1.0, 0.0], [0.5, -0.5]], [[0, 2], [-0.0, 1e-300]]]
    if kind == "bool":
        data[1][0] = [True, 0.0]
    elif kind == "bool-last":
        data[1][1] = [0.0, False]
    elif kind == "string":
        data[0][1] = ["0.5", 0.0]
    elif kind == "null":
        data[1][1] = [None, 0.0]
    elif kind == "short":
        data[0][0] = [1.0]
    elif kind == "long":
        data[0][0] = [1.0, 0.0, 0.0]
    elif kind == "ragged":
        data[1] = data[1][:1]
    elif kind == "ragged-pair-rows":
        data.append([[0.0, 0.0]])
    elif kind in ("NaN", "Infinity", "1e400"):
        data[1][1] = [0.0, json.loads(kind)]
    elif kind == "huge-int":
        data[0][1] = [10**400, 0]
    elif kind == "too-deep":
        data = [[[[1.0, 0.0], [0.0, 0.0]] for _ in range(2)] for _ in range(2)]
    elif kind == "too-shallow":
        data = [[1.0, 0.0], [0.0, 1.0]]
    elif kind == "object":
        data[0][0] = {"re": 1.0, "im": 0.0}
    return data


MALFORMED = [
    "bool", "bool-last", "string", "null", "short", "long", "ragged", "ragged-pair-rows",
    "NaN", "Infinity", "1e400", "huge-int", "too-deep", "too-shallow", "object",
]


@pytest.mark.parametrize("kind", MALFORMED)
def test_fast_matrix_parse_reports_the_entry_loops_error(kind):
    data = _malformed(kind)
    with pytest.raises(SchemaError) as new:
        _parse_matrix(data, "m")
    with pytest.raises(SchemaError) as old:
        _parse_matrix_entries(data, "m")
    assert (new.value.field, new.value.reason) == (old.value.field, old.value.reason)
    assert new.value.field.startswith("m")


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


def _json_dumps(payload) -> str:
    """The bytes _render_json must write: json's own indented encoding."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


_DEGENERATE_SPECTRA = {2: (0.5, 0.5), 3: (0.5, 0.25, 0.25), 4: (0.4, 0.2, 0.2, 0.2)}


def _quantum_problem(family, n):
    seed = 40 + n
    if family == "degenerate-db2":
        tau, rho = degenerate_db2_channel(seed, spectrum=_DEGENERATE_SPECTRA[n])
    elif family == "gad-sqdb":
        tau, rho = gad_sqdb_channel(0.75, 0.2)
    elif family == "symmetrized-sqdb":
        tau, rho = symmetrized_sqdb_channel(0.7, 0.3)
    else:
        rho = random_density(n, seed=seed)
        if family == "schur-db2":
            tau = schur_db2_channel(rho, seed)
        else:
            tau = random_unital_channel(n, 3, seed)
    return ParsedProblem(
        kind="quantum", tol=DEFAULT_TOL, powers=(1, 2), rho=rho, tau=tau,
        theta=transpose_reversing(rho.n),
    )


RENDERED_PROBLEMS = [
    (family, n)
    for family in ("schur-db2", "random-unital", "degenerate-db2")
    for n in (2, 3, 4)
] + [("gad-sqdb", 2), ("symmetrized-sqdb", 2)]


@pytest.mark.parametrize("family,n", RENDERED_PROBLEMS)
def test_render_json_matches_json_dumps_on_quantum_reports(family, n):
    parsed = _quantum_problem(family, n)
    for tfd in (False, True):
        for mode in (MODE_CP, MODE_POSITIVITY):
            for assertion in ("db2", "sqdb"):
                payload = run_checks(parsed, tfd=tfd, assertion=assertion, mode=mode)
                assert _render_json(payload) == _json_dumps(payload)


@pytest.mark.parametrize("chain", [metropolis_chain(3, 5), cycle_chain(4)], ids=["metropolis", "cycle"])
def test_render_json_matches_json_dumps_on_classical_reports(chain):
    parsed = ParsedProblem(kind="classical", tol=DEFAULT_TOL, powers=(1, 2), chain=chain)
    for mode in (MODE_CP, MODE_POSITIVITY):
        for assertion in ("db2", "sqdb"):
            payload = run_checks(parsed, assertion=assertion, mode=mode)
            assert _render_json(payload) == _json_dumps(payload)


@pytest.mark.parametrize("family", ["schur-db2", "gad-sqdb", "random-unital", "metropolis", "cycle"])
def test_render_json_matches_json_dumps_on_generated_files(family):
    for seed in (0, 1):
        payload = generate_payload(family, None, 3, 0.75, 0.2, seed)
        assert _render_json(payload) == _json_dumps(payload)


RENDER_EDGES = {
    "nan": float("nan"),
    "infinities": [float("inf"), -float("inf")],
    "negative-zero": -0.0,
    "subnormal": 5e-324,
    "large-float": 1e16,
    "large-int": 2**70,
    "np-float64": [np.float64(0.1), np.float64(-2.5e-300)],
    "bools-and-none": [True, False, None, {"t": True, "n": None}],
    "empty": [{}, [], ()],
    "nested-empty": {"a": {"b": {}}, "c": [[], [{}]]},
    "tuples": (1, (2.5, "x"), {"k": (None,)}),
    "quotes": 'say "hi"',
    "backslash": "a\\b",
    "control": "\x00\x01\x1f\n\r\t\b\f\x7f",
    "non-ascii": "héllo ✓ 𝔼",
    "lone-surrogate": "\ud800",
    "key-escapes": {'"q"': 1, "\n": 2, "é": 3, "": 4},
}


@pytest.mark.parametrize("value", list(RENDER_EDGES.values()), ids=list(RENDER_EDGES))
def test_render_json_matches_json_dumps_on_edge_values(value):
    assert _render_json(value) == _json_dumps(value)
    assert _render_json({"v": value, "w": [value]}) == _json_dumps({"v": value, "w": [value]})


@pytest.mark.parametrize(
    "value",
    [np.int64(1), {1, 2}, {1: "one"}, [np.bool_(True)], {"a": [object()]}],
    ids=["np-int64", "set", "non-str-key", "np-bool", "nested-object"],
)
def test_render_json_raises_type_error_where_json_would_not_encode(value):
    with pytest.raises(TypeError):
        _render_json(value)
