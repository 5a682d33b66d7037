"""Command-line front end: JSON problem files in, balance verdicts out.

Problem file schema (quantum):

  {
    "kind": "quantum",                      optional, default "quantum"
    "rho": [0.75, 0.25]                     diagonal vector of plain reals,
           or nested rows of [re, im]       or a full matrix
    "channel": {
      "kind": "kraus",
      "data": [ <n x n matrix>, ... ]       each entry a [re, im] pair
    }                                       or
    "channel": {
      "kind": "matrix",
      "convention": "column-stacking",      mandatory for matrix channels
      "data": <n^2 x n^2 matrix>
    },
    "theta": {"kind": "transpose"}          optional, default transpose
           or {"kind": "unitary", "u": <n x n matrix>},
    "time_powers": [1, 2],                  optional, default [1]
    "tol": {"eq_tol": 1e-9}                 optional overrides
  }

Classical problem files carry "kind": "classical" with a probability vector
"p" and a row-stochastic matrix "gamma", both plain reals.

Complex numbers are always two-element arrays [re, im]; matrices are
row-major nested arrays.  Superoperator matrices are only accepted with an
explicit "convention": "column-stacking" tag, because a silently wrong
vectorization convention is the most dangerous mistake in this domain.

A non-diagonal rho is rotated to its eigenbasis and the channel and
reversing operation are conjugated along, so checks always run in the basis
the rest of the package assumes.

Exit codes: 0 on success (and all requested assertions hold), 1 when an
--assert is given and the balance property fails, 2 on any input error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .balance import (
    MODE_CP,
    MODE_POSITIVITY,
    BalanceReport,
    ClassicalChain,
    classical_detailed_balance,
    classical_phi_balance,
    make_chain,
    run_report,
)
from .duals import ReversingOperation, make_reversing, transpose_reversing
from .errors import DetbalError, InputNotDynamics, SchemaError
from .generators import (
    cycle_chain,
    gad_kraus,
    metropolis_chain,
    random_density,
    random_unital_kraus,
    schur_kraus,
    schur_multiplier_matrix,
)
from .linalg import DEFAULT_TOL, CheckResult, Tolerance
from .states import DensityMatrix, make_density
from .superop import SuperOperator, from_kraus, is_hermitian_map, is_unital, make_kraus, pi_rep
from .thermofield import check_db2_tfd, check_sqdb_tfd

CONVENTION = "column-stacking"

_QUANTUM_KEYS = {"kind", "rho", "channel", "theta", "time_powers", "tol"}
_CLASSICAL_KEYS = {"kind", "p", "gamma", "time_powers", "tol"}
_QUANTUM_CHECKS = (
    "db2_definition",
    "db2_modular",
    "db2_entangled",
    "sqdb_definition",
    "sqdb_entangled",
    "delta_commutes",
)


@dataclass(frozen=True, eq=False)
class ParsedProblem:
    """Problem file after validation and basis normalization.

    kind is "quantum" (rho, tau, theta set) or "classical" (chain set).
    """

    kind: str
    tol: Tolerance
    powers: tuple[int, ...]
    rho: DensityMatrix | None = None
    tau: SuperOperator | None = None
    theta: ReversingOperation | None = None
    chain: ClassicalChain | None = None


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _float(x, field: str) -> float:
    """float(x), with an integer too large for a float reported against field."""
    try:
        return float(x)
    except OverflowError:
        raise SchemaError(field, "number too large for a float") from None


def _complex_entry(x, field: str) -> complex:
    if not (isinstance(x, list) and len(x) == 2 and all(_is_number(v) for v in x)):
        raise SchemaError(field, "complex entries must be [re, im] pairs of numbers")
    return complex(_float(x[0], field), _float(x[1], field))


def _parse_matrix(data, field: str) -> np.ndarray:
    if not (isinstance(data, list) and data and all(isinstance(r, list) for r in data)):
        raise SchemaError(field, "expected a non-empty nested array of rows")
    width = len(data[0])
    out = np.zeros((len(data), width), dtype=complex)
    for i, row in enumerate(data):
        if len(row) != width:
            raise SchemaError(field, f"row {i} has length {len(row)}, expected {width}")
        for j, x in enumerate(row):
            out[i, j] = _complex_entry(x, f"{field}[{i}][{j}]")
    return out


def _parse_real_vector(data, field: str) -> np.ndarray:
    if not (isinstance(data, list) and data and all(_is_number(v) for v in data)):
        raise SchemaError(field, "expected a non-empty array of numbers")
    return np.asarray([_float(v, field) for v in data], dtype=float)


def _encode_matrix(m) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def _parse_rho(data, tol: Tolerance) -> DensityMatrix:
    if isinstance(data, list) and data and all(_is_number(v) for v in data):
        mat = np.diag(_parse_real_vector(data, "rho")).astype(complex)
    else:
        mat = _parse_matrix(data, "rho")
    try:
        return make_density(mat, tol)
    except DetbalError as exc:
        raise SchemaError("rho", str(exc)) from exc


def _parse_tol(data) -> Tolerance:
    if data is None:
        return DEFAULT_TOL
    if not isinstance(data, dict):
        raise SchemaError("tol", "expected an object")
    allowed = {"eq_tol", "psd_tol", "inv_tol"}
    values = {}
    for key, val in data.items():
        if key not in allowed:
            raise SchemaError(f"tol.{key}", "unknown tolerance field")
        if not _is_number(val) or not math.isfinite(_float(val, f"tol.{key}")) or val <= 0:
            raise SchemaError(f"tol.{key}", "must be a finite positive number")
        values[key] = float(val)
    return Tolerance(
        eq_tol=values.get("eq_tol", DEFAULT_TOL.eq_tol),
        psd_tol=values.get("psd_tol", DEFAULT_TOL.psd_tol),
        inv_tol=values.get("inv_tol", DEFAULT_TOL.inv_tol),
    )


def _parse_powers(data) -> tuple[int, ...]:
    if data is None:
        return (1,)
    ok = (
        isinstance(data, list)
        and data
        and all(isinstance(k, int) and not isinstance(k, bool) and k >= 1 for k in data)
    )
    if not ok:
        raise SchemaError("time_powers", "expected a non-empty array of integers >= 1")
    return tuple(data)


def _parse_channel(obj, n: int, tol: Tolerance):
    """Returns (superoperator, kraus_ops or None) in the user basis."""
    if not isinstance(obj, dict):
        raise SchemaError("channel", "expected an object")
    kind = obj.get("kind")
    if kind == "kraus":
        extra = set(obj) - {"kind", "data"}
        if extra:
            raise SchemaError(f"channel.{sorted(extra)[0]}", "unknown field")
        data = obj.get("data")
        if not (isinstance(data, list) and data):
            raise SchemaError("channel.data", "expected a non-empty array of matrices")
        ops = []
        for idx, m in enumerate(data):
            v = _parse_matrix(m, f"channel.data[{idx}]")
            if v.shape != (n, n):
                raise SchemaError(
                    f"channel.data[{idx}]", f"expected a {n}x{n} matrix, got {v.shape}"
                )
            ops.append(v)
        return from_kraus(make_kraus(ops)), ops
    if kind == "matrix":
        extra = set(obj) - {"kind", "data", "convention"}
        if extra:
            raise SchemaError(f"channel.{sorted(extra)[0]}", "unknown field")
        if obj.get("convention") != CONVENTION:
            raise SchemaError(
                "channel.convention",
                f'matrix channels must declare "convention": "{CONVENTION}"',
            )
        mat = _parse_matrix(obj.get("data"), "channel.data")
        if mat.shape != (n * n, n * n):
            raise SchemaError(
                "channel.data", f"expected a {n * n}x{n * n} matrix, got {mat.shape}"
            )
        s = SuperOperator(n, mat)
        herm = is_hermitian_map(s, tol)
        if not herm.passed:
            raise InputNotDynamics(
                f"matrix channel is not Hermiticity-preserving (residual {herm.residual:.3e})"
            )
        unital = is_unital(s, tol)
        if not unital.passed:
            raise InputNotDynamics(
                f"matrix channel is not unital (residual {unital.residual:.3e})"
            )
        return s, None
    raise SchemaError("channel.kind", 'expected "kraus" or "matrix"')


def _parse_theta(obj, n: int) -> ReversingOperation:
    if obj is None:
        return transpose_reversing(n)
    if not isinstance(obj, dict):
        raise SchemaError("theta", "expected an object")
    kind = obj.get("kind")
    if kind == "transpose":
        if set(obj) - {"kind"}:
            raise SchemaError("theta", 'transpose reversing takes no "u"')
        return transpose_reversing(n)
    if kind == "unitary":
        if set(obj) - {"kind", "u"}:
            raise SchemaError("theta", 'unitary reversing takes exactly "kind" and "u"')
        u = _parse_matrix(obj.get("u"), "theta.u")
        if u.shape != (n, n):
            raise SchemaError("theta.u", f"expected a {n}x{n} matrix, got {u.shape}")
        return make_reversing(u)
    raise SchemaError("theta.kind", 'expected "transpose" or "unitary"')


def _to_eigenbasis(rho, tau, kraus_ops, theta):
    """Conjugate channel and reversing operation into rho's eigenbasis."""
    v = rho.basis
    if np.array_equal(v, np.eye(rho.n)):
        return tau, theta
    if kraus_ops is not None:
        tau = from_kraus(make_kraus([v.conj().T @ op @ v for op in kraus_ops]))
    else:
        left = pi_rep(v.conj().T, v.T).mat
        right = pi_rep(v, v.conj()).mat
        tau = SuperOperator(rho.n, left @ tau.mat @ right)
    u = v.conj().T @ theta.u @ v.conj()
    return tau, make_reversing(u)


def parse_problem(path: str) -> ParsedProblem:
    """Read, validate and basis-normalize a problem file."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise SchemaError("file", str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise SchemaError("file", f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError("file", "top level must be an object")
    kind = raw.get("kind", "quantum")
    if kind == "quantum":
        extra = sorted(set(raw) - _QUANTUM_KEYS)
        if extra:
            raise SchemaError(extra[0], "unknown field")
        if "rho" not in raw:
            raise SchemaError("rho", "missing")
        if "channel" not in raw:
            raise SchemaError("channel", "missing")
        tol = _parse_tol(raw.get("tol"))
        powers = _parse_powers(raw.get("time_powers"))
        rho = _parse_rho(raw["rho"], tol)
        tau, kraus_ops = _parse_channel(raw["channel"], rho.n, tol)
        theta = _parse_theta(raw.get("theta"), rho.n)
        tau, theta = _to_eigenbasis(rho, tau, kraus_ops, theta)
        return ParsedProblem(
            kind="quantum", tol=tol, powers=powers, rho=rho, tau=tau, theta=theta
        )
    if kind == "classical":
        extra = sorted(set(raw) - _CLASSICAL_KEYS)
        if extra:
            raise SchemaError(extra[0], "unknown field")
        if "p" not in raw or "gamma" not in raw:
            raise SchemaError("p" if "p" not in raw else "gamma", "missing")
        tol = _parse_tol(raw.get("tol"))
        powers = _parse_powers(raw.get("time_powers"))
        p = _parse_real_vector(raw["p"], "p")
        gamma = raw["gamma"]
        if not (isinstance(gamma, list) and all(isinstance(r, list) for r in gamma)):
            raise SchemaError("gamma", "expected a nested array of rows")
        rows = [_parse_real_vector(r, f"gamma[{i}]") for i, r in enumerate(gamma)]
        try:
            chain = make_chain(p, np.asarray(rows))
        except DetbalError as exc:
            raise SchemaError("gamma", str(exc)) from exc
        return ParsedProblem(kind="classical", tol=tol, powers=powers, chain=chain)
    raise SchemaError("kind", 'expected "quantum" or "classical"')


def _check_payload(c: CheckResult) -> dict:
    return {
        "passed": bool(c.passed),
        "residual": float(c.residual),
        "detail": {k: float(v) for k, v in sorted(c.detail.items())},
    }


def _quantum_power_payload(
    report: BalanceReport, power: int, tfd_checks: dict | None
) -> dict:
    checks = {
        name: _check_payload(getattr(report, name)) for name in _QUANTUM_CHECKS
    }
    entry = {
        "power": power,
        "checks": checks,
        "db2": bool(report.db2),
        "sqdb": bool(report.sqdb),
        "consistency": bool(report.consistency),
    }
    if tfd_checks is not None:
        checks["db2_tfd"] = _check_payload(tfd_checks["db2"])
        checks["sqdb_tfd"] = _check_payload(tfd_checks["sqdb"])
        entry["tfd_agrees"] = bool(
            tfd_checks["db2"].passed == report.db2_entangled.passed
            and tfd_checks["sqdb"].passed == report.sqdb_definition.passed
        )
    return entry


def run_checks(
    parsed: ParsedProblem,
    tfd: bool = False,
    assertion: str = "none",
    mode: str = MODE_CP,
) -> dict:
    """Run the battery per requested time power; returns the report payload."""
    reports = []
    if parsed.kind == "quantum":
        for k in parsed.powers:
            tau_k = parsed.tau if k == 1 else parsed.tau.power(k)
            report = run_report(tau_k, parsed.rho, parsed.theta, parsed.tol, mode)
            tfd_checks = None
            if tfd:
                tfd_checks = {
                    "db2": check_db2_tfd(tau_k, parsed.rho, parsed.tol, mode),
                    "sqdb": check_sqdb_tfd(
                        tau_k, parsed.rho, parsed.theta, parsed.tol, mode
                    ),
                }
            reports.append(_quantum_power_payload(report, k, tfd_checks))
        payload = {
            "kind": "quantum",
            "n": parsed.rho.n,
            "degenerate_rho": bool(parsed.rho.degenerate),
            "mode": mode,
            "reports": reports,
        }
        db2_all = all(r["db2"] for r in reports)
        sqdb_all = all(r["sqdb"] for r in reports)
    else:
        if tfd:
            raise SchemaError("--tfd", "only applies to quantum problem files")
        for k in parsed.powers:
            gamma_k = np.linalg.matrix_power(parsed.chain.gamma, k)
            chain_k = make_chain(parsed.chain.p, gamma_k)
            pairwise = classical_detailed_balance(chain_k, parsed.tol)
            functional = classical_phi_balance(chain_k, parsed.tol)
            reports.append(
                {
                    "power": k,
                    "checks": {
                        "pairwise": _check_payload(pairwise),
                        "functional": _check_payload(functional),
                    },
                    "balanced": bool(pairwise.passed),
                    "consistency": bool(pairwise.passed == functional.passed),
                }
            )
        payload = {
            "kind": "classical",
            "n": parsed.chain.n,
            "mode": mode,
            "reports": reports,
        }
        db2_all = sqdb_all = all(r["balanced"] for r in reports)
    payload["assert"] = assertion
    if assertion == "db2":
        payload["ok"] = db2_all
    elif assertion == "sqdb":
        payload["ok"] = sqdb_all
    else:
        payload["ok"] = True
    return payload


def _use_color(no_color_env: bool) -> bool:
    return sys.stdout.isatty() and not no_color_env


def _verdict(flag: bool, color: bool, yes: str = "pass", no: str = "fail") -> str:
    word = yes if flag else no
    if not color:
        return word
    code = "32" if flag else "31"
    return f"\x1b[{code}m{word}\x1b[0m"


def _render_text(payload: dict, color: bool) -> str:
    lines = []
    head = f"problem: {payload['kind']}, n={payload['n']}"
    if payload["kind"] == "quantum":
        head += f", degenerate_rho={payload['degenerate_rho']}, mode={payload['mode']}"
    lines.append(head)
    for rep in payload["reports"]:
        lines.append(f"power {rep['power']}")
        width = max(len(name) for name in rep["checks"])
        for name, chk in rep["checks"].items():
            lines.append(
                f"  {name.ljust(width)}  {_verdict(chk['passed'], color)}"
                f"  residual {chk['residual']:.6e}"
            )
        if payload["kind"] == "quantum":
            verdicts = (
                f"  db2: {_verdict(rep['db2'], color, 'yes', 'no')}"
                f"  sqdb: {_verdict(rep['sqdb'], color, 'yes', 'no')}"
                f"  consistency: {_verdict(rep['consistency'], color, 'ok', 'BROKEN')}"
            )
            if "tfd_agrees" in rep:
                verdicts += (
                    f"  tfd_agrees: {_verdict(rep['tfd_agrees'], color, 'yes', 'no')}"
                )
            lines.append(verdicts)
        else:
            lines.append(
                f"  balanced: {_verdict(rep['balanced'], color, 'yes', 'no')}"
                f"  consistency: {_verdict(rep['consistency'], color, 'ok', 'BROKEN')}"
            )
    if payload["assert"] != "none":
        lines.append(
            f"assert {payload['assert']}: {_verdict(payload['ok'], color, 'ok', 'FAILED')}"
        )
    return "\n".join(lines) + "\n"


def _render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _cmd_check(args) -> int:
    parsed = parse_problem(args.file)
    if args.tol is not None:
        if not math.isfinite(args.tol) or args.tol <= 0:
            raise SchemaError("--tol", "must be a finite positive number")
        parsed = replace(
            parsed,
            tol=Tolerance(
                eq_tol=args.tol,
                psd_tol=parsed.tol.psd_tol,
                inv_tol=parsed.tol.inv_tol,
            ),
        )
    if args.powers is not None:
        try:
            powers = tuple(int(tok) for tok in args.powers.split(","))
        except ValueError as exc:
            raise SchemaError("--powers", "expected comma-separated integers") from exc
        if not powers or any(k < 1 for k in powers):
            raise SchemaError("--powers", "powers must be integers >= 1")
        parsed = replace(parsed, powers=powers)
    mode = MODE_POSITIVITY if args.positivity_only else MODE_CP
    payload = run_checks(parsed, tfd=args.tfd, assertion=args.assertion, mode=mode)
    if args.format == "json":
        sys.stdout.write(_render_json(payload))
    else:
        sys.stdout.write(
            _render_text(payload, _use_color(bool(os.environ.get("NO_COLOR"))))
        )
    return 0 if payload["ok"] else 1


def generate_payload(
    family: str, n: int | None, k: int, p: float, s: float, seed: int
) -> dict:
    """Build the problem-file payload for one controlled family."""
    if family == "schur-db2":
        n = 2 if n is None else n
        rho = random_density(n, seed=seed)
        ops = schur_kraus(schur_multiplier_matrix(n, seed)).ops
        return {
            "kind": "quantum",
            "rho": [float(x) for x in rho.diag],
            "channel": {"kind": "kraus", "data": [_encode_matrix(v) for v in ops]},
            "theta": {"kind": "transpose"},
            "time_powers": [1],
        }
    if family == "gad-sqdb":
        ops = gad_kraus(p, s).ops
        return {
            "kind": "quantum",
            "rho": [p, 1.0 - p],
            "channel": {"kind": "kraus", "data": [_encode_matrix(v) for v in ops]},
            "theta": {"kind": "transpose"},
            "time_powers": [1],
        }
    if family == "random-unital":
        n = 2 if n is None else n
        rho = random_density(n, seed=seed)
        ops = random_unital_kraus(n, k, seed).ops
        return {
            "kind": "quantum",
            "rho": [float(x) for x in rho.diag],
            "channel": {"kind": "kraus", "data": [_encode_matrix(v) for v in ops]},
            "theta": {"kind": "transpose"},
            "time_powers": [1],
        }
    if family == "metropolis":
        n = 3 if n is None else n
        chain = metropolis_chain(n, seed)
    elif family == "cycle":
        n = 3 if n is None else n
        chain = cycle_chain(n)
    else:
        raise SchemaError("family", f"unknown family {family!r}")
    return {
        "kind": "classical",
        "p": [float(x) for x in chain.p],
        "gamma": [[float(x) for x in row] for row in chain.gamma],
        "time_powers": [1],
    }


def _cmd_generate(args) -> int:
    payload = generate_payload(args.family, args.n, args.k, args.p, args.s, args.seed)
    text = _render_json(payload)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detbal",
        description="Check quantum or classical detailed balance from a JSON problem file.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run the balance check battery on a file")
    check.add_argument("file", help="problem file (JSON)")
    check.add_argument("--format", choices=("text", "json"), default="text")
    check.add_argument("--tol", type=float, default=None, help="override eq_tol")
    check.add_argument(
        "--positivity-only",
        action="store_true",
        help="admit channels that are positive but not completely positive",
    )
    check.add_argument(
        "--tfd", action="store_true", help="also run the mirror-operator cross-checks"
    )
    check.add_argument(
        "--assert",
        dest="assertion",
        choices=("db2", "sqdb", "none"),
        default="none",
        help="exit 1 unless the property holds for every requested power",
    )
    check.add_argument(
        "--powers", default=None, help="comma-separated time powers, e.g. 1,2,3"
    )

    gen = sub.add_parser("generate", help="emit a problem file for a known family")
    gen.add_argument(
        "family",
        choices=("schur-db2", "gad-sqdb", "random-unital", "metropolis", "cycle"),
    )
    gen.add_argument("--n", type=int, default=None, help="dimension (family default)")
    gen.add_argument("--k", type=int, default=3, help="Kraus rank for random-unital")
    gen.add_argument("--p", type=float, default=0.75, help="gad-sqdb state parameter")
    gen.add_argument("--s", type=float, default=0.2, help="gad-sqdb damping parameter")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=None, help="write to a file instead of stdout")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "check":
            return _cmd_check(args)
        return _cmd_generate(args)
    except (DetbalError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
