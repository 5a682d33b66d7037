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

Every object in a file obeys one key rule: its keys come from a known set
and some of them are required.  Each matrix is read with one numpy
conversion, kept only when every entry is a finite [re, im] pair of JSON
numbers; otherwise a walk over the entries names the first one at fault.  A
flat rho names its first entry that is not a number.  Each value read from
the file is checked once, here; values derived from checked ones (the
eigenbasis rotation, each classical time power) are built, not re-checked.

A non-diagonal rho is rotated to its eigenbasis and the channel and
reversing operation are conjugated along, so checks always run in the basis
the rest of the package assumes.  Kraus operators are rotated before their
superoperator is built, once per file.

Exit codes: 0 on success (and all requested assertions hold), 1 when an
--assert is given and the balance property fails, 2 on any input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from typing import NoReturn

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
from .errors import DetbalError, InputNotDynamics, NotStochastic, SchemaError
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
from .superop import (
    KrausChannel,
    SuperOperator,
    _kron_sandwich,
    from_kraus,
    is_hermitian_map,
    is_unital,
)

CONVENTION = "column-stacking"

_QUANTUM_KEYS = {"kind", "rho", "channel", "theta", "time_powers", "tol"}
_CLASSICAL_KEYS = {"kind", "p", "gamma", "time_powers", "tol"}
_TOL_KEYS = {"eq_tol", "psd_tol", "inv_tol"}
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
    """A JSON number: json.load reads int or float, and a bool is neither type."""
    return type(x) in (int, float)


def _float(x, field: str) -> float:
    """float(x), with an integer too large for a float reported against field."""
    try:
        return float(x)
    except OverflowError:
        raise SchemaError(field, "number too large for a float") from None


def _finite(x, field: str) -> float:
    """_float(x), which must be finite: json.load reads NaN, Infinity, 1e400."""
    v = _float(x, field)
    if not math.isfinite(v):
        raise SchemaError(field, f"must be a finite number, got {v!r}")
    return v


def _check_object(obj, field: str, keys: set, required: tuple = ()) -> None:
    """The key rule of every problem-file object: obj is a JSON object whose
    keys come from keys and include required.  A key is named field.key, or
    alone when field is "file" (the top level)."""
    if not isinstance(obj, dict):
        raise SchemaError(field, "expected an object")
    prefix = "" if field == "file" else f"{field}."
    unknown = sorted(set(obj) - keys)
    if unknown:
        raise SchemaError(prefix + unknown[0], "unknown field")
    for key in required:
        if key not in obj:
            raise SchemaError(prefix + key, "missing")


def _parse_matrix(data, field: str) -> np.ndarray:
    """Rows of [re, im] pairs to a complex matrix: one numpy conversion,
    accepted when it has shape (rows, width, 2), or (rows, 0) when every row
    is empty, every leaf is a JSON number and every entry is finite;
    .view(complex) then holds complex(re, im) exactly.  Any other data is
    rejected by _matrix_fault, which names the first bad entry."""
    if not (isinstance(data, list) and data and all(isinstance(r, list) for r in data)):
        raise SchemaError(field, "expected a non-empty nested array of rows")
    rows, width = len(data), len(data[0])
    try:
        arr = np.array(data, dtype=float)
    except (TypeError, ValueError, OverflowError):
        _matrix_fault(data, field)
    if (
        arr.shape in ((rows, width, 2), (rows, 0))
        and {type(x) for row in data for entry in row for x in entry} <= {int, float}
        and np.isfinite(arr).all()
    ):
        return arr.reshape(rows, width, 2).view(complex)[..., 0]
    _matrix_fault(data, field)


def _matrix_fault(data, field: str) -> NoReturn:
    """Raise the error of the first entry, in row-major order, that keeps the
    non-empty rows data from being a matrix of finite [re, im] pairs."""
    width = len(data[0])
    for i, row in enumerate(data):
        if len(row) != width:
            raise SchemaError(field, f"row {i} has length {len(row)}, expected {width}")
        for j, x in enumerate(row):
            at = f"{field}[{i}][{j}]"
            if not (isinstance(x, list) and len(x) == 2 and all(_is_number(v) for v in x)):
                raise SchemaError(at, "complex entries must be [re, im] pairs of numbers")
            _finite(x[0], at)
            _finite(x[1], at)
    raise AssertionError(f"{field}: _parse_matrix rejected a well-formed matrix")


def _parse_real_vector(data, field: str) -> np.ndarray:
    if not (isinstance(data, list) and data and all(_is_number(v) for v in data)):
        raise SchemaError(field, "expected a non-empty array of numbers")
    return np.asarray([_float(v, field) for v in data], dtype=float)


def _encode_matrix(m) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def _parse_rho(data, tol: Tolerance) -> DensityMatrix:
    if isinstance(data, list) and data and not any(isinstance(v, list) for v in data):
        for i, v in enumerate(data):
            if not _is_number(v):
                raise SchemaError(f"rho[{i}]", "expected a number")
        mat = np.diag([_finite(v, "rho") for v in data]).astype(complex)
    else:
        mat = _parse_matrix(data, "rho")
    try:
        return make_density(mat, tol)
    except DetbalError as exc:
        raise SchemaError("rho", str(exc)) from exc


def _parse_tol(data) -> Tolerance:
    if data is None:
        return DEFAULT_TOL
    _check_object(data, "tol", _TOL_KEYS)
    for key, val in data.items():
        if not _is_number(val) or not math.isfinite(_float(val, f"tol.{key}")) or val <= 0:
            raise SchemaError(f"tol.{key}", "must be a finite positive number")
    return replace(DEFAULT_TOL, **{key: float(val) for key, val in data.items()})


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


def _parse_channel(obj, n: int, tol: Tolerance) -> KrausChannel | SuperOperator:
    """The channel in the user basis: the KrausChannel of a kraus channel, or
    the SuperOperator of a matrix channel."""
    # a non-object takes the first branch, whose key rule rejects it
    kind = obj.get("kind") if isinstance(obj, dict) else "kraus"
    if kind == "kraus":
        _check_object(obj, "channel", {"kind", "data"})
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
        return KrausChannel(tuple(ops))
    if kind == "matrix":
        _check_object(obj, "channel", {"kind", "data", "convention"})
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
        return s
    raise SchemaError("channel.kind", 'expected "kraus" or "matrix"')


def _parse_theta(obj, n: int) -> ReversingOperation:
    if obj is None:
        return transpose_reversing(n)
    # a non-object takes the first branch, whose key rule rejects it
    kind = obj.get("kind") if isinstance(obj, dict) else "transpose"
    if kind == "transpose":
        _check_object(obj, "theta", {"kind"})
        return transpose_reversing(n)
    if kind == "unitary":
        _check_object(obj, "theta", {"kind", "u"})
        u = _parse_matrix(obj.get("u"), "theta.u")
        if u.shape != (n, n):
            raise SchemaError("theta.u", f"expected a {n}x{n} matrix, got {u.shape}")
        return make_reversing(u)
    raise SchemaError("theta.kind", 'expected "transpose" or "unitary"')


def _to_eigenbasis(rho, channel, theta):
    """The channel (as _parse_channel returns it) as a SuperOperator in rho's
    eigenbasis, and the reversing operation conjugated along: Kraus operators
    op become v^dag op v before the one from_kraus; a matrix channel M becomes
    pi_rep(v^dag, v^T) M pi_rep(v, conj v).  v is eigh's unitary basis, so
    the rotated operators keep their shape and the rotated u = v^dag u conj(v)
    stays unitary with u conj(u) a phase: both are built, not re-validated."""
    v = rho.basis
    if np.array_equal(v, np.eye(rho.n)):
        return (channel if isinstance(channel, SuperOperator) else from_kraus(channel)), theta
    if isinstance(channel, SuperOperator):
        mat = _kron_sandwich(channel.mat, rho.n, v.conj().T, v.T, v, v.conj())
        tau = SuperOperator(rho.n, mat)
    else:
        tau = from_kraus(KrausChannel(tuple(v.conj().T @ op @ v for op in channel.ops)))
    return tau, ReversingOperation(u=v.conj().T @ theta.u @ v.conj())


def parse_problem(path: str) -> ParsedProblem:
    """Read, validate and basis-normalize a problem file."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError("file", str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise SchemaError("file", f"invalid JSON: {exc}") from exc
    # a non-object takes the quantum branch, whose key rule rejects it
    kind = raw.get("kind", "quantum") if isinstance(raw, dict) else "quantum"
    if kind == "quantum":
        _check_object(raw, "file", _QUANTUM_KEYS, ("rho", "channel"))
        tol = _parse_tol(raw.get("tol"))
        powers = _parse_powers(raw.get("time_powers"))
        rho = _parse_rho(raw["rho"], tol)
        channel = _parse_channel(raw["channel"], rho.n, tol)
        theta = _parse_theta(raw.get("theta"), rho.n)
        tau, theta = _to_eigenbasis(rho, channel, theta)
        return ParsedProblem(
            kind="quantum", tol=tol, powers=powers, rho=rho, tau=tau, theta=theta
        )
    if kind == "classical":
        _check_object(raw, "file", _CLASSICAL_KEYS, ("p", "gamma"))
        tol = _parse_tol(raw.get("tol"))
        powers = _parse_powers(raw.get("time_powers"))
        p = _parse_real_vector(raw["p"], "p")
        gamma = raw["gamma"]
        if not (isinstance(gamma, list) and all(isinstance(r, list) for r in gamma)):
            raise SchemaError("gamma", "expected a nested array of rows")
        rows = [_parse_real_vector(r, f"gamma[{i}]") for i, r in enumerate(gamma)]
        try:
            chain = make_chain(p, np.asarray(rows))
        except NotStochastic as exc:
            raise SchemaError(exc.argument, str(exc)) from exc
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


def _quantum_power_payload(report: BalanceReport, power: int) -> dict:
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
    if report.tfd_agrees is not None:
        checks["db2_tfd"] = _check_payload(report.db2_tfd)
        checks["sqdb_tfd"] = _check_payload(report.sqdb_tfd)
        entry["tfd_agrees"] = bool(report.tfd_agrees)
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
            report = run_report(tau_k, parsed.rho, parsed.theta, parsed.tol, mode, tfd)
            reports.append(_quantum_power_payload(report, k))
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
            # p and gamma passed make_chain at parse; the row sums of gamma^k
            # drift from 1 by rounding alone, more with every power
            gamma_k = np.linalg.matrix_power(parsed.chain.gamma, k)
            chain_k = ClassicalChain(parsed.chain.p, gamma_k)
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
    if family in ("metropolis", "cycle"):
        n = 3 if n is None else n
        chain = metropolis_chain(n, seed) if family == "metropolis" else cycle_chain(n)
        return {
            "kind": "classical",
            "p": [float(x) for x in chain.p],
            "gamma": [[float(x) for x in row] for row in chain.gamma],
            "time_powers": [1],
        }
    if family == "gad-sqdb":
        if n not in (None, 2):
            raise SchemaError("--n", f"gad-sqdb is a qubit family, n must be 2, got {n}")
        diag, ops = [p, 1.0 - p], gad_kraus(p, s).ops
    elif family in ("schur-db2", "random-unital"):
        n = 2 if n is None else n
        diag = [float(x) for x in random_density(n, seed=seed).diag]
        if family == "schur-db2":
            ops = schur_kraus(schur_multiplier_matrix(n, seed)).ops
        else:
            ops = random_unital_kraus(n, k, seed).ops
    else:
        raise SchemaError("family", f"unknown family {family!r}")
    return {
        "kind": "quantum",
        "rho": diag,
        "channel": {"kind": "kraus", "data": [_encode_matrix(v) for v in ops]},
        "theta": {"kind": "transpose"},
        "time_powers": [1],
    }


def _cmd_generate(args) -> int:
    payload = generate_payload(args.family, args.n, args.k, args.p, args.s, args.seed)
    text = _render_json(payload)
    if args.out is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise SchemaError("--out", str(exc)) from exc
    return 0


@functools.cache  # parse_args keeps no state between calls: one parser per process
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
