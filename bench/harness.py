"""Problem execution, the correctness gate, and the traced replay.

Runner executes one problem the way a user would: `detbal.cli.main` on a
problem file for pool-small, and run_report, check_db2_tfd and
check_sqdb_tfd for large-db2 and dense-unital.  Every execution is checked
against the problem's known labels, the `consistency` flag, agreement of
the mirror checks (`tfd_agrees`) and, for rotated twins, equality of every
verdict with the unrotated problem.  No problem is ever skipped.

trace() times public calls from outside the package.  Path spans partition
the end-to-end call; each `check_*` and mirror check is timed separately and
its self time is its duration minus that of `require_dynamics` on the same
input.  require_dynamics itself runs once per public entry point on the path
(run_report, check_db2_tfd, check_sqdb_tfd), so its self time counts three
calls per (problem, power); it is timed three times per input and the
median is the baseline subtracted from each check.  Probe spans split path spans further; each
probe is timed once per input and is left out of trace.coverage.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import statistics
import time
import traceback

import numpy as np

import workloads

PATH_SPANS = (
    "cli.parse_problem",
    "cli.render",
    "balance.require_dynamics",
    "balance.db2_definition",
    "balance.db2_modular",
    "balance.db2_entangled",
    "balance.sqdb_definition",
    "balance.sqdb_entangled",
    "thermofield.db2_tfd",
    "thermofield.sqdb_tfd",
    "balance.classical",
)
PROBE_SPANS = (
    "linalg.hermitian_eig_choi",
    "linalg.hermitian_eig_state",
    "superop.choi",
    "superop.is_completely_positive",
    "superop.is_hermitian_map",
    "duals.rho_dual",
    "duals.kms_dual",
    "duals.make_reversing",
    "states.make_density",
)
# span that each recorded call belongs to on the end-to-end path
PARENT = {
    "cli.parse_problem": "cli.main",
    "cli.run_checks": "cli.main",
    "balance.require_dynamics": "path",
    "balance.check_db2_definition": "path",
    "balance.check_db2_modular": "path",
    "balance.check_db2_entangled": "path",
    "balance.check_sqdb_definition": "path",
    "balance.check_sqdb_entangled": "path",
    "thermofield.check_db2_tfd": "path",
    "thermofield.check_sqdb_tfd": "path",
    "balance.classical": "cli.run_checks",
    "linalg.hermitian_eig_choi": "balance.require_dynamics",
    "superop.choi": "balance.require_dynamics",
    "superop.is_completely_positive": "balance.require_dynamics",
    "duals.rho_dual": "balance.db2_definition",
    "duals.kms_dual": "balance.sqdb_definition",
    "linalg.hermitian_eig_state": "cli.parse_problem",
    "states.make_density": "cli.parse_problem",
    "superop.is_hermitian_map": "cli.parse_problem",
    "duals.make_reversing": "cli.parse_problem",
}
# check calls whose self time is their duration minus require_dynamics
SUBTRACTED = {
    "balance.check_db2_definition": "balance.db2_definition",
    "balance.check_db2_modular": "balance.db2_modular",
    "balance.check_db2_entangled": "balance.db2_entangled",
    "balance.check_sqdb_definition": "balance.sqdb_definition",
    "balance.check_sqdb_entangled": "balance.sqdb_entangled",
    "thermofield.check_db2_tfd": "thermofield.db2_tfd",
    "thermofield.check_sqdb_tfd": "thermofield.sqdb_tfd",
}
REQUIRE_CALLS_PER_POWER = 3
# require_dynamics is timed this often per input; the median is the baseline
REQUIRE_REPEATS = 3


def _dec(m) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


class Runner:
    """Loads a workload's inputs, runs problems and keeps the failure count."""

    def __init__(self, detbal, inputs: str):
        self.detbal = detbal
        with open(os.path.join(inputs, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        self.cli_mode = manifest["workload"] == "pool-small"
        self.problems = manifest["problems"]
        self.paths = {p["id"]: os.path.join(inputs, p["file"]) for p in self.problems}
        self.api_inputs = {}
        if not self.cli_mode:
            for p in self.problems:
                with np.load(self.paths[p["id"]]) as z:
                    self.api_inputs[p["id"]] = (
                        detbal.SuperOperator(p["n"], z["tau"]),
                        detbal.make_density(np.diag(z["rho"])),
                        detbal.transpose_reversing(p["n"]),
                    )
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._signatures: dict[str, object] = {}

    def run(self, p):
        """The end-to-end call for one problem; returns its raw outputs."""
        d = self.detbal
        if self.cli_mode:
            argv = ["check", self.paths[p["id"]], "--format", "json"]
            if p["kind"] == "quantum":
                argv.append("--tfd")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = d.cli.main(argv)
            return code, out.getvalue(), err.getvalue()
        tau, rho, th = self.api_inputs[p["id"]]
        return (
            d.run_report(tau, rho, th),
            d.check_db2_tfd(tau, rho),
            d.check_sqdb_tfd(tau, rho, th),
        )

    def timed(self, p) -> float:
        """Run one problem, check its outputs, and return its wall time."""
        gc.collect()  # every problem starts from the same collector state
        t0 = time.perf_counter()
        try:
            result = self.run(p)
        except Exception as exc:  # a crash is a failed problem, not a failed run
            result = exc
        dt = time.perf_counter() - t0
        self._check(p, result)
        return dt

    def _check(self, p, result) -> None:
        self.attempted += 1
        if isinstance(result, Exception):
            tb = traceback.format_exception_only(type(result), result)[-1].strip()
            reasons, sig = [f"raised {tb}"], None
        elif self.cli_mode:
            reasons, sig = self._check_cli(p, *result)
        else:
            reasons, sig = self._check_api(p, *result)
        twin_of = p["twin_of"]
        if twin_of is not None and sig is not None:
            base = self._signatures.get(twin_of)
            if base is not None and base != sig:
                reasons.append(f"verdicts differ from {twin_of}: {sig} vs {base}")
        self._signatures[p["id"]] = sig
        if reasons:
            self.failed += 1
            self.failures.append(f"{p['id']}: " + "; ".join(reasons))

    def _check_cli(self, p, code, out, err):
        if code != 0:
            return [f"exit {code}: {err.strip()[:300]}"], None
        payload = json.loads(out)
        reasons, sig = [], [payload.get("degenerate_rho")]
        powers = [rep["power"] for rep in payload["reports"]]
        if powers != workloads.POWERS:
            reasons.append(f"powers {powers}, expected {workloads.POWERS}")
        for rep in payload["reports"]:
            k = rep["power"]
            want = workloads.expected(p["family"], p["n"], k)
            if p["kind"] == "classical":
                if rep["balanced"] != want:
                    reasons.append(f"power {k}: balanced {rep['balanced']}, expected {want}")
            else:
                got = (rep["db2"], rep["sqdb"])
                if got != want:
                    reasons.append(f"power {k}: (db2, sqdb) {got}, expected {want}")
                if rep.get("tfd_agrees") is not True:
                    reasons.append(f"power {k}: tfd_agrees {rep.get('tfd_agrees')}")
            if rep["consistency"] is not True:
                reasons.append(f"power {k}: consistency broken")
            checks = tuple(sorted((name, c["passed"]) for name, c in rep["checks"].items()))
            sig.append((k, rep.get("db2"), rep.get("sqdb"), rep["consistency"],
                        rep.get("tfd_agrees"), checks))
        return reasons, sig

    def _check_api(self, p, report, db2_tfd, sqdb_tfd):
        want = workloads.expected(p["family"], p["n"], 1)
        got = (report.db2, report.sqdb)
        reasons = []
        if got != want:
            reasons.append(f"(db2, sqdb) {got}, expected {want}")
        if not report.consistency:
            reasons.append("consistency broken")
        if (db2_tfd.passed != report.db2_entangled.passed
                or sqdb_tfd.passed != report.sqdb_definition.passed):
            reasons.append(f"tfd disagrees: db2_tfd {db2_tfd.passed}, "
                           f"sqdb_tfd {sqdb_tfd.passed}")
        return reasons, got

    def replay(self, p, rec: "Recorder") -> None:
        """Traced replay of one problem as separately timed public calls."""
        d = self.detbal
        pid = p["id"]
        if not self.cli_mode:
            tau, rho, th = self.api_inputs[pid]
            self._replay_checks(rec, (pid, 1), p["n"], tau, rho, th, d.DEFAULT_TOL)
            return
        path = self.paths[pid]
        quantum = p["kind"] == "quantum"
        rec.call("cli.main", (pid, 0), self.run, p)
        parsed = rec.call("cli.parse_problem", (pid, 0), d.cli.parse_problem, path)
        rec.call("cli.run_checks", (pid, 0), d.cli.run_checks, parsed, tfd=quantum)
        if not quantum:
            for k in parsed.powers:
                chain = d.make_chain(parsed.chain.p,
                                     np.linalg.matrix_power(parsed.chain.gamma, k))
                rec.call("balance.classical", (pid, k), _classical, d, chain, parsed.tol)
            return
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        n = parsed.rho.n
        rho_user = raw["rho"]
        rho_user = (np.diag(np.asarray(rho_user, dtype=complex))
                    if not isinstance(rho_user[0], list) else _dec(rho_user))
        key = (pid, 0)
        rec.call("states.make_density", key, d.make_density, rho_user, parsed.tol)
        rec.call("linalg.hermitian_eig_state", key, d.hermitian_eig, rho_user)
        if raw["channel"]["kind"] == "matrix":
            user_tau = d.SuperOperator(n, _dec(raw["channel"]["data"]))
            rec.call("superop.is_hermitian_map", key, d.is_hermitian_map, user_tau, parsed.tol)
        if raw["theta"]["kind"] == "unitary":
            rec.call("duals.make_reversing", key, d.make_reversing, _dec(raw["theta"]["u"]))
        for k in parsed.powers:
            tau_k = parsed.tau if k == 1 else parsed.tau.power(k)
            self._replay_checks(rec, (pid, k), n, tau_k, parsed.rho, parsed.theta, parsed.tol)

    def _replay_checks(self, rec, key, n, tau, rho, th, tol) -> None:
        d = self.detbal
        rec.sizes[key] = n
        for _ in range(REQUIRE_REPEATS):
            rec.call("balance.require_dynamics", key, d.require_dynamics, tau, rho, tol)
        for name in ("check_db2_definition", "check_db2_modular", "check_db2_entangled"):
            rec.call("balance." + name, key, getattr(d, name), tau, rho, tol)
        for name in ("check_sqdb_definition", "check_sqdb_entangled"):
            rec.call("balance." + name, key, getattr(d, name), tau, rho, th, tol)
        rec.call("thermofield.check_db2_tfd", key, d.check_db2_tfd, tau, rho, tol)
        rec.call("thermofield.check_sqdb_tfd", key, d.check_sqdb_tfd, tau, rho, th, tol)
        c = rec.call("superop.choi", key, d.choi, tau).mat
        rec.call("linalg.hermitian_eig_choi", key, d.hermitian_eig, 0.5 * (c + c.conj().T))
        rec.call("superop.is_completely_positive", key, d.is_completely_positive, tau, tol)
        rec.call("duals.rho_dual", key, d.rho_dual, tau, rho)
        rec.call("duals.kms_dual", key, d.kms_dual, tau, rho)


def _classical(d, chain, tol):
    return d.classical_detailed_balance(chain, tol), d.classical_phi_balance(chain, tol)


class Recorder:
    """In-memory spans of timed public calls, keyed by (problem, power)."""

    def __init__(self):
        self.spans: list[tuple[str, tuple, float, float]] = []
        self.sizes: dict[tuple, int] = {}

    def call(self, name: str, key: tuple, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.spans.append((name, key, t0, time.perf_counter()))
        return out

    def metrics(self, untraced_pass_s: float) -> dict[str, tuple[float, str]]:
        dur: dict[tuple, list[float]] = {}
        for name, key, t0, t1 in self.spans:
            dur.setdefault((name, key), []).append(t1 - t0)
        # the baseline subtracted from every check on the same input
        req = {key: statistics.median(ts) for (name, key), ts in dur.items()
               if name == "balance.require_dynamics"}
        self_s = dict.fromkeys(PATH_SPANS + PROBE_SPANS, 0.0)
        calls = dict.fromkeys(PATH_SPANS + PROBE_SPANS, 0)
        for (name, key), ts in dur.items():
            t = sum(ts)
            if name in SUBTRACTED:
                self_s[SUBTRACTED[name]] += t - req[key]
                calls[SUBTRACTED[name]] += 1
            elif name == "balance.require_dynamics":
                self_s[name] += REQUIRE_CALLS_PER_POWER * req[key]
                calls[name] += REQUIRE_CALLS_PER_POWER
            elif name == "cli.main":
                self_s["cli.render"] += (t - sum(dur[("cli.parse_problem", key)])
                                         - sum(dur[("cli.run_checks", key)]))
                calls["cli.render"] += 1
            elif name == "balance.classical":
                self_s[name] += t
                calls[name] += 2
            elif name in self_s:
                self_s[name] += t
                calls[name] += len(ts)
        pairs = sum(n**4 for n in self.sizes.values())
        out = {}
        for span in PATH_SPANS + PROBE_SPANS:
            out[f"{span}.self_s"] = (self_s[span], "s")
            out[f"{span}.calls"] = (calls[span], "count")
        out["trace.coverage"] = (
            sum(self_s[s] for s in PATH_SPANS) / untraced_pass_s, "ratio")
        out["balance.entangled_ns_per_pair"] = (
            1e9 * self_s["balance.db2_entangled"] / pairs if pairs else 0.0, "ns")
        return out

    def dump(self, path: str) -> None:
        origin = self.spans[0][2] if self.spans else 0.0
        rows = [
            {"name": name, "parent": PARENT.get(name, "path"), "problem": key[0],
             "power": key[1], "start_s": t0 - origin, "end_s": t1 - origin}
            for name, key, t0, t1 in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)


def trace(runner: Runner, args, root: str) -> tuple[dict, dict]:
    """One untraced pass for the coverage base, then one traced replay."""
    runner.run(runner.problems[0])  # untimed warm-up, as in the measured runs
    untraced = sum(runner.timed(p) for p in runner.problems)
    rec = Recorder()
    for p in runner.problems:
        runner.replay(p, rec)
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    rec.dump(os.path.join(out_dir, f"spans-{args.workload}-s{args.seed}.json"))
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in rec.metrics(untraced).items()}
    info = {"untraced_pass_s": untraced, "spans": len(rec.spans)}
    return metrics, info
