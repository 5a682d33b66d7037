"""Seeded inputs of the detbal benchmark workloads and their known verdicts.

Every input is drawn from numpy generators seeded by the --seed argument
alone, through detbal's public generators.  A workload is written to a
directory as a manifest plus one file per problem:

  pool-small    CLI problem files (JSON) for every controlled family at
                n <= 4, each quantum file followed by a rotated twin that
                describes the same problem in a random basis
  large-db2     .npz inputs for run_report and the two mirror checks on
                standard-balanced channels at n in {8, 10, 12}: schur-db2
                at 8 and 12, degenerate-db2 at 10
  dense-unital  .npz inputs for the same calls on random unital channels
                with a dense Choi matrix at n in {6, 8}

The manifest records each problem's family, dimension, known labels and,
for twins, the problem it must agree with.
"""

from __future__ import annotations

import json
import os

import numpy as np

import detbal

WORKLOADS = ("pool-small", "large-db2", "dense-unital")

# Known verdicts, proved by construction in detbal.generators:
# quantum families map to (db2, sqdb), classical ones to balanced.
LABELS = {
    "schur-db2": (True, True),
    "gad-sqdb": (False, True),
    "symmetrized-sqdb": (False, True),
    "degenerate-db2": (True, False),
    "random-unital": (False, False),
    "metropolis": True,
    "cycle": False,
}

POWERS = [1, 2]
KRAUS_RANK = 3


def expected(family: str, n: int, power: int):
    """Known verdict of a family at a time power.

    Balance of either kind survives powers, and the negative controls stay
    negative, except that the n-cycle to the power k is the shift by k,
    which is reversible exactly when it is an involution (2k = 0 mod n).
    """
    if family == "cycle":
        return (2 * power) % n == 0
    return LABELS[family]


def _enc(m) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _sub_seed(rng) -> int:
    return int(rng.integers(2**31 - 1))


def _degenerate_spectrum(rng, n: int) -> list[float]:
    """Descending spectrum whose values come in equal pairs (one single
    value at odd n), with gaps between distinct values of at least 1e-3."""
    mults = [2] * (n // 2) + [1] * (n % 2)
    while True:
        weights = 0.2 / len(mults) + 0.8 * rng.dirichlet(np.ones(len(mults)))
        values = [float(w / m) for w, m in zip(weights, mults)]
        order = sorted(range(len(values)), key=lambda i: -values[i])
        values = [values[i] for i in order]
        mults = [mults[i] for i in order]
        if all(a - b > 1e-3 for a, b in zip(values, values[1:])):
            break
    spectrum = [v for v, m in zip(values, mults) for _ in range(m)]
    # fold the rounding error of the normalization into the top pair
    spectrum[0] += (1.0 - sum(spectrum)) / mults[0]
    if mults[0] == 2:
        spectrum[1] = spectrum[0]
    return spectrum


def _quantum(rng, family: str, n: int):
    """(rho diagonal, kraus ops or None, superoperator matrix) in rho's eigenbasis."""
    if family == "schur-db2":
        rho = detbal.random_density(n, seed=_sub_seed(rng))
        ops = detbal.schur_kraus(detbal.schur_multiplier_matrix(n, _sub_seed(rng))).ops
        return rho.diag, ops, detbal.from_kraus(ops).mat
    if family == "random-unital":
        rho = detbal.random_density(n, seed=_sub_seed(rng))
        ops = detbal.random_unital_kraus(n, KRAUS_RANK, _sub_seed(rng)).ops
        return rho.diag, ops, detbal.from_kraus(ops).mat
    if family == "gad-sqdb":
        p = float(rng.uniform(0.55, 0.9))
        s = float(rng.uniform(0.05, 0.95)) * (1.0 - p) / p
        ops = detbal.gad_kraus(p, s).ops
        return np.array([p, 1.0 - p]), ops, detbal.from_kraus(ops).mat
    if family == "symmetrized-sqdb":
        p = float(rng.uniform(0.55, 0.9))
        s = float(rng.uniform(0.05, 0.95)) * (1.0 - p) / p
        tau, rho = detbal.symmetrized_sqdb_channel(p, s, phi=float(rng.uniform(0.3, 1.3)))
        return rho.diag, None, tau.mat
    if family == "degenerate-db2":
        tau, rho = detbal.degenerate_db2_channel(
            _sub_seed(rng), spectrum=_degenerate_spectrum(rng, n)
        )
        return rho.diag, None, tau.mat
    raise ValueError(f"unknown quantum family {family!r}")


def _problem_file(rho_diag, ops, mat, v=None) -> dict:
    """CLI problem payload; with a unitary v, the same problem in the basis v.

    The twin has rho = v D v^dag, the channel conjugated by v and the
    transpose carried along as the reversing unitary u = v v^T.
    """
    theta = {"kind": "transpose"}
    if v is None:
        rho = [float(x) for x in rho_diag]
    else:
        m = v @ np.diag(rho_diag) @ v.conj().T
        rho = _enc(0.5 * (m + m.conj().T))
        theta = {"kind": "unitary", "u": _enc(v @ v.T)}
        if ops is not None:
            ops = [v @ k @ v.conj().T for k in ops]
        else:
            mat = np.kron(v.conj(), v) @ mat @ np.kron(v.T, v.conj().T)
    if ops is not None:
        channel = {"kind": "kraus", "data": [_enc(k) for k in ops]}
    else:
        channel = {"kind": "matrix", "convention": "column-stacking", "data": _enc(mat)}
    return {
        "kind": "quantum",
        "rho": rho,
        "channel": channel,
        "theta": theta,
        "time_powers": POWERS,
    }


def _chain_file(chain) -> dict:
    return {
        "kind": "classical",
        "p": [float(x) for x in chain.p],
        "gamma": [[float(x) for x in row] for row in chain.gamma],
        "time_powers": POWERS,
    }


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)


def _pool_small(rng, out: str, max_n: int) -> list[dict]:
    sizes = [n for n in (2, 3, 4) if n <= max_n]
    plan = (
        [("schur-db2", n) for n in sizes for _ in range(2)]
        + [("random-unital", n) for n in sizes for _ in range(2)]
        + [("degenerate-db2", n) for n in sizes for _ in range(2)]
        + [("gad-sqdb", 2)] * 3
        + [("symmetrized-sqdb", 2)] * 3
    )
    problems = []
    for idx, (family, n) in enumerate(plan):
        rho_diag, ops, mat = _quantum(rng, family, n)
        v = detbal.random_unitary(n, _sub_seed(rng))
        pid = f"{idx:03d}-{family}-n{n}"
        # alternate the twin's channel encoding where a Kraus form exists,
        # so both parse paths (Kraus and column-stacking matrix) run
        twin_ops = ops if idx % 2 == 0 else None
        for suffix, payload in (
            ("", _problem_file(rho_diag, ops, mat)),
            ("-twin", _problem_file(rho_diag, twin_ops, mat, v)),
        ):
            _write_json(os.path.join(out, pid + suffix + ".json"), payload)
            problems.append(
                {
                    "id": pid + suffix,
                    "file": pid + suffix + ".json",
                    "family": family,
                    "kind": "quantum",
                    "n": n,
                    "twin_of": pid if suffix else None,
                }
            )
    chains = [("metropolis", n) for n in sizes] + [("cycle", n) for n in sizes if n >= 3]
    for idx, (family, n) in enumerate(chains, start=len(plan)):
        chain = (
            detbal.metropolis_chain(n, _sub_seed(rng))
            if family == "metropolis"
            else detbal.cycle_chain(n)
        )
        pid = f"{idx:03d}-{family}-n{n}"
        _write_json(os.path.join(out, pid + ".json"), _chain_file(chain))
        problems.append(
            {
                "id": pid,
                "file": pid + ".json",
                "family": family,
                "kind": "classical",
                "n": n,
                "twin_of": None,
            }
        )
    return problems


def _api_workload(rng, out: str, plan) -> list[dict]:
    problems = []
    for idx, (family, n) in enumerate(plan):
        rho_diag, _, mat = _quantum(rng, family, n)
        pid = f"{idx:03d}-{family}-n{n}"
        np.savez(os.path.join(out, pid + ".npz"), rho=rho_diag, tau=mat)
        problems.append(
            {
                "id": pid,
                "file": pid + ".npz",
                "family": family,
                "kind": "quantum",
                "n": n,
                "twin_of": None,
            }
        )
    return problems


def generate(workload: str, seed: int, out: str, max_n: int | None = None) -> None:
    """Write the workload's inputs for seed into the directory out.

    max_n (smoke runs only) swaps each size list for sizes <= max_n.
    """
    rng = np.random.default_rng(seed)
    cap = 99 if max_n is None else max_n
    if workload == "pool-small":
        problems = _pool_small(rng, out, min(cap, 4))
    elif workload == "large-db2":
        # one problem per size, the families alternating, so that a run
        # repeats each problem often enough for its median to be steady
        sizes = (8, 10, 12) if max_n is None else tuple(n for n in (2, 3) if n <= cap)
        families = ("schur-db2", "degenerate-db2")
        plan = [(families[i % 2], n) for i, n in enumerate(sizes)]
        problems = _api_workload(rng, out, plan)
    elif workload == "dense-unital":
        sizes = (6, 8) if max_n is None else tuple(n for n in (2, 3) if n <= cap)
        plan = [("random-unital", n) for n in sizes for _ in range(2)]
        problems = _api_workload(rng, out, plan)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    _write_json(
        os.path.join(out, "manifest.json"),
        {"workload": workload, "seed": seed, "powers": POWERS, "problems": problems},
    )
