"""Smoke test of the benchmark harness: one tiny pass per workload.

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(root: str, workload: str, trace: int):
    cmd = [
        sys.executable, os.path.join(root, "bench", "run.py"),
        "--workload", workload, "--seed", "7", "--seconds", "0",
        "--trace", str(trace), "--max-n", "3",
    ]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_pass_emits_every_metric_and_no_failure(workload, trace):
    out = _run(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
    # fail_share = failed / attempted must be 0
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    assert result["correct"] is True
    stamp = json.loads(out.stdout.strip().splitlines()[-2])["stamp"]
    assert stamp["fail_share"] == 0.0
    assert stamp["seed"] == 7 and stamp["blas_env"]["OPENBLAS_NUM_THREADS"] == "1"


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(str(tmp_path), "pool-small", 0)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
