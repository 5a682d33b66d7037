"""detbal benchmark: verdict latency on seeded workloads, checked for correctness.

    python3 bench/run.py --workload pool-small --seed 1 --seconds 35 --trace 0

One closed-loop client in one process calls detbal through its public API
only: `detbal.cli.main` on problem files for pool-small, and `run_report`
plus the two mirror checks for large-db2 and dense-unital.  BLAS runs on one
thread.  Latencies and set-up time are scaled to a fixed reference speed
(see REF_NOMINAL_S).  With --trace 0 the last stdout line carries the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
traced replay (see harness.py).  The line before it stamps the run with its provenance.  See
README.md for the metrics and what each workload is for.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 5

# A shared host's speed can drift by up to 2x for minutes at a time, also
# with nothing else running, and no statistic inside one run removes that.
# So the measured loop times a fixed reference computation, independent of
# detbal, at least every REF_EVERY_S, and scales each problem's time by
# REF_NOMINAL_S over the reference time around it: the latency metrics are
# in seconds at the speed at which the reference takes REF_NOMINAL_S (its
# typical time on a 2-vCPU Intel Xeon VM).  Likewise each set-up is scaled
# by START_NOMINAL_S over the start-up time of a fresh interpreter that only
# imports numpy, taken just before and just after it.  The wall-clock values
# go in the stamp.
REF_NOMINAL_S = 0.020
REF_EVERY_S = 0.25
START_NOMINAL_S = 0.17
_REF_SMALL = (np.arange(64).reshape(8, 8) % 7 + 1j * (np.arange(64).reshape(8, 8) % 5)) / 16
# 288 matrices of 12 x 12, about 0.66 MB: the working set of the n = 12 pair loops
_REF_SET = [m[0] + 1j * m[1] for m in np.random.default_rng(0).standard_normal((288, 2, 12, 12))]


def _import_detbal():
    """Import detbal from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "detbal", "__init__.py")):
        sys.exit(f"error: no detbal sources under {SRC}")
    sys.path.insert(0, SRC)
    import detbal
    import detbal.cli

    if not os.path.abspath(detbal.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: detbal imported from {detbal.__file__}, not {SRC}")
    return detbal


def _parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-n", type=int, default=None, help="smoke runs: tiny sizes")
    ap.add_argument("--setup-into", default=None, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _digest(path: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode())
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _reference_s() -> float:
    """Wall time of a fixed computation shaped like detbal's inner loops:
    scalar indexing and products of a small complex array (the Jacobi
    sweeps and small problems), then two-copy traces over a set of 12 x 12
    matrices (the pair loops at large n)."""
    a, ms = _REF_SMALL, _REF_SET
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(6000):
        p = i % 7
        acc += abs(a[p, p + 1]) + a[p, p].real
        if i % 8 == 0:
            acc += float(np.abs(a @ a).sum())
    r = ms[0]
    for i in range(600):
        x, y = ms[i * 37 % 288], ms[(i * 101 + 7) % 288]
        acc += abs(complex(np.trace(r.conj().T @ x @ r @ y.T)))
    return time.perf_counter() - t0


class Clock:
    """Reference timings taken during a run, and the scaling they give."""

    def __init__(self):
        self.at: list[float] = []
        self.ref: list[float] = []

    def tick(self) -> None:
        self.at.append(time.perf_counter())
        self.ref.append(_reference_s())

    def due(self) -> bool:
        return not self.at or time.perf_counter() - self.at[-1] >= REF_EVERY_S

    def scale(self, start: float, dt: float) -> float:
        """dt, taken from start, at the reference speed: scaled by
        REF_NOMINAL_S over the median of the two reference times before it
        and the two after it."""
        i = bisect.bisect_left(self.at, start)
        j = bisect.bisect_left(self.at, start + dt)
        near = self.ref[max(0, i - 2):i] + self.ref[j:j + 2]
        return dt * REF_NOMINAL_S / statistics.median(near)


def _start_s() -> float:
    """Wall time of a fresh interpreter that imports numpy, not detbal."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=120)
    return time.perf_counter() - t0


def _setup(args, work: str) -> tuple[list[float], list[float], str, bool]:
    """Time SETUP_REPS fresh interpreters that import detbal and write the
    inputs, with _start_s() before the first and after each; returns both
    lists of times, the input directory kept, and whether every repetition
    wrote the same bytes."""
    times, starts, digests = [], [_start_s()], []
    for rep in range(SETUP_REPS):
        out = os.path.join(work, f"setup-{rep}")
        os.makedirs(out)
        cmd = [
            sys.executable, os.path.join(BENCH_DIR, "run.py"),
            "--workload", args.workload, "--seed", str(args.seed), "--setup-into", out,
        ]
        if args.max_n is not None:
            cmd += ["--max-n", str(args.max_n)]
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
        starts.append(_start_s())
        digests.append(_digest(out))
        if rep:
            shutil.rmtree(os.path.join(work, f"setup-{rep - 1}"))
    return times, starts, out, len(set(digests)) == 1


def _tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten values beyond it, and its rank
    as a percentile; the maximum (100) when there are ten values or fewer."""
    v = sorted(values)
    if len(v) <= 10:
        return v[-1], 100.0
    k = len(v) - 10
    return v[k - 1], 100.0 * k / len(v)


def _measure(runner, seconds: float, clock: Clock) -> dict[str, list[tuple[float, float]]]:
    """Closed loop over the problems: one full pass, then further problems in
    order until the time is up, with reference timings in between.  Returns
    (start, wall time) of each execution per problem id."""
    runner.run(runner.problems[0])  # untimed warm-up of first-call paths
    samples = {p["id"]: [] for p in runner.problems}
    deadline = time.perf_counter() + seconds
    done = 0
    while done < len(runner.problems) or time.perf_counter() < deadline:
        if clock.due():
            clock.tick()
        p = runner.problems[done % len(runner.problems)]
        t0 = time.perf_counter()
        samples[p["id"]].append((t0, runner.timed(p)))
        done += 1
    clock.tick()
    clock.tick()
    return samples


def _latencies(runner, samples, scale) -> tuple[float, dict]:
    """The tail's percentile and the latency metrics, each time passed
    through scale(start, dt)."""
    med = {pid: statistics.median(scale(*x) for x in s) for pid, s in samples.items()}
    n_max = max(p["n"] for p in runner.problems)
    at_max = [med[p["id"]] for p in runner.problems if p["n"] == n_max]
    tail, pct = _tail(list(med.values()))
    return pct, {
        "problems_per_s": (len(med) / sum(med.values()), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(med.values()), "ms"),
        "latency_tail_ms": (1e3 * tail, "ms"),
        "latency_nmax_p50_ms": (1e3 * statistics.median(at_max), "ms"),
    }


def _end_to_end(runner, samples, setup_times, starts, clock: Clock) -> tuple[dict, dict]:
    pct, scaled = _latencies(runner, samples, clock.scale)
    _, wall = _latencies(runner, samples, lambda start, dt: dt)
    wall["setup_s"] = (statistics.median(setup_times), "s")
    setup_s = statistics.median(
        t * START_NOMINAL_S / (0.5 * (a + b))
        for t, a, b in zip(setup_times, starts, starts[1:]))
    values = {
        "setup_s": (setup_s, "s"),
        **scaled,
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    n_max = max(p["n"] for p in runner.problems)
    at_max = [p for p in runner.problems if p["n"] == n_max]
    counts = [len(s) for s in samples.values()]
    info = {
        "wall": {k: v for k, (v, _) in wall.items()},
        "reference_s": {
            "nominal": REF_NOMINAL_S,
            "median": statistics.median(clock.ref),
            "min": min(clock.ref),
            "max": max(clock.ref),
            "count": len(clock.ref),
        },
        "start_s": {"nominal": START_NOMINAL_S, "median": statistics.median(starts)},
        "latency_tail_percentile": round(pct, 2),
        "n_max": n_max,
        "samples": {
            "setup_s": len(setup_times),
            "problems_per_s": len(samples),
            "latency_p50_ms": len(samples),
            "latency_tail_ms": len(samples),
            "latency_nmax_p50_ms": len(at_max),
            "peak_rss_mb": 1,
        },
        "repeats_per_problem": [min(counts), max(counts)],
        "timed_runs": sum(counts),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, info


def _git_commit() -> str | None:
    """HEAD of a git checkout at ROOT, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(loose):
        with open(loose, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "detbal")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or "unknown"


def _blas_threads(np) -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, if it has one."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _stamp(args, np, extra: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _git_commit(),
        "src_sha256": _src_digest(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "blas_threads": _blas_threads(np),
        "blas_env": {v: os.environ[v] for v in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "clients": 1,
        "loop": "closed",
        **extra,
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    detbal = _import_detbal()
    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.setup_into is not None:
        workloads.generate(args.workload, args.seed, args.setup_into, args.max_n)
        return 0

    # turn SIGTERM into SystemExit so the finally below removes the inputs
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-s{args.seed}-p{os.getpid()}")
    os.makedirs(work)
    try:
        setup_times, starts, inputs, deterministic = _setup(args, work)
        runner = harness.Runner(detbal, inputs)
        if args.trace:
            metrics, info = harness.trace(runner, args, ROOT)
        else:
            clock = Clock()
            samples = _measure(runner, args.seconds, clock)
            metrics, info = _end_to_end(runner, samples, setup_times, starts, clock)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        parent = os.path.dirname(work)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)

    failures = list(runner.failures)
    if not deterministic:
        failures.append("setup: repeated generation wrote different bytes")
    attempted = runner.attempted + 1
    failed = runner.failed + (0 if deterministic else 1)
    info.update(
        problems=len(runner.problems),
        setup_reps=len(setup_times),
        fail_share=failed / attempted,
        failures=failures[:20],
    )
    print(json.dumps({"stamp": _stamp(args, np, info)}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
