"""What the O(n^4) kernels may do with memory: never write into their
inputs, and stay within a fixed number of n^2 x n^2 arrays per call.

The kernels read transposed and realigned operands as views of the input
matrix and work in place on buffers they own.  A view of the input is not
such a buffer: at n = 1 the index permutation of trace_dual is a view of
tau.mat itself, so an in-place scaling there would write into the caller's
channel.  Read-only inputs turn any such write into an error.

tracemalloc sees numpy's data buffers, so a call's traced peak, in units of
one n^2 x n^2 complex array, counts its result and its temporaries.  The
reference peaks are those of the kernels that still made several full-size
temporaries per pass (numpy 2.4, n = 12, the smaller of the two channels'
values).  The kernels now stay well below them, which leaves room for
numpy's temporary elision and iterator buffers of a few thousand entries,
both of which differ between numpy versions.
"""

import tracemalloc
from dataclasses import replace

import pytest

from detbal import (
    DEFAULT_TOL,
    MODE_POSITIVITY,
    SuperOperator,
    bar_map,
    check_db2_definition,
    check_db2_entangled,
    check_db2_modular,
    check_db2_tfd,
    check_sqdb_definition,
    check_sqdb_entangled,
    check_sqdb_tfd,
    delta_commutator_residual,
    is_completely_positive,
    is_hermitian_map,
    is_unital,
    kms_dual,
    make_reversing,
    random_density,
    random_unital_channel,
    random_unitary,
    require_dynamics,
    rho_dual,
    run_report,
    schur_db2_channel,
    theta_conjugate,
    trace_dual,
    transpose_reversing,
)
from detbal.cli import ParsedProblem, run_checks


def channels(n, seed):
    rho = random_density(n, seed=seed)
    return {
        "schur-db2": (schur_db2_channel(rho, seed), rho),
        "random-unital": (random_unital_channel(n, 3, seed), rho),
    }


def calls(tau, rho, th):
    """Every public check and dual that runs an O(n^4) kernel."""
    return {
        "run_report": lambda: run_report(tau, rho, th, tfd=True),
        "run_report_positivity": lambda: run_report(tau, rho, th, mode=MODE_POSITIVITY, tfd=True),
        "require_dynamics": lambda: require_dynamics(tau, rho),
        "is_completely_positive": lambda: is_completely_positive(tau),
        "check_db2_definition": lambda: check_db2_definition(tau, rho),
        "check_db2_modular": lambda: check_db2_modular(tau, rho),
        "check_db2_entangled": lambda: check_db2_entangled(tau, rho),
        "check_db2_tfd": lambda: check_db2_tfd(tau, rho),
        "check_sqdb_definition": lambda: check_sqdb_definition(tau, rho, th),
        "check_sqdb_entangled": lambda: check_sqdb_entangled(tau, rho, th),
        "check_sqdb_tfd": lambda: check_sqdb_tfd(tau, rho, th),
        "delta_commutator_residual": lambda: delta_commutator_residual(tau, rho),
        "rho_dual": lambda: rho_dual(tau, rho),
        "kms_dual": lambda: kms_dual(tau, rho),
        "hat_map": lambda: bar_map(rho_dual(tau, rho)),
        "trace_dual": lambda: trace_dual(tau),
        "bar_map": lambda: bar_map(tau),
        "theta_conjugate": lambda: theta_conjugate(tau, th),
        "is_unital": lambda: is_unital(tau),
        "is_hermitian_map": lambda: is_hermitian_map(tau),
    }


# n = 8 is above the size floor of the stored-entry route (superop._stored),
# which schur-db2 takes there and random-unital does not
@pytest.mark.parametrize("n", [1, 2, 3, 8])
@pytest.mark.parametrize("family", ["schur-db2", "random-unital"])
@pytest.mark.parametrize("theta", ["transpose", "symmetric"])
def test_no_kernel_writes_into_its_input(n, family, theta):
    tau, rho = channels(n, 40 + n)[family]
    if theta == "transpose":
        th = transpose_reversing(n)
    else:
        v = random_unitary(n, 50 + n)
        th = make_reversing(v @ v.T)
    inputs = (tau.mat, rho.diag, th.u)
    before = [a.tobytes() for a in inputs]
    for a in inputs:
        a.setflags(write=False)
    for name, call in calls(tau, rho, th).items():
        call()
        assert [a.tobytes() for a in inputs] == before, name


def traced_peak(call, n, warm=None):
    """Peak traced allocation of one call, in n^2 x n^2 complex arrays."""
    (warm or call)()  # fill lazy caches first
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / (16 * n**4)
    finally:
        tracemalloc.stop()


def solving_peak(name, tau, rho, th, n):
    """traced_peak of a CP test that solves the Choi spectrum: the call on
    tau fills the lazy caches, and the measured call runs on a fresh map of
    tau's matrix, whose stored entries are found before tracing starts.  A
    map keeps its spectrum, so a second call on tau would solve nothing."""
    s = SuperOperator(n, tau.mat)
    s._at
    peak = traced_peak(calls(s, rho, th)[name], n, warm=calls(tau, rho, th)[name])
    assert "_choi_spectrum" in s.__dict__, name
    return peak


# at most this many n^2 x n^2 complex arrays; the peak before the rewrite
# follows each bound.  The two calls whose work is the CP test are measured
# where they solve it (solving_peak).
SOLVING = {"is_completely_positive", "require_dynamics"}
BUDGET = {
    "run_report": 4.0,  # 5.41
    "is_completely_positive": 2.5,  # 3.17
}
# strictly below the peak before the rewrite
BELOW = {
    "require_dynamics": 3.17,
    "check_db2_definition": 4.18,
    "check_db2_modular": 3.17,
    "check_db2_entangled": 4.41,
    "check_db2_tfd": 4.41,
    "check_sqdb_definition": 3.41,
    "check_sqdb_entangled": 3.41,
    "check_sqdb_tfd": 4.41,
    "delta_commutator_residual": 1.90,
    "rho_dual": 2.40,
    "kms_dual": 2.40,
    "hat_map": 2.40,
}


# a channel with few stored entries takes the stored-entry route: the report
# holds the state dual's matrix and O(stored) index and value arrays
STORED_BUDGET = {"run_report": 1.5}


@pytest.mark.parametrize("family", ["schur-db2", "random-unital"])
def test_allocation_budget_at_n12(family):
    n = 12
    tau, rho = channels(n, 60)[family]
    th = transpose_reversing(n)
    todo = calls(tau, rho, th)
    budget = {**BUDGET, **STORED_BUDGET} if family == "schur-db2" else BUDGET
    peaks = {
        name: solving_peak(name, tau, rho, th, n) if name in SOLVING else traced_peak(todo[name], n)
        for name in {**budget, **BELOW}
    }
    over = {k: round(v, 2) for k, v in peaks.items() if k in budget and v > budget[k]}
    over.update({k: round(v, 2) for k, v in peaks.items() if k in BELOW and v >= BELOW[k]})
    assert not over, over



def working_peak(call):
    """Traced peak of one call above what it leaves allocated (its result,
    such as the report payload), in bytes, after a first call that fills
    the lazy caches."""
    call()
    tracemalloc.start()
    try:
        result = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result is not None  # held until measured, so current counts it
    return peak - current


@pytest.mark.parametrize("family", ["schur-db2", "random-unital"])
def test_stacked_powers_stay_within_one_map_at_the_stored_route_size(family):
    """The command line decides the powers of a map below n = 7 in stacks of
    at most 7^4 entries per operand (balance._power_reports): 20 powers at
    n = 6 go one map per stack, and work in no more memory than
    run_report(tfd=True) on one dense map at n = 7, the smallest size of the
    stored-entry route.
    A stack of all 20 would take about ten times as much."""
    tau7, rho7 = channels(7, 61)["random-unital"]
    th7 = transpose_reversing(7)
    reference = working_peak(lambda: run_report(SuperOperator(7, tau7.mat), rho7, th7, tfd=True))
    tau, rho = channels(6, 62)[family]
    parsed = ParsedProblem(
        kind="quantum", tol=DEFAULT_TOL, powers=tuple(range(1, 21)), rho=rho, tau=tau,
        theta=transpose_reversing(6),
    )

    def powers():
        return run_checks(replace(parsed, tau=SuperOperator(6, tau.mat)), tfd=True)

    peak = working_peak(powers)
    assert peak <= reference, (peak, reference)
