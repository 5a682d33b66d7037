"""The public surface: __all__ is the set of names the package imports."""

import os
import pathlib
import subprocess
import sys
import types

import pytest

import detbal
import detbal.balance

# the public surface, pinned: a name joins or leaves it only with this list
PUBLIC_NAMES = [
    "BalanceReport", "CheckResult", "ChoiMatrix", "ClassicalChain", "DEFAULT_TOL",
    "DensityMatrix", "DetbalError", "DimensionMismatch", "InputNotDynamics",
    "KrausChannel", "MODE_CP", "MODE_POSITIVITY", "NonUnitary", "NotDensity",
    "NotHermitian", "NotInvertible", "NotInvolutive", "NotStochastic", "Purification",
    "ReversingOperation", "SchemaError", "SuperOperator", "Tolerance", "as_matrix",
    "bar_map", "check_db2_definition", "check_db2_entangled", "check_db2_modular",
    "check_db2_tfd", "check_sqdb_definition", "check_sqdb_entangled", "check_sqdb_tfd",
    "choi", "classical_detailed_balance", "classical_phi_balance", "cycle_chain",
    "degenerate_db2_channel", "delta_commutator_residual", "expectation", "from_kraus",
    "gad_kraus", "gad_sqdb_channel", "hermitian_eig", "hs_adjoint", "in_deadband",
    "is_completely_positive", "is_hermitian_map", "is_positive_map", "is_unital",
    "kms_dual", "make_chain", "make_density", "make_kraus", "make_reversing",
    "marginals_check", "mat_power", "metropolis_chain", "modular_power", "omega_eval",
    "pi_rep", "purify", "random_density", "random_unital_channel",
    "random_unital_kraus", "random_unitary", "require_dynamics", "require_hermitian",
    "rho_dual", "run_report", "schur_db2_channel", "schur_kraus",
    "schur_multiplier_matrix", "symmetrized_sqdb_channel", "theta_conjugate",
    "theta_eval", "tilde", "trace_dual", "transpose_reversing", "unvec", "vec",
]


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from detbal import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(detbal.__all__)
    assert len(set(detbal.__all__)) == len(detbal.__all__)


def test_all_is_the_pinned_surface():
    assert detbal.__all__ == PUBLIC_NAMES


def test_thermofield_module_is_gone():
    # the mirror operator tilde lives in duals, the mirror correlation is omega_eval
    with pytest.raises(ModuleNotFoundError):
        import detbal.thermofield  # noqa: F401


def test_every_entry_resolves_to_a_public_non_module_name():
    for name in detbal.__all__:
        assert not name.startswith("_"), name
        assert not isinstance(getattr(detbal, name), types.ModuleType), name


def test_mirror_checks_are_defined_in_balance():
    for name in ("check_db2_tfd", "check_sqdb_tfd"):
        func = getattr(detbal, name)
        assert func is getattr(detbal.balance, name)
        assert func.__module__ == "detbal.balance"


def test_cli_import_leaves_logging_out():
    # a fresh interpreter: start-up is most of a CLI call, and logging alone
    # cost about 10 ms of it
    src = str(pathlib.Path(detbal.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", "import sys, detbal.cli; print('logging' in sys.modules)"],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert run.stdout == "False\n"
