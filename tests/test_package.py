"""The public surface: __all__ is the set of names the package imports."""

import os
import pathlib
import subprocess
import sys
import types

import detbal
import detbal.balance


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from detbal import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(detbal.__all__)
    assert len(set(detbal.__all__)) == len(detbal.__all__)


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
