"""The public surface: __all__ is the set of names the package imports."""

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
