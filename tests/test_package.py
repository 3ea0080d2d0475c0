"""The package surface: names resolved on first access (PEP 562)."""

import importlib

import pytest

import latmin
from conftest import run_latmin

HOMES = {"latmin.enumeration", "latmin.linalg", "latmin.minima", "latmin.norms"}


def test_every_exported_name_is_its_home_object():
    for name in latmin.__all__:
        obj = getattr(latmin, name)
        assert obj.__module__ in HOMES, name
        assert obj is getattr(importlib.import_module(obj.__module__), name)
        assert name in dir(latmin)


def test_star_import_binds_all_names():
    namespace = {}
    exec("from latmin import *", namespace)
    assert set(latmin.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(latmin, name) for name in latmin.__all__)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        latmin.no_such_name
    assert not hasattr(latmin, "successive_maxima")


def test_package_import_loads_no_submodule():
    out = run_latmin([], code="import sys, latmin\n"
                     "print(*sorted(m for m in sys.modules if m.startswith('latmin')))")
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == [b"latmin"]
