"""The package's public names resolve lazily to their defining modules' objects."""

from __future__ import annotations

import importlib

import pytest

import artindex


@pytest.mark.parametrize("name", artindex.__all__)
def test_export_is_the_defining_modules_object(name):
    module = importlib.import_module(f"artindex.{artindex._MODULE_OF[name]}")
    value = getattr(artindex, name)
    assert value is getattr(module, name)
    if hasattr(value, "__module__"):
        assert value.__module__ == module.__name__


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from artindex import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(artindex.__all__)


def test_dir_lists_every_export():
    assert set(artindex.__all__) <= set(dir(artindex))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        artindex.nope
    assert not hasattr(artindex, "nope")
