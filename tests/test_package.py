"""The package root resolves its public names on first access."""

import importlib
import sys
import types

import pytest

import coherence_lab

HOMES = {"coherence_lab.coherence", "coherence_lab.int_lattice", "coherence_lab.root_datum"}


def test_every_public_name_is_its_home_modules_object():
    for name in coherence_lab.__all__:
        if name == "__version__":
            continue
        obj = getattr(coherence_lab, name)
        assert obj.__module__ in HOMES, name
        assert getattr(importlib.import_module(obj.__module__), name) is obj
        # Resolved once, then read from the module like any other global.
        assert vars(coherence_lab)[name] is obj


def test_star_import_binds_all():
    namespace = {}
    exec("from coherence_lab import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(coherence_lab.__all__)
    assert namespace["validate"] is sys.modules["coherence_lab.root_datum"].validate


def test_dir_lists_all():
    listed = dir(coherence_lab)
    assert set(coherence_lab.__all__) <= set(listed)
    assert listed == sorted(listed)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        coherence_lab.no_such_name
    assert not hasattr(coherence_lab, "decide")  # public in coherence, not here


def test_submodule_import_through_the_root():
    from coherence_lab import finite_groups

    assert isinstance(finite_groups, types.ModuleType)
    assert finite_groups is sys.modules["coherence_lab.finite_groups"]
