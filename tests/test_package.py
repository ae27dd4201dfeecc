import importlib

import pytest

import realops


def test_public_names_are_their_submodules_objects():
    for name in realops.__all__:
        obj = getattr(realops, name)
        assert obj is getattr(importlib.import_module(obj.__module__), name)


def test_dir_lists_every_public_name():
    assert set(realops.__all__) <= set(dir(realops))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        realops.no_such_name
