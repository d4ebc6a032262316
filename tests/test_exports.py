"""Each library module's ``__all__`` names only what it has, and every
public class and function that the module defines."""

import importlib
import inspect
import pkgutil

import pytest

import opticonv

LIBRARY = ("datapipe", "fieldio", "network", "optics", "perfmodel")


def test_every_module_is_a_library_module_or_the_cli():
    assert {m.name for m in pkgutil.iter_modules(opticonv.__path__)} == {*LIBRARY, "cli"}


@pytest.mark.parametrize("name", LIBRARY)
def test_all_resolves_and_lists_each_public_definition(name):
    module = importlib.import_module(f"opticonv.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    defined = {
        n for n, obj in vars(module).items()
        if not n.startswith("_") and (inspect.isclass(obj) or inspect.isfunction(obj))
        and obj.__module__ == module.__name__
    }
    assert sorted(defined - set(module.__all__)) == []
