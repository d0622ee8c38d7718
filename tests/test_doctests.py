"""The examples in the package docstrings run and give what they show."""

import doctest
import importlib
import pkgutil

import pytest

import zarpair

# __main__ runs the CLI on import.
MODULES = sorted(
    m.name for m in pkgutil.iter_modules(zarpair.__path__) if m.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    module = importlib.import_module(f"zarpair.{name}")
    assert doctest.testmod(module).failed == 0
