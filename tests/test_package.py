"""The package root re-exports every module's public names."""

import importlib

import pytest

import multisymp

MODULES = ["errors", "exterior", "lagrangian", "legendre", "multisymplectic", "surfaces"]


@pytest.mark.parametrize("module", MODULES)
def test_root_exports_each_public_name(module):
    mod = importlib.import_module(f"multisymp.{module}")
    missing = [name for name in mod.__all__ if getattr(multisymp, name, None) is not getattr(mod, name)]
    assert not missing
