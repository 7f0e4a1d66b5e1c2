"""The package root re-exports every module's public names; the suite rejects unknown markers and config keys."""

import importlib

import pytest

import multisymp

MODULES = ["errors", "exterior", "lagrangian", "legendre", "multisymplectic", "surfaces"]


@pytest.mark.parametrize("module", MODULES)
def test_root_exports_each_public_name(module):
    mod = importlib.import_module(f"multisymp.{module}")
    missing = [name for name in mod.__all__ if getattr(multisymp, name, None) is not getattr(mod, name)]
    assert not missing


@pytest.mark.parametrize("module", ["lagrangian", "legendre", "multisymplectic", "surfaces", "cli"])
def test_numeric_modules_take_rows_not_fiber_objects(module):
    # fibers and duals are rows only: the object layer of exterior is not bound outside it
    mod = importlib.import_module(f"multisymp.{module}")
    assert not {"KVector", "KCovector", "GrassmannPoint"} & set(vars(mod))


def test_misspelt_marker_fails():
    # a mistyped time_limit must stop the run, not silently drop the test's hang guard
    with pytest.raises(pytest.fail.Exception, match="time_limt"):
        pytest.mark.time_limt


def test_misspelt_config_key_fails(pytestconfig):
    # a mistyped ini key must stop the run: a misspelt filterwarnings would silently drop the RuntimeWarning gate
    assert pytestconfig.getini("strict_config") is True
