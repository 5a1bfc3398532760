"""The package's public surface: `import mitk` works and every exported name resolves."""

import importlib
import pkgutil

import pytest

import mitk

MODULES = sorted(info.name for info in pkgutil.iter_modules(mitk.__path__))


def test_every_module_is_covered():
    assert MODULES == ["cli", "critic", "discrete", "estimators", "gaussian", "variational"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"mitk.{name}")
    assert module.__all__ and len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from mitk.{name} import *", namespace)  # a stale entry fails here too
    assert set(module.__all__) <= set(namespace)


def test_package_names_come_from_their_modules():
    assert mitk.train_estimator is mitk.estimators.train_estimator
    assert mitk.run_probe_suite is mitk.variational.run_probe_suite
    assert mitk.__version__
