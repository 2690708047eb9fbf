import importlib
import pkgutil

import pytest

import schubert

# every module of the package that declares a public surface; __main__ runs the CLI
MODULES = [schubert] + [
    importlib.import_module(f"schubert.{info.name}")
    for info in pkgutil.iter_modules(schubert.__path__) if info.name != "__main__"
]
PUBLIC = [m for m in MODULES if hasattr(m, "__all__")]


@pytest.mark.parametrize("module", PUBLIC, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing


def test_star_import():
    namespace: dict = {}
    exec("from schubert import *", namespace)
    assert set(schubert.__all__) <= namespace.keys()
