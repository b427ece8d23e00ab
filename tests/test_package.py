import importlib
import pkgutil

import crossbatch

MODULES = ["crossbatch"] + [
    f"crossbatch.{m.name}" for m in pkgutil.iter_modules(crossbatch.__path__)
]


def test_star_import():
    namespace = {}
    exec("from crossbatch import *", namespace)
    assert set(crossbatch.__all__) <= set(namespace)


def test_every_exported_name_exists():
    for name in MODULES:
        module = importlib.import_module(name)
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert not missing, (name, missing)
