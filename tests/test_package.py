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


def test_part_configs_are_gone():
    # TrainConfig alone declares, defaults and checks every run setting
    for name in ("OptimizerConfig", "KalmanConfig", "PairMinerConfig"):
        assert name not in crossbatch.__all__ and not hasattr(crossbatch, name)


def test_package_exports_exactly_the_modules_public_names():
    modules = sorted(name for name in MODULES if name not in ("crossbatch", "crossbatch.cli"))
    expected = [n for name in modules for n in importlib.import_module(name).__all__]
    assert crossbatch.__all__ == ["__version__", *expected]
