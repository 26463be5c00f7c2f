"""The package's public names are exactly those its modules list in __all__."""

import importlib
import pkgutil

import berger_rank


def test_package_exports_union_of_module_all():
    union = []
    for info in pkgutil.iter_modules(berger_rank.__path__):
        module = importlib.import_module(f"berger_rank.{info.name}")
        for name in module.__all__:
            assert hasattr(module, name), (info.name, name)
        if info.name != "cli":  # the console entry point is not re-exported
            union += module.__all__
    assert len(union) == len(set(union))
    exported = berger_rank.__all__
    assert len(exported) == len(set(exported))
    assert set(exported) == {"__version__", *union}
    for name in exported:
        assert hasattr(berger_rank, name), name
