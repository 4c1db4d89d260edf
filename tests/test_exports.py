import importlib
import pkgutil

import ppmoments


def test_every_exported_name_resolves():
    modules = [importlib.import_module(f"ppmoments.{info.name}")
               for info in pkgutil.iter_modules(ppmoments.__path__)]
    assert {m.__name__ for m in modules} >= {
        "ppmoments.algebra", "ppmoments.ansatz", "ppmoments.cli",
        "ppmoments.oracles", "ppmoments.sampler"}
    for module in modules:
        exported = module.__all__
        assert len(exported) == len(set(exported)), module.__name__
        missing = [name for name in exported if not hasattr(module, name)]
        assert not missing, f"{module.__name__} exports missing {missing}"
