import importlib
import importlib.util
import pkgutil
from pathlib import Path

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


def test_every_benchmark_span_resolves():
    # perfbench/trace_child.py rebinds these names; a deleted or renamed
    # one would crash the traced benchmark run.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "trace_child.py"
    spec = importlib.util.spec_from_file_location("trace_child", path)
    trace_child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_child)

    class StubTracer:
        order = 0

        def record_iterate(self, result, g):
            pass

    spanned = [(owner, attr) for owner, attr, *_ in
               trace_child.spans(StubTracer())]
    assert len(spanned) >= 20
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr in spanned
               if not callable(getattr(owner, attr, None))]
    assert not missing, f"benchmark spans missing names {missing}"
