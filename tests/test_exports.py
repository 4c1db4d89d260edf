import ast
import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import ppmoments
import ppmoments.algebra as algebra
import ppmoments.ansatz as ansatz
import ppmoments.oracles as oracles
import ppmoments.sampler as sampler


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


# ROADMAP item 3 decides whether the shape sampler stays; until then
# these names are public without a use in the package or README
_UNDECIDED = {"ppmoments.sampler.sample_pp"}


def test_each_public_name_has_one_home_and_earns_it():
    # the package holds only its two command-line constants; that
    # importing it loads no submodule is checked by test_cli's start-up
    # probe
    assert ppmoments.__all__ == ["DEFAULT_SEED", "POISSON_MEAN_MAX"]
    for name in ("_EXPORTS", "__getattr__", "__dir__"):
        assert name not in vars(ppmoments), name
    # each object is listed by one __all__, that of the module defining it
    modules = [ppmoments] + [
        importlib.import_module(f"ppmoments.{info.name}")
        for info in pkgutil.iter_modules(ppmoments.__path__)]
    homes: dict[int, list[str]] = {}
    for module in modules:
        for name in module.__all__:
            value = getattr(module, name)
            homes.setdefault(id(value), []).append(f"{module.__name__}.{name}")
            assert getattr(value, "__module__", module.__name__) == \
                module.__name__, f"{module.__name__}.{name}"
    shared = [names for names in homes.values() if len(names) > 1]
    assert not shared, f"listed twice: {shared}"
    # and each earns its place by one of the package docstring's reasons
    listed = {f"{module.__name__}.{name}"
              for module in modules for name in module.__all__}
    unearned = listed - _UNDECIDED - _used_across_modules() \
        - _documented(listed) - _entry_points() - _rebound_by_tracer()
    assert not unearned, f"public without a reason: {sorted(unearned)}"
    assert _UNDECIDED <= listed


def _used_across_modules() -> set[str]:
    """module.name for each name a package module imports from another."""
    package = Path(ppmoments.__file__).parent
    used = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level:
                source = ".".join(filter(None, ("ppmoments", node.module)))
            elif (node.module or "").split(".")[0] == "ppmoments":
                source = node.module
            else:
                continue
            used.update(f"{source}.{alias.name}" for alias in node.names)
    return used


def _documented(listed: set[str]) -> set[str]:
    """The listed names README spells inside a code span."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    words = {word for span in re.findall(r"`([^`]+)`", readme)
             for word in re.findall(r"\w+", span)}
    return {qualified for qualified in listed
            if qualified.rsplit(".", 1)[1] in words}


def _entry_points() -> set[str]:
    """module.name of each [project.scripts] entry of pyproject.toml."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    scripts = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return {target.replace(":", ".")
            for target in re.findall(r'^\S+\s*=\s*"([\w.:]+)"', scripts,
                                     re.M)}


def _rebound_by_tracer() -> set[str]:
    """module.name of each function the benchmark's tracer rebinds, and of
    each class whose attribute it rebinds."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "trace_child.py"
    spec = importlib.util.spec_from_file_location("trace_child", path)
    trace_child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_child)
    rebound = set()
    for owner, attr, *_ in trace_child.spans(_StubTracer()):
        if isinstance(owner, type):
            rebound.add(f"{owner.__module__}.{owner.__name__}")
        else:
            rebound.add(f"{owner.__name__}.{attr}")
    return rebound


class _StubTracer:
    order = 0

    def record_iterate(self, result, g):
        pass


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


def test_exhaustive_enumerators_stay_out_of_the_package():
    # the enumerators are test references in tests/helpers.py; no report
    # runs them, so the package neither exports nor imports them
    gone = ["LatticePath", "Marking", "RookPlacement", "UnbalancedPath",
            "_dyck_words", "_normal_order", "_rook_counts_exhaustive",
            "cells", "conjugate", "corner_contents", "count_markings",
            "count_rook_placements", "fits_staircase", "iter_paths",
            "iter_rook_placements", "marking_counts", "partitions_of",
            "path_to_partition", "rat_to_str", "rook_counts",
            "rook_polynomial", "staircase_partitions", "tableau_count"]
    for owner in (ppmoments, oracles, sampler):
        present = [name for name in gone if hasattr(owner, name)]
        assert not present, f"{owner.__name__} still has {present}"
    for path in Path(ppmoments.__file__).parent.glob("*.py"):
        assert "helpers" not in _imported_roots(path), \
            f"{path.name} imports helpers"


def test_no_package_module_imports_fractions():
    # the closed-form algebra, the moment rows, the corner moments and
    # every report run on ints alone.  test_cli's start-up probe sees only
    # what the commands it probes load when they run; this reads every
    # import statement, deferred and TYPE_CHECKING ones too
    paths = sorted(Path(ppmoments.__file__).parent.glob("*.py"))
    assert len(paths) >= 6
    for path in paths:
        assert "fractions" not in _imported_roots(path), \
            f"{path.name} imports fractions"
    # the corner measure is its int moments (sampler.corner_moments); its
    # Fraction weights are a test reference in tests/helpers.py
    for name in ("TransitionMeasure", "transition_measure"):
        assert not hasattr(sampler, name), name


def test_retired_closed_form_names_stay_gone():
    # a closed form is stored once, as the reduced pair (num, a) over
    # (2-c)^a, a theta table is a plain dict, and so is a moment row; the
    # operator chain runs in t, so no package code reduces by (2-c) or
    # divides by c - root (the chain in c is a test reference); a shape
    # is the tuple of its row lengths, and RSK raises a plain ValueError
    for owner, name in ((ppmoments, "FineStructureForm"),
                        (ppmoments, "MomentPolynomial"),
                        (oracles, "MomentPolynomial"),
                        (algebra, "FineStructureForm"),
                        (algebra, "strip_two_minus_c"),
                        (algebra, "sum_over_two_minus_c"),
                        (algebra, "divide_out_root"),
                        (algebra, "C_MINUS_ONE"),
                        (algebra, "TWO_MINUS_C"),
                        (algebra.PolyC, "derivative"),
                        (ansatz.AnsatzSum, "scale"),
                        (ansatz.AnsatzSum, "__add__"),
                        (algebra.RationalFnC, "den"),
                        (sampler, "Partition"),
                        (sampler, "DuplicateEntries")):
        assert not hasattr(owner, name), f"{owner.__name__}.{name}"


def _imported_roots(path: Path) -> set[str]:
    """Top-level names of every module a source file imports."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        else:
            continue
        roots.update(n.split(".")[0] for n in names)
    return roots
