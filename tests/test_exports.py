import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import ppmoments
import ppmoments.oracles as oracles


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


# every name the package exported when it imported its modules eagerly,
# but mc_moment, a one-line wrapper of mc_moments, since removed
_PACKAGE_NAMES = [
    "AnsatzSum", "DEFAULT_SEED", "DuplicateEntries", "NotFineStructure",
    "Partition", "PolyC", "RationalFnC", "RngState", "SeriesX",
    "TransitionMeasure", "__version__", "ansatz_to_series",
    "catalan_number", "catalan_series", "chain_iterates",
    "chain_shape_violations", "enum_paths", "euler_apply", "expand_in_x",
    "f_initial", "f_series", "fine_structure_form",
    "fine_structure_to_rational", "g_apply", "g_series", "mc_moments",
    "moment_polynomial", "moment_polynomials", "operator_chain",
    "path_counts", "phi", "poisson_sample", "rsk_shape", "sample_pp",
    "theta_from_rows", "theta_support_window", "transformed_moment",
    "transition_measure", "word_moment", "y0_coefficient"]


def test_every_package_name_resolves_lazily():
    # the package resolves each name from the module that defines it on
    # first access, as an attribute, by a from-import and in dir()
    listing = dir(ppmoments)
    for name in _PACKAGE_NAMES:
        module = ppmoments._EXPORTS.get(name)
        owner = (importlib.import_module(f"ppmoments.{module}") if module
                 else ppmoments)
        value = getattr(owner, name)
        assert getattr(ppmoments, name) is value, name
        namespace: dict = {}
        exec(f"from ppmoments import {name}", namespace)
        assert namespace[name] is value, name
        assert name in listing, name
        if callable(value):
            assert value.__module__ == owner.__name__, name
    assert set(ppmoments.__all__) <= set(listing)
    assert set(ppmoments.__all__) == set(_PACKAGE_NAMES) - {"__version__"} \
        | {"POISSON_MEAN_MAX"}
    import ppmoments.sampler as sampler
    assert sampler.DEFAULT_SEED is ppmoments.DEFAULT_SEED
    assert sampler.POISSON_MEAN_MAX is ppmoments.POISSON_MEAN_MAX
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        ppmoments.nope


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
            "count_markings", "count_rook_placements", "iter_paths",
            "iter_rook_placements", "marking_counts", "partitions_of",
            "path_to_partition", "rat_to_str", "rook_counts",
            "rook_polynomial", "staircase_partitions"]
    for owner in (ppmoments, oracles):
        present = [name for name in gone if hasattr(owner, name)]
        assert not present, f"{owner.__name__} still has {present}"
    for method in ("cells", "conjugate", "fits_staircase"):
        assert not hasattr(ppmoments.Partition, method)
    for path in Path(ppmoments.__file__).parent.glob("*.py"):
        roots = _imported_roots(path)
        assert "helpers" not in roots, f"{path.name} imports helpers"
        # the closed-form algebra, the moment rows and every report run
        # on ints alone
        if path.name in ("algebra.py", "ansatz.py", "cli.py", "oracles.py"):
            assert "fractions" not in roots, f"{path.name} imports fractions"


def test_retired_closed_form_names_stay_gone():
    # a closed form is stored once, as the reduced pair (num, a) over
    # (2-c)^a, a theta table is a plain dict, and so is a moment row
    import ppmoments.algebra as algebra
    for owner, name in ((ppmoments, "FineStructureForm"),
                        (ppmoments, "MomentPolynomial"),
                        (oracles, "MomentPolynomial"),
                        (algebra, "FineStructureForm"),
                        (algebra, "strip_two_minus_c"),
                        (ppmoments.AnsatzSum, "scale"),
                        (ppmoments.AnsatzSum, "__add__"),
                        (ppmoments.RationalFnC, "den")):
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
