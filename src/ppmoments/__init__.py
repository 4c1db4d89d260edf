"""Exact fine-structure expansion of the Poissonized Plancherel moments
of the size-only measure, uniform on the roots of He_(N+1) at size N,
cross-checked by independent combinatorial routes and Monte Carlo
sampling.

The public names below resolve lazily (PEP 562): `ppmoments.phi`,
`from ppmoments import phi` or `dir(ppmoments)` imports the one module
that defines the name on first access, and importing the package, or
`ppmoments.cli`, loads no other submodule.  So each command of the
command line loads only the modules it runs.
"""

# The sampler's two command-line constants live here, not in sampler,
# so that the command line can parse its options without loading the
# sampler; ppmoments.sampler imports them from here.
DEFAULT_SEED = 8675309  # documented default; override with --seed / seed=
# The Poisson draw runs in double precision, which holds every integer
# up to 2**53.
POISSON_MEAN_MAX = 2 ** 53

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys((
        "NotFineStructure", "PolyC", "RationalFnC", "SeriesX",
        "catalan_number", "catalan_series", "expand_in_x",
        "fine_structure_form", "fine_structure_to_rational",
        "theta_from_rows", "theta_support_window"), "algebra"),
    **dict.fromkeys((
        "AnsatzSum", "ansatz_to_series", "chain_iterates",
        "chain_shape_violations", "euler_apply", "f_initial", "f_series",
        "g_apply", "g_series", "operator_chain", "phi",
        "y0_coefficient"), "ansatz"),
    **dict.fromkeys((
        "enum_paths", "moment_polynomial", "moment_polynomials",
        "path_counts", "transformed_moment", "word_moment"), "oracles"),
    **dict.fromkeys((
        "DuplicateEntries", "Partition", "RngState", "TransitionMeasure",
        "mc_moment", "mc_moments", "poisson_sample", "rsk_shape",
        "sample_pp", "transition_measure"), "sampler"),
}

__all__ = sorted(["DEFAULT_SEED", "POISSON_MEAN_MAX", *_EXPORTS])


def __getattr__(name: str):
    # Not cached in the package namespace: a name read here is always
    # the defining module's current binding.
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
