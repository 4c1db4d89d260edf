"""Exact fine-structure expansion of the Poissonized Plancherel moments
of the size-only measure, uniform on the roots of He_(N+1) at size N,
cross-checked by independent combinatorial routes and Monte Carlo
sampling.

Each public name is public in one place, the module that defines it:
`from ppmoments.ansatz import phi`, not `from ppmoments import phi`.
A module's __all__ lists a name only if another package module uses it,
README documents it, it is the command-line entry point
(ppmoments.cli:main), or the benchmark's tracer rebinds it.  The
package itself holds only the two command-line constants below, and
importing it, or ppmoments.cli, loads no other submodule, so each
command loads only the modules it runs.
"""

# The sampler's two command-line constants live here, not in sampler,
# so that the command line can parse its options without loading the
# sampler; ppmoments.sampler imports them from here.
DEFAULT_SEED = 8675309  # documented default; override with --seed / seed=
# The Poisson draw runs in double precision, which holds every integer
# up to 2**53.
POISSON_MEAN_MAX = 2 ** 53

__version__ = "0.1.0"

__all__ = ["DEFAULT_SEED", "POISSON_MEAN_MAX"]
