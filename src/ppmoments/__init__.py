"""Exact fine-structure expansion of the Poissonized Plancherel moments
of the size-only measure, uniform on the roots of He_(N+1) at size N,
cross-checked by independent combinatorial routes and Monte Carlo
sampling."""

from .algebra import (
    NotFineStructure,
    PolyC,
    RationalFnC,
    SeriesX,
    catalan_number,
    catalan_series,
    expand_in_x,
    fine_structure_form,
    fine_structure_to_rational,
    theta_from_rows,
    theta_support_window,
)
from .ansatz import (
    AnsatzSum,
    ansatz_to_series,
    chain_iterates,
    chain_shape_violations,
    euler_apply,
    f_initial,
    f_series,
    g_apply,
    g_series,
    operator_chain,
    phi,
    y0_coefficient,
)
from .oracles import (
    enum_paths,
    moment_polynomial,
    moment_polynomials,
    path_counts,
    word_moment,
)
from .sampler import (
    DEFAULT_SEED,
    DuplicateEntries,
    Partition,
    RngState,
    TransitionMeasure,
    mc_moment,
    mc_moments,
    poisson_sample,
    rsk_shape,
    sample_pp,
    transformed_moment,
    transition_measure,
)

__version__ = "0.1.0"
