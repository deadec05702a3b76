"""Toolkit for weight-3 wavelength-time optical orthogonal codes.

Constructs optimal 2-D (n x m, 3, 2, 1) optical orthogonal codes and the
equi-difference conflict-avoiding codes they are built from, verifies every
output against the correlation definitions, evaluates the known closed-form
size bounds, and cross-checks everything with brute-force oracles at desk
scale.
"""

from .core import (
    Cell,
    Code,
    CodeParams,
    Codeword,
    SearchExhausted,
    UnsupportedParameterError,
    VerificationFailure,
    classify_codeword,
    difference_profile,
    halved_difference_set,
    is_equi_difference_codeword,
    make_codeword,
    normalize,
    parity_class,
    restrict_to_row,
    translate,
)
from .verify import (
    CompositionCensus,
    ParityCensus,
    StructuralFacts,
    VerificationReport,
    Witness,
    composition_census,
    composition_inequalities,
    difference_leave,
    matrix_correlation,
    matrix_verdicts,
    parity_census,
    parity_inequalities,
    structural_facts,
    verify_code,
)
from .bounds import (
    AdmissibilityReport,
    BoundReport,
    cac_optimal_size,
    gdd_exists,
    in_S,
    is_prime,
    me_prime,
    mult_order,
    phi_exact,
    phi_upper_bound,
    psi_e_exact,
    psi_e_upper_bound,
    tight_admissible,
)
from .search import (
    GddBaseBlocks,
    SearchConfig,
    SearchOutcome,
    equi_search,
    gdd_search,
    optimal_search,
    tight_search,
)
from .construct import (
    ConstructionResult,
    compose_0mod3,
    equi_2mod4,
    equi_power4,
    expand_gdd,
    explicit_code,
    fill_regular,
    g_regular_4g,
    ooc_2xm,
    ooc_3xm,
    prime_derived,
    quadruple,
    tight_derived,
)

__version__ = "0.1.0"
