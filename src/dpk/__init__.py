"""Exactly computable model of diagonal-plus-compact operators.

Operators are eventually block-periodic: a finite head matrix followed by an
infinitely repeated tail block.  On this class, algebra, norms, spectra,
factorizations, Fredholm data, projection geometry and winding invariants
are all computed exactly and verified by seeded property suites.
"""

from .core import (
    Diagonal,
    DpkElement,
    EopOperator,
    align,
    canonical_decompose,
    construct,
    delta,
    finite_spectrum_approx,
    identity,
    is_dpk_member,
    operator_norm,
    operators_close,
    spectrum,
    zero,
    zero_tail,
)
from .errors import DpkError
from .factor import (
    PortaRechtFactorization,
    UnitaryFactorization,
    exp_ih,
    log_unitary,
    porta_recht,
    unitary_factorize,
    unitary_path,
)
from .fredholm import (
    FredholmData,
    IsometryKind,
    fredholm_data,
    invertible_approx,
    invertible_diagonal_decomposition,
    is_invertible,
    isometry_classify,
)
from .autos import (
    AutomorphismWord,
    DerivationNorm,
    PermutationSpec,
    apply_automorphism,
    is_dpk_automorphism,
    match_finite_spectrum_conjugation,
    normal_form,
    permutation_unitary,
    stampfli_derivation_norm,
)
from .projections import (
    ComponentClass,
    GeodesicExponent,
    ModelProjection,
    classify_component,
    conjugating_exponential,
    diagonal_projection,
    minimal_geodesic,
    pair_index,
    projection_diag_decompose,
    rank_nullity_conjugacy,
    same_component,
    zero_index_diagonal,
)
from .quotient import (
    PositiveFunctional,
    QuotientClass,
    character_eval,
    endomorphism_from_characters,
    functional_decompose,
    quotient_class,
)
from .topology import (
    K0Class,
    UnitaryLoop,
    bundle_section,
    k0_add,
    k0_class,
    loop_winding,
)
from .generate import ExperimentConfig, generate
from .suites import SUITES, SuiteReport, run_suite

__version__ = "0.1.0"
