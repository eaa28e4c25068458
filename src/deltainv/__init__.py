"""Delta-invariants of pointwise Lagrangian data and optimal curvature bounds.

The package computes delta-invariants of a fully symmetric cubic tensor
(a pointwise second fundamental form), evaluates them against the
optimal inequality coefficients and two historical bounds, reproduces the
block quadratic-form machinery behind the optimality proofs, constructs
non-minimal equality-attaining tensors, and realizes any prescribed tensor
as an explicit gradient-graph Lagrangian immersion.
"""

__version__ = "0.1.0"

from .bounds import (
    ALL_SOURCES,
    LEGACY_CD,
    LEGACY_CDVV,
    THEOREM1,
    THEOREM2,
    BoundCoefficients,
    InequalityReport,
    coeff_legacy_cd,
    coeff_legacy_cdvv,
    coeff_theorem1,
    coeff_theorem2,
    evaluate,
    optimal_coefficients,
    shared_b,
)
from .campaign import CampaignConfig, CampaignSummary, run_campaign
from .delta import (
    DeltaResult,
    OptimizerOptions,
    delta_coordinate_oracle,
    delta_invariant,
    universal_check,
)
from .equality import (
    EqualityParamsT1,
    EqualityParamsT2,
    Violation,
    build_t1,
    build_t2,
    check_t1,
    check_t2,
    random_witness,
)
from .errors import (
    BadBlockIndex,
    CaseMismatch,
    ConflictingEntry,
    DeltainvError,
    DimensionMismatch,
    EmptyList,
    EqualIndices,
    FormatError,
    InadmissiblePartition,
    IndexOutOfRange,
    InvariantViolation,
    NotApplicable,
    RankDeficientFrame,
    SingularMetric,
    UnsupportedDimension,
)
from .immersion import (
    CubicPotential,
    ImmersionPoint,
    immerse,
    lagrangian_check,
    lemma1_roundtrip,
    potential_from_tensor,
    second_fundamental_form_numeric,
)
from .quadforms import (
    STATEMENT_I,
    STATEMENT_II,
    QuadraticFormBundle,
    build_M,
    build_statement2_matrix,
    critical_C,
    det_closed,
    det_recursive,
    kernel_solution_theorem2,
    psd_verdict,
    psd_verdict_minors,
    reduce_M,
)
from .tensors import (
    CubicForm,
    Frame,
    PartitionSpec,
    enumerate_partitions,
    mean_curvature_sq,
    random_cubic_form,
    rotate,
    scalar_curvature,
    sectional_curvature,
    symmetrize,
    tau_subspace,
)
