"""Operator-valued (Hilbert-Schmidt) frames in finite dimensions.

Families of maps from a vector space into a matrix space, their synthesis
and analysis operators, optimal bounds, duals, finite-section inversion of
the frame operator, and perturbation stability checks.
"""

from .core import (
    devectorize,
    embed_vector,
    frob_inner,
    hs_norm,
    rank_one,
    vectorize,
)
from .errors import (
    HSFrameError,
    InternalConsistencyError,
    NotAFrameError,
    NumericError,
    ParseError,
    SectionSingularError,
    ValidationError,
)
from .family import (
    CoefficientSequence,
    FrameReport,
    HSFrameFamily,
    HSMap,
    analyze,
    canonical_dual,
    classify,
    frame_bounds,
    frame_operator,
    frame_operator_hs_norm_bound,
    reconstruct,
    riesz_inequality_check,
    synthesize,
    verify_alternate_dual,
)
from .generators import (
    GFrameSpec,
    SpectrumSpec,
    decaying_family,
    from_g_frame,
    from_scalar_frame,
    onb_family,
    random_family,
    riesz_family,
)
from .perturbation import (
    CCLemmaReport,
    PerturbationConstants,
    PerturbationVerdict,
    RieszStabilityVerdict,
    analysis_deviation,
    cc_lemma_check,
    check_condition,
    perturb_family,
    predicted_bounds,
    predicted_bounds_simple,
    riesz_stability_check,
)
from .projection import (
    ConvergenceRecord,
    KernelConsistencyReport,
    SectionSchedule,
    SubspaceBasis,
    UniformBoundProfile,
    convergence_sweep,
    find_oversampling,
    kernel_consistency,
    oversampled_inverse_apply,
    plain_inverse_apply,
    project,
    projection_formula,
    sectional_operator,
    subspace_basis,
    uniform_bound_scan,
)
from .serialization import analyze_report, load_family, perturb_report, save_family

__version__ = "0.1.0"
