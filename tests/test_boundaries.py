"""Every scalar, array and sequence argument of the public API is checked
one way.

A real argument is a finite real in its documented interval and an integer
argument an integer in its range.  A bool, a string, None or NaN, and for an
integer argument a fraction or a value below its range, raises
ValidationError whose message starts with the argument's name.  An array
argument holds numbers only, has its documented shape and finite entries;
a NaN, an inf or a string entry, or a wrong shape, raises ValidationError
whose message starts with the argument's name, and finite input whose
result a float cannot hold raises NumericError.  A sequence argument is a
nonempty iterable, and an object argument (a family, coefficient sequence,
schedule, section basis, set of constants or g-frame spec) an instance of
its class, or None where None stands for a default, and a second family
shares the first one's shape.  A new entry point adds its rows to
``PAIRS``, ``ARRAYS``, ``SEQUENCES``, ``INSTANCES``, ``SHAPES`` or
``OVERFLOWS``.
"""

import math
import re

import numpy as np
import pytest

from hsframe import (
    CoefficientSequence,
    GFrameSpec,
    HSFrameFamily,
    HSMap,
    NumericError,
    PerturbationConstants,
    SectionSchedule,
    SpectrumSpec,
    ValidationError,
    analysis_deviation,
    analyze,
    analyze_report,
    canonical_dual,
    cc_lemma_check,
    check_condition,
    classify,
    convergence_sweep,
    decaying_family,
    devectorize,
    embed_vector,
    find_oversampling,
    frame_bounds,
    frame_operator,
    frame_operator_hs_norm_bound,
    frob_inner,
    from_g_frame,
    from_scalar_frame,
    hs_norm,
    kernel_consistency,
    onb_family,
    oversampled_inverse_apply,
    perturb_family,
    perturb_report,
    plain_inverse_apply,
    predicted_bounds,
    predicted_bounds_simple,
    project,
    projection_formula,
    random_family,
    rank_one,
    reconstruct,
    riesz_family,
    riesz_inequality_check,
    riesz_stability_check,
    save_family,
    sectional_operator,
    subspace_basis,
    synthesize,
    uniform_bound_scan,
    vectorize,
    verify_alternate_dual,
)
from hsframe.serialization import family_to_document

FLAT = SpectrumSpec.flat()
F = random_family(4, 1, 6, FLAT, seed=2)
F_VEC = [1.0, 0.0, 0.0, 0.0]
SCHEDULE = SectionSchedule.full(6)
COEFFS = CoefficientSequence(np.ones((6, 1, 1)))
BASIS = subspace_basis(F, 2)

# entry point and argument -> (name in the message, the integer just below
# the range or None for a real argument, the call with the value in place)
PAIRS = {
    "random_family-dim_h": ("dim_h", 0, lambda v: random_family(v, 1, 6, FLAT)),
    "random_family-dim_k": ("dim_k", 0, lambda v: random_family(4, v, 6, FLAT)),
    "random_family-count": ("count", 0, lambda v: random_family(4, 1, v, FLAT)),
    "random_family-seed": ("seed", -1, lambda v: random_family(4, 1, 6, FLAT, seed=v)),
    "riesz_family-count": ("count", 0, lambda v: riesz_family(6, 1, v, FLAT)),
    "riesz_family-seed": ("seed", -1, lambda v: riesz_family(6, 1, 6, FLAT, seed=v)),
    "decaying_family-count": ("count", 0, lambda v: decaying_family(4, 1, v, 0.5)),
    "decaying_family-tail_ratio": (
        "tail_ratio", None, lambda v: decaying_family(4, 1, 6, v)),
    "decaying_family-seed": (
        "seed", -1, lambda v: decaying_family(4, 1, 6, 0.5, seed=v)),
    "onb_family-dim_h": ("dim_h", 0, onb_family),
    "SpectrumSpec.flat-level": (
        "level", None, lambda v: SpectrumSpec.flat(v).resolve(3)),
    "SpectrumSpec.geometric-ratio": (
        "ratio", None, lambda v: SpectrumSpec.geometric(v).resolve(3)),
    "SpectrumSpec.explicit-values": (
        "values", None, lambda v: SpectrumSpec.explicit([1.0, v])),
    "from_synthesis_matrix-dim_h": (
        "dim_h", 0, lambda v: HSFrameFamily.from_synthesis_matrix(v, 1, np.eye(4))),
    "from_stacked-dim_k": (
        "dim_k", 0, lambda v: CoefficientSequence.from_stacked(np.ones(6), v)),
    "classify-rank_tol": ("rank_tol", None, lambda v: classify(F, v)),
    "analyze_report-rank_tol": ("rank_tol", None, lambda v: analyze_report(F, v)),
    "verify_alternate_dual-tol": (
        "tol", None, lambda v: verify_alternate_dual(F, F, tol=v)),
    "subspace_basis-n": ("n", 0, lambda v: subspace_basis(F, v)),
    "find_oversampling-n": ("n", 0, lambda v: find_oversampling(F, v, 2.0)),
    "find_oversampling-lam": ("lambda", None, lambda v: find_oversampling(F, 1, v)),
    "convergence_sweep-lam": (
        "lambda", None, lambda v: convergence_sweep(F, SCHEDULE, F_VEC, lam=v)),
    "SectionSchedule-lengths": ("lengths", 0, lambda v: SectionSchedule((v,))),
    "SectionSchedule.full-count": ("count", 0, SectionSchedule.full),
    "uniform_bound_scan-index": (
        "index", -1, lambda v: uniform_bound_scan(F, v, F_VEC)),
    "kernel_consistency-tol": (
        "tol", None, lambda v: kernel_consistency(F, COEFFS, SCHEDULE, tol=v)),
    "PerturbationConstants-mu": ("mu", None, lambda v: PerturbationConstants(mu=v)),
    "predicted_bounds-lower": ("lower", None, lambda v: predicted_bounds(v, 2.0)),
    "predicted_bounds-upper": ("upper", None, lambda v: predicted_bounds(1.0, v)),
    "predicted_bounds_simple-m": (
        "m", None, lambda v: predicted_bounds_simple(1.0, 2.0, v)),
    "cc_lemma_check-lambda1": (
        "lambda1", None, lambda v: cc_lemma_check(np.eye(2), v, 0.0)),
    "perturb_family-magnitude": (
        "magnitude", None, lambda v: perturb_family(F, "scale", v)),
    "perturb_family-seed": (
        "seed", -1, lambda v: perturb_family(F, "additive-analysis", 0.1, seed=v)),
    "perturb_family-indices": (
        "indices", -1, lambda v: perturb_family(F, "blockwise", 0.1, indices=[v])),
    "perturb_report-magnitude": (
        "magnitude", None, lambda v: perturb_report(F, "scale", v)),
    "perturb_report-seed": (
        "seed", -1, lambda v: perturb_report(F, "additive-analysis", 0.1, seed=v)),
    "embed_vector-tol": (
        "tol", None, lambda v: embed_vector([1.0, 0.0], [3.0, 0.0], tol=v)),
}

CASES = [
    pytest.param(name, call, value, id=f"{pair}-{value!r}")
    for pair, (name, below, call) in PAIRS.items()
    for value in ([True, "0.5", None, math.nan] if below is None
                  else [True, 2.5, "2", None, below])
]


@pytest.mark.parametrize("name, call, value", CASES)
def test_bad_scalar_argument_rejected(name, call, value):
    with pytest.raises(ValidationError, match=rf"^{name} must be"):
        call(value)


# entry point and array argument -> (name in the message, a valid value, a
# value of the wrong shape, the call with the value in place)
ARRAYS = {
    "analyze-f": ("f", F_VEC, F_VEC[:3], lambda v: analyze(F, v)),
    "reconstruct-f": ("f", F_VEC, F_VEC[:3], lambda v: reconstruct(F, v)),
    "plain_inverse_apply-f": (
        "f", F_VEC, F_VEC[:3], lambda v: plain_inverse_apply(F, 2, v)),
    "oversampled_inverse_apply-f": (
        "f", F_VEC, F_VEC[:3], lambda v: oversampled_inverse_apply(F, 2, 2.0, v)),
    "projection_formula-f": (
        "f", F_VEC, F_VEC[:3], lambda v: projection_formula(F, BASIS, v)),
    "project-f": ("f", F_VEC, F_VEC[:3], lambda v: project(BASIS, v)),
    "convergence_sweep-f": (
        "f", F_VEC, F_VEC[:3], lambda v: convergence_sweep(F, SCHEDULE, v)),
    "uniform_bound_scan-f": (
        "f", F_VEC, F_VEC[:3], lambda v: uniform_bound_scan(F, 0, v)),
    "HSMap.__call__-f": ("f", F_VEC, F_VEC[:3], lambda v: F.maps[0](v)),
    "HSMap.adjoint_apply-block": (
        "block", [[1.0]], [[1.0, 0.0]], lambda v: F.maps[0].adjoint_apply(v)),
    "embed_vector-x": ("x", [1.0, 0.0], [[1.0, 0.0]], lambda v: embed_vector(v, [1, 0])),
    "embed_vector-y0": (
        "y0", [1.0, 0.0], [1.0, 0.0, 0.0], lambda v: embed_vector([1, 0], v)),
    "rank_one-x": ("x", [1.0, 2.0], [[1.0, 2.0]], lambda v: rank_one(v, [1, 2])),
    "devectorize-v": ("v", np.ones(4), np.ones(3), devectorize),
    "vectorize-a": ("a", np.eye(2), np.ones((2, 3)), vectorize),
    # any shape is valid, so the wrong shape is ragged nesting
    "hs_norm-a": ("a", np.eye(2), [[1.0, 2.0], [3.0]], hs_norm),
    "frob_inner-a": ("a", np.eye(2), np.ones((2, 3)), lambda v: frob_inner(v, np.eye(2))),
    "cc_lemma_check-u": (
        "u", np.eye(2), np.ones((2, 3)), lambda v: cc_lemma_check(v, 0.1, 0.1)),
    "from_scalar_frame-vectors": ("vectors", np.eye(3), np.ones(3), from_scalar_frame),
    "from_g_frame-y0": (
        "y0", [1.0, 0.0], [1.0, 0.0, 0.0],
        lambda v: from_g_frame(GFrameSpec([np.eye(2)]), v)),
    "GFrameSpec-blocks": (
        "blocks", [np.eye(2), np.eye(2)], [np.eye(2), np.ones((2, 3))], GFrameSpec),
    "CoefficientSequence-blocks": (
        "blocks", np.ones((6, 1, 1)), np.ones((6, 1, 2)), CoefficientSequence),
    "from_stacked-vec": (
        "vec", np.ones(8), np.ones(7), lambda v: CoefficientSequence.from_stacked(v, 2)),
    "HSMap-images": ("images", np.ones((2, 1, 1)), np.ones((2, 1, 2)), HSMap),
    "HSFrameFamily-maps": (
        "maps", np.ones((2, 2, 1, 1)), [np.ones((2, 1, 1)), np.ones((3, 1, 1))],
        HSFrameFamily),
    "from_synthesis_matrix-tmat": (
        "tmat", np.eye(4), np.eye(3),
        lambda v: HSFrameFamily.from_synthesis_matrix(4, 1, v)),
}

# The family constructors leave finiteness, and HSMap the shape of its
# images, to the one scan over a family's images, whose messages start
# "map images".
IMAGE_SCAN = ("HSMap-images", "HSFrameFamily-maps", "from_synthesis_matrix-tmat")


def _with_entry(good, index, entry):
    bad = np.array(good, dtype=object if isinstance(entry, str) else complex)
    bad.flat[index] = entry
    return bad


ARRAY_CASES = [
    pytest.param(pair, kind, value, id=f"{pair}-{kind}")
    for pair, (name, good, wrong, call) in ARRAYS.items()
    for kind, value in [
        ("nan", _with_entry(good, 0, math.nan)),
        ("inf", _with_entry(good, -1, math.inf)),
        ("string", _with_entry(good, 0, "x")),
        ("shape", wrong),
    ]
]


@pytest.mark.parametrize("pair, kind, value", ARRAY_CASES)
def test_bad_array_argument_rejected(pair, kind, value):
    name, _, _, call = ARRAYS[pair]
    expected = rf"^{re.escape(name)}\b"
    if pair in IMAGE_SCAN and kind != "string":
        expected += "|^map images "
    with pytest.raises(ValidationError, match=expected):
        call(value)


@pytest.mark.parametrize("pair", ARRAYS)
def test_valid_array_argument_accepted(pair):
    _, good, _, call = ARRAYS[pair]
    call(good)


# entry point and sequence argument -> the call with the value in place
SEQUENCES = {
    "lengths": SectionSchedule,
    "values": SpectrumSpec.explicit,
    "indices": lambda v: perturb_family(F, "blockwise", 0.1, indices=v),
}


@pytest.mark.parametrize("value", [3, 2.5, [], ()], ids=repr)
@pytest.mark.parametrize("name", SEQUENCES)
def test_bad_sequence_argument_rejected(name, value):
    with pytest.raises(ValidationError, match=rf"^{name} must be a nonempty sequence"):
        SEQUENCES[name](value)


# entry point and object argument -> (name in the message, the call with the
# value in place)
CONSTANTS = PerturbationConstants()
INSTANCES = {
    "analyze-family": ("family", lambda v: analyze(v, F_VEC)),
    "frame_operator-family": ("family", frame_operator),
    "frame_bounds-family": ("family", frame_bounds),
    "classify-family": ("family", classify),
    "riesz_inequality_check-family": ("family", riesz_inequality_check),
    "canonical_dual-family": ("family", canonical_dual),
    "reconstruct-family": ("family", lambda v: reconstruct(v, F_VEC)),
    "frame_operator_hs_norm_bound-family": ("family", frame_operator_hs_norm_bound),
    "verify_alternate_dual-family": ("family", lambda v: verify_alternate_dual(v, F)),
    "verify_alternate_dual-candidate": (
        "candidate", lambda v: verify_alternate_dual(F, v)),
    "analysis_deviation-family": ("family", lambda v: analysis_deviation(v, F)),
    "analysis_deviation-other": ("other", lambda v: analysis_deviation(F, v)),
    "subspace_basis-family": ("family", lambda v: subspace_basis(v, 2)),
    "sectional_operator-basis": ("basis", sectional_operator),
    "project-basis": ("basis", lambda v: project(v, F_VEC)),
    "projection_formula-family": (
        "family", lambda v: projection_formula(v, BASIS, F_VEC)),
    "projection_formula-basis": ("basis", lambda v: projection_formula(F, v, F_VEC)),
    "plain_inverse_apply-family": ("family", lambda v: plain_inverse_apply(v, 2, F_VEC)),
    "find_oversampling-family": ("family", lambda v: find_oversampling(v, 2, 2.0)),
    "oversampled_inverse_apply-family": (
        "family", lambda v: oversampled_inverse_apply(v, 2, 2.0, F_VEC)),
    "convergence_sweep-family": (
        "family", lambda v: convergence_sweep(v, SCHEDULE, F_VEC)),
    "convergence_sweep-schedule": ("schedule", lambda v: convergence_sweep(F, v, F_VEC)),
    "uniform_bound_scan-family": ("family", lambda v: uniform_bound_scan(v, 0, F_VEC)),
    "kernel_consistency-schedule": (
        "schedule", lambda v: kernel_consistency(F, COEFFS, v)),
    "check_condition-constants": (
        "constants", lambda v: check_condition("analysis", F, F, v)),
    "perturb_family-family": ("family", lambda v: perturb_family(v, "scale", 0.1)),
    "analyze_report-family": ("family", analyze_report),
    "perturb_report-family": ("family", lambda v: perturb_report(v, "scale", 0.1)),
    "perturb_report-constants": (
        "constants", lambda v: perturb_report(F, "scale", 0.1, constants=v)),
    "riesz_stability_check-family": (
        "family", lambda v: riesz_stability_check(v, F, CONSTANTS)),
    "riesz_stability_check-candidate": (
        "candidate", lambda v: riesz_stability_check(F, v, CONSTANTS)),
    "riesz_stability_check-constants": (
        "constants", lambda v: riesz_stability_check(F, F, v)),
    "from_g_frame-spec": ("spec", from_g_frame),
    # rejected before anything is written
    "save_family-family": ("family", lambda v: save_family(v, "unwritten.json")),
    "family_to_document-family": ("family", family_to_document),
    "synthesize-family": ("family", lambda v: synthesize(v, COEFFS)),
    "synthesize-coeffs": ("coeffs", lambda v: synthesize(F, v)),
    "kernel_consistency-family": (
        "family", lambda v: kernel_consistency(v, COEFFS, SCHEDULE)),
    "kernel_consistency-coeffs": (
        "coeffs", lambda v: kernel_consistency(F, v, SCHEDULE)),
    "check_condition-family": (
        "family",
        lambda v: check_condition("analysis", v, F, PerturbationConstants())),
    "check_condition-candidate": (
        "candidate",
        lambda v: check_condition("analysis", F, v, PerturbationConstants())),
}
# object arguments whose None stands for a default, so None is accepted
NONE_IS_DEFAULT = {"perturb_report-constants"}


@pytest.mark.parametrize(
    "value", [3, None, np.ones((6, 1, 1))], ids=["int", "None", "array"])
@pytest.mark.parametrize("pair", INSTANCES)
def test_wrong_type_argument_rejected(pair, value):
    name, call = INSTANCES[pair]
    if value is None and pair in NONE_IS_DEFAULT:
        call(value)
        return
    with pytest.raises(ValidationError, match=rf"^{name} must be "):
        call(value)


@pytest.mark.parametrize("pair", INSTANCES)
def test_other_class_argument_rejected(pair):
    """A coefficient sequence where any other object belongs, and a family
    where a coefficient sequence belongs."""
    name, call = INSTANCES[pair]
    with pytest.raises(ValidationError, match=rf"^{name} must be "):
        call(F if name == "coeffs" else COEFFS)


# entry point with a second family -> (its name, the call with the value in
# place); a family of another (dim_h, dim_k, count) than F's (4, 1, 6) is
# rejected with a message naming it and giving both shapes
SHAPES = {
    "verify_alternate_dual": ("candidate", lambda v: verify_alternate_dual(F, v)),
    "check_condition": ("candidate", lambda v: check_condition("analysis", F, v, CONSTANTS)),
    "analysis_deviation": ("other", lambda v: analysis_deviation(F, v)),
    "riesz_stability_check": (
        "candidate", lambda v: riesz_stability_check(F, v, CONSTANTS)),
}
MISMATCHED = {
    "dim_h": random_family(3, 1, 6, FLAT, seed=2),
    "dim_k": random_family(4, 2, 6, FLAT, seed=2),
    "count": random_family(4, 1, 5, FLAT, seed=2),
}


@pytest.mark.parametrize("axis", MISMATCHED)
@pytest.mark.parametrize("pair", SHAPES)
def test_mismatched_family_rejected(pair, axis):
    name, call = SHAPES[pair]
    other = MISMATCHED[axis]
    shapes = f"got {(other.dim_h, other.dim_k, other.count)}, family has (4, 1, 6)"
    with pytest.raises(ValidationError, match=rf"^{name} must share .*{re.escape(shapes)}$"):
        call(other)


# a finite family whose squared singular values overflow: every entry point
# that squares one reports a NumericError, not an OverflowError or inf
HUGE = HSFrameFamily.from_synthesis_matrix(4, 1, 1e200 * F.synthesis_matrix)
OVERFLOWS = {
    "frame_bounds": lambda: frame_bounds(HUGE),
    "classify": lambda: classify(HUGE),
    "check_condition": lambda: check_condition(
        "analysis", HUGE, HUGE, PerturbationConstants()),
    "analysis_deviation": lambda: analysis_deviation(HUGE, F),
    "analyze_report": lambda: analyze_report(HUGE),
    "perturb_report": lambda: perturb_report(HUGE, "scale", 0.1),
}


@pytest.mark.parametrize("call", OVERFLOWS.values(), ids=OVERFLOWS)
def test_unrepresentable_result_is_numeric_error(call):
    with pytest.raises(NumericError, match="overflows"):
        call()
