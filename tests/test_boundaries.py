"""Every scalar argument of the public API is checked one way.

A real argument is a finite real in its documented interval and an integer
argument an integer in its range.  A bool, a string, None or NaN, and for an
integer argument a fraction or a value below its range, raises
ValidationError whose message starts with the argument's name.  A new entry
point adds its rows to ``PAIRS``.
"""

import math

import numpy as np
import pytest

from hsframe import (
    CoefficientSequence,
    HSFrameFamily,
    PerturbationConstants,
    SectionSchedule,
    SpectrumSpec,
    ValidationError,
    cc_lemma_check,
    classify,
    convergence_sweep,
    decaying_family,
    find_oversampling,
    kernel_consistency,
    onb_family,
    perturb_family,
    predicted_bounds,
    predicted_bounds_simple,
    random_family,
    riesz_family,
    subspace_basis,
    uniform_bound_scan,
    verify_alternate_dual,
)

FLAT = SpectrumSpec.flat()
F = random_family(4, 1, 6, FLAT, seed=2)
F_VEC = [1.0, 0.0, 0.0, 0.0]
SCHEDULE = SectionSchedule.full(6)
COEFFS = CoefficientSequence(np.ones((6, 1, 1)))

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
    "from_synthesis_matrix-dim_h": (
        "dim_h", 0, lambda v: HSFrameFamily.from_synthesis_matrix(v, 1, np.eye(4))),
    "from_stacked-dim_k": (
        "dim_k", 0, lambda v: CoefficientSequence.from_stacked(np.ones(6), v)),
    "classify-rank_tol": ("rank_tol", None, lambda v: classify(F, v)),
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
