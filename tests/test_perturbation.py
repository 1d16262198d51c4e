import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hsframe import (
    HSFrameFamily,
    NotAFrameError,
    NumericError,
    PerturbationConstants,
    SpectrumSpec,
    ValidationError,
    analysis_deviation,
    cc_lemma_check,
    check_condition,
    frame_bounds,
    from_scalar_frame,
    onb_family,
    perturb_family,
    predicted_bounds,
    predicted_bounds_simple,
    random_family,
    riesz_family,
    riesz_stability_check,
)
from hsframe import perturbation
from hsframe.perturbation import check_admissible
from conftest import complex_unit, named, seeded_family, shapes
from oracle_scalar import ScalarFrameOracle


class TestCCLemma:
    def test_contraction_half(self):
        report = cc_lemma_check(0.5 * np.eye(3), 0.5, 0.0)
        assert report.certified
        assert report.sigma_min == pytest.approx(0.5)
        assert report.forward_bounds == pytest.approx((0.5, 1.5))
        assert report.sandwich_ok

    def test_identity_tight(self):
        report = cc_lemma_check(np.eye(4), 0.0, 0.0)
        assert report.certified
        assert report.forward_bounds == (1.0, 1.0)
        assert report.inverse_bounds == (1.0, 1.0)
        assert report.sandwich_ok

    def test_diagonal_boundary_case(self):
        report = cc_lemma_check(np.diag([1.0, 0.2]), 0.8, 0.0)
        assert report.certified
        assert report.sigma_min == pytest.approx(0.2)
        # sigma_min meets the lower sandwich exactly: (1-0.8)/(1+0) = 0.2
        assert report.forward_bounds[0] == pytest.approx(0.2)
        assert report.sandwich_ok

    def test_lambda2_envelope(self):
        # |Ux - x| = 0.3 |x| and |Ux| = 0.7 |x|: certify with l2 only
        u = 0.7 * np.eye(3)
        report = cc_lemma_check(u, 0.0, 3.0 / 7.0 + 1e-12)
        assert report.certified
        assert report.sandwich_ok

    def test_violation_produces_witness(self):
        report = cc_lemma_check(0.2 * np.eye(2), 0.1, 0.0)
        assert not report.certified
        assert report.condition_margin < -1e-6
        assert report.witness is not None

    def test_mixed_constants_decided_exactly(self):
        # D = diag(-0.8, 0.5): e2 is tight-ish (0.5 <= 0.3 + 0.45 * 0.5) and
        # sigma_max(I - U) = 0.8 exceeds l1 + l2 sigma_min(U) = 0.525, so
        # only a decision over both constants certifies it
        report = cc_lemma_check(np.diag([1.8, 0.5]), 0.3, 0.45)
        assert report.certified
        assert report.witness is None
        assert report.sandwich_ok
        violated = cc_lemma_check(np.diag([1.8, 0.5]), 0.3, 0.35)
        assert not violated.certified
        assert violated.witness is not None and violated.condition_margin < 0.0

    def test_range_validation(self):
        with pytest.raises(ValidationError):
            cc_lemma_check(np.eye(2), 1.0, 0.0)


class TestPredictedBounds:
    def test_identity_case(self):
        assert predicted_bounds(1.0, 2.0) == (1.0, 2.0)

    def test_lambda1_anchor(self):
        a, b = predicted_bounds(1.0, 2.0, 0.1, 0.0, 0.0)
        assert a == pytest.approx(0.81, rel=1e-15)
        assert b == pytest.approx(2.42, rel=1e-15)

    def test_mu_anchor_matches_simple_corollary(self):
        assert predicted_bounds(4.0, 9.0, 0.0, 0.0, 1.0) == (1.0, 16.0)

    def test_monotone_in_each_constant(self):
        grid = np.linspace(0.0, 0.3, 7)
        a0, b0 = 2.0, 5.0
        for name in ("lambda1", "lambda2", "mu"):
            prev_a, prev_b = None, None
            for v in grid:
                kwargs = {"lambda1": 0.0, "lambda2": 0.0, "mu": 0.0, name: float(v)}
                a, b = predicted_bounds(a0, b0, **kwargs)
                if prev_a is not None:
                    assert a <= prev_a + 1e-12
                    assert b >= prev_b - 1e-12
                prev_a, prev_b = a, b

    def test_inadmissible_rejected(self):
        with pytest.raises(ValidationError):
            predicted_bounds(1.0, 2.0, 0.5, 0.0, 0.6)  # l1 + mu/sqrt(A) >= 1
        with pytest.raises(ValidationError):
            predicted_bounds(1.0, 2.0, 0.0, 1.0, 0.0)  # l2 >= 1


class TestPredictedBoundsSimple:
    def test_anchor(self):
        assert predicted_bounds_simple(4.0, 9.0, 1.0) == (1.0, 16.0)

    def test_zero_deviation_is_identity(self):
        assert predicted_bounds_simple(3.0, 7.0, 0.0) == (3.0, 7.0)

    def test_exactly_delegates(self, rng):
        for _ in range(25):
            a = float(rng.uniform(0.5, 5.0))
            b = a + float(rng.uniform(0.0, 5.0))
            m = float(rng.uniform(0.0, a * 0.99))
            assert predicted_bounds_simple(a, b, m) == predicted_bounds(
                a, b, 0.0, 0.0, np.sqrt(m)
            )

    def test_deviation_at_least_lower_bound_rejected(self):
        with pytest.raises(ValidationError):
            predicted_bounds_simple(1.0, 2.0, 1.0)


class TestAnalysisDeviation:
    def test_identical_families(self):
        fam = seeded_family(1)
        assert analysis_deviation(fam, fam) == 0.0

    def test_diagonal_difference(self):
        g = from_scalar_frame([[1, 0], [0, 1]])
        gamma = from_scalar_frame([[1, 0], [0, 0.9]])
        assert analysis_deviation(g, gamma) == pytest.approx(0.01, rel=1e-12)

    def test_sampled_maximum_attained_at_top_singular_vector(self, rng):
        g = seeded_family(2)
        gamma, _ = perturb_family(g, "additive-analysis", 0.3, seed=3)
        m = analysis_deviation(g, gamma)
        delta = g.synthesis_matrix - gamma.synthesis_matrix
        u, s, vh = np.linalg.svd(delta)
        samples = [u[:, 0]] + [complex_unit(rng, g.dim_h) for _ in range(40)]
        best = max(float(np.linalg.norm(delta.conj().T @ f) ** 2) for f in samples)
        assert best <= m + 1e-12
        assert best == pytest.approx(m, rel=1e-10)


class TestCheckCondition:
    def test_additive_on_onb(self):
        g = onb_family(2)
        gamma = from_scalar_frame([[1, 0], [0, 0.9]])
        verdict = check_condition(
            "analysis", g, gamma, PerturbationConstants(mu=0.1)
        )
        assert verdict.certified
        assert verdict.empirical_margin >= -1e-12
        assert verdict.predicted_bounds[0] == pytest.approx(0.81, rel=1e-12)
        assert verdict.predicted_bounds[1] == pytest.approx(1.21, rel=1e-12)
        a_g, b_g = verdict.actual_bounds
        assert a_g == pytest.approx(0.81, rel=1e-12)
        assert b_g == pytest.approx(1.0, rel=1e-12)
        assert verdict.predicted_bounds[0] <= a_g + 1e-12
        assert b_g <= verdict.predicted_bounds[1] + 1e-12

    def test_scaling_certified_via_lambda1(self):
        g = seeded_family(5)
        gamma, constants = perturb_family(g, "scale", 0.25, seed=5)
        verdict = check_condition("analysis", g, gamma, constants)
        assert verdict.certified
        a_g, b_g = frame_bounds(g)
        assert verdict.actual_bounds[0] == pytest.approx(0.5625 * a_g, rel=1e-9)
        assert verdict.actual_bounds[1] == pytest.approx(0.5625 * b_g, rel=1e-9)
        assert verdict.actual_bounds[0] >= verdict.predicted_bounds[0] - 1e-9
        assert verdict.actual_bounds[1] <= verdict.predicted_bounds[1] + 1e-9

    def test_base_family_not_a_frame(self):
        # a Riesz sequence of 2 vectors in C^4: lower bound 0, named as in
        # canonical_dual and reconstruct, not as check_admissible's lower
        g = riesz_family(4, 1, 2, SpectrumSpec.flat(), seed=1)
        gamma, constants = perturb_family(g, "additive-analysis", 0.1, seed=1)
        with pytest.raises(NotAFrameError, match="not a frame: synthesis rank 2 < dim_h 4"):
            check_condition("analysis", g, gamma, constants)

    def test_underflowing_lower_bound_is_numeric_error(self):
        # a frame whose sigma_min^2 = 1e-340 underflows to 0: a NumericError
        # naming sigma_min, not check_admissible's rejection of lower = 0
        g = from_scalar_frame([[1, 0], [0, 1e-170]])
        gamma, constants = perturb_family(g, "additive-analysis", 0.1, seed=1)
        with pytest.raises(NumericError, match=r"^lower frame bound .*sigma_min = 1e-170"):
            check_condition("analysis", g, gamma, constants)

    def test_synthesis_identity_case(self):
        g = seeded_family(6)
        verdict = check_condition(
            "synthesis", g, g, PerturbationConstants()
        )
        assert verdict.certified
        assert verdict.empirical_margin >= 0.0
        assert verdict.predicted_bounds == pytest.approx(verdict.actual_bounds)

    def test_violated_condition_reports_witness(self):
        g = onb_family(3)
        gamma, _ = perturb_family(g, "scale", 0.5, seed=7)
        verdict = check_condition(
            "analysis", g, gamma, PerturbationConstants(mu=0.1)
        )
        assert not verdict.certified
        assert verdict.empirical_margin < -0.3
        assert verdict.witness is not None

    def test_frame_operator_mode_mu_certificate(self):
        g = random_family(3, 1, 6, SpectrumSpec.explicit([1.0, 2.0, 4.0]), seed=8)
        m = 0.1
        gamma, _ = perturb_family(g, "scale", m, seed=8)
        # |S - S_gamma| = c |S f| with c = 1 - (1-m)^2, and |Sf| <= sqrt(B)
        # sqrt(<Sf, f>), so mu = c sqrt(B) certifies exactly
        c = 1.0 - (1.0 - m) ** 2
        _, b_g = frame_bounds(g)
        constants = PerturbationConstants(mu=c * np.sqrt(b_g) * (1 + 1e-12))
        verdict = check_condition("frame-operator", g, gamma, constants)
        assert verdict.certified
        assert verdict.predicted_bounds is None
        assert verdict.actual_bounds[0] > 0.0

    def test_frame_operator_mode_lambda1_certificate(self):
        g = seeded_family(9)
        m = 0.2
        gamma, _ = perturb_family(g, "scale", m, seed=9)
        c = 1.0 - (1.0 - m) ** 2
        constants = PerturbationConstants(lambda1=c * (1 + 1e-12))
        verdict = check_condition("frame-operator", g, gamma, constants)
        assert verdict.certified
        assert verdict.actual_bounds[0] > 0.0

    def test_synthesis_coefficient_mode(self):
        g = seeded_family(10)
        gamma, constants = perturb_family(g, "additive-analysis", 0.05, seed=10)
        verdict = check_condition(
            "synthesis-coefficient", g, gamma, constants
        )
        assert verdict.certified
        assert verdict.predicted_bounds is None
        assert verdict.actual_bounds[0] > 0.0

    def test_nu_outside_frame_operator_mode_rejected(self):
        g = seeded_family(11)
        with pytest.raises(ValidationError):
            check_condition("analysis", g, g, PerturbationConstants(nu=0.1))

    def test_inadmissible_constants_rejected(self):
        g = onb_family(2)
        with pytest.raises(ValidationError):
            check_condition("analysis", g, g, PerturbationConstants(mu=1.5))

    def test_zero_candidate_operator_fails_with_witness(self):
        # the one active term is lambda2 |T~^H x| with T~ = 0, so the condition
        # holds only if D = T^H vanishes, and T^H of a frame does not
        g = seeded_family(12)
        zero = HSFrameFamily(np.zeros_like(g.images))
        verdict = check_condition("analysis", g, zero, PerturbationConstants(lambda2=0.5))
        assert not verdict.certified
        assert verdict.witness is not None


@st.composite
def left_perturbed_pairs(draw):
    """A frame with singular values in [1, 2] and the candidate (I - E) T with
    |E| <= 0.02: ker T lies in ker(T - T~), so every supremum below is finite
    and every single constant at (1 + 1e-6) times it is admissible."""
    dim_h = draw(st.integers(1, 5))
    dim_k = draw(st.integers(1, 2))
    count = draw(st.integers(-(-dim_h // dim_k**2), 5))
    ncols = count * dim_k * dim_k
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def gauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    u, _ = np.linalg.qr(gauss(dim_h, dim_h))
    v, _ = np.linalg.qr(gauss(ncols, dim_h))
    t = (u * rng.uniform(1.0, 2.0, dim_h)) @ v.conj().T
    e = gauss(dim_h, dim_h)
    e *= draw(st.floats(1e-3, 0.02)) / np.linalg.norm(e, ord=2)
    return (
        HSFrameFamily.from_synthesis_matrix(dim_h, dim_k, t),
        HSFrameFamily.from_synthesis_matrix(dim_h, dim_k, (np.eye(dim_h) - e) @ t),
    )


def dense_condition(mode, fam, cand):
    """D and the operator of each constant, built densely."""
    t, tc = fam.synthesis_matrix, cand.synthesis_matrix
    if mode == "analysis":
        ops = {"lambda1": t.conj().T, "lambda2": tc.conj().T, "mu": np.eye(fam.dim_h)}
        return (t - tc).conj().T, ops
    if mode != "frame-operator":
        return t - tc, {"lambda1": t, "lambda2": tc, "mu": np.eye(t.shape[1])}
    s, sc = t @ t.conj().T, tc @ tc.conj().T
    return s - sc, {"lambda1": s, "lambda2": sc, "mu": t.conj().T, "nu": tc.conj().T}


def assert_sharp(fam, cand, cases):
    """For each (mode, constant), certified holds exactly when the constant
    is at least the supremum of |D x| / |A x|, here computed as |D A^+|."""
    for mode, name in cases:
        d, ops = dense_condition(mode, fam, cand)
        sup = float(np.linalg.norm(d @ np.linalg.pinv(ops[name]), ord=2))
        for factor in (1.0 + 1e-6, 1.0 - 1e-6):
            constants = PerturbationConstants(**{name: sup * factor})
            verdict = check_condition(mode, fam, cand, constants)
            assert verdict.certified == (factor > 1.0), (mode, name, sup, factor)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(left_perturbed_pairs())
def test_single_constant_certificate_is_sharp(pair):
    fam, cand = pair
    assert_sharp(fam, cand, [
        (mode, name)
        for mode in ("analysis", "synthesis", "frame-operator", "synthesis-coefficient")
        for name in dense_condition(mode, fam, cand)[1]
    ])


def diagonal_pair(sigma, tau):
    """Scalar families with T = [diag(sigma) 0] and T~ = [diag(tau) 0]: D and
    every operator are exact, however ill-conditioned, and the zero column
    gives T a kernel."""
    n = len(sigma)
    t, tc = np.zeros((n, n + 1)), np.zeros((n, n + 1))
    t[:, :n], tc[:, :n] = np.diag(sigma), np.diag(tau)
    return (
        HSFrameFamily.from_synthesis_matrix(n, 1, t),
        HSFrameFamily.from_synthesis_matrix(n, 1, tc),
    )


@pytest.mark.parametrize("ratio", [1e-3, 1e-6])
def test_certificate_is_sharp_on_ill_conditioned_families(ratio):
    """sigma_min / sigma_max down to 1e-6, so S has condition 1e12; the
    weak direction alone decides every supremum (nu is inadmissible here)."""
    fam, cand = diagonal_pair([1.0, ratio], [1.0, 1.2 * ratio])
    assert_sharp(fam, cand, [
        ("analysis", "lambda1"), ("analysis", "lambda2"), ("analysis", "mu"),
        ("synthesis", "lambda1"), ("synthesis", "lambda2"),
        ("frame-operator", "lambda1"), ("frame-operator", "lambda2"),
        ("frame-operator", "mu"),
    ])


@pytest.mark.parametrize("name", ["lambda1", "lambda2"])
def test_frame_operator_below_resolution_is_not_certified(name):
    """With sigma_min / sigma_max = 1e-8 the weak direction of S is at 1e-16
    of its norm, below what the dense D = S - S~ resolves; a constant under
    the supremum must not be certified."""
    fam, cand = diagonal_pair([1e3, 1e-5], [1e3, 1.2e-5])
    d, ops = dense_condition("frame-operator", fam, cand)
    sup = float(np.max(np.abs(np.diag(d)) / np.abs(np.diag(ops[name]))))
    constants = PerturbationConstants(**{name: sup * (1.0 - 1e-6)})
    assert not check_condition("frame-operator", fam, cand, constants).certified


def test_coupling_to_the_weak_direction_is_not_certified():
    """S = U diag(1e6, 1e-10) U^H and S~ = S - 1e-7 (u1 u2^H + u2 u1^H):
    |D u2| = 1e-7 against 0.5 |S u2| = 5e-11."""
    fam, _ = diagonal_pair([1e3, 1e-5], [1e3, 1e-5])
    s_c = np.diag([1e6, 1e-10]) - 1e-7 * np.array([[0.0, 1.0], [1.0, 0.0]])
    t_c = np.hstack([np.linalg.cholesky(s_c), np.zeros((2, 1))])
    cand = HSFrameFamily.from_synthesis_matrix(2, 1, t_c)
    verdict = check_condition(
        "frame-operator", fam, cand, PerturbationConstants(lambda1=0.5)
    )
    assert not verdict.certified
    assert verdict.empirical_margin < 0.0 and verdict.witness is not None


def test_singular_candidate_is_not_certified():
    """ker S~ is not inside ker D when the base family is a frame."""
    fam, cand = diagonal_pair([1e3, 1e-5], [1e3, 0.0])
    for mode in ("analysis", "frame-operator"):
        verdict = check_condition(mode, fam, cand, PerturbationConstants(lambda2=0.5))
        assert not verdict.certified, mode
        assert verdict.witness is not None, mode


def test_deviation_inside_the_kernel_slack_is_certified_without_witness():
    """T = [diag(999, 8.8e-4, 7.7e-10) 0] and T~ with the last entry zeroed:
    D = T - T~ lives on the kernel of T~, where it may be as large as
    1e-12 |T~| on coefficient sequences.  The decision certifies, so the
    verdict carries no witness; the margin still shows the 7.7e-10 slack."""
    fam, cand = diagonal_pair([999.0, 8.8e-4, 7.7e-10], [999.0, 8.8e-4, 0.0])
    verdict = check_condition("synthesis", fam, cand, PerturbationConstants(lambda2=0.3))
    assert verdict.certified
    assert verdict.witness is None
    assert verdict.empirical_margin == pytest.approx(-7.7e-10, rel=1e-6)


def test_certified_vanishing_deviation_has_no_witness():
    """With no constant the condition is D = 0, certified up to 1e-13 |S|;
    a sample inside that slack (here |D| = 1e-10 against |S| = 1e4) is no
    witness against the certificate."""
    fam = from_scalar_frame([[100.0, 0.0], [0.0, 1.0]])
    cand = from_scalar_frame([[np.sqrt(1e4 + 1e-10), 0.0], [0.0, 1.0]])
    verdict = check_condition("frame-operator", fam, cand, PerturbationConstants())
    assert verdict.certified
    assert -1e-9 < verdict.empirical_margin < 0.0
    assert verdict.witness is None


def unit_columns(rng, n, k):
    z = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    return z / np.linalg.norm(z, axis=0)


def dense_gaps(d, ops, constants, x):
    """sum_i c_i |A_i x| - |D x| per column of x, straight from the operators."""
    rhs = sum(c * np.linalg.norm(ops[name] @ x, axis=0) for name, c in constants.items())
    return rhs - np.linalg.norm(d @ x, axis=0)


@pytest.mark.parametrize(
    "mode", ["analysis", "synthesis", "frame-operator", "synthesis-coefficient"]
)
def test_gaps_read_from_the_svds_match_the_dense_operators(mode):
    """The decision reads each |A_i x| as |diag(s_i) V_i^H x| off the cached
    thin SVD; with every constant active that matches the dense operators
    to 1e-12 of the right side, also where T (on coefficient sequences) has
    a kernel."""
    fam = seeded_family(5)
    cand, _ = perturb_family(fam, "additive-analysis", 0.2, seed=5)
    ops = dense_condition(mode, fam, cand)[1]
    constants = {name: 0.1 * (k + 1) for k, name in enumerate(ops)}
    d, terms = perturbation._condition(
        mode, fam, cand, PerturbationConstants(**constants)
    )
    x = unit_columns(np.random.default_rng(1), d.shape[1], 64)
    rhs = dense_gaps(d, ops, constants, x) + np.linalg.norm(d @ x, axis=0)
    gaps, _ = perturbation._gaps(d, terms, x)
    assert np.all(np.abs(gaps - dense_gaps(d, ops, constants, x)) <= 1e-12 * rhs)


def grid_supremum(d, ops, names, weights, n=20):
    """sup_x |D x| / sum_i w_i |A_i x| from below.  For a_i >= 0,
    (sum_i w_i a_i)^2 = min over the simplex of sum_i w_i^2 a_i^2 / t_i, so
    the supremum is the largest |D W_t^+| over t, where W_t stacks the
    (w_i / sqrt(t_i)) A_i; this takes it over a grid of step 1/n."""
    best = 0.0
    for head in itertools.product(range(1, n), repeat=len(names) - 1):
        if sum(head) >= n:
            continue
        t = np.array(head + (n - sum(head),)) / n
        w_t = np.vstack([(w / np.sqrt(ti)) * ops[name]
                         for name, w, ti in zip(names, weights, t)])
        best = max(best, float(np.linalg.norm(d @ np.linalg.pinv(w_t), ord=2)))
    return best


@st.composite
def multi_constant_cases(draw):
    """A frame with singular values in [1, 2], a dense perturbation of it, a
    mode with closed-form bounds, and two or three active constants among
    lambda1, lambda2, mu: random weights times ``factor`` (0.8-1.25) times
    their grid supremum, so that conditions both hold and fail."""
    dim_h = draw(st.integers(1, 5))
    dim_k = draw(st.integers(1, 2))
    count = draw(st.integers(-(-dim_h // dim_k**2), 5))
    ncols = count * dim_k * dim_k
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = np.linalg.qr(unit_columns(rng, dim_h, dim_h))[0]
    v = np.linalg.qr(unit_columns(rng, ncols, dim_h))[0]
    t = (u * rng.uniform(1.0, 2.0, dim_h)) @ v.conj().T
    e = unit_columns(rng, dim_h, ncols)
    e *= draw(st.floats(0.01, 0.3)) / np.linalg.norm(e, ord=2)
    fam = HSFrameFamily.from_synthesis_matrix(dim_h, dim_k, t)
    cand = HSFrameFamily.from_synthesis_matrix(dim_h, dim_k, t + e)
    mode = draw(st.sampled_from(["analysis", "synthesis"]))
    names = draw(st.sampled_from([
        ("lambda1", "lambda2"), ("lambda1", "mu"), ("lambda2", "mu"),
        ("lambda1", "lambda2", "mu"),
    ]))
    weights = rng.uniform(0.2, 1.0, len(names))
    d, ops = dense_condition(mode, fam, cand)
    factor = draw(st.floats(0.8, 1.25))
    scale = factor * grid_supremum(d, ops, names, weights)
    constants = {name: scale * w for name, w in zip(names, weights)}
    return fam, cand, mode, constants, factor


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(multi_constant_cases())
def test_multi_constant_decision_is_sound(case):
    """The paper's theorem with several constants: a certified condition
    keeps the perturbed bounds inside the predicted ones.  A certified
    condition is not below its grid supremum and has no violating sample
    among 256 random unit vectors; every witness violates it directly."""
    fam, cand, mode, constants, factor = case
    try:
        verdict = check_condition(mode, fam, cand, PerturbationConstants(**constants))
    except ValidationError:  # inadmissible constants
        assume(False)
    d, ops = dense_condition(mode, fam, cand)
    if verdict.certified:
        assert verdict.witness is None
        assert factor >= 1.0 - 1e-9
        x = unit_columns(np.random.default_rng(0), d.shape[1], 256)
        gaps = dense_gaps(d, ops, constants, x)
        assert gaps.min() >= -1e-9 * max(1.0, np.linalg.norm(d, ord=2))
        a_p, b_p = verdict.predicted_bounds
        a_c, b_c = verdict.actual_bounds
        assert a_c >= a_p * (1.0 - 1e-9)
        assert b_c <= b_p * (1.0 + 1e-9)
    if verdict.witness is not None:
        assert dense_gaps(d, ops, constants, verdict.witness[:, None])[0] < 0.0
        assert verdict.empirical_margin < 0.0


def test_mixed_constants_decide_scaling():
    """(1 - m) T against lambda1 and mu: holds with room 0.05 when lambda1 = m,
    fails with a witness when both constants are too small."""
    g = seeded_family(21)
    gamma, _ = perturb_family(g, "scale", 0.1, seed=21)
    holds = check_condition(
        "analysis", g, gamma, PerturbationConstants(lambda1=0.1, mu=0.05)
    )
    assert holds.certified and holds.witness is None
    assert holds.empirical_margin == pytest.approx(0.05, rel=1e-9)
    fails = check_condition(
        "analysis", g, gamma, PerturbationConstants(lambda1=0.02, mu=0.01)
    )
    assert not fails.certified and fails.witness is not None
    assert fails.empirical_margin < 0.0


def tight_conditions(slack):
    """Two-constant conditions that hold with equality at ``slack`` 0: the
    Casazza-Christensen lemma for U = 0.7 I with lambda1 + 0.7 lambda2 = 0.3,
    and (1 - m) T in analysis mode with mu = (m - lambda1) |T|."""
    g = seeded_family(21)
    gamma, _ = perturb_family(g, "scale", 0.1, seed=21)
    sup_t = float(np.sqrt(frame_bounds(g)[1]))
    lemma = cc_lemma_check(0.7 * np.eye(3), 0.15 * (1.0 + slack), 0.15 / 0.7)
    scale = check_condition(
        "analysis", g, gamma,
        PerturbationConstants(lambda1=0.05, mu=0.05 * sup_t * (1.0 + slack)),
    )
    return lemma, scale


def test_tight_multi_constant_conditions_carry_no_witness():
    """A tie between several constants is certified or undecided, never
    violated: rounding alone must not produce a witness."""
    lemma, scale = tight_conditions(0.0)
    assert lemma.witness is None
    assert scale.witness is None
    assert lemma.condition_margin > -1e-14 and scale.empirical_margin > -1e-14
    lemma, scale = tight_conditions(1e-2)
    assert lemma.certified and lemma.sandwich_ok and scale.certified


def drawn_pair(seed):
    """seeded_family(seed), perturbed as perturb_family draws it, and the
    same candidate rebuilt from its synthesis matrix, which carries
    nothing: the decision on it takes the exact path."""
    g = seeded_family(seed)
    gamma, constants = perturb_family(g, "additive-analysis", 0.1, seed=seed)
    rebuilt = HSFrameFamily.from_synthesis_matrix(g.dim_h, g.dim_k, gamma.synthesis_matrix)
    return g, gamma, rebuilt, constants


def test_single_constant_decision_factors_only_the_deviation(linalg_calls):
    """One active constant with an operator term reads the families' cached
    SVDs: the decision factors D once and whitens once, by SVD in every
    mode, Hermitian D = S - S~ included, and calls nothing else of
    numpy.linalg but, in synthesis mode, the values-only SVD of the ker T
    test's norm, between the two."""
    g, _, gamma, _ = drawn_pair(3)
    g.svd, gamma.svd  # computed once per family, before the decisions
    for mode in ("analysis", "synthesis", "frame-operator"):
        linalg_calls.clear()
        check_condition(mode, g, gamma, PerturbationConstants(lambda1=0.5))
        h, n = g.synthesis_matrix.shape  # 14 x 18
        d = {"analysis": (n, h), "synthesis": (h, n), "frame-operator": (h, h)}[mode]
        kernel = [("svd", (h, n), "values")] if mode == "synthesis" else []
        assert shapes(linalg_calls) == [("svd", d, None), *kernel, ("svd", d, None)], mode


def test_tall_deviation_is_factored_through_its_r_factor(linalg_calls):
    """In analysis mode D = (T - T~)^H has count*dim_k^2 = 12 rows on a
    4-dimensional H, so its SVD is taken of the square 4 x 4 R factor, and
    the decision never forms D's 12 x 4 left singular vectors."""
    g = random_family(4, 1, 12, SpectrumSpec.flat(), seed=5)
    drawn, constants = perturb_family(g, "additive-analysis", 0.1, seed=5)
    gamma = HSFrameFamily.from_synthesis_matrix(4, 1, drawn.synthesis_matrix)
    g.svd, gamma.svd  # computed once per family, before the decision
    linalg_calls.clear()
    assert check_condition("analysis", g, gamma, constants).certified
    assert [a.shape for _, a, _ in named(linalg_calls, "svd")] == [(4, 4)]
    assert shapes(linalg_calls) == [("qr", (12, 4), "r"), ("svd", (4, 4), None)]


def test_drawn_pair_reads_the_carried_factors(linalg_calls):
    """perturb_family factors its draw delta^H once, with vectors, and the
    candidate carries those factors: in analysis mode against the family
    it was drawn from, mu alone is settled by their bound with no
    numpy.linalg call, and lambda1 alone makes only the whitening SVD."""
    g = seeded_family(3)
    g.svd
    linalg_calls.clear()
    gamma, constants = perturb_family(g, "additive-analysis", 0.1, seed=3)
    h, n = g.synthesis_matrix.shape  # 14 x 18, not tall enough for R
    assert shapes(linalg_calls) == [("svd", (n, h), None)]
    gamma.svd
    linalg_calls.clear()
    assert check_condition("analysis", g, gamma, constants).certified
    assert linalg_calls == []
    check_condition("analysis", g, gamma, PerturbationConstants(lambda1=0.5))
    assert shapes(linalg_calls) == [("svd", (n, h), None)]


def test_carried_factors_are_read_against_their_own_base_alone(linalg_calls):
    """A base family equal to the perturbed one but another object, or
    another mode than analysis, takes the exact path and factors D."""
    g, gamma, _, constants = drawn_pair(3)
    twin = HSFrameFamily.from_synthesis_matrix(g.dim_h, g.dim_k, g.synthesis_matrix)
    assert np.array_equal(twin.images, g.images)
    g.svd, twin.svd, gamma.svd
    linalg_calls.clear()
    assert check_condition("analysis", twin, gamma, constants).certified
    h, n = g.synthesis_matrix.shape
    assert shapes(linalg_calls) == [("svd", (n, h), None)]
    linalg_calls.clear()
    check_condition("synthesis", g, gamma, constants)
    assert shapes(linalg_calls) == [("svd", (h, n), None)]


def test_bound_above_the_limit_falls_back_to_factoring_the_deviation(linalg_calls):
    """On a flat 1e7 family with mu = 1e-3 the Frobenius slack of T + Delta's
    rounding is above 1e-10 mu, so the carried bound does not settle the
    mu rule at mu = 1e-3: D is factored, through its R, and certifies as
    on the exact path.  perturb_family itself returns that bound as mu
    there, so mu = 1e-3 is passed explicitly."""
    g = random_family(6, 1, 12, SpectrumSpec.flat(1e7), seed=0)
    gamma, returned = perturb_family(g, "additive-analysis", 1e-3, seed=0)
    constants = PerturbationConstants(mu=1e-3)
    assert returned.mu > perturbation._limit(1e-3)
    rebuilt = HSFrameFamily.from_synthesis_matrix(6, 1, gamma.synthesis_matrix)
    g.svd, gamma.svd, rebuilt.svd
    linalg_calls.clear()
    verdict = check_condition("analysis", g, gamma, constants)
    assert shapes(linalg_calls) == [("qr", (12, 6), "r"), ("svd", (6, 6), None)]
    assert verdict.certified
    assert verdict == check_condition("analysis", g, rebuilt, constants)


@pytest.mark.parametrize("level", [1e6, 1e7, 1e8])
def test_additive_modes_certify_the_mu_they_return(level):
    """perturb_family's additive modes return mu = magnitude only where the
    carried bound on sigma_max(T - T~) settles the mu rule there, and that
    bound otherwise, so check_condition certifies what they return with no
    witness.  On flat 1e6-1e8 levels at magnitude 1e-5 the rounding of
    T + Delta (entries near sqrt(level)) takes the bound past the rule's
    1e-10 mu + 1e-14 slack; seed 4 at 1e6 is a case where mu = magnitude
    itself is violated, with a witness."""
    for seed in range(20):
        g = random_family(8, 1, 16, SpectrumSpec.flat(level), seed)
        for mode in ("additive-analysis", "blockwise"):
            gamma, constants = perturb_family(g, mode, 1e-5, seed=seed)
            carried = gamma._deviation[1].top
            assert constants.mu == (1e-5 if carried <= perturbation._limit(1e-5) else carried)
            verdict = check_condition("analysis", g, gamma, constants)
            assert verdict.certified and verdict.witness is None
    if level == 1e6:
        g = random_family(8, 1, 16, SpectrumSpec.flat(1e6), 4)
        gamma, _ = perturb_family(g, "additive-analysis", 1e-5, seed=4)
        verdict = check_condition("analysis", g, gamma, PerturbationConstants(mu=1e-5))
        assert not verdict.certified and verdict.witness is not None


@st.composite
def drawn_perturbations(draw):
    """A random flat family, level 1e-6 to 1e8, perturbed by an additive
    mode of perturb_family at mu from 1e-8 to 0.45 of sqrt(A), and the mu
    to check against: the drawn one, half of it (violated) or twice it."""
    dim_h = draw(st.integers(1, 8))
    dim_k = draw(st.integers(1, 2))
    count = draw(st.integers(-(-dim_h // dim_k**2), 8))
    level = 10.0 ** draw(st.floats(-6.0, 8.0))
    mu = np.sqrt(level) * 10.0 ** draw(st.floats(-8.0, np.log10(0.45)))
    seed = draw(st.integers(0, 2**32 - 1))
    fam = random_family(dim_h, dim_k, count, SpectrumSpec.flat(level), seed)
    mode = draw(st.sampled_from(["additive-analysis", "blockwise"]))
    gamma, _ = perturb_family(fam, mode, mu, seed=seed)
    return fam, gamma, mu * draw(st.sampled_from([0.5, 1.0, 2.0]))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(drawn_perturbations())
def test_carried_factors_decide_as_the_exact_path(case):
    """The candidate's carried factors and a rebuilt candidate's exact
    factorization of D give the same verdict; a certified one has the
    exact sigma_max(D) within the mu rule's limit."""
    fam, gamma, mu = case
    constants = PerturbationConstants(mu=mu)
    carried = check_condition("analysis", fam, gamma, constants)
    rebuilt = HSFrameFamily.from_synthesis_matrix(fam.dim_h, fam.dim_k, gamma.synthesis_matrix)
    exact = check_condition("analysis", fam, rebuilt, constants)
    assert carried.certified == exact.certified
    assert (carried.witness is None) == (exact.witness is None)
    assert carried.actual_bounds == exact.actual_bounds
    if carried.certified:
        d = (fam.synthesis_matrix - gamma.synthesis_matrix).conj().T
        assert np.linalg.norm(d, ord=2) <= mu * (1.0 + 1e-10) + 1e-14


class TestPerturbFamily:
    def test_zero_magnitude_identity(self):
        g = seeded_family(12)
        gamma, constants = perturb_family(g, "additive-analysis", 0.0, seed=12)
        assert np.array_equal(gamma.synthesis_matrix, g.synthesis_matrix)
        assert constants == PerturbationConstants()

    def test_additive_deviation_is_exact(self):
        for seed in range(5):
            g = seeded_family(seed)
            mu = 0.2
            gamma, constants = perturb_family(g, "additive-analysis", mu, seed=seed)
            assert constants.mu == mu
            assert analysis_deviation(g, gamma) == pytest.approx(mu**2, abs=1e-12)

    def test_scale_on_parseval(self):
        g = onb_family(3)
        gamma, constants = perturb_family(g, "scale", 0.25, seed=13)
        assert constants.lambda1 == 0.25
        assert frame_bounds(gamma) == pytest.approx((0.5625, 0.5625))

    def test_blockwise_only_touches_selected_indices(self):
        g = seeded_family(14)
        gamma, constants = perturb_family(
            g, "blockwise", 0.1, seed=14, indices=[0]
        )
        assert constants.mu == 0.1
        blk = g.dim_k**2
        delta = g.synthesis_matrix - gamma.synthesis_matrix
        assert np.linalg.norm(delta[:, blk:]) == 0.0
        assert np.linalg.norm(delta[:, :blk], ord=2) == pytest.approx(0.1, rel=1e-12)

    @pytest.mark.parametrize("mode", ["additive-analysis", "scale", "blockwise"])
    def test_keeps_its_synthesis_matrix(self, mode):
        g = seeded_family(4)
        gamma, _ = perturb_family(g, mode, 0.1, seed=4)
        t = vars(gamma)["synthesis_matrix"]  # kept, not yet derived from images
        assert t.flags.f_contiguous and not t.flags.writeable
        assert np.array_equal(t, HSFrameFamily(gamma.maps).synthesis_matrix)

    def test_negative_magnitude_rejected(self):
        with pytest.raises(ValidationError):
            perturb_family(seeded_family(15), "scale", -0.1)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError, match="unknown perturbation mode"):
            perturb_family(onb_family(2), "rotate", 0.1)


def test_unknown_condition_mode_rejected():
    g = onb_family(2)
    with pytest.raises(ValidationError, match="unknown mode"):
        check_condition("spectral", g, g, PerturbationConstants())


def test_frame_operator_admissibility_needs_the_bessel_bound():
    with pytest.raises(ValidationError, match="Bessel bound"):
        check_admissible(PerturbationConstants(), 1.0, mode="frame-operator")


def test_frame_operator_admissibility_bounds_the_sum():
    # lambda1 + mu/sqrt(A) + nu*sqrt(D)/A = 0.5 + 0.25 + 0.25 with A = 1, D = 1
    constants = PerturbationConstants(lambda1=0.5, mu=0.25, nu=0.25)
    with pytest.raises(ValidationError, match=r"\+ nu\*sqrt\(D\)/A = 1.0 >= 1"):
        check_admissible(constants, 1.0, bessel_of_candidate=1.0, mode="frame-operator")
    check_admissible(constants, 1.0, bessel_of_candidate=0.81, mode="frame-operator")


@pytest.mark.parametrize("name", ["lambda1", "lambda2", "mu", "nu"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.1, True, "0.1"])
def test_constants_must_be_finite_reals(name, value):
    with pytest.raises(ValidationError, match=name):
        PerturbationConstants(**{name: value})


class TestSoundness:
    def test_certified_conditions_imply_predicted_bounds(self):
        rng = np.random.default_rng(99)
        for trial in range(40):
            g = seeded_family(int(rng.integers(0, 10_000)))
            a_g, _ = frame_bounds(g)
            mode = ("additive-analysis", "scale")[trial % 2]
            if mode == "scale":
                magnitude = float(rng.uniform(0.0, 0.8))
            else:
                magnitude = float(rng.uniform(0.0, 0.9)) * np.sqrt(a_g)
            gamma, constants = perturb_family(
                g, mode, magnitude, seed=int(rng.integers(0, 2**31))
            )
            verdict = check_condition("analysis", g, gamma, constants)
            assert verdict.certified
            a_p, b_p = verdict.predicted_bounds
            a_c, b_c = verdict.actual_bounds
            assert a_c >= a_p - 1e-9
            assert b_c <= b_p + 1e-9

    def test_simple_corollary_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = seeded_family(int(rng.integers(0, 10_000)))
            a_g, b_g = frame_bounds(g)
            mu = float(rng.uniform(0.0, 0.9)) * np.sqrt(a_g)
            gamma, _ = perturb_family(
                g, "additive-analysis", mu, seed=int(rng.integers(0, 2**31))
            )
            m = analysis_deviation(g, gamma)
            if m >= a_g:
                continue
            a_p, b_p = predicted_bounds_simple(a_g, b_g, m)
            a_c, b_c = frame_bounds(gamma)
            assert a_c >= a_p - 1e-9
            assert b_c <= b_p + 1e-9


class TestRieszStability:
    def test_unperturbed_riesz_confirmed(self):
        g = riesz_family(6, 1, 6, SpectrumSpec.explicit([1, 1.5, 2, 2.5, 3, 4]), seed=16)
        verdict = riesz_stability_check(g, g, PerturbationConstants())
        assert verdict.status == "confirmed"
        assert verdict.riesz_preserved
        assert verdict.actual_riesz_bounds == pytest.approx(verdict.predicted_bounds)

    def test_additive_perturbation_keeps_riesz(self):
        g = riesz_family(8, 2, 2, SpectrumSpec.flat(), seed=17)
        gamma, constants = perturb_family(g, "additive-analysis", 0.1, seed=17)
        verdict = riesz_stability_check(g, gamma, constants)
        assert verdict.status == "confirmed"
        assert verdict.riesz_preserved
        sigma = np.linalg.svd(gamma.synthesis_matrix, compute_uv=False)
        assert float(sigma[-1]) ** 2 >= verdict.predicted_bounds[0] - 1e-9

    def test_non_riesz_base_is_inconclusive(self):
        g = from_scalar_frame([[1, 0], [0, 1], [2**-0.5, 2**-0.5]])
        verdict = riesz_stability_check(g, g, PerturbationConstants())
        assert verdict.status == "inconclusive"
        assert "Riesz" in verdict.reason

    def test_unverified_condition_is_inconclusive(self):
        g = riesz_family(4, 1, 4, SpectrumSpec.flat(), seed=19)
        gamma, _ = perturb_family(g, "scale", 0.5, seed=19)
        verdict = riesz_stability_check(
            g, gamma, PerturbationConstants(mu=0.01)
        )
        assert verdict.status == "inconclusive"

    def test_inadmissible_constants_raise(self):
        g = riesz_family(4, 1, 4, SpectrumSpec.flat(), seed=20)
        with pytest.raises(ValidationError):
            riesz_stability_check(g, g, PerturbationConstants(mu=1.0))


class TestClassicalSpecialization:
    def test_scalar_families_match_oracle_formulas(self, rng):
        vectors = [rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(7)]
        g = from_scalar_frame(vectors)
        oracle = ScalarFrameOracle(vectors)
        a_o, b_o = oracle.bounds()
        a_g, b_g = frame_bounds(g)
        assert a_g == pytest.approx(a_o, rel=1e-10)
        assert b_g == pytest.approx(b_o, rel=1e-10)
        got = predicted_bounds(a_g, b_g, 0.05, 0.1, 0.02 * np.sqrt(a_g))
        want = oracle.predicted_bounds(a_o, b_o, 0.05, 0.1, 0.02 * np.sqrt(a_o))
        assert got == pytest.approx(want, rel=1e-10)

    def test_scalar_deviation_matches_oracle(self, rng):
        vectors = [rng.standard_normal(3) for _ in range(5)]
        perturbed = [v + 0.05 * rng.standard_normal(3) for v in vectors]
        g = from_scalar_frame(vectors)
        gamma = from_scalar_frame(perturbed)
        oracle_m = ScalarFrameOracle(vectors).deviation(ScalarFrameOracle(perturbed))
        assert analysis_deviation(g, gamma) == pytest.approx(oracle_m, rel=1e-10)
