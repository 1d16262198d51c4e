import numpy as np
import pytest

from hsframe import (
    CoefficientSequence,
    HSFrameFamily,
    HSMap,
    NotAFrameError,
    ValidationError,
    analyze,
    canonical_dual,
    classify,
    frame_bounds,
    frame_operator,
    frame_operator_hs_norm_bound,
    from_scalar_frame,
    onb_family,
    reconstruct,
    riesz_inequality_check,
    synthesize,
    verify_alternate_dual,
)
from conftest import complex_unit, seeded_family

MB = from_scalar_frame([[1, 0], [0, 1], [2**-0.5, 2**-0.5]])  # frame, not Riesz
REPEATED = from_scalar_frame([[1, 0], [1, 0], [0, 1]])  # S = diag(2, 1)


def random_coefficients(rng, family):
    shape = (family.count, family.dim_k, family.dim_k)
    return CoefficientSequence(
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    )


class TestAnalyzeSynthesize:
    def test_scalar_analysis_coefficients(self):
        fam = onb_family(2)
        coeffs = analyze(fam, [3.0, 4.0])
        assert np.allclose(coeffs.blocks[:, 0, 0], [3, 4])

    def test_zero_vector(self):
        assert analyze(MB, np.zeros(2)).norm() == 0.0

    def test_scalar_synthesis(self):
        fam = onb_family(2)
        c = CoefficientSequence([[[1.0]], [[1.0]]])
        assert np.allclose(synthesize(fam, c), [1, 1])

    def test_parseval_round_trip(self, rng):
        fam = onb_family(4)
        f = complex_unit(rng, 4)
        assert np.allclose(synthesize(fam, analyze(fam, f)), f, atol=1e-14)

    def test_adjointness(self, rng):
        for seed in range(10):
            fam = seeded_family(seed)
            f = complex_unit(rng, fam.dim_h)
            c = random_coefficients(rng, fam)
            lhs = np.vdot(f, synthesize(fam, c))
            rhs = np.vdot(analyze(fam, f).stacked(), c.stacked())
            scale = c.norm() * np.linalg.norm(f)
            assert abs(lhs - rhs) <= 1e-10 * scale

    def test_permutation_invariance(self, rng):
        fam = seeded_family(3)
        c = random_coefficients(rng, fam)
        out = synthesize(fam, c)
        perm = rng.permutation(fam.count)
        fam_p = HSFrameFamily([fam.maps[j] for j in perm])
        c_p = CoefficientSequence(c.blocks[perm])
        assert np.allclose(synthesize(fam_p, c_p), out, atol=1e-12 * c.norm())

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            analyze(MB, np.zeros(3))
        with pytest.raises(ValidationError):
            synthesize(MB, CoefficientSequence(np.zeros((2, 1, 1))))


class TestFrameOperator:
    def test_onb_identity(self):
        assert np.allclose(frame_operator(onb_family(3)), np.eye(3), atol=1e-15)

    def test_repeated_direction(self):
        assert np.allclose(frame_operator(REPEATED), np.diag([2.0, 1.0]), atol=1e-15)

    def test_three_vector_example(self):
        expected = [[1.5, 0.5], [0.5, 1.5]]
        assert np.allclose(frame_operator(MB), expected, atol=1e-15)

    def test_applies_as_analysis_then_synthesis(self, rng):
        fam = seeded_family(7)
        f = complex_unit(rng, fam.dim_h)
        assert np.allclose(
            frame_operator(fam) @ f, synthesize(fam, analyze(fam, f)), atol=1e-12
        )

    def test_hermitian_psd(self):
        s = frame_operator(seeded_family(11))
        assert np.allclose(s, s.conj().T)
        assert np.linalg.eigvalsh(s)[0] >= -1e-12


class TestImmutability:
    def test_family_arrays_are_read_only(self):
        fam = seeded_family(17)
        with pytest.raises(ValueError):
            fam.maps[0].images[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            fam.synthesis_matrix[0, 0] = 1.0

    def test_coefficient_blocks_are_read_only(self):
        c = CoefficientSequence(np.zeros((2, 1, 1)))
        with pytest.raises(ValueError):
            c.blocks[0, 0, 0] = 1.0

    def test_constructor_copies_input(self):
        images = np.zeros((2, 1, 1), dtype=complex)
        m = HSMap(images)
        images[0, 0, 0] = 5.0  # mutating the source must not leak in
        assert m.images[0, 0, 0] == 0.0


class TestFrameBounds:
    def test_onb(self):
        assert frame_bounds(onb_family(3)) == pytest.approx((1.0, 1.0))

    def test_three_vector_example(self):
        a, b = frame_bounds(MB)
        assert a == pytest.approx(1.0, abs=1e-12)
        assert b == pytest.approx(2.0, abs=1e-12)

    def test_defective_family(self):
        fam = from_scalar_frame([[1, 0], [1, 0]])
        a, b = frame_bounds(fam)
        assert a == 0.0 and b == pytest.approx(2.0)

    def test_rayleigh_quotients_inside_bounds(self, rng):
        for seed in range(5):
            fam = seeded_family(seed)
            a, b = frame_bounds(fam)
            for _ in range(25):
                f = complex_unit(rng, fam.dim_h)
                energy = analyze(fam, f).norm() ** 2
                assert a - 1e-9 <= energy <= b + 1e-9

    def test_bound_optimality_attained(self):
        # with the extremal eigenvectors in the sample set, the max/min of
        # the analysis energy equal the bounds
        fam = seeded_family(13)
        a, b = frame_bounds(fam)
        w, vecs = np.linalg.eigh(frame_operator(fam))
        rng = np.random.default_rng(0)
        samples = [vecs[:, 0], vecs[:, -1]] + [
            complex_unit(rng, fam.dim_h) for _ in range(50)
        ]
        energies = [analyze(fam, f).norm() ** 2 for f in samples]
        assert max(energies) == pytest.approx(b, rel=1e-6)
        assert min(energies) == pytest.approx(a, rel=1e-6)


class TestClassify:
    def test_scalar_onb(self):
        rep = classify(onb_family(2))
        assert rep.frame and rep.riesz and rep.complete and rep.bessel
        assert rep.riesz_lower == pytest.approx(1.0)
        assert rep.riesz_upper == pytest.approx(1.0)

    def test_redundant_frame_not_riesz(self):
        rep = classify(MB)
        assert rep.frame and not rep.riesz
        assert rep.riesz_lower is None

    def test_single_map_with_orthonormal_images(self):
        # one map into 2x2 matrices whose two images are orthonormal: a
        # frame with bounds (1, 1), but its synthesis operator has a
        # 2-dimensional kernel (4 coefficient dims onto a 2-dim space), so
        # it is not a Riesz basis
        y0 = np.array([1.0, 0.0])
        images = [np.outer([1, 0], y0.conj()), np.outer([0, 1], y0.conj())]
        fam = HSFrameFamily([HSMap(images)])
        rep = classify(fam)
        assert rep.frame and rep.complete
        assert rep.lower_bound == pytest.approx(1.0)
        assert rep.upper_bound == pytest.approx(1.0)
        assert not rep.riesz

    def test_synthesis_and_pinv_norms_match_bounds(self):
        for seed in range(20):
            fam = seeded_family(seed)
            rep = classify(fam)
            assert rep.synthesis_norm**2 == pytest.approx(rep.upper_bound, rel=1e-9)
            assert rep.pseudo_inverse_norm**-2 == pytest.approx(
                rep.lower_bound, rel=1e-9
            )

    def test_all_zero_family_is_bessel_only(self):
        fam = HSFrameFamily([np.zeros((2, 1, 1)), np.zeros((2, 1, 1))])
        rep = classify(fam)
        assert rep.bessel
        assert not rep.frame and not rep.complete and not rep.riesz
        assert rep.synthesis_norm == 0.0
        assert rep.pseudo_inverse_norm == np.inf

    def test_rank_tol_validated(self):
        with pytest.raises(ValidationError):
            classify(MB, rank_tol=0.0)


class TestRieszInequalityCheck:
    def test_onb_ratios_are_one(self):
        check = riesz_inequality_check(onb_family(3))
        assert check.min_ratio == pytest.approx(1.0, rel=1e-12)
        assert check.max_ratio == pytest.approx(1.0, rel=1e-12)
        assert check.riesz

    def test_riesz_family_ratios_within_classify_bounds(self):
        fam = seeded_family(2)  # make sure we get a Riesz one
        rep = classify(fam)
        if not rep.riesz:
            fam = onb_family(4)
            rep = classify(fam)
        check = riesz_inequality_check(fam)
        assert check.riesz
        assert check.min_ratio >= rep.riesz_lower - 1e-9
        assert check.max_ratio <= rep.riesz_upper + 1e-9

    def test_kernel_vector_drives_ratio_to_zero(self):
        check = riesz_inequality_check(MB)
        assert not check.riesz
        assert check.min_ratio <= 1e-12 * check.max_ratio

    def test_agrees_with_classify(self):
        for seed in range(30):
            fam = seeded_family(seed)
            assert classify(fam).riesz == riesz_inequality_check(fam).riesz


class TestCanonicalDual:
    def test_repeated_direction_dual(self):
        dual = canonical_dual(REPEATED)
        expected = from_scalar_frame([[0.5, 0], [0.5, 0], [0, 1]])
        assert np.allclose(dual.synthesis_matrix, expected.synthesis_matrix)
        assert frame_bounds(dual) == pytest.approx((0.5, 1.0))

    def test_parseval_self_dual(self):
        fam = onb_family(3)
        dual = canonical_dual(fam)
        assert np.allclose(dual.synthesis_matrix, fam.synthesis_matrix, atol=1e-14)

    def test_three_vector_dual_bounds(self):
        assert frame_bounds(canonical_dual(MB)) == pytest.approx((0.5, 1.0))

    def test_inverted_bounds_sweep(self):
        for seed in range(20):
            fam = seeded_family(seed)
            a, b = frame_bounds(fam)
            da, db = frame_bounds(canonical_dual(fam))
            assert da == pytest.approx(1.0 / b, rel=1e-9)
            assert db == pytest.approx(1.0 / a, rel=1e-9)

    def test_dual_of_dual_is_original(self):
        for seed in (1, 6, 9):
            fam = seeded_family(seed)
            twice = canonical_dual(canonical_dual(fam))
            scale = np.linalg.norm(fam.synthesis_matrix)
            assert np.allclose(
                twice.synthesis_matrix, fam.synthesis_matrix, atol=1e-10 * scale
            )

    def test_not_a_frame(self):
        with pytest.raises(NotAFrameError):
            canonical_dual(from_scalar_frame([[1, 0], [1, 0]]))


class TestReconstruct:
    def test_onb_exact(self, rng):
        fam = onb_family(4)
        f = complex_unit(rng, 4)
        assert np.allclose(reconstruct(fam, f), f, atol=1e-14)

    def test_repeated_direction(self):
        out = reconstruct(REPEATED, [1.0, 2.0])
        assert np.allclose(out, [1, 2], atol=1e-12)

    def test_zero(self):
        assert np.all(reconstruct(MB, np.zeros(2)) == 0)

    def test_residual_sweep(self, rng):
        for seed in range(10):
            fam = seeded_family(seed)
            f = complex_unit(rng, fam.dim_h)
            assert np.linalg.norm(reconstruct(fam, f) - f) <= 1e-9

    def test_not_a_frame(self):
        with pytest.raises(NotAFrameError):
            reconstruct(from_scalar_frame([[1, 0], [1, 0]]), [1.0, 1.0])


class TestAlternateDual:
    def test_canonical_dual_passes(self):
        fam = seeded_family(4)
        check = verify_alternate_dual(fam, canonical_dual(fam), seed=9)
        assert check.ok
        assert check.identity_gap <= 1e-9

    def test_scaled_family_fails_with_unit_residual(self):
        fam = onb_family(3)
        doubled = HSFrameFamily.from_synthesis_matrix(
            3, 1, 2.0 * fam.synthesis_matrix
        )
        check = verify_alternate_dual(fam, doubled, seed=2)
        assert not check.ok
        # identity yields 2f, so the relative residual is |f| / |f| = 1
        assert check.max_residual == pytest.approx(1.0, rel=1e-12)

    def test_kernel_perturbed_dual_still_dual(self, rng):
        fam = MB
        dual = canonical_dual(fam)
        t = fam.synthesis_matrix
        _, _, vh = np.linalg.svd(t, full_matrices=True)
        kappa = vh[-1].conj()  # kernel direction of the synthesis operator
        assert np.linalg.norm(t @ kappa) < 1e-12
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        candidate = HSFrameFamily.from_synthesis_matrix(
            2, 1, dual.synthesis_matrix + np.outer(w, kappa.conj())
        )
        check = verify_alternate_dual(fam, candidate, seed=7)
        assert check.ok
        assert not np.allclose(candidate.synthesis_matrix, dual.synthesis_matrix)

    def test_kernel_perturbed_dual_block_valued(self, rng):
        fam = seeded_family(21)
        if fam.synthesis_matrix.shape[1] == fam.dim_h:
            fam = seeded_family(22)  # need genuine redundancy
        assert fam.synthesis_matrix.shape[1] > fam.dim_h
        dual = canonical_dual(fam)
        t = fam.synthesis_matrix
        _, _, vh = np.linalg.svd(t, full_matrices=True)
        kappa = vh[-1].conj()
        assert np.linalg.norm(t @ kappa) < 1e-10
        w = rng.standard_normal(fam.dim_h) + 1j * rng.standard_normal(fam.dim_h)
        candidate = HSFrameFamily.from_synthesis_matrix(
            fam.dim_h, fam.dim_k, dual.synthesis_matrix + np.outer(w, kappa.conj())
        )
        check = verify_alternate_dual(fam, candidate, seed=8, tol=1e-8)
        assert check.ok


class TestFrameOperatorHSNorm:
    def test_onb_dim4_equality(self):
        hs, bound = frame_operator_hs_norm_bound(onb_family(4))
        assert hs == pytest.approx(2.0)
        assert bound == pytest.approx(2.0)

    def test_repeated_direction(self):
        hs, bound = frame_operator_hs_norm_bound(REPEATED)
        assert hs == pytest.approx(np.sqrt(5.0))
        assert bound == pytest.approx(2.0 * np.sqrt(2.0))
        assert hs <= bound

    def test_inequality_holds_on_sweep(self):
        for seed in range(20):
            hs, bound = frame_operator_hs_norm_bound(seeded_family(seed))
            assert hs <= bound * (1 + 1e-12)
