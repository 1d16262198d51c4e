from functools import cached_property

import numpy as np
import pytest

from hsframe import (
    CoefficientSequence,
    HSFrameFamily,
    HSMap,
    NotAFrameError,
    NumericError,
    SpectrumSpec,
    ValidationError,
    analyze,
    canonical_dual,
    classify,
    decaying_family,
    frame_bounds,
    frame_operator,
    frame_operator_hs_norm_bound,
    from_scalar_frame,
    load_family,
    onb_family,
    random_family,
    reconstruct,
    save_family,
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


class TestStorage:
    """A family stores its operators once, as images (count, dim_h, d_k, d_k)."""

    @pytest.mark.parametrize("build", ["maps", "synthesis_matrix", "file"])
    def test_maps_are_views_of_one_read_only_array(self, tmp_path, build):
        ref = random_family(5, 2, 3, SpectrumSpec.flat(), seed=1)
        if build == "maps":
            fam = HSFrameFamily([np.asfortranarray(m.images) for m in ref.maps])
        elif build == "synthesis_matrix":
            fam = HSFrameFamily.from_synthesis_matrix(5, 2, ref.synthesis_matrix)
        else:
            save_family(ref, str(tmp_path / "fam.json"))
            fam = load_family(str(tmp_path / "fam.json"))
            assert fam is not ref
        assert fam.images.tobytes() == ref.images.tobytes()
        assert fam.images.shape == (3, 5, 2, 2)
        assert fam.images.flags.c_contiguous and not fam.images.flags.writeable
        for j, m in enumerate(fam.maps):
            assert np.shares_memory(m.images, fam.images)
            assert np.array_equal(m.images, fam.images[j])
            assert not m.images.flags.writeable

    def test_synthesis_matrix_is_derived_bit_for_bit(self):
        """T is the conjugate of the stacked vectorized maps, signed zeros and
        subnormals included, and is computed once."""
        assert isinstance(HSFrameFamily.__dict__["synthesis_matrix"], cached_property)
        rng = np.random.default_rng(3)
        images = rng.standard_normal((4, 3, 2, 2)) + 1j * rng.standard_normal((4, 3, 2, 2))
        images[0, 0, 0, 0] = complex(-0.0, 0.0)
        images[1, 2, 1, 0] = complex(5e-324, -0.0)
        fam = HSFrameFamily(list(images))
        # reference: block j of T is the conjugate transpose of map j's matrix
        want = np.hstack([im.reshape(3, -1).T.conj().T for im in images])
        t = fam.synthesis_matrix
        assert t is fam.synthesis_matrix
        assert t.tobytes(order="F") == want.tobytes(order="F")
        assert not t.flags.writeable

    @pytest.mark.parametrize("dim_h, dim_k", [(4, 0), (4, -2), (0, 1), (-1, 1)])
    def test_dims_below_one_rejected(self, dim_h, dim_k):
        with pytest.raises(ValidationError, match="must be >= 1"):
            HSFrameFamily.from_synthesis_matrix(dim_h, dim_k, np.ones((max(dim_h, 0), 8)))
        with pytest.raises(ValidationError, match="must be >= 1"):
            decaying_family(dim_h, dim_k, 6, 0.5)

    def test_empty_images_rejected(self):
        with pytest.raises(ValidationError, match="nonempty"):
            HSFrameFamily([np.zeros((0, 1, 1))])

    def test_sequence_protocol_and_repr(self):
        fam = random_family(5, 2, 3, SpectrumSpec.flat(), seed=1)
        assert len(fam) == 3
        assert fam[1] is fam.maps[1] and fam[-1] is fam.maps[2]
        assert repr(fam) == "<HSFrameFamily dim_h=5 dim_k=2 count=3>"


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


    def test_unrepresentable_bound_is_numeric_error(self):
        # sigma = 1e200 is finite, sigma^2 is not
        fam = HSFrameFamily.from_synthesis_matrix(1, 1, [[1e200]])
        for report in (frame_bounds, classify, riesz_inequality_check):
            with pytest.raises(NumericError, match="overflows"):
                report(fam)


class TestClassify:
    def test_scalar_onb(self):
        rep = classify(onb_family(2))
        assert rep.frame and rep.riesz
        assert rep.lower_bound == pytest.approx(1.0)
        assert rep.upper_bound == pytest.approx(1.0)

    def test_redundant_frame_not_riesz(self):
        rep = classify(MB)
        assert rep.frame and not rep.riesz

    def test_single_map_with_orthonormal_images(self):
        # one map into 2x2 matrices whose two images are orthonormal: a
        # frame with bounds (1, 1), but its synthesis operator has a
        # 2-dimensional kernel (4 coefficient dims onto a 2-dim space), so
        # it is not a Riesz basis
        y0 = np.array([1.0, 0.0])
        images = [np.outer([1, 0], y0.conj()), np.outer([0, 1], y0.conj())]
        fam = HSFrameFamily([HSMap(images)])
        rep = classify(fam)
        assert rep.frame
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
        assert not rep.frame and not rep.riesz
        assert rep.synthesis_norm == 0.0
        assert rep.pseudo_inverse_norm == np.inf

    def test_rank_tol_validated(self):
        with pytest.raises(ValidationError):
            classify(MB, rank_tol=0.0)


class TestRieszInequalityCheck:
    def test_onb_ratios_are_one(self):
        assert riesz_inequality_check(onb_family(3)) == pytest.approx(1.0, rel=1e-12)

    def test_riesz_family_ratios_within_classify_bounds(self):
        fam = seeded_family(1)  # a square, non-orthonormal Riesz basis
        rep = classify(fam)
        assert rep.riesz and rep.lower_bound < rep.upper_bound
        assert riesz_inequality_check(fam) == rep.lower_bound

    def test_kernel_vector_drives_ratio_to_zero(self):
        assert riesz_inequality_check(MB) == 0.0  # T is wide

    def test_tall_family_ratio_is_its_lower_riesz_bound(self):
        # two orthogonal vectors in C^3: a Riesz sequence, not a frame
        fam = from_scalar_frame([[1, 0, 0], [0, 2, 0]])
        assert not classify(fam).frame
        assert riesz_inequality_check(fam) == pytest.approx(1.0, rel=1e-12)

    def test_agrees_with_classify(self):
        for seed in range(30):
            fam = seeded_family(seed)
            rep = classify(fam)  # a seeded family is Riesz or wide
            assert riesz_inequality_check(fam) == (rep.lower_bound if rep.riesz else 0.0)


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

    def test_underflowing_sigma_squared_reconstructs_exactly(self):
        # a frame at rank_tol 1e-200 whose sigma_min^2 = 1e-340 underflows
        # to 0: the canonical dual's factors U diag(1/s) V^H form no s^2, so
        # f's part along sigma_min survives, with no warning (which the
        # suite turns into an error)
        fam = from_scalar_frame([[1, 0], [0, 1e-170]])
        assert np.array_equal(reconstruct(fam, [1.0, 1.0], rank_tol=1e-200), [1.0, 1.0])

    def test_overflowing_coefficients_are_numeric_error(self):
        # G_j f = 1e200 * 1e200 is out of range although f and T are not
        fam = from_scalar_frame([[1e200, 0], [0, 1e200]])
        with pytest.raises(NumericError, match=r"^reconstruction overflows: .*sigma_max = 1e\+200"):
            reconstruct(fam, [1e200, 0.0])

    def test_vector_off_the_underflowing_direction(self):
        # S^-1 0 = 0 although sigma_min^2 underflows to 0: a direction f has
        # no part in maps to 0, so these reconstructions are exact
        fam = from_scalar_frame([[1, 0], [0, 1e-170]])
        for f in ([0.0, 0.0], [1.0, 0.0]):
            assert np.array_equal(reconstruct(fam, f, rank_tol=1e-200), f)


class TestAlternateDual:
    def test_canonical_dual_passes(self):
        fam = seeded_family(4)
        check = verify_alternate_dual(fam, canonical_dual(fam))
        assert check.ok

    def test_ill_conditioned_canonical_dual_passes(self):
        # cond(T) = 1e4: S^-1 T formed as (U diag(1/s^2) U^H) T would leave a
        # residual near eps cond(T)^2 = 1e-8; U diag(1/s) V^H leaves about
        # eps cond(T)
        spectrum = SpectrumSpec.explicit([1, 1, 1, 1, 1, 1e-8])
        for seed in range(3):
            fam = random_family(6, 2, 5, spectrum, seed=seed)
            check = verify_alternate_dual(fam, canonical_dual(fam))
            assert check.max_residual <= 1e-10

    def test_scaled_family_fails_with_unit_residual(self):
        fam = onb_family(3)
        doubled = HSFrameFamily.from_synthesis_matrix(
            3, 1, 2.0 * fam.synthesis_matrix
        )
        check = verify_alternate_dual(fam, doubled)
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
        check = verify_alternate_dual(fam, candidate)
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
        check = verify_alternate_dual(fam, candidate)
        assert check.ok


    def test_residual_is_exact_for_a_one_direction_error(self):
        """An error T E^H = eps e1 e1^H is caught at its full size, which
        random samples see only in part."""
        fam = random_family(32, 1, 40, SpectrumSpec.flat(), seed=5)
        dual = canonical_dual(fam)
        eps = 1e-3
        e1 = np.zeros(32)
        e1[0] = 1.0
        # E^H = eps T^+ e1 e1^H with T^+ = T^H S^-1, so T E^H = eps e1 e1^H
        t_plus_e1 = dual.synthesis_matrix.conj().T @ e1
        candidate = HSFrameFamily.from_synthesis_matrix(
            32, 1, dual.synthesis_matrix + eps * np.outer(e1, t_plus_e1.conj())
        )
        check = verify_alternate_dual(fam, candidate)
        assert check.max_residual == pytest.approx(eps, rel=1e-9)
        assert not check.ok

    @staticmethod
    def tau(fam, candidate):
        """The documented bound 8 (N + dim_h) eps |T|_F |V|_F."""
        n = fam.synthesis_matrix.shape[1]
        t_norm = np.linalg.norm(fam.synthesis_matrix)
        v_norm = np.linalg.norm(candidate.synthesis_matrix)
        return 8 * (n + fam.dim_h) * np.finfo(float).eps * t_norm * v_norm

    def test_canonical_duals_pass_to_working_precision(self):
        """Every canonical dual passes, on 300 random frames with cond(T)
        log-uniform up to 1e9, and on ``generate --kind random --dim-h 40
        --dim-k 2 --count 100 --spectrum geometric:0.4 --seed 1``
        (cond(T) = 5.8e7), whose residual 2.3e-9 a fixed 1e-9 rejected."""
        fams = [random_family(40, 2, 100, SpectrumSpec.geometric(0.4), seed=1)]
        rng = np.random.default_rng(39)
        for _ in range(300):
            dim_h, dim_k = int(rng.integers(1, 11)), int(rng.integers(1, 3))
            count = int(rng.integers(-(-dim_h // dim_k**2), 13))
            ratio = 10.0 ** (-18 * rng.random() / max(dim_h - 1, 1))
            seed = int(rng.integers(2**32))
            spectrum = SpectrumSpec.geometric(ratio)
            fams.append(random_family(dim_h, dim_k, count, spectrum, seed=seed))
        assert verify_alternate_dual(fams[0], canonical_dual(fams[0])).max_residual > 1e-9
        for fam in fams:
            dual = canonical_dual(fam)
            check = verify_alternate_dual(fam, dual)
            assert check.ok
            assert check.max_residual <= self.tau(fam, dual) / 4

    @pytest.mark.parametrize("cond", [1.0, 1e4, 1e8])
    def test_one_direction_error_is_judged_against_tau(self, cond):
        """An error T E^H = delta e1 e1^H is caught at delta = 10 tau and
        passes at delta = tau / 10: tau is the scale of the verdict."""
        spectrum = SpectrumSpec.geometric(cond ** (-2 / 7))
        fam = random_family(8, 1, 16, spectrum, seed=5)
        dual = canonical_dual(fam)
        e1 = np.zeros(8)
        e1[0] = 1.0
        t_plus_e1 = dual.synthesis_matrix.conj().T @ e1
        tau = self.tau(fam, dual)
        for delta, ok in ((10 * tau, False), (tau / 10, True)):
            candidate = HSFrameFamily.from_synthesis_matrix(
                8, 1, dual.synthesis_matrix + delta * np.outer(e1, t_plus_e1.conj())
            )
            check = verify_alternate_dual(fam, candidate)
            assert check.ok is ok
            assert check.max_residual == pytest.approx(delta, rel=0.2)

    def test_non_finite_residual_or_tau_never_passes(self):
        fam = random_family(4, 1, 6, SpectrumSpec.flat(), seed=1)
        t = fam.synthesis_matrix
        # T V^H overflows: the residual is inf
        big = HSFrameFamily.from_synthesis_matrix(4, 1, 1e10 * t)
        huge = HSFrameFamily.from_synthesis_matrix(4, 1, 1e300 * t)
        check = verify_alternate_dual(big, huge)
        assert check.max_residual == np.inf and not check.ok
        # an exact dual, residual 0, whose |V|_F = 2^1024 overflows: tau is inf
        eye = np.eye(4)
        tiny = HSFrameFamily.from_synthesis_matrix(4, 1, 2.0**-1023 * eye)
        huge = HSFrameFamily.from_synthesis_matrix(4, 1, 2.0**1023 * eye)
        check = verify_alternate_dual(tiny, huge)
        assert check.max_residual == 0.0 and not check.ok


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

    def test_huge_spectrum_does_not_overflow(self):
        # S = 1e300 I on C^4: |S|_F = 2e300 although each sigma^4 overflows
        fam = random_family(4, 1, 6, SpectrumSpec.flat(1e300), seed=1)
        hs, bound = frame_operator_hs_norm_bound(fam)
        assert hs == pytest.approx(2e300, rel=1e-12)
        assert bound == pytest.approx(2e300, rel=1e-12)

    def test_zero_family(self):
        assert frame_operator_hs_norm_bound(HSFrameFamily([np.zeros((2, 1, 1))] * 2)) == (
            0.0, 0.0
        )
