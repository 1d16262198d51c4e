import math
from fractions import Fraction

import numpy as np
import pytest

from hsframe import (
    CoefficientSequence,
    HSFrameFamily,
    NotAFrameError,
    NumericError,
    SectionSchedule,
    ValidationError,
    analyze,
    convergence_sweep,
    decaying_family,
    find_oversampling,
    frame_bounds,
    frame_operator,
    from_scalar_frame,
    kernel_consistency,
    onb_family,
    oversampled_inverse_apply,
    plain_inverse_apply,
    project,
    projection_formula,
    random_family,
    sectional_operator,
    SpectrumSpec,
    subspace_basis,
    uniform_bound_scan,
)
from conftest import complex_unit

MB = from_scalar_frame([[1, 0], [0, 1], [2**-0.5, 2**-0.5]])
REPEATED = from_scalar_frame([[1, 0], [1, 0], [0, 1]])


def solve_ground_truth(family, f):
    return np.linalg.solve(frame_operator(family), np.asarray(f, dtype=complex))


class TestSectionSchedule:
    def test_parse(self):
        assert SectionSchedule.parse("1,2,4", 8).lengths == (1, 2, 4)
        assert SectionSchedule.parse("prefix:all", 3).lengths == (1, 2, 3)

    def test_monotone_required(self):
        with pytest.raises(ValidationError):
            SectionSchedule((2, 2))
        with pytest.raises(ValidationError):
            SectionSchedule((0, 1))

    def test_validate_against_family(self):
        with pytest.raises(ValidationError):
            SectionSchedule((1, 4)).validate_for(MB)


class TestSubspaceBasis:
    def test_first_prefix_spans_first_direction(self):
        basis = subspace_basis(onb_family(2), 1)
        assert basis.rank == 1
        assert abs(abs(basis.q[0, 0]) - 1.0) < 1e-14

    def test_full_prefix_of_frame_has_full_rank(self):
        assert subspace_basis(MB, 3).rank == 2

    def test_repeated_direction_rank_one(self):
        assert subspace_basis(REPEATED, 2).rank == 1

    def test_orthonormal_columns(self):
        fam = decaying_family(6, 2, 8, 0.5, seed=1)
        for n in (1, 3, 8):
            q = subspace_basis(fam, n).q
            assert np.allclose(q.conj().T @ q, np.eye(q.shape[1]), atol=1e-10)

    def test_nesting_of_projectors(self):
        fam = decaying_family(5, 1, 12, 0.6, seed=2)
        prev = None
        for n in range(1, 13):
            q = subspace_basis(fam, n).q
            p = q @ q.conj().T
            if prev is not None:
                assert np.linalg.norm(prev @ p - prev) < 1e-10
                assert np.linalg.norm(p @ prev - prev) < 1e-10
            prev = p

    def test_bad_prefix(self):
        with pytest.raises(ValidationError):
            subspace_basis(MB, 0)
        with pytest.raises(ValidationError):
            subspace_basis(MB, 4)


class TestSectionalOperator:
    def test_onb_prefix_is_identity(self):
        fam = onb_family(4)
        for n in (1, 2, 4):
            basis = subspace_basis(fam, n)
            assert np.allclose(sectional_operator(basis), np.eye(n))

    def test_repeated_direction_scalar_two(self):
        basis = subspace_basis(REPEATED, 2)
        sec = sectional_operator(basis)
        assert sec.shape == (1, 1)
        assert sec[0, 0] == pytest.approx(2.0)

    def test_full_section_spectrum_matches_frame_operator(self):
        basis = subspace_basis(MB, 3)
        sec = sectional_operator(basis)
        got = np.linalg.eigvalsh(sec)
        want = np.linalg.eigvalsh(frame_operator(MB))
        assert np.allclose(got, want, atol=1e-12)


class TestProject:
    def test_fixed_point_inside(self):
        basis = subspace_basis(REPEATED, 2)  # span e1
        assert np.allclose(project(basis, [3.0, 0.0]), [3, 0], atol=1e-14)

    def test_annihilates_complement(self):
        basis = subspace_basis(REPEATED, 2)
        assert np.allclose(project(basis, [0.0, 5.0]), 0, atol=1e-14)

    def test_three_vector_first_section(self):
        basis = subspace_basis(MB, 1)
        assert np.allclose(project(basis, [1.0, 1.0]), [1, 0], atol=1e-14)

    def test_idempotent_self_adjoint(self, rng):
        fam = decaying_family(5, 1, 10, 0.5, seed=3)
        basis = subspace_basis(fam, 4)
        p = basis.q @ basis.q.conj().T
        assert np.allclose(p @ p, p, atol=1e-12)
        assert np.allclose(p, p.conj().T, atol=1e-14)

    def test_matches_sectional_inverse_formula(self, rng):
        fam = decaying_family(5, 1, 10, 0.5, seed=4)
        for n in (2, 5, 10):
            basis = subspace_basis(fam, n)
            f = complex_unit(rng, 5)
            direct = project(basis, f)
            via_sections = projection_formula(fam, basis, f)
            assert np.linalg.norm(direct - via_sections) <= 1e-9

    @pytest.mark.parametrize("dim_h, count, n", [
        (3, 8, 6),  # a prefix longer than the family's 4 maps
        (5, 8, 2),  # another H
    ])
    def test_formula_rejects_a_basis_of_another_family(self, dim_h, count, n):
        other = random_family(dim_h, 1, count, SpectrumSpec.flat(), seed=1)
        basis = subspace_basis(other, n)
        fam = random_family(3, 1, 4, SpectrumSpec.flat(), seed=2)
        with pytest.raises(ValidationError, match="^basis must be a basis of this family"):
            projection_formula(fam, basis, np.ones(3))


class TestPlainInverse:
    def test_onb_equals_projection(self, rng):
        fam = onb_family(4)
        f = complex_unit(rng, 4)
        got = plain_inverse_apply(fam, 2, f)
        assert np.allclose(got, project(subspace_basis(fam, 2), f), atol=1e-12)

    def test_full_section_is_dense_inverse(self, rng):
        f = complex_unit(rng, 2)
        got = plain_inverse_apply(MB, 3, f)
        assert np.allclose(got, solve_ground_truth(MB, f), atol=1e-10)

    def test_repeated_direction_example(self):
        got = plain_inverse_apply(REPEATED, 2, [4.0, 7.0])
        assert np.allclose(got, [2, 0], atol=1e-12)

    def test_loose_rank_tol_triggers_section_singular(self):
        from hsframe import SectionSingularError

        # sigma_r / sigma_max = 5e-17: kept by rank_tol, below 16 r eps
        fam = from_scalar_frame([[1.0, 0.0], [1.0, 1e-16], [0.0, 1.0]])
        with pytest.raises(SectionSingularError):
            plain_inverse_apply(fam, 2, [1.0, 0.0], rank_tol=1e-20)
        # the default tolerance collapses the nearly-parallel directions
        got = plain_inverse_apply(fam, 2, [1.0, 0.0])
        assert np.allclose(got, [0.5, 0.0], atol=1e-10)

    def test_sweep_flags_singular_sections_and_continues(self):
        fam = from_scalar_frame([[1.0, 0.0], [1.0, 1e-16], [0.0, 1.0]])
        records = convergence_sweep(
            fam, SectionSchedule.full(3), [1.0, 1.0], rank_tol=1e-20
        )
        assert [r.flagged for r in records] == [False, True, False]
        assert np.isnan(records[1].err_plain)
        # the oversampled half does not need the singular inverse: the row
        # keeps the single-prefix wrappers' m_n, r_n and error
        row, f = records[1], [1.0, 1.0]
        assert row.m_n == find_oversampling(fam, 2, 2.0, rank_tol=1e-20) == 1
        assert row.r_n == 2
        over = oversampled_inverse_apply(fam, 2, 2.0, f, rank_tol=1e-20)
        err = float(np.linalg.norm(over - solve_ground_truth(fam, f)))
        assert abs(row.err_oversampled - err) <= 1e-15
        assert all(np.isnan([row.err_plain, row.crit2, row.crit3, row.strong_residual]))

    def test_empty_section(self):
        """A prefix of zero maps has rank 0: every inverse on it is 0."""
        fam = from_scalar_frame([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        f = [1.0, 2.0]
        row = convergence_sweep(fam, SectionSchedule.full(3), f)[0]
        assert (row.n, row.r_n, row.m_n, row.flagged) == (1, 0, 0, False)
        ground = float(np.linalg.norm(solve_ground_truth(fam, f)))
        assert row.err_plain == row.err_oversampled == pytest.approx(ground, rel=1e-15)
        assert sectional_operator(subspace_basis(fam, 1)).shape == (0, 0)
        assert find_oversampling(fam, 1, 2.0) == 0
        assert not plain_inverse_apply(fam, 1, f).any()
        assert not oversampled_inverse_apply(fam, 1, 2.0, f).any()
        assert uniform_bound_scan(fam, 0, f).values[0] == 0.0

    @pytest.mark.parametrize("delta", [1e-9, 1e-8, 3e-8, 1e-7])
    def test_resolved_sections_are_not_flagged(self, delta):
        """sigma_r / sigma_max between 16 r eps and rank_tol: the section is
        kept and the row matches an exact rational solve to eps sigma_max /
        sigma_r."""
        fam = from_scalar_frame([[1.0, 0.0], [1.0, delta], [0.0, 1.0]])
        f = [1.0, 0.5]
        records = convergence_sweep(fam, SectionSchedule.full(3), f)
        row = records[1]
        assert not row.flagged and row.m_n == 1 and row.r_n == 2
        assert all(np.isfinite(
            [row.err_plain, row.err_oversampled, row.crit2, row.crit3, row.strong_residual]
        ))

        def solve(s, y):  # 2 x 2, by Cramer's rule
            det = s[0][0] * s[1][1] - s[0][1] * s[1][0]
            return [(s[1][1] * y[0] - s[0][1] * y[1]) / det,
                    (s[0][0] * y[1] - s[1][0] * y[0]) / det]

        d, y = Fraction(delta), [Fraction(v) for v in f]
        x = solve([[2, d], [d, d * d]], y)  # S_2 = T_2 T_2^H, T_2 = [[1, 1], [0, d]]
        g = solve([[2, d], [d, d * d + 1]], y)  # S = S_2 + e_2 e_2^T
        sigma = np.linalg.svd([[1.0, 1.0], [0.0, delta]], compute_uv=False)
        x_norm = math.sqrt(float(x[0] ** 2 + x[1] ** 2))
        tol = 16 * np.finfo(float).eps * sigma[0] / sigma[1] * x_norm
        assert np.linalg.norm(plain_inverse_apply(fam, 2, f) - [float(v) for v in x]) <= tol
        err = math.sqrt(float((x[0] - g[0]) ** 2 + (x[1] - g[1]) ** 2))
        assert abs(row.err_plain - err) <= tol
        assert abs(row.crit2 - abs(float(x[1]))) <= tol  # |(S - S_2) x_2| = |x_2[1]|


class TestConvergenceSweep:
    def test_onb_closed_form(self, rng):
        fam = onb_family(6)
        f = complex_unit(rng, 6)
        records = convergence_sweep(fam, SectionSchedule.full(6), f)
        for r in records:
            tail = np.linalg.norm(f[r.n :])
            assert r.err_plain == pytest.approx(tail, abs=1e-12)
            # the sectional inverse image has no tail support for an ONB
            assert r.crit2 <= 1e-12
            assert r.crit3 <= 1e-12
            assert r.strong_residual <= 1e-12
            assert r.m_n == 0

    def test_exactness_at_full_section(self, rng):
        fam = decaying_family(6, 1, 14, 0.5, seed=5)
        f = complex_unit(rng, 6)
        last = convergence_sweep(fam, SectionSchedule.full(14), f)[-1]
        assert last.err_plain <= 1e-10
        assert last.err_oversampled <= 1e-10
        assert last.crit2 <= 1e-10
        assert last.crit3 <= 1e-10
        assert last.strong_residual <= 1e-10

    def test_three_vector_error_profile(self):
        f = np.array([1.0, 1.0])
        records = convergence_sweep(MB, SectionSchedule((1, 2, 3)), f)
        errs = [r.err_plain for r in records]
        # closed form: both partial sections miss S^-1 f = (0.5, 0.5) by
        # the same distance, the full section is exact
        assert errs[0] == pytest.approx(np.sqrt(0.5), rel=1e-12)
        assert errs[1] == pytest.approx(np.sqrt(0.5), rel=1e-12)
        assert errs[2] <= 1e-12
        assert errs[0] >= errs[1] >= errs[2]

    def test_proof_chain_inequalities(self, rng):
        fam = decaying_family(8, 1, 20, 0.5, seed=6)
        f = complex_unit(rng, 8)
        a, b = frame_bounds(fam)
        records = convergence_sweep(fam, SectionSchedule.full(20), f)
        for r in records:
            basis = subspace_basis(fam, r.n)
            gap = float(np.linalg.norm(project(basis, f) - f))
            assert r.err_plain <= (gap + r.crit2) / a + 1e-9
            assert r.crit2 <= np.sqrt(b * r.crit3) + 1e-9
            assert r.strong_residual <= b**2 * r.err_plain**2 * np.linalg.norm(f) ** 2 + 1e-9

    def test_oversampled_error_monotone_for_decaying_family(self, rng):
        fam = decaying_family(6, 1, 24, 0.5, seed=7)
        f = complex_unit(rng, 6)
        records = convergence_sweep(fam, SectionSchedule.full(24), f)
        errs = [r.err_oversampled for r in records]
        for i in range(len(errs) - 1):
            assert errs[i + 1] <= errs[i] + 1e-12
        assert errs[-1] <= 1e-10

    def test_non_frame_rejected(self):
        fam = from_scalar_frame([[1, 0], [1, 0]])
        with pytest.raises(NotAFrameError):
            convergence_sweep(fam, SectionSchedule.full(2), [1.0, 0.0])

    def test_bad_lambda(self):
        with pytest.raises(ValidationError):
            convergence_sweep(MB, SectionSchedule.full(3), [1.0, 0.0], lam=1.0)

    @pytest.mark.parametrize("lam", [float("inf"), float("nan"), 1.0])
    def test_lambda_must_be_finite_and_above_one(self, lam):
        with pytest.raises(ValidationError, match="lambda"):
            convergence_sweep(MB, SectionSchedule.full(3), [1.0, 0.0], lam=lam)
        with pytest.raises(ValidationError, match="lambda"):
            find_oversampling(MB, 1, lam)
        with pytest.raises(ValidationError, match="lambda"):
            oversampled_inverse_apply(MB, 1, lam, [1.0, 0.0])

    @pytest.mark.parametrize("scale", [1e308, 1e150])
    def test_unrepresentable_rows_raise(self, scale):
        # S^-1 f or a row (crit3 ~ |f|^2, the strong residual ~ |f|^4)
        # overflows: a numeric failure, not rows of inf and nan
        with pytest.raises(NumericError, match="overflows"):
            convergence_sweep(MB, SectionSchedule.full(3), [scale, scale])

    def test_overflowing_ground_truth_raises(self):
        # S^-1 f = (1e330, 0) is out of range although f and S are not
        fam = from_scalar_frame([[1e-160, 0.0], [0.0, 1.0]])
        with pytest.raises(NumericError, match=r"S\^-1 f overflows"):
            convergence_sweep(fam, SectionSchedule.full(2), [1e10, 0.0], rank_tol=1e-200)

    def test_underflowing_lower_bound_is_numeric_error(self):
        # sigma_min^2 = 1e-340 underflows, so A/lambda = 0 certifies nothing
        # and the compression at k = 2 is diag(1, 0): a NumericError naming
        # sigma_min, not numpy's LinAlgError.  The sweep checks A after its
        # ground truth, which S^-1 0 = 0 passes
        fam = from_scalar_frame([[1, 0], [0, 1e-170]])
        tiny = r"^lower frame bound .*sigma_min = 1e-170"
        with pytest.raises(NumericError, match=tiny):
            oversampled_inverse_apply(fam, 2, 2.0, [1.0, 1.0], rank_tol=1e-200)
        with pytest.raises(NumericError, match=tiny):
            convergence_sweep(fam, SectionSchedule.full(2), [0.0, 0.0], rank_tol=1e-200)
        with pytest.raises(NumericError, match=tiny):
            find_oversampling(fam, 1, 2.0, rank_tol=1e-200)


class TestUniformBoundScan:
    def test_onb_profile_constant(self, rng):
        fam = onb_family(5)
        f = complex_unit(rng, 5)
        profile = uniform_bound_scan(fam, 2, f)
        w = fam.maps[2].adjoint_apply(fam.maps[2](f))
        expected = np.linalg.norm(w)
        assert all(v == pytest.approx(expected, abs=1e-12) for v in profile.values)
        assert profile.c_max == pytest.approx(expected, abs=1e-12)

    def test_full_entry_matches_dense_inverse(self, rng):
        fam = decaying_family(5, 1, 9, 0.5, seed=8)
        f = complex_unit(rng, 5)
        profile = uniform_bound_scan(fam, 1, f)
        w = fam.maps[1].adjoint_apply(fam.maps[1](f))
        expected = np.linalg.norm(solve_ground_truth(fam, w))
        assert profile.values[-1] == pytest.approx(expected, abs=1e-12)

    def test_against_per_prefix_brute_solves(self):
        f = np.array([1.0, 0.0])
        profile = uniform_bound_scan(MB, 2, f)
        t = MB.synthesis_matrix
        w = MB.maps[2].adjoint_apply(MB.maps[2](f))
        for n, value in zip(profile.ns, profile.values):
            prefix = t[:, :n]
            s_n = prefix @ prefix.conj().T
            u, s, vh = np.linalg.svd(prefix)
            r = int(np.sum(s > 1e-10 * s[0]))
            q = u[:, :r]
            brute = q @ np.linalg.solve(q.conj().T @ s_n @ q, q.conj().T @ w)
            assert value == pytest.approx(float(np.linalg.norm(brute)), abs=1e-12)
        assert profile.c_max == max(profile.values)

    def test_bad_index(self):
        with pytest.raises(ValidationError):
            uniform_bound_scan(MB, 3, [1.0, 0.0])

    def test_flagged_section_reads_nan(self):
        # the n = 2 section is below the SVD floor; c_max skips its nan
        fam = from_scalar_frame([[1.0, 0.0], [1.0, 1e-16], [0.0, 1.0]])
        profile = uniform_bound_scan(fam, 0, [1.0, 2.0], rank_tol=1e-20)
        assert profile.values[0] == 1.0 and math.isnan(profile.values[1])
        assert profile.values[2] == pytest.approx(0.5, rel=1e-12)
        assert profile.c_max == 1.0


class TestOversampling:
    def test_onb_needs_none(self):
        fam = onb_family(4)
        for n in (1, 2, 4):
            assert find_oversampling(fam, n, 2.0) == 0

    def test_three_vector_first_section(self):
        assert find_oversampling(MB, 1, 2.0) == 0

    def test_tiny_leading_map_forces_oversampling(self):
        fam = from_scalar_frame([[0.05, 0], [0, 1], [1, 0]])
        assert find_oversampling(fam, 1, 2.0) == 2

    def test_compressed_minimum_grows_monotonically(self):
        fam = from_scalar_frame([[0.05, 0], [0, 1], [1, 0]])
        basis = subspace_basis(fam, 1)
        t = fam.synthesis_matrix
        values = []
        for m in range(3):
            w = basis.q.conj().T @ t[:, : 1 + m]
            values.append(np.linalg.eigvalsh(w @ w.conj().T)[0])
        assert values[0] <= values[1] <= values[2]

    def test_certificates_hold_across_lambda(self, rng):
        fam = decaying_family(6, 1, 18, 0.5, seed=9)
        a, b = frame_bounds(fam)
        t = fam.synthesis_matrix
        for lam in (1.25, 2.0, 8.0):
            for n in range(1, 19):
                basis = subspace_basis(fam, n)
                m = find_oversampling(fam, n, lam)
                w = basis.q.conj().T @ t[:, : n + m]
                evals = np.linalg.eigvalsh(w @ w.conj().T)
                assert evals[0] >= a / lam - 1e-12
                assert evals[-1] <= b + 1e-12
                assert 1.0 / evals[0] <= lam / a + 1e-12

    def test_tighter_lambda_needs_more_oversampling(self):
        fam = from_scalar_frame([[0.05, 0], [0, 1], [1, 0], [0.5, 0.5]])
        # smaller lambda demands a larger compressed minimum, so m cannot shrink
        ms = [find_oversampling(fam, 1, lam) for lam in (8.0, 2.0, 1.1)]
        assert ms == sorted(ms)
        assert ms[-1] >= 1

    def test_oversampled_apply_onb(self, rng):
        fam = onb_family(4)
        f = complex_unit(rng, 4)
        got = oversampled_inverse_apply(fam, 2, 2.0, f)
        assert np.allclose(got, project(subspace_basis(fam, 2), f), atol=1e-12)

    def test_oversampled_apply_full_section(self, rng):
        f = complex_unit(rng, 2)
        got = oversampled_inverse_apply(MB, 3, 2.0, f)
        assert np.linalg.norm(got - solve_ground_truth(MB, f)) <= 1e-10

    def test_oversampled_apply_hand_solved(self):
        # n=2 keeps both coordinates; no oversampling is needed and the
        # compressed system is S_2 = I, so the output is f itself
        f = np.array([1.0, 1.0])
        got = oversampled_inverse_apply(MB, 2, 2.0, f)
        assert np.allclose(got, f, atol=1e-12)
        err_over = np.linalg.norm(got - solve_ground_truth(MB, f))
        records = convergence_sweep(MB, SectionSchedule((2,)), f)
        assert err_over <= records[0].err_plain + 1e-12


class TestKernelConsistency:
    def test_pure_analysis_sequence(self, rng):
        fam = decaying_family(5, 1, 10, 0.5, seed=10)
        g = complex_unit(rng, 5)
        report = kernel_consistency(
            fam, analyze(fam, g), SectionSchedule.full(10)
        )
        assert report.kernel_norm <= 1e-12
        assert report.co_vanish
        for r_full, gap in zip(report.residual_full, report.projection_gap):
            assert r_full == pytest.approx(gap, abs=1e-9)
        assert report.residual_full[-1] <= 1e-10
        assert all(v <= 1e-10 for v in report.residual_kernel)

    def test_explicit_kernel_sequence(self):
        c = CoefficientSequence([[[1.0]], [[-1.0]], [[0.0]]])
        report = kernel_consistency(REPEATED, c, SectionSchedule.full(3))
        assert report.kernel_norm == pytest.approx(np.sqrt(2.0), rel=1e-12)
        # prefix at n=1 synthesizes e1 and the section inverse returns e1
        assert report.residual_kernel[0] == pytest.approx(1.0, abs=1e-12)
        # from n=2 the prefix sums cancel exactly
        assert report.residual_kernel[1] <= 1e-12
        assert report.residual_kernel[2] <= 1e-12
        assert np.allclose(report.residual_full, report.residual_kernel, atol=1e-12)
        assert report.co_vanish

    def test_zero_sequence(self):
        c = CoefficientSequence(np.zeros((3, 1, 1)))
        report = kernel_consistency(MB, c, SectionSchedule.full(3))
        assert all(v <= 1e-14 for v in report.residual_full)
        assert all(v <= 1e-14 for v in report.residual_kernel)
        assert report.co_vanish

    def test_statements_differ_by_projection_gap(self, rng):
        fam = decaying_family(5, 1, 12, 0.6, seed=11)
        blocks = rng.standard_normal((12, 1, 1)) + 1j * rng.standard_normal((12, 1, 1))
        report = kernel_consistency(
            fam, CoefficientSequence(blocks), SectionSchedule.full(12)
        )
        for r1, r2, gap in zip(
            report.residual_full, report.residual_kernel, report.projection_gap
        ):
            assert abs(r1 - r2) <= gap + 1e-9
        assert report.co_vanish

    def test_flagged_prefix_keeps_its_projection_gap(self):
        # H_2 = H is kept at rank_tol 1e-20, but its plain section is singular
        fam = from_scalar_frame([[1.0, 0.0], [1.0, 1e-16], [0.0, 1.0]])
        report = kernel_consistency(
            fam, analyze(fam, [1.0, 2.0]), SectionSchedule.full(3), rank_tol=1e-20
        )
        assert np.isnan(report.residual_full[1]) and np.isnan(report.residual_kernel[1])
        assert report.projection_gap[1] <= 1e-15


class TestBlockValuedFamilies:
    """The same machinery exercised with 2x2 coefficient blocks."""

    @staticmethod
    def repeated_block_family(rng):
        # two identical maps plus one independent map on C^4
        from hsframe import HSFrameFamily

        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        n = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        t = np.hstack([m, m, n])
        return HSFrameFamily.from_synthesis_matrix(4, 2, t)

    def test_explicit_block_kernel_sequence(self, rng):
        fam = self.repeated_block_family(rng)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        coeffs = CoefficientSequence([a, -a, np.zeros((2, 2))])
        t = fam.synthesis_matrix
        assert np.linalg.norm(t @ coeffs.stacked()) <= 1e-12 * np.linalg.norm(a)
        report = kernel_consistency(fam, coeffs, SectionSchedule.full(3))
        # duplicate-map prefixes cancel from n = 2 on
        assert report.residual_kernel[0] > 0.1 * np.linalg.norm(a)
        assert report.residual_kernel[1] <= 1e-10
        assert report.residual_kernel[2] <= 1e-10
        assert report.co_vanish

    def test_uniform_bound_scan_matches_brute_solves(self, rng):
        fam = decaying_family(5, 2, 7, 0.5, seed=21)
        f = complex_unit(rng, 5)
        index = 1
        profile = uniform_bound_scan(fam, index, f)
        t = fam.synthesis_matrix
        blk = 4
        w = fam.maps[index].adjoint_apply(fam.maps[index](f))
        for n, value in zip(profile.ns, profile.values):
            prefix = t[:, : n * blk]
            u, s, _ = np.linalg.svd(prefix)
            r = int(np.sum(s > 1e-10 * s[0]))
            q = u[:, :r]
            sec = q.conj().T @ prefix @ prefix.conj().T @ q
            brute = q @ np.linalg.solve(sec, q.conj().T @ w)
            assert value == pytest.approx(float(np.linalg.norm(brute)), abs=1e-11)

    def test_sweep_consistency(self, rng):
        fam = decaying_family(6, 2, 12, 0.5, seed=22)
        from hsframe import frame_bounds

        a, b = frame_bounds(fam)
        f = complex_unit(rng, 6)
        records = convergence_sweep(fam, SectionSchedule.full(12), f)
        for r in records:
            basis = subspace_basis(fam, r.n)
            gap = float(np.linalg.norm(project(basis, f) - f))
            assert r.err_plain <= (gap + r.crit2) / a + 1e-9
            assert r.crit2 <= np.sqrt(b * r.crit3) + 1e-9
        assert records[-1].err_plain <= 1e-10
        assert records[-1].err_oversampled <= 1e-10


class TestTinyErrors:
    """Errors near 1e-300 are reported, not squared into underflow."""

    def test_norm_helper(self, rng):
        from hsframe.core import _norm

        for size in (1, 5, 56):
            x = rng.standard_normal(size) + 1j * rng.standard_normal(size)
            for scale in (1e-3, 1.0, 3e5):
                assert _norm(x * scale) == float(np.linalg.norm(x * scale))
            assert _norm(x * 1e-300) == pytest.approx(
                float(np.linalg.norm(x)) * 1e-300, rel=1e-14
            )
            assert _norm(x * 1e300) == pytest.approx(
                float(np.linalg.norm(x)) * 1e300, rel=1e-14
            )
        assert _norm(np.array([5e-324, 0.0])) == 5e-324
        assert _norm(np.zeros(3)) == 0.0 and _norm(np.zeros(0)) == 0.0
        assert _norm(np.array([1.0, np.inf])) == np.inf
        assert np.isnan(_norm(np.array([1.0, np.nan])))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_sweep_errors_scale_with_the_family(self, rng, seed):
        # scaling T by 2^p scales S^-1 f and every error by 2^-2p, crit3 by
        # 2^-2p, and leaves crit2 and the strong residual alone; at p = 400
        # every error is below 1e-200, whose square underflows
        fam = random_family(6, 1, 10, SpectrumSpec.geometric(0.5), seed=seed)
        p = 400
        big = HSFrameFamily.from_synthesis_matrix(
            6, 1, fam.synthesis_matrix * 2.0**p
        )
        f = complex_unit(rng, 6)
        schedule = SectionSchedule.full(10)
        for r, s in zip(convergence_sweep(fam, schedule, f),
                        convergence_sweep(big, schedule, f)):
            assert (s.n, s.m_n, s.r_n) == (r.n, r.m_n, r.r_n)
            for name, power in (("err_plain", -2 * p), ("err_oversampled", -2 * p),
                                ("crit2", 0), ("crit3", -2 * p),
                                ("strong_residual", 0)):
                want = getattr(r, name) * 2.0**power
                assert getattr(s, name) == pytest.approx(want, rel=1e-12, abs=0), name
            assert s.err_plain < 1e-200
            assert (s.err_plain > 0) == (r.err_plain > 0)

    def test_huge_spectrum_rows_have_nonzero_errors(self):
        # S = 1e300 I on the whole family, so S^-1 f is about 1e-300
        fam = random_family(4, 1, 6, SpectrumSpec.flat(1e300), seed=0)
        records = convergence_sweep(fam, SectionSchedule.full(6), np.ones(4))
        assert all(0 < r.err_plain < 1e-290 for r in records[:-1])

    def test_uniform_bound_scan_scales_with_the_vector(self, rng):
        fam = decaying_family(5, 2, 7, 0.5, seed=21)
        f = complex_unit(rng, 5)
        profile = uniform_bound_scan(fam, 1, f)
        tiny = uniform_bound_scan(fam, 1, f * 2.0**-600)
        for v, w in zip(profile.values, tiny.values):
            assert 0 < w == pytest.approx(v * 2.0**-600, rel=1e-12, abs=0)

    def test_kernel_consistency_scales_with_the_sequence(self, rng):
        fam = decaying_family(5, 1, 12, 0.6, seed=11)
        blocks = rng.standard_normal((12, 1, 1)) + 1j * rng.standard_normal((12, 1, 1))
        schedule = SectionSchedule.full(12)
        report = kernel_consistency(fam, CoefficientSequence(blocks), schedule)
        tiny = kernel_consistency(
            fam, CoefficientSequence(blocks * 2.0**-600), schedule
        )
        assert tiny.kernel_norm == pytest.approx(
            report.kernel_norm * 2.0**-600, rel=1e-12, abs=0
        )
        for name in ("residual_full", "residual_kernel", "projection_gap"):
            for v, w in zip(getattr(report, name), getattr(tiny, name)):
                assert w == pytest.approx(v * 2.0**-600, rel=1e-12, abs=0), name
        assert tiny.kernel_norm > 0 and tiny.residual_kernel[0] > 0
