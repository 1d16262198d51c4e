import functools
import json

import numpy as np
import pytest

from hsframe import (
    GFrameSpec,
    HSFrameFamily,
    SectionSchedule,
    SpectrumSpec,
    ValidationError,
    analyze,
    classify,
    convergence_sweep,
    decaying_family,
    frame_bounds,
    frame_operator,
    from_g_frame,
    from_scalar_frame,
    onb_family,
    random_family,
    riesz_family,
)
from hsframe.serialization import family_to_document
from conftest import complex_unit


class TestSpectrumSpec:
    def test_parse_variants(self):
        assert SpectrumSpec.parse("flat").resolve(3).tolist() == [1, 1, 1]
        assert SpectrumSpec.parse("flat:2.5").resolve(2).tolist() == [2.5, 2.5]
        assert SpectrumSpec.parse("geometric:0.5").resolve(3).tolist() == [1, 0.5, 0.25]
        assert SpectrumSpec.parse("explicit:2,1").resolve(2).tolist() == [2, 1]

    def test_bad_inputs(self):
        with pytest.raises(ValidationError):
            SpectrumSpec.parse("wavelet:3")
        with pytest.raises(ValidationError):
            SpectrumSpec.parse("explicit:2,1").resolve(3)
        with pytest.raises(ValidationError):
            SpectrumSpec.explicit([1.0, -1.0]).resolve(2)
        with pytest.raises(ValidationError, match="unknown spectrum kind 'bogus'"):
            SpectrumSpec(kind="bogus").resolve(3)

    # made in the test: explicit values are checked when the spec is made
    @pytest.mark.parametrize("spectrum, n", [
        (functools.partial(SpectrumSpec.flat, float("inf")), 3),
        (functools.partial(SpectrumSpec.explicit, [1, 2, 3, float("inf")]), 4),
        (functools.partial(SpectrumSpec.geometric, 1e300), 4),  # ratio ** 2 overflows
    ])
    def test_non_finite_values_rejected(self, spectrum, n):
        with pytest.raises(ValidationError, match="finite"):
            spectrum().resolve(n)


class TestScalarFrame:
    def test_onb(self):
        assert np.allclose(frame_operator(from_scalar_frame(np.eye(2))), np.eye(2))

    def test_repeated(self):
        fam = from_scalar_frame([[1, 0], [1, 0], [0, 1]])
        assert np.allclose(frame_operator(fam), np.diag([2.0, 1.0]))

    def test_mercedes_benz_is_tight(self):
        angles = [np.pi / 2, np.pi / 2 + 2 * np.pi / 3, np.pi / 2 + 4 * np.pi / 3]
        fam = from_scalar_frame([[np.cos(t), np.sin(t)] for t in angles])
        assert np.allclose(frame_operator(fam), 1.5 * np.eye(2), atol=1e-12)

    def test_analysis_matches_classical_coefficients(self, rng):
        vectors = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(5)]
        fam = from_scalar_frame(vectors)
        f = complex_unit(rng, 3)
        coeffs = analyze(fam, f).blocks[:, 0, 0]
        classical = [np.vdot(v, f) for v in vectors]
        assert np.allclose(coeffs, classical, atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            from_scalar_frame([])


class TestGFrameEmbedding:
    def test_identity_block_is_parseval(self):
        fam = from_g_frame(GFrameSpec([np.eye(3)]))
        assert frame_bounds(fam) == pytest.approx((1.0, 1.0))

    def test_partitioned_onb(self):
        spec = GFrameSpec([np.eye(4)[:2], np.eye(4)[2:]])
        fam = from_g_frame(spec)
        assert frame_bounds(fam) == pytest.approx((1.0, 1.0))

    def test_bounds_preserved_exactly(self, rng):
        blocks = [
            rng.standard_normal((k, 4)) + 1j * rng.standard_normal((k, 4))
            for k in (1, 2, 3)
        ]
        spec = GFrameSpec(blocks)
        fam = from_g_frame(spec)
        gram = sum(b.conj().T @ b for b in blocks)
        w = np.linalg.eigvalsh(gram)
        a, b = frame_bounds(fam)
        assert a == pytest.approx(float(w[0]), abs=1e-12)
        assert b == pytest.approx(float(w[-1]), abs=1e-12)

    def test_per_index_energy_preserved(self, rng):
        blocks = [rng.standard_normal((2, 3)) for _ in range(3)]
        fam = from_g_frame(GFrameSpec(blocks))
        f = complex_unit(rng, 3)
        coeffs = analyze(fam, f)
        for j, block in enumerate(blocks):
            assert np.linalg.norm(coeffs[j]) == pytest.approx(
                np.linalg.norm(block @ f), rel=1e-12
            )

    def test_small_embedding_dim_rejected(self):
        with pytest.raises(ValidationError):
            from_g_frame(GFrameSpec([np.eye(3)]), dim_k=2)

    def test_block_without_rows_rejected(self):
        with pytest.raises(ValidationError, match=r"^blocks must each have a row, got \(0,\)"):
            GFrameSpec([np.zeros((0, 2))])


class TestRandomFamily:
    def test_flat_spectrum_is_parseval(self):
        fam = random_family(4, 1, 8, SpectrumSpec.flat(), seed=1)
        assert np.allclose(frame_operator(fam), np.eye(4), atol=1e-10)

    def test_explicit_spectrum(self):
        fam = random_family(2, 1, 5, SpectrumSpec.explicit([2.0, 1.0]), seed=2)
        assert frame_bounds(fam) == pytest.approx((1.0, 2.0), abs=1e-10)

    def test_geometric_condition(self):
        fam = random_family(8, 1, 12, SpectrumSpec.geometric(0.5), seed=3)
        a, b = frame_bounds(fam)
        assert a / b == pytest.approx(0.5**7, rel=1e-9)

    def test_spectrum_fidelity(self, rng):
        values = np.sort(np.exp(rng.uniform(-1, 1, size=6)))
        fam = random_family(6, 2, 4, SpectrumSpec.explicit(values), seed=4)
        w = np.linalg.eigvalsh(frame_operator(fam))
        assert np.allclose(w, values, rtol=1e-9)

    def test_infeasible_dims(self):
        with pytest.raises(ValidationError):
            random_family(4, 1, 1, SpectrumSpec.flat(), seed=0)


class TestRieszFamily:
    def test_square_flat_is_orthonormal(self):
        fam = riesz_family(4, 1, 4, SpectrumSpec.flat(), seed=5)
        rep = classify(fam)
        assert rep.riesz
        assert rep.lower_bound == pytest.approx(1.0, rel=1e-10)
        assert rep.upper_bound == pytest.approx(1.0, rel=1e-10)

    def test_explicit_riesz_bounds(self):
        fam = riesz_family(2, 1, 2, SpectrumSpec.explicit([4.0, 1.0]), seed=6)
        rep = classify(fam)
        assert rep.riesz
        assert rep.lower_bound == pytest.approx(1.0, rel=1e-10)
        assert rep.upper_bound == pytest.approx(4.0, rel=1e-10)

    def test_overcomplete_request_rejected(self):
        with pytest.raises(ValidationError):
            riesz_family(2, 1, 3, SpectrumSpec.flat(), seed=0)

    def test_full_column_rank_below_dim(self):
        fam = riesz_family(5, 1, 3, SpectrumSpec.flat(), seed=7)
        sigma = np.linalg.svd(fam.synthesis_matrix, compute_uv=False)
        assert sigma[-1] > 0.9  # injective, though it spans a proper subspace
        assert not classify(fam).frame


class TestDecayingFamily:
    def test_head_only_reduces_to_cover(self):
        fam = decaying_family(4, 1, 4, 0.5, seed=8)
        assert np.allclose(frame_operator(fam), np.eye(4))

    def test_frame_regardless_of_tail(self):
        fam = decaying_family(6, 1, 30, 0.9, seed=9)
        a, _ = frame_bounds(fam)
        assert a >= 1.0 - 1e-12

    def test_map_norms_decay_geometrically(self):
        fam = decaying_family(4, 1, 12, 0.5, seed=10)
        for j in range(4, 12):
            assert fam.maps[j].operator_norm() == pytest.approx(
                0.5 ** (j - 3), rel=1e-12
            )

    def test_tail_energy_slope_in_sweep(self, rng):
        ratio = 0.5
        fam = decaying_family(4, 1, 16, ratio, seed=11)
        f = complex_unit(rng, 4)
        records = convergence_sweep(fam, SectionSchedule.full(16), f)
        a = frame_bounds(fam)[0]
        # crit3(n) <= sum_{j>n} |G_j|^2 * |plain|^2, a geometric tail
        for r in records[4:-1]:
            tail_energy = sum(
                ratio ** (2 * (j - 3)) for j in range(r.n, fam.count)
            )
            assert r.crit3 <= tail_energy * (np.linalg.norm(f) / a) ** 2 + 1e-12
        ratios = [
            records[i + 1].crit3 / records[i].crit3
            for i in range(5, 12)
            if records[i].crit3 > 1e-20
        ]
        assert np.median(ratios) < 2 * ratio**2

    def test_count_below_head_rejected(self):
        with pytest.raises(ValidationError):
            decaying_family(4, 1, 3, 0.5, seed=0)

    def test_bad_ratio_rejected(self):
        with pytest.raises(ValidationError):
            decaying_family(4, 1, 8, 1.0, seed=0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tail_equals_the_per_block_loop(self, seed):
        """The tail, drawn into place and normalized in one pass, is bit for
        bit the one a loop builds block by block: each block's real part,
        then its imaginary part, from the same stream, scaled by
        ratio^(j - head + 1) over its own spectral norm."""
        dim_h, dim_k, count, ratio = 6, 2, 11, 0.7
        blk, head = dim_k * dim_k, 2  # head = ceil(dim_h / blk)
        rng = np.random.default_rng(seed)
        t = np.zeros((dim_h, count * blk), dtype=np.complex128)
        t[:, :dim_h] = np.eye(dim_h)
        for j in range(head, count):
            real, imag = (rng.standard_normal((dim_h, blk)) for _ in range(2))
            block = real + 1j * imag
            block *= ratio ** (j - head + 1) / np.linalg.norm(block, ord=2)
            t[:, j * blk : (j + 1) * blk] = block
        fam = decaying_family(dim_h, dim_k, count, ratio, seed=seed)
        expected = HSFrameFamily.from_synthesis_matrix(dim_h, dim_k, t)
        assert np.array_equal(fam.images, expected.images)


class TestDeterminism:
    def test_identical_seeds_serialize_identically(self):
        for maker in (
            lambda s: random_family(5, 2, 3, SpectrumSpec.geometric(0.7), seed=s),
            lambda s: riesz_family(4, 2, 1, SpectrumSpec.flat(), seed=s),
            lambda s: decaying_family(3, 1, 9, 0.5, seed=s),
        ):
            doc_a = json.dumps(family_to_document(maker(42)))
            doc_b = json.dumps(family_to_document(maker(42)))
            doc_c = json.dumps(family_to_document(maker(43)))
            assert doc_a == doc_b
            assert doc_a != doc_c

    def test_onb_family_operator(self):
        assert np.allclose(frame_operator(onb_family(4)), np.eye(4))
