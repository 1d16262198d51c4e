import numpy as np
import pytest

from hsframe import (
    ValidationError,
    devectorize,
    embed_vector,
    frob_inner,
    hs_norm,
    rank_one,
    vectorize,
)
from hsframe.core import check_int, check_real
from conftest import complex_unit

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


class TestFrobInner:
    def test_orthogonal_rank_ones(self):
        a = np.array([[1, 0], [0, 0]], dtype=complex)
        b = np.array([[0, 0], [0, 1]], dtype=complex)
        assert frob_inner(a, b) == 0

    def test_identity(self):
        assert frob_inner(np.eye(2), np.eye(2)) == 2

    def test_nilpotent(self):
        a = np.array([[0, 1], [0, 0]], dtype=complex)
        assert frob_inner(a, a) == 1

    def test_matches_trace_and_entrywise_sum(self, rng):
        for _ in range(20):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            via_trace = np.trace(b.conj().T @ a)
            via_sum = np.sum(a * b.conj())
            got = frob_inner(a, b)
            assert abs(got - via_trace) <= 1e-12 * abs(via_trace)
            assert abs(got - via_sum) <= 1e-12 * abs(via_sum)

    def test_conjugate_symmetry_and_linearity(self, rng):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert abs(frob_inner(a, b) - np.conj(frob_inner(b, a))) < 1e-12
        lhs = frob_inner(2.5j * a + c, b)
        rhs = 2.5j * frob_inner(a, b) + frob_inner(c, b)
        assert abs(lhs - rhs) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            frob_inner(np.eye(2), np.eye(3))


class TestHSNorm:
    def test_zero(self):
        assert hs_norm(np.zeros((2, 2))) == 0.0

    def test_identity(self):
        assert hs_norm(np.eye(2)) == pytest.approx(np.sqrt(2), rel=1e-15)

    def test_rank_one_factorizes(self, rng):
        # the norm of x tensor y is |x| * |y|
        for _ in range(10):
            x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            expected = np.linalg.norm(x) * np.linalg.norm(y)
            assert hs_norm(rank_one(x, y)) == pytest.approx(expected, rel=1e-12)


class TestRankOne:
    def test_standard_basis(self):
        assert np.array_equal(rank_one(E1, E2), [[0, 1], [0, 0]])

    def test_zero_left_factor(self):
        assert np.all(rank_one(np.zeros(2), E2) == 0)

    def test_row_constant_and_adjoint(self):
        x = np.array([1.0, 1.0]) / np.sqrt(2)
        y = np.array([1.0, 0.0])
        m = rank_one(x, y)
        assert np.allclose(m[:, 0], x) and np.allclose(m[:, 1], 0)
        assert np.allclose(m.conj().T, rank_one(y, x), atol=1e-12)

    def test_adjoint_law(self, rng):
        for _ in range(20):
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            assert np.allclose(rank_one(x, y).conj().T, rank_one(y, x), atol=1e-12)

    def test_composition_law(self, rng):
        # (x(x)y)(z(x)w) = <z,y> x(x)w
        for _ in range(20):
            x, y, z, w = (
                rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(4)
            )
            lhs = rank_one(x, y) @ rank_one(z, w)
            rhs = np.vdot(y, z) * rank_one(x, w)
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            rank_one(np.ones(2), np.ones(3))


class TestEmbedVector:
    def test_basis(self):
        assert np.array_equal(embed_vector(E1, E1), [[1, 0], [0, 0]])

    def test_zero(self):
        assert np.all(embed_vector(np.zeros(2), E1) == 0)

    def test_isometry(self, rng):
        y0 = complex_unit(rng, 5)
        for _ in range(20):
            x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            nx = np.linalg.norm(x)
            assert abs(hs_norm(embed_vector(x, y0)) - nx) <= 1e-12 * nx

    def test_linear(self, rng):
        y0 = complex_unit(rng, 3)
        x1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        x2 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        lhs = embed_vector(2.0 * x1 - 1j * x2, y0)
        rhs = 2.0 * embed_vector(x1, y0) - 1j * embed_vector(x2, y0)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_non_unit_direction_rejected(self):
        with pytest.raises(ValidationError):
            embed_vector(E1, 2.0 * E1)


class TestVectorize:
    def test_identity_row_major(self):
        assert np.array_equal(vectorize(np.eye(2)), [1, 0, 0, 1])
        assert np.array_equal(devectorize([1, 0, 0, 1]), np.eye(2))

    def test_round_trip(self, rng):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.array_equal(devectorize(vectorize(a)), a)

    def test_inner_product_preserved(self, rng):
        for _ in range(20):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            lhs = frob_inner(a, b)
            rhs = np.vdot(vectorize(b), vectorize(a))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_non_square_length_rejected(self):
        with pytest.raises(ValidationError):
            devectorize(np.ones(3))


class TestScalarChecks:
    def test_numpy_scalars_and_closed_ends_pass(self):
        assert check_real("x", np.float32(0.5), 0.0, 1.0) == 0.5
        assert check_real("x", 0, 0.0, 1.0, closed=(True, False)) == 0.0
        assert type(check_int("n", np.int64(3), 1, 3)) is int

    @pytest.mark.parametrize("value", [10**400, float("inf"), -1])
    def test_reals_outside_or_too_large_rejected(self, value):
        with pytest.raises(ValidationError, match=r"^x must be a finite real in \[0.0, inf\)"):
            check_real("x", value, 0.0, float("inf"), closed=(True, False))
