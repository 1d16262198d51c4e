"""One-pass section engine: exact answers of the linear scan, bounded cost."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsframe import (
    HSFrameFamily,
    SectionSchedule,
    SpectrumSpec,
    ValidationError,
    convergence_sweep,
    find_oversampling,
    frame_bounds,
    frame_operator,
    from_scalar_frame,
    oversampled_inverse_apply,
    plain_inverse_apply,
    random_family,
    sectional_operator,
    subspace_basis,
)
from hsframe import projection
from conftest import complex_unit, named, shapes

RANK_TOL = 1e-10


def numpy_basis(fam, n):
    """Orthonormal basis of the prefix's column space, by numpy's own SVD."""
    u, sig, _ = np.linalg.svd(fam.synthesis_matrix[:, : n * fam.dim_k**2],
                              full_matrices=False)
    return u[:, : int(np.count_nonzero(sig > RANK_TOL * sig[0]))]


def linear_scan_m(fam, n, lam):
    """Smallest m with lambda_min(Q_n^H S_{n+m} Q_n) >= A/lam, tried one m at a time."""
    q = numpy_basis(fam, n)
    if q.shape[1] == 0:
        return 0
    t, blk = fam.synthesis_matrix, fam.dim_k**2
    target = frame_bounds(fam)[0] / lam
    for k in range(n, fam.count + 1):
        w = q.conj().T @ t[:, : k * blk]
        sec = w @ w.conj().T
        if np.linalg.eigvalsh((sec + sec.conj().T) / 2.0)[0] >= target:
            return k - n
    return fam.count - n


def brute_force_diagnostics(fam, n, f):
    """crit2, crit3 and the strong residual from dense solves on numpy's basis."""
    t, blk = fam.synthesis_matrix, fam.dim_k**2
    s = t @ t.conj().T
    prefix, tail = t[:, : n * blk], t[:, n * blk :]
    s_n = prefix @ prefix.conj().T
    q = numpy_basis(fam, n)

    def sectional_inverse(y):
        return q @ np.linalg.solve(q.conj().T @ s_n @ q, q.conj().T @ y)

    x_n = sectional_inverse(f)
    crit2 = float(np.linalg.norm((s - s_n) @ x_n))
    crit3 = float(np.linalg.norm(tail.conj().T @ x_n) ** 2)
    strong = 0.0
    for j in range(n):
        block = t[:, j * blk : (j + 1) * blk]
        w = block @ (block.conj().T @ f)  # G_j* G_j f
        strong += abs(np.vdot(f, sectional_inverse(w) - np.linalg.solve(s, w))) ** 2
    return crit2, crit3, strong


@st.composite
def sweep_cases(draw):
    dim_h = draw(st.integers(1, 8))
    dim_k = draw(st.integers(1, 2))
    count = draw(st.integers(-(-dim_h // dim_k**2), 10))
    spectrum = SpectrumSpec.geometric(draw(st.floats(0.2, 1.0)))
    fam = random_family(dim_h, dim_k, count, spectrum,
                        seed=draw(st.integers(0, 2**32 - 1)))
    lam = draw(st.floats(1.1, 8.0, exclude_min=True, exclude_max=True))
    return fam, lam


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(sweep_cases())
def test_sweep_matches_linear_scan(case):
    fam, lam = case
    f = complex_unit(np.random.default_rng(0), fam.dim_h)
    ground = np.linalg.solve(frame_operator(fam), f)
    scale = float(np.linalg.norm(ground))
    records = convergence_sweep(fam, SectionSchedule.full(fam.count), f, lam=lam)
    for r in records:
        assert not r.flagged
        assert r.r_n == numpy_basis(fam, r.n).shape[1]
        assert r.m_n == linear_scan_m(fam, r.n, lam)
        assert r.m_n == find_oversampling(fam, r.n, lam)
        over = oversampled_inverse_apply(fam, r.n, lam, f)
        assert float(np.linalg.norm(over - ground)) == pytest.approx(
            r.err_oversampled, rel=1e-9, abs=1e-9 * scale
        )
        crit2, crit3, strong = brute_force_diagnostics(fam, r.n, f)
        assert r.crit2 == pytest.approx(crit2, rel=1e-10, abs=1e-10 * scale)
        assert r.crit3 == pytest.approx(crit3, rel=1e-10, abs=1e-10 * scale**2)
        assert r.strong_residual == pytest.approx(
            strong, rel=1e-10, abs=1e-10 * scale**2
        )
    assert records[-1].err_plain <= 1e-8 * scale
    assert records[-1].err_oversampled <= 1e-8 * scale


def test_rank_drop_makes_the_search_rescan():
    """H_3 does not contain H_2: the tiny e2 direction counts at n = 2 but
    falls below rank_tol * sigma_max once the large third map arrives, so
    k(n) decreases and the skip guard must restart the scan at k = n."""
    fam = from_scalar_frame([[1, 0], [0, 1e-6], [1e5, 0], [0, 1]])
    records = convergence_sweep(fam, SectionSchedule.full(4), [1.0, 1.0])
    assert [r.r_n for r in records] == [1, 2, 1, 2]
    assert [r.m_n for r in records] == [0, 2, 0, 0]
    assert [r.m_n for r in records] == [
        linear_scan_m(fam, n, 2.0) for n in range(1, 5)
    ]


def test_spanning_pair_survives_a_rank_drop(linalg_calls):
    """H_2 = H, H_3 does not (the 1e-6 direction falls below rank_tol once
    1e5 arrives), and H_4 = H again with n = 4 <= k(2) = 6: the prefixes
    after the drop take k(2) and S_6^-1 f from prefix 2 instead of searching
    and solving again."""
    fam = from_scalar_frame([[1, 0], [0, 1e-6], [1e5, 0], [0, 1], [0, 1], [0, 10]])
    linalg_calls.clear()
    records = convergence_sweep(fam, SectionSchedule.full(6), [1.0, 1.0])
    assert len(named(linalg_calls, "eigh", "eigvalsh")) <= 7
    assert len(named(linalg_calls, "solve")) <= 3
    assert shapes(named(linalg_calls, "qr")) == [("qr", (6, 2), "r")]  # the family's
    assert [r.r_n for r in records] == [1, 2, 1, 2, 2, 2]
    assert [r.m_n for r in records] == [2, 4, 0, 2, 1, 0]
    assert [r.m_n for r in records] == [
        find_oversampling(fam, n, 2.0) for n in range(1, 7)
    ]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(sweep_cases())
def test_errors_lie_in_the_residual_bracket(case):
    """S(x - S^-1 f) = Sx - f and A <= S <= B, so every error the sweep
    reports lies in [|Sx - f|/B, |Sx - f|/A] for the single-prefix x."""
    fam, lam = case
    f = complex_unit(np.random.default_rng(0), fam.dim_h)
    s = frame_operator(fam)
    a, b = frame_bounds(fam)
    slack = 1e-12 * float(np.linalg.norm(f)) / a
    for r in convergence_sweep(fam, SectionSchedule.full(fam.count), f, lam=lam):
        checks = [(r.err_oversampled, oversampled_inverse_apply(fam, r.n, lam, f))]
        if not r.flagged:  # a flagged row has no plain half
            checks.append((r.err_plain, plain_inverse_apply(fam, r.n, f)))
        for err, x in checks:
            residual = float(np.linalg.norm(s @ x - f))
            assert residual / b - slack <= err <= residual / a + slack


def test_sweep_cost_is_bounded(linalg_calls):
    """At most 2 rows + count eigen-solves, one SVD per row and one QR, the
    family's, for a whole sweep; the counts this family takes are pinned."""
    fam = random_family(24, 2, 24, SpectrumSpec.flat(), seed=1)
    f = complex_unit(np.random.default_rng(0), fam.dim_h)
    linalg_calls.clear()
    records = convergence_sweep(fam, SectionSchedule.full(fam.count), f)
    rows = len(records)
    assert any(r.m_n > 0 for r in records)  # the search does real work
    assert len(named(linalg_calls, "eigh", "eigvalsh")) <= 2 * rows + fam.count
    assert len(named(linalg_calls, "svd")) <= rows
    assert Counter(name for name, _, _ in linalg_calls) == {
        "eigvalsh": 31, "svd": 24, "solve": 8, "qr": 1,
    }
    assert shapes(named(linalg_calls, "qr")) == [("qr", (96, 24), "r")]  # the family's


@pytest.mark.parametrize(
    "step, lam",
    [
        (1, 2.0),  # every prefix from n0 on: k stays put, then moves with n
        (3, 2.0),  # gapped
        (1, 8.0),  # a weaker target: the search stops earlier
        (2, 4.0),
    ],
)
def test_full_rank_rows_share_one_search(linalg_calls, step, lam):
    """Once H_n = H, each S_k is eigen-solved and solved at most once, and
    every row still gets the single-prefix answer."""
    fam = random_family(24, 2, 24, SpectrumSpec.flat(), seed=1)
    frame_bounds(fam)  # factors the whole family first
    n0 = next(n for n in range(1, fam.count + 1)
              if subspace_basis(fam, n).rank == fam.dim_h)
    schedule = SectionSchedule(tuple(range(n0, fam.count + 1, step)))
    f = complex_unit(np.random.default_rng(0), fam.dim_h)
    linalg_calls.clear()
    records = convergence_sweep(fam, schedule, f, lam=lam)
    ks = {r.n + r.m_n for r in records}
    assert any(r.m_n > 0 for r in records)  # the search does real work
    assert len(ks) > 1  # and k moves
    assert len(named(linalg_calls, "eigh", "eigvalsh")) <= fam.count - n0 + 1
    assert len(named(linalg_calls, "solve")) <= len(ks)
    assert named(linalg_calls, "qr") == []
    ground = np.linalg.solve(frame_operator(fam), f)
    for r in records:
        assert r.r_n == fam.dim_h
        assert r.m_n == find_oversampling(fam, r.n, lam)
        over = oversampled_inverse_apply(fam, r.n, lam, f)
        assert r.err_oversampled == pytest.approx(
            float(np.linalg.norm(over - ground)), rel=1e-9, abs=1e-12
        )


@pytest.mark.parametrize("rank_tol", [0.0, 1.5, float("nan"), "1e-10", True])
def test_rank_tol_checked_at_every_entry(rank_tol):
    fam = random_family(4, 1, 6, SpectrumSpec.flat(), seed=2)
    f = np.ones(4)
    with pytest.raises(ValidationError, match="rank_tol"):
        subspace_basis(fam, 2, rank_tol)
    with pytest.raises(ValidationError, match="rank_tol"):
        find_oversampling(fam, 2, 2.0, rank_tol=rank_tol)
    with pytest.raises(ValidationError, match="rank_tol"):
        convergence_sweep(fam, SectionSchedule.full(6), f, rank_tol=rank_tol)


@st.composite
def gapped_prefixes(draw):
    """A family of random rank and conditioning (singular values spread over
    up to six decades, well clear of RANK_TOL) and a gapped schedule."""
    dim_h = draw(st.integers(1, 8))
    dim_k = draw(st.integers(1, 2))
    count = draw(st.integers(1, 10))
    ncols = count * dim_k * dim_k
    rank = draw(st.integers(1, min(dim_h, ncols)))
    decay = draw(st.floats(0.0, 6.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def gauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    scales = 10.0 ** (-decay * np.linspace(0.0, 1.0, rank))
    t = (gauss(dim_h, rank) * scales) @ gauss(rank, ncols)
    fam = HSFrameFamily.from_synthesis_matrix(dim_h, dim_k, t)
    ns = draw(st.lists(st.integers(1, count), min_size=1, unique=True))
    return fam, SectionSchedule(tuple(sorted(ns)))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(gapped_prefixes())
def test_running_factorization_matches_direct_svd(case):
    """Each prefix factored from the previous one has numpy's singular
    values and rank for that prefix."""
    fam, schedule = case
    bases = list(projection._prefix_bases(fam, schedule, RANK_TOL))
    assert [b.n for b in bases] == list(schedule)
    for basis in bases:
        direct = np.linalg.svd(
            fam.synthesis_matrix[:, : basis.n * fam.dim_k**2], compute_uv=False
        )
        assert basis.rank == int(np.count_nonzero(direct > RANK_TOL * direct[0]))
        assert np.abs(basis.sigma - direct[: basis.rank]).max(initial=0.0) <= (
            1e-12 * direct[0]
        )
        q = basis.q
        assert np.allclose(q.conj().T @ q, np.eye(basis.rank), atol=1e-12)


def test_sweep_factors_each_prefix_from_the_previous(linalg_calls):
    """No Cholesky, no eigen-solve of a plain section, no QR, and every
    per-prefix SVD at most dim_h + one block wide."""
    fam = random_family(24, 2, 24, SpectrumSpec.flat(), seed=1)
    frame_bounds(fam)  # factors the whole family first: not a per-prefix SVD
    f = complex_unit(np.random.default_rng(0), fam.dim_h)
    linalg_calls.clear()
    records = convergence_sweep(fam, SectionSchedule.parse("prefix:all", fam.count), f)
    svd_cols = [a.shape[1] for _, a, _ in named(linalg_calls, "svd")]
    rows = len(records)
    assert any(r.m_n > 0 for r in records)  # the search does real work
    assert named(linalg_calls, "cholesky") == []
    assert len(named(linalg_calls, "eigh", "eigvalsh")) <= 2 * rows + fam.count
    assert len(svd_cols) == rows - 1  # n = count reads the cached SVD
    assert max(svd_cols) <= fam.dim_h + fam.dim_k**2
    assert named(linalg_calls, "qr") == []


def test_plain_section_is_diagonal_in_its_basis():
    fam = random_family(6, 2, 5, SpectrumSpec.geometric(0.5), seed=3)
    basis = subspace_basis(fam, 2)
    sec = sectional_operator(basis)
    assert np.allclose(sec, np.diag(basis.sigma**2), rtol=0, atol=1e-12)
    w = basis.q.conj().T @ fam.synthesis_matrix[:, : 2 * fam.dim_k**2]
    assert np.allclose(sec, w @ w.conj().T, atol=1e-12)
