"""One-pass section engine: exact answers of the linear scan, bounded cost."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsframe import (
    CoefficientSequence,
    HSFrameFamily,
    InternalConsistencyError,
    NumericError,
    SectionSchedule,
    SpectrumSpec,
    ValidationError,
    convergence_sweep,
    find_oversampling,
    frame_bounds,
    frame_operator,
    from_scalar_frame,
    kernel_consistency,
    oversampled_inverse_apply,
    plain_inverse_apply,
    random_family,
    save_family,
    sectional_operator,
    subspace_basis,
)
from hsframe import cli, projection
from hsframe.family import numerical_rank
from conftest import complex_unit, counted, named, shapes, solves

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
    and solving again.  Prefixes 3-5 follow a running factor with dim_h
    columns, so each takes the R of its running block; prefix 3's singular
    values show the drop, so only it takes R's SVD with vectors.  Prefix
    4's smallest singular value, about 1, clears the certificate
    (rank_tol 1e-10 of sigma_max(T), about 1e5, plus rounding), so prefix 5
    takes its QR alone.  Prefixes 4 and 5 keep R, each plain inverse two
    solves with it."""
    fam = from_scalar_frame([[1, 0], [0, 1e-6], [1e5, 0], [0, 1], [0, 1], [0, 10]])
    linalg_calls.clear()
    records = convergence_sweep(fam, SectionSchedule.full(6), [1.0, 1.0])
    with_r, compressions = solves(linalg_calls)
    assert len(named(linalg_calls, "eigh", "eigvalsh")) <= 7
    assert len(compressions) <= 3
    assert len(with_r) == 4
    assert shapes(named(linalg_calls, "qr", "svd")) == [
        ("qr", (6, 2), "r"), ("svd", (2, 2), None),  # the family's
        ("svd", (2, 1), None), ("svd", (2, 2), None),
        ("qr", (3, 2), "r"), ("svd", (2, 2), "values"), ("svd", (2, 2), None),
        ("qr", (3, 2), "r"), ("svd", (2, 2), "values"),  # certifies rank 2
        ("qr", (3, 2), "r"),
    ]
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


@st.composite
def dropping_cases(draw):
    """A family whose rank drops after H_n = H, and lambda.  Its dim_h first
    maps (dim_k 1) are random and span H; the next dim_h lie along an
    orthonormal basis and are 1e12 times larger, so the rank falls to 1 and
    climbs back to dim_h, and up to three large random maps follow."""
    dim_h = draw(st.integers(2, 6))
    extra = draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def gauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    large = np.hstack([np.linalg.qr(gauss(dim_h, dim_h))[0], gauss(dim_h, extra)])
    t = np.hstack([gauss(dim_h, dim_h), 1e12 * large])
    lam = draw(st.floats(1.1, 8.0, exclude_min=True, exclude_max=True))
    return HSFrameFamily.from_synthesis_matrix(dim_h, 1, t), lam


def check_rows_match_single_prefix(fam, lam, tol_by_error=False):
    """Each row of the prefix:all sweep has the rank and m_n of the
    single-prefix entries, and its err_plain agrees with
    ``plain_inverse_apply``'s to 1e-12 |S^-1 f| (with ``tol_by_error``, to
    1e-12 of the larger of |S^-1 f| and the error itself), against the
    ground truth the sweep takes.  A row of rank dim_h after a prefix with
    at least dim_h columns, but n = count, takes its section from the
    running R (Q_n = I), so ``kernel_consistency``'s |P_n g - g| there is
    exactly 0.  Returns the sweep's records."""
    f = complex_unit(np.random.default_rng(0), fam.dim_h)
    ground = projection._inverse_frame_apply(fam, f)
    scale = float(np.linalg.norm(ground))
    schedule = SectionSchedule.full(fam.count)
    records = convergence_sweep(fam, schedule, f, lam=lam)
    for r in records:
        assert r.r_n == subspace_basis(fam, r.n).rank
        assert r.m_n == find_oversampling(fam, r.n, lam)
        plain = float(np.linalg.norm(plain_inverse_apply(fam, r.n, f) - ground))
        tol = 1e-12 * (max(scale, plain) if tol_by_error else scale)
        assert abs(r.err_plain - plain) <= tol
    coeffs = CoefficientSequence.from_stacked(
        complex_unit(np.random.default_rng(1), fam.synthesis_matrix.shape[1]), fam.dim_k
    )
    gaps = kernel_consistency(fam, coeffs, schedule).projection_gap
    for r, gap in zip(records, gaps):
        if (r.n - 1) * fam.dim_k**2 >= fam.dim_h and r.r_n == fam.dim_h and r.n < fam.count:
            assert gap == 0.0
    return records


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(sweep_cases())
def test_sweep_rows_match_single_prefix_entries(case):
    check_rows_match_single_prefix(*case)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(dropping_cases())
def test_sweep_rows_match_single_prefix_entries_through_a_rank_drop(case):
    """As above where the rank drops after H_n = H: the prefix after the
    first large map takes the SVD of its running R with vectors, and the
    rank climbs back to dim_h one large map at a time.  The sections
    before the first large map are about 1e24 times weaker than S, so
    their plain errors are far above |S^-1 f| and agree to 1e-12 of
    themselves."""
    fam, lam = case
    records = check_rows_match_single_prefix(fam, lam, tol_by_error=True)
    ranks = list(range(1, fam.dim_h + 1))
    assert [r.r_n for r in records] == ranks + ranks + [fam.dim_h] * (
        fam.count - 2 * fam.dim_h
    )


def test_seeded_sweep_rows_match_single_prefix_entries():
    """Each row's r_n, m_n and err_plain are the single-prefix entries', on
    300 families drawn as ``sweep_cases`` draws them, from one seeded
    generator.  err_plain is held to 1e-12 of the larger of |S^-1 f| and
    the error itself: a row whose section is much weaker than S has an
    error far above |S^-1 f|, which the sweep and ``plain_inverse_apply``
    round apart in its last digits."""
    rng = np.random.default_rng(12345)
    for _ in range(300):
        dim_h, dim_k = int(rng.integers(1, 9)), int(rng.integers(1, 3))
        count = int(rng.integers(-(-dim_h // dim_k**2), 11))
        spectrum = SpectrumSpec.geometric(float(rng.uniform(0.2, 1.0)))
        fam = random_family(dim_h, dim_k, count, spectrum, seed=int(rng.integers(2**32)))
        lam = float(rng.uniform(1.1, 8.0))
        f = complex_unit(np.random.default_rng(0), fam.dim_h)
        ground = projection._inverse_frame_apply(fam, f)
        scale = float(np.linalg.norm(ground))
        for r in convergence_sweep(fam, SectionSchedule.full(fam.count), f, lam=lam):
            assert r.r_n == subspace_basis(fam, r.n).rank
            assert r.m_n == find_oversampling(fam, r.n, lam)
            plain = float(np.linalg.norm(plain_inverse_apply(fam, r.n, f) - ground))
            assert abs(r.err_plain - plain) <= 1e-12 * max(scale, plain)


def r_search_family():
    """dim_h 4, dim_k 1: four copies of e1, then 0.1 e2, 0.1 e3 and 0.1 e4,
    then eight complex Gaussian maps.  F is square from row 5 on, and row 7,
    the first of full rank, is an R section whose search climbs to k = 14,
    below count = 15."""
    rng = np.random.default_rng(0)
    e = np.eye(4)
    gauss = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
    head = [e[:, 0]] * 4 + [0.1 * e[:, j] for j in (1, 2, 3)]
    return HSFrameFamily.from_synthesis_matrix(4, 1, np.column_stack(head + list(gauss.T)))


def test_r_section_search_climbs_past_n(monkeypatch):
    """An R section (Q_n = I) whose oversampled solve is at k > n: its m_n
    is the eigen-scan's and its error is the dense |S_k^-1 f - S^-1 f|,
    on the section ``_sections`` makes for row 7 and in the sweep."""
    fam, lam = r_search_family(), 2.0
    f = complex_unit(np.random.default_rng(0), fam.dim_h)
    t = fam.synthesis_matrix
    ground = np.linalg.solve(frame_operator(fam), f)

    def dense_error(k):
        return float(np.linalg.norm(np.linalg.solve(t[:, :k] @ t[:, :k].conj().T, f) - ground))

    sections = list(projection._sections(fam, range(1, fam.count + 1), RANK_TOL))
    assert [s.rank for s in sections[:7]] == [1, 1, 1, 1, 2, 3, 4]
    section = sections[6]
    assert np.array_equal(section.q, np.eye(4))
    k = section.oversampling(projection._positive_bounds(fam), lam, section.n)
    assert k - section.n == linear_scan_m(fam, 7, lam) == 7
    err = float(np.linalg.norm(section.solve(k, f) - ground))
    assert err == pytest.approx(dense_error(k), rel=1e-12)

    swept = []
    made = projection._sections

    def recorded(*args):
        for s in made(*args):
            swept.append(s)
            yield s

    monkeypatch.setattr(projection, "_sections", recorded)
    row = convergence_sweep(fam, SectionSchedule.full(fam.count), f, lam=lam)[6]
    assert swept[6].n == 7 and np.array_equal(swept[6].q, np.eye(4))
    assert (row.r_n, row.m_n) == (4, linear_scan_m(fam, 7, lam))
    assert row.err_oversampled == pytest.approx(dense_error(14), rel=1e-12)


def test_kernel_consistency_takes_r_once_h_is_spanned(linalg_calls):
    """kernel_consistency on the prefix:all schedule of a 24/2/24 family
    takes an SVD with vectors for prefixes 1-6 alone: H_6 = H, so prefixes
    7-23 are R sections, where P_n = I and |P_n g - g| is exactly 0.
    Prefix 7's values-only SVD certifies full rank for the rest, and no
    later prefix reads its singular values."""
    fam = random_family(24, 2, 24, SpectrumSpec.flat(), seed=1)
    frame_bounds(fam)  # factors the whole family first
    coeffs = CoefficientSequence.from_stacked(
        complex_unit(np.random.default_rng(1), fam.synthesis_matrix.shape[1]), fam.dim_k
    )
    linalg_calls.clear()
    report = kernel_consistency(fam, coeffs, SectionSchedule.full(fam.count))
    with_uv = [a.shape for _, a, mode in named(linalg_calls, "svd") if mode is None]
    assert with_uv == [(24, 4 * n) for n in range(1, 7)]
    assert len(named(linalg_calls, "svd")) == 6 + 1
    assert report.projection_gap[6:23] == (0.0,) * 17
    assert all(gap > 0.0 for gap in report.projection_gap[:5])


def test_sweep_cost_is_bounded(linalg_calls):
    """At most 2 rows + count decided search steps, each at most two
    Cholesky tests and one eigen-solve, and three tests more per row to
    certify its k; one SVD per row, and each compression solved was tested
    first, for a whole sweep.  The counts this family takes are pinned:
    the one eigen-solve is an upper-end check within the margin, as
    lambda_max = B on this tight family.  Prefixes 1-6 take an SVD with vectors, and
    H_6 = H, so prefixes 7-23 take a QR of their running block, and each
    plain inverse is two solves with that R but row 22's: k_H = 22, so that
    row reads the pair prefix 6 kept.  Prefix 7's values-only SVD certifies
    full rank for the rest, and only row 23, past k_H, reads its singular
    values, for the search at k = n: 2 values-only SVDs."""
    fam = random_family(24, 2, 24, SpectrumSpec.flat(), seed=1)
    f = complex_unit(np.random.default_rng(0), fam.dim_h)
    linalg_calls.clear()
    records = convergence_sweep(fam, SectionSchedule.full(fam.count), f)
    rows = len(records)
    eigen = len(named(linalg_calls, "eigh", "eigvalsh"))
    tests = len(named(linalg_calls, "cholesky"))
    assert any(r.m_n > 0 for r in records)  # the search does real work
    assert eigen <= 2 * rows + fam.count
    assert tests <= 2 * (2 * rows + fam.count) + 3 * rows
    assert len(named(linalg_calls, "svd")) <= rows
    assert len(solves(linalg_calls)[1]) <= tests + eigen
    assert counted(linalg_calls) == {
        ("cholesky", None): 43, ("eigvalsh", None): 1, ("svd", None): 7,
        ("svd", "values"): 2, ("qr", "r"): 18, ("solve", None): 6, ("solve", "R"): 32,
    }
    assert shapes(named(linalg_calls, "qr")) == (
        [("qr", (96, 24), "r")] + [("qr", (28, 24), "r")] * 17  # the family's first
    )


@pytest.mark.parametrize(
    "step, lam, r_solves",
    [
        (1, 2.0, 32),  # every prefix from n0 on: k stays put, then moves with n
        (3, 2.0, 10),  # gapped
        (1, 8.0, 32),  # a weaker target: the search stops earlier
        (2, 4.0, 16),
    ],
    ids=["1-2.0", "3-2.0", "1-8.0", "2-4.0"],
)
def test_full_rank_rows_share_one_search(linalg_calls, step, lam, r_solves):
    """Once H_n = H, each S_k is eigen-solved and solved at most once, and
    every row still gets the single-prefix answer.  Every row between the
    first and n = count factors only the R of its running block (dim_h +
    step blocks tall), whose plain inverse is two solves with R, but a row
    n = k_H, whose plain inverse is the kept S_n^-1 f: 2 (rows - 2) R
    solves, less 2 where k_H is scheduled (lam 2 and 8, step 1)."""
    fam = random_family(24, 2, 24, SpectrumSpec.flat(), seed=1)
    frame_bounds(fam)  # factors the whole family first
    n0 = next(n for n in range(1, fam.count + 1)
              if subspace_basis(fam, n).rank == fam.dim_h)
    schedule = SectionSchedule(tuple(range(n0, fam.count + 1, step)))
    f = complex_unit(np.random.default_rng(0), fam.dim_h)
    linalg_calls.clear()
    records = convergence_sweep(fam, schedule, f, lam=lam)
    ks = {r.n + r.m_n for r in records}
    with_r, compressions = solves(linalg_calls)
    assert any(r.m_n > 0 for r in records)  # the search does real work
    assert len(ks) > 1  # and k moves
    assert len(named(linalg_calls, "eigh", "eigvalsh")) <= fam.count - n0 + 1
    assert len(compressions) <= len(ks)
    assert len(with_r) == r_solves
    assert schedule.lengths[-1] == fam.count
    assert shapes(named(linalg_calls, "qr")) == (
        [("qr", (fam.dim_h + step * fam.dim_k**2, fam.dim_h), "r")] * (len(records) - 2)
    )
    ground = np.linalg.solve(frame_operator(fam), f)
    for r in records:
        assert r.r_n == fam.dim_h
        assert r.m_n == find_oversampling(fam, r.n, lam)
        over = oversampled_inverse_apply(fam, r.n, lam, f)
        assert r.err_oversampled == pytest.approx(
            float(np.linalg.norm(over - ground)), rel=1e-9, abs=1e-12
        )


def test_k_equals_n_is_the_plain_inverse(linalg_calls):
    """Where the search returns k = n, the oversampled inverse is the plain
    one bit for bit, both being the one k = n solve: a division by s_r^2,
    with no solve and no eigen-solve, or, on a row after H_n = H, two
    solves with its R, taken once.  In the prefix:all sweep, k_H = 22, so
    the row n = 22 takes the spanning pair (22, S_22^-1 f) that prefix 6's
    search solved in prefix 6's basis, and that vector is its plain inverse
    too."""
    fam = random_family(24, 2, 24, SpectrumSpec.flat(), seed=1)
    f = complex_unit(np.random.default_rng(0), fam.dim_h)
    frame_bounds(fam)  # factors the whole family first
    ns = [n for n in range(1, fam.count + 1) if find_oversampling(fam, n, 2.0) == 0]
    assert ns == [22, 23, 24]
    for n in ns:
        linalg_calls.clear()
        over = oversampled_inverse_apply(fam, n, 2.0, f)
        assert named(linalg_calls, "solve", "eigh", "eigvalsh") == []
        assert np.array_equal(over, plain_inverse_apply(fam, n, f))

    linalg_calls.clear()
    records = convergence_sweep(fam, SectionSchedule(tuple(ns)), f)
    with_r, compressions = solves(linalg_calls)
    assert named(linalg_calls, "eigh", "eigvalsh") == [] and compressions == []
    assert len(with_r) == 2  # row 23's R^H and R
    assert [r.m_n for r in records] == [0, 0, 0]
    assert all(r.err_oversampled == r.err_plain for r in records)

    records = convergence_sweep(fam, SectionSchedule.full(fam.count), f)
    spanning, searched = records[21], records[22:]
    assert (spanning.n, spanning.m_n, records[20].n + records[20].m_n) == (22, 0, 22)
    assert spanning.err_oversampled == records[20].err_oversampled  # the kept pair
    assert spanning.err_oversampled == spanning.err_plain
    assert [r.m_n for r in searched] == [0, 0]
    assert all(r.err_oversampled == r.err_plain for r in searched)


@pytest.mark.parametrize("zero_head", [False, True])
def test_block_solve_is_its_column_solves(zero_head):
    """``SubspaceBasis.solve`` on a (dim_h, p) block gives each column's own
    solve, at k = n and at every k > n, on every section of a 6/2/5 prefix
    run: SVD sections (rank 4 and 6, and rank 0 where the first two maps
    are zero), R sections (prefixes 3 and 4, or prefix 4 alone after the
    zero maps) and the whole family's.  An R section at k = n, two
    triangular solves, matches bit for bit; elsewhere a block product runs
    as a gemm where a column's runs as a gemv, so the columns agree within
    a few eps of their norm."""
    t = random_family(6, 2, 5, SpectrumSpec.geometric(0.7), seed=4).synthesis_matrix.copy()
    if zero_head:
        t[:, :8] = 0.0
    fam = HSFrameFamily.from_synthesis_matrix(6, 2, t)
    block = np.column_stack([complex_unit(np.random.default_rng(j), 6) for j in range(3)])
    kinds = []
    for section in projection._sections(fam, range(1, 6), RANK_TOL):
        kinds.append((section.rank, section._r is not None))
        for k in range(section.n, fam.count + 1):
            solved = section.solve(k, block)
            assert solved.shape == block.shape
            for col, y in zip(solved.T, block.T):
                own = section.solve(k, y)
                if k == section.n and section._r is not None:
                    assert col.tobytes() == own.tobytes()
                else:
                    assert np.linalg.norm(col - own) <= 8 * np.finfo(float).eps * max(
                        np.linalg.norm(own), np.finfo(float).tiny
                    )
    assert kinds == ([(0, False), (0, False), (4, False), (6, True), (6, False)]
                     if zero_head else
                     [(4, False), (6, False), (6, True), (6, True), (6, False)])


@pytest.mark.parametrize("n, m", [(4, 5), (11, 0), (12, 0)])
def test_single_prefix_entries_factor_one_prefix(linalg_calls, n, m):
    """Each single-prefix entry makes one SVD, of its prefix, and none at
    n = count, where the family's cached SVD is read.  The two searches make
    the same Cholesky tests and no eigen-solve: when m > 0, one test for
    each k in n+1..n+m-1, which falls short, two at k = n + m, which
    reaches A/lambda, and one of its upper end.  Only the oversampled
    inverse adds a solve, of the compression at k = n + m when m > 0."""
    fam = random_family(6, 1, 12, SpectrumSpec.flat(), seed=1)
    frame_bounds(fam)  # factors the whole family first
    f = complex_unit(np.random.default_rng(0), fam.dim_h)
    r = min(n, fam.dim_h)
    prefix = [] if n == fam.count else [("svd", (fam.dim_h, n), None)]
    search = [("cholesky", (r, r), None)] * (m + 2) * (m > 0)
    solve = [("solve", (r, r), None)] * (m > 0)
    tests = []
    for entry, expected in [
        (lambda: subspace_basis(fam, n), prefix),
        (lambda: plain_inverse_apply(fam, n, f), prefix),
        (lambda: find_oversampling(fam, n, 2.0), prefix + search),
        (lambda: oversampled_inverse_apply(fam, n, 2.0, f), prefix + search + solve),
    ]:
        linalg_calls.clear()
        entry()
        assert shapes(linalg_calls) == expected
        tests.append([a for _, a, _ in named(linalg_calls, "cholesky")])
    find, over = tests[2:]
    assert all(map(np.array_equal, find, over))
    assert find_oversampling(fam, n, 2.0) == m


@pytest.mark.parametrize("entry", [
    lambda fam, n, f: oversampled_inverse_apply(fam, n, 2.0, f),
    lambda fam, n, f: find_oversampling(fam, n, 2.0),
], ids=["oversampled_inverse_apply", "find_oversampling"])
class TestSearchCertifiesItsK:
    """The search asserts the spectrum of the compression it returns lies in
    [A/lambda, B].  Only a bug can trip that, so the bounds it is given are
    patched: a B below lambda_max, then an A/lambda above lambda_max(S)."""

    FAM = random_family(24, 2, 24, SpectrumSpec.flat(), seed=1)
    F = complex_unit(np.random.default_rng(0), 24)

    @pytest.mark.parametrize("n", [1, 24])
    def test_upper_bound(self, monkeypatch, entry, n):
        a, b = frame_bounds(self.FAM)
        monkeypatch.setattr(projection, "_positive_bounds", lambda fam: (a, b / 2))
        with pytest.raises(InternalConsistencyError, match=" exceeds upper bound "):
            entry(self.FAM, n, self.F)

    def test_lower_bound(self, monkeypatch, linalg_calls, entry):
        b = frame_bounds(self.FAM)[1]
        monkeypatch.setattr(projection, "_positive_bounds", lambda fam: (4 * b, b))
        linalg_calls.clear()
        with pytest.raises(InternalConsistencyError, match=" below certified level "):
            entry(self.FAM, 1, self.F)
        # the search ran to count: one Cholesky test for each k in 2..24,
        # which falls short, and one for each end at k = 24; the one
        # eigen-solve gives the message its smallest eigenvalue
        assert len(named(linalg_calls, "cholesky")) == self.FAM.count
        assert len(named(linalg_calls, "eigvalsh")) == 1


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
    bases = list(projection._sections(fam, schedule, RANK_TOL))
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
    """No Cholesky but the search's tests, of compressions at k > n, and
    no eigen-solve of a plain section.  Until H_n = H
    (n = 6), each prefix takes one SVD with vectors of its running block,
    at most dim_h + one block wide; after, one QR of that block's conjugate
    transpose, dim_h + one block tall.  Prefix 7 takes a values-only SVD of
    its R, which certifies full rank for the rest; only row 23, past
    k_H = 22, reads its singular values, after its QR."""
    fam = random_family(24, 2, 24, SpectrumSpec.flat(), seed=1)
    frame_bounds(fam)  # factors the whole family first: not a per-prefix SVD
    f = complex_unit(np.random.default_rng(0), fam.dim_h)
    linalg_calls.clear()
    records = convergence_sweep(fam, SectionSchedule.parse("prefix:all", fam.count), f)
    rows = len(records)
    assert any(r.m_n > 0 for r in records)  # the search does real work
    assert Counter(a.shape for _, a, _ in named(linalg_calls, "cholesky")) == {
        (4, 4): 15, (8, 8): 5, (12, 12): 7, (16, 16): 5, (20, 20): 6, (24, 24): 5,
    }  # a section of rank 4n until H_6 = H
    assert len(named(linalg_calls, "eigh", "eigvalsh")) <= 2 * rows + fam.count
    assert shapes(named(linalg_calls, "svd", "qr")) == (
        [("svd", (fam.dim_h, 4 * n), None) for n in range(1, 7)]
        + [("qr", (28, 24), "r"), ("svd", (24, 24), "values")]
        + [("qr", (28, 24), "r")] * (rows - 8)
        + [("svd", (24, 24), "values")]
    )  # n = count reads the cached SVD


def test_plain_section_is_diagonal_in_its_basis():
    fam = random_family(6, 2, 5, SpectrumSpec.geometric(0.5), seed=3)
    basis = subspace_basis(fam, 2)
    sec = sectional_operator(basis)
    assert np.allclose(sec, np.diag(basis.sigma**2), rtol=0, atol=1e-12)
    w = basis.q.conj().T @ fam.synthesis_matrix[:, : 2 * fam.dim_k**2]
    assert np.allclose(sec, w @ w.conj().T, atol=1e-12)


def test_subspace_basis_is_the_sweeps_section():
    """``subspace_basis`` is the one-prefix case of the sweep's factory:
    where both factor the same matrix, the first prefix of a schedule and
    the whole family, their q and sigma agree bit for bit.  Every section,
    the empty one included (the first map is zero), has read-only q and
    sigma and rank == q.shape[1] == sigma.size."""
    t = random_family(6, 2, 5, SpectrumSpec.flat(), seed=3).synthesis_matrix.copy()
    t[:, :4] = 0.0
    fam = HSFrameFamily.from_synthesis_matrix(6, 2, t)
    schedule = (1, 3, 5)
    sweep = list(projection._sections(fam, schedule, RANK_TOL))
    assert [s.n for s in sweep] == list(schedule)
    assert [s.rank for s in sweep] == [0, 6, 6]
    for one, swept in ((subspace_basis(fam, 1, RANK_TOL), sweep[0]),
                       (subspace_basis(fam, 5, RANK_TOL), sweep[-1])):
        assert one.n == swept.n
        assert one.q.tobytes() == swept.q.tobytes() and one.q.shape == swept.q.shape
        assert one.sigma.tobytes() == swept.sigma.tobytes()
    for basis in sweep:
        assert basis.rank == basis.q.shape[1] == basis.sigma.size
        assert basis.q.shape[0] == fam.dim_h
        for array in (basis.q, basis.sigma):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0


def own_verdict(section, rank_tol):
    """Rank, floor verdict and singular values of an R section as a
    values-only SVD of its own R decides them."""
    own = np.linalg.svd(section._r, compute_uv=False)
    floor = own[-1] > 16.0 * own.size * np.finfo(float).eps * own[0]
    return numerical_rank(own, rank_tol), floor, own


def section_verdict(section):
    """The section's rank and whether it passes its own floor check."""
    return section.rank, section._singular is None


@st.composite
def certificate_cases(draw):
    """A random family whose singular values run from 1 down to a
    sigma_min/sigma_max between 1e-30 and 1, a rank_tol between 1e-200 and
    0.5, and a schedule, the whole prefix run or a gapped one."""
    dim_h = draw(st.integers(1, 8))
    dim_k = draw(st.integers(1, 2))
    count = draw(st.integers(-(-dim_h // dim_k**2), 16))
    ratio = 10.0 ** draw(st.floats(-30.0, 0.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sigma = np.exp(rng.uniform(math.log(ratio), 0.0, dim_h))
    sigma[0], sigma[-1] = ratio, 1.0
    fam = random_family(dim_h, dim_k, count, SpectrumSpec.explicit(sigma**2),
                        seed=draw(st.integers(0, 2**32 - 1)))
    rank_tol = 10.0 ** draw(st.floats(-200.0, math.log10(0.5)))
    full = draw(st.booleans())
    ns = range(1, count + 1) if full else sorted(
        draw(st.lists(st.integers(1, count), min_size=1, unique=True))
    )
    return fam, SectionSchedule(tuple(ns)), rank_tol


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(certificate_cases())
def test_certified_sections_decide_as_their_own_svd(case):
    """Every R section ``_sections`` yields, certified or not, has the rank,
    the floor verdict and, once read, the singular values bit for bit that
    a values-only SVD of its own R gives.  A certified section has not
    read them before they are asked for."""
    fam, schedule, rank_tol = case
    for section in projection._sections(fam, schedule, rank_tol):
        if section._r is None:  # an SVD section: s is its factor's own
            continue
        assert ("sigma" in vars(section)) != section._certified
        rank, floor, own = own_verdict(section, rank_tol)
        assert section_verdict(section) == (rank, floor)
        assert section.sigma.tobytes() == own.tobytes()


@pytest.mark.parametrize("rank_tol", [1e-10, 1e-200, 0.3])
def test_a_spanning_r_short_of_the_certificate_keeps_every_svd(linalg_calls, rank_tol):
    """T = [e1, x e2, 0, 0, 0, 0] (dim_h 2, dim_k 1, count 6) has
    sigma_max(T) = 1, and prefix 3's R, its first, has s = (1, x).  With
    tau = max(rank_tol, 16 dim_h eps), x = tau plus 21 eps clears the rank
    rule and the floor but falls short of the certificate, tau + 3 rho with
    rho = (count + 1) dim_h eps, so prefixes 4 and 5 take their own
    values-only SVDs.  At x = 2 (tau + 3 rho) they take none."""
    eps = np.finfo(float).eps
    tau = max(rank_tol, 32.0 * eps)
    for x, values in [(tau + 21.0 * eps, 3), (2.0 * (tau + 42.0 * eps), 1)]:
        t = np.zeros((2, 6))
        t[0, 0], t[1, 1] = 1.0, x
        fam = HSFrameFamily.from_synthesis_matrix(2, 1, t)
        fam.svd  # the family's own factorization, not a section's
        linalg_calls.clear()
        sections = list(projection._sections(fam, range(1, 7), rank_tol))
        assert [mode for _, _, mode in named(linalg_calls, "svd")] == (
            [None, None] + ["values"] * values
        )
        for section in sections[2:5]:
            assert section_verdict(section) == (2, True)
            assert section_verdict(section) == own_verdict(section, rank_tol)[:2]
            assert section.sigma.tolist() == [1.0, x]


def test_certificate_at_a_vanishing_rank_tol(linalg_calls):
    """At rank_tol = 1e-200, tau is the floor's 16 dim_h eps, below the
    rounding bound count dim_h eps; prefix 7 of the 24/2/24 family still
    certifies full rank for the rest.  The sweep takes the two values-only
    SVDs it takes at rank_tol 1e-10, and the same records bit for bit, and
    each R section decides as its own SVD.  Its R sections share one
    read-only identity as q."""
    fam = random_family(24, 2, 24, SpectrumSpec.flat(), seed=1)
    f = complex_unit(np.random.default_rng(0), fam.dim_h)
    schedule = SectionSchedule.full(fam.count)
    default = convergence_sweep(fam, schedule, f)
    linalg_calls.clear()
    records = convergence_sweep(fam, schedule, f, rank_tol=1e-200)
    assert counted(linalg_calls)[("svd", "values")] == 2
    assert records == default
    sections = list(projection._sections(fam, schedule, 1e-200))
    assert [s._certified for s in sections] == [False] * 7 + [True] * 16 + [False]
    eye = sections[6].q  # the R sections share one read-only identity
    assert not eye.flags.writeable and np.array_equal(eye, np.eye(fam.dim_h))
    assert all(s.q is eye for s in sections[6:23])
    for section in sections[6:23]:
        assert section_verdict(section) == own_verdict(section, 1e-200)[:2]


#: Relative offsets of a level from the eigenvalue it is set against
NEAR = (0.0, 1e-16, 3e-16, 1e-15, 1e-14, 1e-12)


def around(x):
    """Levels at and near x: its neighbouring floats, x (1 +- d) for d in
    NEAR and further out."""
    offsets = NEAR + (1e-10, 1e-6, 0.5)
    return sorted({np.nextafter(x, -np.inf), np.nextafter(x, np.inf)}
                  | {x * (1.0 + sign * d) for d in offsets for sign in (1, -1)})


@st.composite
def decision_cases(draw):
    """A random family, tight (flat spectrum) or not, and a rank_tol."""
    dim_h = draw(st.integers(1, 8))
    dim_k = draw(st.integers(1, 2))
    count = draw(st.integers(-(-dim_h // dim_k**2), 10))
    spectrum = draw(st.one_of(
        st.just(SpectrumSpec.flat()), st.floats(0.2, 1.0).map(SpectrumSpec.geometric)
    ))
    fam = random_family(dim_h, dim_k, count, spectrum,
                        seed=draw(st.integers(0, 2**32 - 1)))
    lam = draw(st.floats(1.1, 8.0))
    return fam, lam, draw(st.sampled_from([1e-10, 1e-3, 1e-200]))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(decision_cases())
def test_every_decision_is_the_eigen_verdict(case):
    """Each Cholesky-tested decision is eigvalsh's verdict on the same
    compression: every decision a sweep's searches make, and, on every
    section and k > n, levels at and near both ends of the spectrum."""
    fam, lam, rank_tol = case
    decided = []
    at_least = projection.SubspaceBasis._at_least

    def recorded(section, k, level):
        verdict = at_least(section, k, level)
        if k > section.n:
            decided.append((np.linalg.eigvalsh(section.compressed(k))[0], level, verdict))
        return verdict

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(projection.SubspaceBasis, "_at_least", recorded)
        schedule = SectionSchedule.full(fam.count)
        convergence_sweep(fam, schedule, np.ones(fam.dim_h), lam=lam, rank_tol=rank_tol)
    assert all((low >= level) == verdict for low, level, verdict in decided)
    for section in projection._sections(fam, range(1, fam.count + 1), rank_tol):
        for k in range(section.n + 1, fam.count + 1):
            if section.rank == 0:
                continue
            ev = np.linalg.eigvalsh(section.compressed(k))
            for level in around(ev[0]):
                assert section._at_least(k, level) == (ev[0] >= level)
            for level in around(ev[-1]):
                assert section._at_most(k, level) == (ev[-1] <= level)


def eigen_scan(fam, n, lam):
    """m(n) searched one eigvalsh at a time on the single-prefix section:
    the least k >= n whose compression's smallest computed eigenvalue, s_r^2
    at k = n, reaches A/lam."""
    section = subspace_basis(fam, n)
    target = frame_bounds(fam)[0] / lam
    k, low = n, (section.sigma**2)[-1]
    while k < fam.count and low < target:
        k += 1
        low = np.linalg.eigvalsh(section.compressed(k))[0]
    return k - n


@pytest.mark.parametrize("fam", [
    random_family(8, 1, 12, SpectrumSpec.flat(), seed=5),
    random_family(6, 2, 8, SpectrumSpec.flat(), seed=2),
    random_family(10, 1, 16, SpectrumSpec.geometric(0.8), seed=7),
    random_family(6, 2, 6, SpectrumSpec.geometric(0.6), seed=8),
], ids=["flat-8-1-12", "flat-6-2-8", "geometric-10-1-16", "geometric-6-2-6"])
def test_search_near_the_threshold_is_the_eigen_scan(fam):
    """lambda set so that lambda_min(C_k) = A/lambda (1 + d), for d in
    +-NEAR and every section and k between n and count: the search
    returns the eigen-scan's m(n), the decisions within the margin falling
    through to eigvalsh."""
    a = frame_bounds(fam)[0]
    cases = 0
    for n in range(1, fam.count):
        section = subspace_basis(fam, n)
        for k in range(n + 1, fam.count):
            low = np.linalg.eigvalsh(section.compressed(k))[0]
            for lam in {a / (low * (1.0 + sign * d)) for d in NEAR for sign in (1, -1)}:
                if lam >= 1.0:
                    assert find_oversampling(fam, n, lam) == eigen_scan(fam, n, lam)
                    cases += 1
    assert cases >= 80


def extreme_ratio_family():
    """B/A about 5e18: seven maps spanning H with singular values from 1e-2
    down to 1e-13, then two random maps."""
    rng = np.random.default_rng(24)
    u, w = (np.linalg.qr(rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7)))[0]
            for _ in range(2))
    head = (u * np.geomspace(0.01, 1e-13, 7)) @ w.conj().T
    tail = rng.standard_normal((7, 2)) / 4
    return HSFrameFamily.from_synthesis_matrix(7, 1, np.hstack([head, tail]))


@pytest.mark.parametrize("fam, n, k, single", [
    # the single-prefix section of n = 7 rounds differently, and solves
    (extreme_ratio_family(), 7, 9, False),
    # S_2 = diag(1e-18, 1e-20), and the third map adds [[1, 1], [1, 1]],
    # which swamps it: C_3 rounds to that rank-one matrix exactly
    (from_scalar_frame([[1e-9, 0], [0, 1e-10], [1, 1]]), 2, 3, True),
], ids=["rng-24", "rank-one-swamp"])
def test_singular_compression_names_its_row(fam, n, k, single, tmp_path, capsys):
    """B/A beyond 1/eps: the search certifies lambda_min(C_k) >= A/lambda
    within its slack, yet LU meets an exactly zero pivot.  The sweep and
    the CLI (exit 3) name n and k in a ``NumericError``, not numpy's bare
    "Singular matrix", and so does the single-prefix inverse where its
    section meets the same pivot."""
    f = np.ones(fam.dim_h)
    message = f"at n={n}, k={k} is singular to working precision"
    with pytest.raises(NumericError, match=message):
        convergence_sweep(fam, SectionSchedule.full(fam.count), f, rank_tol=1e-200)
    if single:
        with pytest.raises(NumericError, match=message):
            oversampled_inverse_apply(fam, n, 2.0, f, rank_tol=1e-200)
    path = tmp_path / "fam.json"
    save_family(fam, str(path))
    capsys.readouterr()
    argv = ["invert", "--input", str(path), "--rank-tol", "1e-200",
            "--out", str(tmp_path / "out.csv")]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
