"""One thin SVD per family: exact ratios, agreeing verdicts, factor-once."""

import ast
import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hsframe import (
    CoefficientSequence,
    HSFrameFamily,
    SectionSchedule,
    SpectrumSpec,
    canonical_dual,
    classify,
    convergence_sweep,
    decaying_family,
    frame_bounds,
    frame_operator,
    frame_operator_hs_norm_bound,
    kernel_consistency,
    load_family,
    perturb_family,
    random_family,
    reconstruct,
    riesz_family,
    riesz_inequality_check,
    save_family,
    uniform_bound_scan,
)
import hsframe
from hsframe import cli
from hsframe.cli import main
from hsframe.core import _left_svd, _right_svd, _spectral_norm, _tall
from hsframe.projection import _sections
from conftest import complex_unit, counted, named, shapes, solves


def ill_conditioned_riesz():
    """Riesz basis whose squared singular values are (1, 1, 1, 1e-12)."""
    return riesz_family(4, 1, 4, SpectrumSpec.explicit([1, 1, 1, 1e-12]), seed=3)


class TestRieszVerdictsAgree:
    def test_library(self):
        fam = ill_conditioned_riesz()
        rep = classify(fam)
        assert rep.riesz
        assert riesz_inequality_check(fam) == rep.lower_bound
        assert rep.lower_bound == pytest.approx(1e-12, rel=1e-6)

    def test_analyze_report(self, tmp_path):
        fam_path = tmp_path / "riesz.json"
        save_family(ill_conditioned_riesz(), str(fam_path))
        out = tmp_path / "report.json"
        assert main(["analyze", "--input", str(fam_path), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["frame_report"]["riesz"] is True
        assert doc["riesz_ratio_check"] == {"min_ratio": doc["frame_report"]["lower_bound"]}


def test_wide_family_min_ratio_is_exactly_zero():
    fam = random_family(6, 2, 5, SpectrumSpec.geometric(0.7), seed=4)
    assert riesz_inequality_check(fam) == 0.0
    assert not classify(fam).riesz


def whole_family(calls, fam):
    """The recorded calls whose input is all of T, T^H or S, or the R factor
    of T^H, as (name, label, QR mode)."""
    calls = list(calls)  # before the reference R below is recorded
    t = fam.synthesis_matrix
    wholes = {
        "T": t,
        "T^H": t.conj().T,
        "S": frame_operator(fam),
        "R": np.linalg.qr(t.conj().T, mode="r"),
    }
    return [
        (name, label, mode)
        for name, a, mode in calls
        for label, whole in wholes.items()
        if a.shape == whole.shape and np.allclose(a, whole)
    ]


def through_r(rows, h, mode=None):
    """An SVD (values-only when ``mode`` is "values") of a rows x h matrix
    taken through its h x h R factor."""
    return [("qr", (rows, h), "r"), ("svd", (h, h), mode)]


def test_family_is_factored_once(linalg_calls):
    """T (6 x 20, wide) is factored once through its short side, one QR of
    T^H and one SVD of its R, and no other factorization, solve or
    least-squares solve of T, T^H, S or R runs across every caller of the
    cached factorization.  V^H is formed once, by a reduced QR of T^H, for
    its readers ``reconstruct`` and ``kernel_consistency`` alone."""
    fam = random_family(6, 2, 5, SpectrumSpec.geometric(0.7), seed=4)
    f = complex_unit(np.random.default_rng(0), fam.dim_h)
    coeffs = CoefficientSequence.from_stacked(
        complex_unit(np.random.default_rng(1), fam.synthesis_matrix.shape[1]), fam.dim_k
    )
    classify(fam)
    frame_bounds(fam)
    riesz_inequality_check(fam)
    canonical_dual(fam)
    frame_operator_hs_norm_bound(fam)
    convergence_sweep(fam, SectionSchedule.full(fam.count), f)
    first = len(linalg_calls)
    reconstruct(fam, f)
    kernel_consistency(fam, coeffs, SectionSchedule.full(fam.count))
    rest = linalg_calls[first:]  # read before whole_family records its reference R
    assert whole_family(linalg_calls[:first], fam) == [("qr", "T^H", "r"), ("svd", "R", None)]
    assert whole_family(rest, fam) == [("qr", "T^H", "reduced")]


def test_uniform_bound_scan_calls(linalg_calls):
    """On a fresh 6/2/5 family (T 6 x 20, wide) with index 1, the scan
    factors T once through its R (the frame check), then prefix 2 by the
    plain SVD of its 6 x 8 block, too narrow to route through an R.  That
    prefix spans H, so prefixes 3 and 4 each take the R factor of the
    conjugate transpose of [U' s', one 4-column block] (10 x 6).  Prefix
    3 takes only R's singular values, which certify full rank for prefix
    4, so that prefix takes no SVD; both keep rank 6, so each plain inverse
    is two triangular solves, with R^H and then R.  Prefix 5 reads T's SVD
    and divides by its s^2: no eigen-solve anywhere."""
    fam = random_family(6, 2, 5, SpectrumSpec.geometric(0.7), seed=4)
    f = complex_unit(np.random.default_rng(0), fam.dim_h)
    linalg_calls.clear()  # the generator's draws are reduced QRs
    profile = uniform_bound_scan(fam, 1, f)
    assert profile.ns == (2, 3, 4, 5)
    r_solves = [("solve", (6, 6), None), ("solve", (6, 6), None)]
    assert shapes(linalg_calls) == through_r(20, 6) + [
        ("svd", (6, 8), None),
        ("qr", (10, 6), "r"), ("svd", (6, 6), "values"), *r_solves,
        ("qr", (10, 6), "r"), *r_solves,
    ]
    pairs = [a for _, a, _ in named(linalg_calls, "solve")]
    assert all(np.array_equal(np.tril(a), a) for a in pairs[::2])  # R^H
    assert all(np.array_equal(np.triu(a), a) for a in pairs[1::2])  # R


def test_kernel_consistency_calls(linalg_calls):
    """On a fresh 6/2/5 family (T 6 x 20) with the schedule 1, 3, 5,
    kernel_consistency factors T through its R and forms V^H from a reduced
    QR of T^H.  Prefix 1 takes the plain SVD of its 6 x 4 block; prefix 3's
    block, the 4 columns of U' s' and two maps (6 x 12), is twice as wide as
    tall and goes through its R; prefix 5 reads T's SVD.  The plain
    sections are divisions: no solve and no eigen-solve."""
    fam = random_family(6, 2, 5, SpectrumSpec.geometric(0.7), seed=4)
    coeffs = CoefficientSequence.from_stacked(
        complex_unit(np.random.default_rng(1), fam.synthesis_matrix.shape[1]), fam.dim_k
    )
    linalg_calls.clear()  # the generator's draws are reduced QRs
    report = kernel_consistency(fam, coeffs, SectionSchedule((1, 3, 5)))
    assert report.co_vanish
    assert shapes(linalg_calls) == through_r(20, 6) + [
        ("qr", (20, 6), "reduced"), ("svd", (6, 4), None), *through_r(12, 6),
    ]


def test_kernel_consistency_solves_both_statements_at_once(linalg_calls):
    """On the same family with the full schedule, prefixes 1 and 2 take
    SVDs and prefix 5 reads T's, all divisions.  Prefixes 3 and 4 are R
    sections, and each solves the full sequence and its kernel part in one
    pair of triangular solves, with R^H and then R: 4 solves in all, where
    one pair per statement would make 8."""
    fam = random_family(6, 2, 5, SpectrumSpec.geometric(0.7), seed=4)
    coeffs = CoefficientSequence.from_stacked(
        complex_unit(np.random.default_rng(1), fam.synthesis_matrix.shape[1]), fam.dim_k
    )
    linalg_calls.clear()
    kernel_consistency(fam, coeffs, SectionSchedule.full(fam.count))
    with_r, compressions = solves(linalg_calls)
    assert len(with_r) == 4 and compressions == []
    r_solves = [("solve", (6, 6), None), ("solve", (6, 6), None)]
    assert shapes(named(linalg_calls, "qr", "solve"))[-6:] == [
        ("qr", (10, 6), "r"), *r_solves, ("qr", (10, 6), "r"), *r_solves,
    ]
    assert not np.array_equal(with_r[1][1], with_r[3][1])  # rows 3 and 4, two R


def test_package_imports_no_scipy():
    """numpy.linalg is the package's only linear algebra, so counting its
    calls counts every factorization the package makes."""
    imported = set()
    for path in Path(hsframe.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported |= {(path.name, alias.name) for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add((path.name, node.module))
    assert imported  # the walk found the package's imports
    assert [(f, m) for f, m in imported if m.split(".")[0] == "scipy"] == []


def test_matrix_spectral_norms_go_through_core():
    """No module, core included, calls np.linalg.norm with ord=2: every
    matrix spectral norm is a values-only np.linalg.svd call, which a count
    of np.linalg.svd calls sees (numpy's norm calls its own svd).  Outside
    core._spectral_norm, that is decaying_family's batched one."""
    found = []
    for path in sorted(Path(hsframe.__file__).parent.glob("*.py")):
        text = path.read_text()
        for node in ast.walk(ast.parse(text, str(path))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "norm"):
                continue
            ords = [k.value for k in node.keywords if k.arg == "ord"] + node.args[1:2]
            if any(isinstance(o, ast.Constant) and o.value == 2 for o in ords):
                found.append((path.name, ast.get_source_segment(text, node)))
    assert found == []


def test_perturbation_factors_only_through_core():
    """perturbation.py makes no eigen-solve and no direct np.linalg.svd
    call: every D, whitened matrix and the lemma's U is factored by
    core._right_svd, which reads sigma and V^H off the short side."""
    path = Path(hsframe.__file__).parent / "perturbation.py"
    linalg, imported = set(), set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute):
            if node.value.attr == "linalg":  # np.linalg.<name>
                linalg.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            imported |= {(node.module, a.name) for a in node.names}
    assert linalg.isdisjoint({"eig", "eigh", "eigvals", "eigvalsh", "svd", "svdvals"})
    assert "qr" in linalg  # the walk sees np.linalg calls
    assert ("core", "_right_svd") in imported
    assert [m for m, _ in imported if m and "linalg" in m] == []


@st.composite
def families(draw):
    """Random dims, rank and conditioning: tall, square, wide, rank-deficient
    and ill-conditioned synthesis matrices all occur."""
    dim_h = draw(st.integers(1, 8))
    dim_k = draw(st.integers(1, 3))
    count = draw(st.integers(1, 6))
    ncols = count * dim_k * dim_k
    rank = draw(st.integers(1, min(dim_h, ncols)))
    decay = draw(st.floats(0.0, 8.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def gauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    scales = 10.0 ** (-decay * np.linspace(0.0, 1.0, rank))
    t = (gauss(dim_h, rank) * scales) @ gauss(rank, ncols)
    return HSFrameFamily.from_synthesis_matrix(dim_h, dim_k, t)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(families())
def test_spectral_identities(fam):
    a, b = frame_bounds(fam)
    w = np.linalg.eigvalsh(frame_operator(fam))
    assert abs(a - max(w[0], 0.0)) <= 1e-9 * b
    assert abs(b - w[-1]) <= 1e-9 * b
    rep = classify(fam)
    ncols = fam.synthesis_matrix.shape[1]
    if ncols >= fam.dim_h:  # square T (every Riesz basis): s_min^2 = A; wide: 0
        assert riesz_inequality_check(fam) == (rep.lower_bound if ncols == fam.dim_h else 0.0)
    if rep.frame:
        assert rep.pseudo_inverse_norm**-2 == pytest.approx(rep.lower_bound, rel=1e-12)
        assume(a > 1e-6 * b)  # the dual's small singular values lose cond(T)^2
        assert frame_bounds(canonical_dual(fam)) == pytest.approx(
            (1.0 / b, 1.0 / a), rel=1e-8
        )


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(families())
def test_family_svd_matches_numpy(fam):
    """The family's U and s, wide T through its short side, agree with
    numpy's thin SVD of T: s to 1e-13 s_max, and the projector of each
    direction whose s is at least 1e-2 s_max from every other to 1e-12.
    With V^H formed on its first read, U diag(s) V^H is T to 1e-12 s_max."""
    t = fam.synthesis_matrix
    u, s = fam.svd.u, fam.svd.s
    u_ref, s_ref, _ = np.linalg.svd(t, full_matrices=False)
    assert u.shape == u_ref.shape and u.flags.c_contiguous
    assert np.abs(s - s_ref).max() <= 1e-13 * s_ref[0]
    for i in range(s.size):
        others = np.delete(s_ref, i)
        if others.size and np.abs(others - s_ref[i]).min() < 1e-2 * s_ref[0]:
            continue
        p, p_ref = (np.outer(v[:, i], v[:, i].conj()) for v in (u, u_ref))
        assert np.abs(p - p_ref).max() <= 1e-12
    assert "vh" not in vars(fam.svd)
    assert np.abs((u * s) @ fam.svd.vh - t).max() <= 1e-12 * s_ref[0]


def test_cli_round_never_forms_vh(tmp_path, linalg_calls):
    """generate, analyze, perturb and invert on a wide family (8 x 64) read
    U and s alone: no family's V^H is formed.  A wide T's V^H is formed
    only from a reduced QR of T^H, and with at most one active constant
    (``_decide_boxes`` takes a reduced QR for two) no command after
    generate makes a reduced QR at all."""
    fam = str(tmp_path / "fam.json")
    assert main(["generate", "--kind", "random", "--dim-h", "8", "--dim-k", "2",
                 "--count", "16", "--seed", "3", "--out", fam]) == 0
    linalg_calls.clear()  # the generator's draws are reduced QRs
    assert main(["analyze", "--input", fam]) == 0
    assert main(["perturb", "--input", fam, "--mode", "additive-analysis",
                 "--magnitude", "0.1"]) == 0
    assert main(["invert", "--input", fam, "--schedule", "2,8,16",
                 "--out", str(tmp_path / "inv.csv")]) == 0
    assert {mode for _, _, mode in named(linalg_calls, "qr")} == {"r"}


def test_analyze_factors_the_family_once(tmp_path, linalg_calls):
    """The canonical dual carries U diag(1/s) V^H as its factorization and
    its synthesis matrix is S^-1 T, so ``analyze`` on a frame factors T once,
    one QR of T^H and one SVD of its R, and forms no V^H.  Its only other
    call is the dual check's spectral norm, a values-only SVD of a
    dim_h x dim_h matrix."""
    fam = random_family(6, 2, 5, SpectrumSpec.geometric(0.7), seed=4)
    fam_path = tmp_path / "fam.json"
    save_family(fam, str(fam_path))
    out = tmp_path / "report.json"
    linalg_calls.clear()  # the generator's own QRs
    assert main(["analyze", "--input", str(fam_path), "--out", str(out)]) == 0
    calls = list(linalg_calls)
    assert json.loads(out.read_text())["canonical_dual"] is not None
    assert whole_family(calls, fam) == [("qr", "T^H", "r"), ("svd", "R", None)]
    h, n = fam.synthesis_matrix.shape
    assert shapes(calls) == through_r(n, h) + [("svd", (h, h), "values")]
    assert "vh" not in vars(fam.svd)

    dual = canonical_dual(fam)
    u, s, vh = dual.svd.u, dual.svd.s, dual.svd.vh
    fresh = np.linalg.svd(dual.synthesis_matrix, compute_uv=False)
    assert np.allclose(s, fresh, rtol=1e-12, atol=0)
    assert np.allclose((u * s) @ vh, dual.synthesis_matrix, rtol=0, atol=1e-12 * s[0])
    assert not any(a.flags.writeable for a in (u, s, vh))
    assert frame_bounds(dual) == pytest.approx(
        (1.0 / frame_bounds(fam)[1], 1.0 / frame_bounds(fam)[0]), rel=1e-12
    )


def load_workloads():
    """perfbench/workloads.py, run from its source so that nothing is written
    beside it."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    module = types.ModuleType("perfbench_workloads")
    sys.modules[module.__name__] = module  # dataclasses looks the module up
    exec(compile(path.read_text(), str(path), "exec"), vars(module))
    return module


WORKLOADS = load_workloads()


#: Per benchmark workload, the calls of one round beyond those every round
#: makes: the draws of ``generate`` before it factors T, and ``invert``'s
#: calls, listed in order or, for the 56-row sweep, counted as (name, mode)
ROUND_CALLS = {
    "sweep-oversample": {
        "draws": [("qr", (224, 56), "reduced"), ("qr", (56, 56), "reduced")],
        # prefixes 1-14 take an SVD with vectors; H_14 = H, so 15-55 take a QR
        # of their running block, each plain inverse two solves with its R
        # but row k_H's, which is its kept S_k^-1 f; 56 reads T's SVD.  Row
        # 15's values-only SVD certifies full rank for 16-55, and only the
        # rows past k_H read their singular values, for the search at k = n.
        # The search decides each step by Cholesky tests; 5 upper-end
        # checks fall within the margin (lambda_max = B on this tight
        # family) and read eigvalsh
        "invert": {
            ("svd", None): 14, ("svd", "values"): 5, ("qr", "r"): 41,
            ("cholesky", None): 104, ("eigvalsh", None): 5,
            ("solve", None): 14, ("solve", "R"): 80,
        },
    },
    "probe-decay": {
        "draws": [("svd", (96, 128, 4), "values")],  # the tail blocks' norms
        # m_n = 0 on every row: the plain and oversampled inverses are both
        # the k = n solve, a division by s_r^2
        "invert": [("svd", (128, 64), None), *through_r(256, 128)],
    },
    "wide": {
        "draws": [("qr", (2048, 24), "reduced"), ("qr", (24, 24), "reduced")],
        "invert": [],  # one row, n = count, m_n = 0: the cached SVD alone
    },
}


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_benchmark_round_calls(name, tmp_path, monkeypatch, linalg_calls):
    """Round 0 of seed 1 of each benchmark workload, run through the CLI
    with no family kept from an earlier generate, makes exactly these
    numpy.linalg calls, and no Cholesky outside invert's oversampling
    search.  generate factors T once through its R; analyze takes the
    dual check's one spectral norm; perturb factors the drawn deviation
    delta^H, with vectors, and then T~^H, each through its R, and bounds
    D = (T - T~)^H from delta's factors; invert reuses T's SVD.  The only
    whole-family factorizations are T^H's in generate and T~^H's in
    perturb."""
    wl = WORKLOADS.WORKLOADS[name]
    seed = WORKLOADS.family_seed(1, 0)
    h, n = wl.dim_h, wl.count * wl.dim_k**2
    want = {
        "generate": ROUND_CALLS[name]["draws"] + through_r(n, h),
        "analyze": [("svd", (h, h), "values")],
        "perturb": through_r(n, h) + through_r(n, h),
        "invert": ROUND_CALLS[name]["invert"],
    }
    monkeypatch.setattr(cli, "_written", None)
    calls = {}
    for command, argv in WORKLOADS.round_commands(wl, seed, tmp_path):
        linalg_calls.clear()
        assert main(argv) == 0
        calls[command] = list(linalg_calls)
    for command, expected in want.items():
        got = counted if isinstance(expected, dict) else shapes
        assert got(calls[command]) == expected, command

    fam = load_family(str(tmp_path / "family.json"))
    tilde, _ = perturb_family(fam, "additive-analysis", wl.magnitude, seed=seed)
    route = [("qr", "T^H", "r"), ("svd", "R", None)]
    assert {c: whole_family(calls[c], fam) for c in ("generate", "analyze", "perturb")} == {
        "generate": route, "analyze": [], "perturb": []
    }
    assert whole_family(calls["perturb"], tilde) == route
    # invert's last section can be S itself (sweep-oversample's S_56) or
    # match T's R to rounding (probe-decay's 64-map prefix, whose other
    # maps have norms below 2^-32), so only T and T^H are looked for
    assert [c for c in whole_family(calls["invert"], fam) if c[1] in ("T", "T^H")] == []


def with_singular_values(rng, rows, cols, values):
    """A complex rows x cols matrix with the given singular values, padded
    with zeros, between random unitary factors."""
    def unitary(n):
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return np.linalg.qr(z)[0]

    k = min(rows, cols)
    sv = np.zeros(k)
    sv[: len(values)] = values
    return (unitary(rows)[:, :k] * sv) @ unitary(cols)[:, :k].conj().T


class TestOneSidedSVD:
    """core._right_svd (s, V^H) and core._left_svd (U, s) take a tall or wide
    matrix through an R factor; each agrees with numpy's thin SVD."""

    # (rows, cols, rank): tall, near-square, wide and rank-deficient tall
    # for _right_svd, transposed for _left_svd; the nonzero singular values
    # rank, rank - 1, ..., 1 are a unit apart
    SHAPES = [(60, 12, 12), (20, 14, 14), (12, 40, 12), (60, 12, 5)]

    @staticmethod
    def check_projectors(vecs, ref, rank):
        """Each of the first ``rank`` (well-separated) singular directions,
        rows of ``vecs`` and ``ref``, spans the same line."""
        for i in range(rank):
            p, p_ref = np.outer(vecs[i].conj(), vecs[i]), np.outer(ref[i].conj(), ref[i])
            assert np.abs(p - p_ref).max() <= 1e-12

    @pytest.mark.parametrize("rows, cols, rank", SHAPES)
    def test_right_svd_matches_numpy(self, rows, cols, rank):
        rng = np.random.default_rng(rows * cols + rank)
        a = with_singular_values(rng, rows, cols, np.arange(rank, 0, -1.0))
        s, vh = _right_svd(a)
        _, s_ref, vh_ref = np.linalg.svd(a, full_matrices=False)
        assert s.shape == s_ref.shape and vh.shape == vh_ref.shape
        assert np.abs(s - s_ref).max() <= 1e-13 * s_ref[0]
        self.check_projectors(vh, vh_ref, rank)

    @pytest.mark.parametrize("rows, cols, rank", SHAPES)
    def test_left_svd_matches_numpy(self, rows, cols, rank):
        rng = np.random.default_rng(rows * cols + rank)
        a = with_singular_values(rng, cols, rows, np.arange(rank, 0, -1.0))
        u, s, _ = _left_svd(a)
        u_ref, s_ref, _ = np.linalg.svd(a, full_matrices=False)
        assert s.shape == s_ref.shape and u.shape == u_ref.shape
        assert np.abs(s - s_ref).max() <= 1e-13 * s_ref[0]
        self.check_projectors(u.T, u_ref.T, rank)

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        shape=st.sampled_from(["tall", "wide", "near-square"]),
        short=st.integers(1, 12),
        stretch=st.integers(0, 60),
        rank=st.integers(0, 12),
        exponent=st.sampled_from([-150, 0, 150]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_spectral_norm_matches_numpy(self, shape, short, stretch, rank, exponent, seed):
        """_spectral_norm agrees with np.linalg.norm(a, 2) to 1e-13 relative
        on tall, wide and near-square inputs, rank-deficient and all-zero
        (rank 0) ones, and at scales 1e-150 and 1e150; a near-square input
        takes numpy's own route, bit for bit."""
        if shape == "near-square":
            long = short + stretch % short
        else:
            long = 2 * short + stretch
        rows, cols = (long, short) if shape == "tall" else (short, long)
        rng = np.random.default_rng(seed)
        values = np.sort(rng.uniform(0.1, 1.0, min(rank, short)))[::-1]
        a = with_singular_values(rng, rows, cols, values) * 10.0**exponent
        norm, ref = _spectral_norm(a), float(np.linalg.norm(a, 2))
        assert abs(norm - ref) <= 1e-13 * ref
        assert _tall(a.shape) == (shape == "tall")
        assert _tall(a.shape[::-1]) == (shape == "wide")
        if shape == "near-square":
            assert norm == ref

    def test_routed_prefix_matches_a_direct_svd(self, linalg_calls):
        """Prefix 8 of a decaying 8/2/20 family after prefix 1 jumps over
        28 columns, so its running block, 8 x 32, is wide and factored
        through a square 8 x 8 R.  That prefix spans H, so prefix 16 takes
        the R factor of its 40 x 8 running block's conjugate transpose and
        only its singular values, and keeps R as its section (Q_16 = I).
        Each basis has the rank and the projector Q_n Q_n^H of a direct SVD
        of the prefix."""
        fam = decaying_family(8, 2, 20, 0.5, seed=4)
        fam.svd  # the whole family's
        linalg_calls.clear()
        bases = list(_sections(fam, (1, 8, 16), 1e-10))
        assert shapes(linalg_calls) == [
            ("svd", (8, 4), None),
            ("qr", (32, 8), "r"), ("svd", (8, 8), None),
            ("qr", (40, 8), "r"), ("svd", (8, 8), "values"),
        ]
        assert np.array_equal(bases[-1].q, np.eye(8))
        for basis in bases:
            u, sig, _ = np.linalg.svd(fam.synthesis_matrix[:, : basis.n * 4],
                                      full_matrices=False)
            q = u[:, : int(np.count_nonzero(sig > 1e-10 * sig[0]))]
            assert basis.rank == q.shape[1]
            gap = basis.q @ basis.q.conj().T - q @ q.conj().T
            assert np.abs(gap).max() <= 1e-12
