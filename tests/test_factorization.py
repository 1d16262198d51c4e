"""One thin SVD per family: exact ratios, agreeing verdicts, factor-once."""

import ast
import json
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
    frame_bounds,
    frame_operator,
    frame_operator_hs_norm_bound,
    kernel_consistency,
    random_family,
    reconstruct,
    riesz_family,
    riesz_inequality_check,
    save_family,
)
import hsframe
from hsframe.cli import main
from conftest import complex_unit


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


def test_family_is_factored_once(monkeypatch):
    """One SVD of T, and no other factorization, least-squares or Cholesky
    solve of T, T^H or S, across every caller of the cached factorization."""
    fam = random_family(6, 2, 5, SpectrumSpec.geometric(0.7), seed=4)
    t = fam.synthesis_matrix
    s = frame_operator(fam)
    f = complex_unit(np.random.default_rng(0), fam.dim_h)
    coeffs = CoefficientSequence.from_stacked(
        complex_unit(np.random.default_rng(1), t.shape[1]), fam.dim_k
    )
    calls = []

    def counting(orig):
        def wrapped(a, *args, **kwargs):
            a_arr = np.asarray(a)
            for whole in (t, t.conj().T, s):
                if a_arr.shape == whole.shape and np.allclose(a_arr, whole):
                    calls.append(orig.__name__)
            return orig(a, *args, **kwargs)

        return wrapped

    for name in ("svd", "eigh", "eigvalsh", "cholesky", "lstsq"):
        monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
    classify(fam)
    frame_bounds(fam)
    riesz_inequality_check(fam)
    canonical_dual(fam)
    reconstruct(fam, f)
    frame_operator_hs_norm_bound(fam)
    convergence_sweep(fam, SectionSchedule.full(fam.count), f)
    kernel_consistency(fam, coeffs, SectionSchedule.full(fam.count))
    assert calls == ["svd"]


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


def test_analyze_factors_the_family_once(tmp_path, monkeypatch):
    """The canonical dual carries U diag(1/s) V^H as its factorization, so
    ``analyze`` on a frame runs one SVD in all."""
    fam = random_family(6, 2, 5, SpectrumSpec.geometric(0.7), seed=4)
    fam_path = tmp_path / "fam.json"
    save_family(fam, str(fam_path))
    svd = np.linalg.svd
    calls = []

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    out = tmp_path / "report.json"
    assert main(["analyze", "--input", str(fam_path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["canonical_dual"] is not None
    assert calls == [fam.synthesis_matrix.shape]

    dual = canonical_dual(fam)
    u, s, vh = dual.svd
    fresh = svd(dual.synthesis_matrix, compute_uv=False)
    assert np.allclose(s, fresh, rtol=1e-12, atol=0)
    assert np.allclose((u * s) @ vh, dual.synthesis_matrix, rtol=0, atol=1e-12 * s[0])
    assert not any(a.flags.writeable for a in dual.svd)
    assert frame_bounds(dual) == pytest.approx(
        (1.0 / frame_bounds(fam)[1], 1.0 / frame_bounds(fam)[0]), rel=1e-12
    )
