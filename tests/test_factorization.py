"""One thin SVD per family: exact ratios, agreeing verdicts, factor-once."""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hsframe import (
    HSFrameFamily,
    SectionSchedule,
    SpectrumSpec,
    canonical_dual,
    classify,
    convergence_sweep,
    frame_bounds,
    frame_operator,
    frame_operator_hs_norm_bound,
    random_family,
    reconstruct,
    riesz_family,
    riesz_inequality_check,
    save_family,
)
from hsframe.cli import main
from conftest import complex_unit


def ill_conditioned_riesz():
    """Riesz basis whose squared singular values are (1, 1, 1, 1e-12)."""
    return riesz_family(4, 1, 4, SpectrumSpec.explicit([1, 1, 1, 1e-12]), seed=3)


class TestRieszVerdictsAgree:
    def test_library(self):
        fam = ill_conditioned_riesz()
        check = riesz_inequality_check(fam)
        assert classify(fam).riesz
        assert check.riesz
        assert check.min_ratio == pytest.approx(1e-12, rel=1e-6)
        assert check.max_ratio == pytest.approx(1.0, rel=1e-12)

    def test_analyze_report(self, tmp_path):
        fam_path = tmp_path / "riesz.json"
        save_family(ill_conditioned_riesz(), str(fam_path))
        out = tmp_path / "report.json"
        assert main(["analyze", "--input", str(fam_path), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["frame_report"]["riesz"] is True
        assert doc["riesz_ratio_check"]["riesz"] is True


def test_wide_family_min_ratio_is_exactly_zero():
    fam = random_family(6, 2, 5, SpectrumSpec.geometric(0.7), seed=4)
    check = riesz_inequality_check(fam)
    assert check.min_ratio == 0.0
    assert check.max_ratio == pytest.approx(frame_bounds(fam)[1], rel=1e-12)
    assert not check.riesz


def test_family_is_factored_once(monkeypatch):
    fam = random_family(6, 2, 5, SpectrumSpec.geometric(0.7), seed=4)
    t = fam.synthesis_matrix
    s = frame_operator(fam)
    f = complex_unit(np.random.default_rng(0), fam.dim_h)
    calls = []

    def counting(orig):
        def wrapped(a, *args, **kwargs):
            a_arr = np.asarray(a)
            for whole in (t, s):
                if a_arr.shape == whole.shape and np.allclose(a_arr, whole):
                    calls.append(orig.__name__)
            return orig(a, *args, **kwargs)

        return wrapped

    for name in ("svd", "eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
    classify(fam)
    frame_bounds(fam)
    riesz_inequality_check(fam)
    canonical_dual(fam)
    reconstruct(fam, f)
    frame_operator_hs_norm_bound(fam)
    convergence_sweep(fam, SectionSchedule.full(fam.count), f)
    assert calls == ["svd"]


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
    assert riesz_inequality_check(fam).riesz == rep.riesz
    if rep.frame:
        assert rep.pseudo_inverse_norm**-2 == pytest.approx(rep.lower_bound, rel=1e-12)
        assume(a > 1e-6 * b)  # the dual's small singular values lose cond(T)^2
        assert frame_bounds(canonical_dual(fam)) == pytest.approx(
            (1.0 / b, 1.0 / a), rel=1e-8
        )
