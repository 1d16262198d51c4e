"""Acceptance suite: one test per criterion, each printing a PASS line.

Tolerances are pinned here and match the library's advertised guarantees;
every expected value is either a closed form or produced by an independent
brute-force path written out in this file or in oracle_scalar.py.
"""

import json
import math
import time

import numpy as np
import pytest

from hsframe import (
    CoefficientSequence,
    SectionSchedule,
    SpectrumSpec,
    analyze,
    analysis_deviation,
    canonical_dual,
    check_condition,
    classify,
    convergence_sweep,
    decaying_family,
    frame_bounds,
    from_scalar_frame,
    load_family,
    perturb_family,
    predicted_bounds,
    predicted_bounds_simple,
    project,
    reconstruct,
    riesz_family,
    riesz_inequality_check,
    riesz_stability_check,
    save_family,
    subspace_basis,
)
from hsframe.cli import main as cli_main
from conftest import complex_unit, seeded_family
from oracle_scalar import ScalarFrameOracle


def report(criterion, detail, started, limit):
    elapsed = time.monotonic() - started
    assert elapsed <= limit, f"criterion {criterion} took {elapsed:.1f}s > {limit}s"
    print(f"PASS [criterion {criterion}] {detail} ({elapsed:.1f}s)")


def test_criterion_1_bound_optimality_and_characterization():
    started = time.monotonic()
    for seed in range(100):
        fam = seeded_family(seed)
        rep = classify(fam)
        assert rep.synthesis_norm**2 == pytest.approx(rep.upper_bound, rel=1e-9)
        assert rep.pseudo_inverse_norm**-2 == pytest.approx(rep.lower_bound, rel=1e-9)
        ratio = riesz_inequality_check(fam)  # a seeded family is Riesz or wide
        assert ratio == (rep.lower_bound if rep.riesz else 0.0), f"seed {seed}"
    report(
        1,
        "synthesis_norm^2 = B and pseudo_inverse_norm^-2 = A at 1e-9 rel; "
        "Riesz min ratio is A or 0 on 100 families",
        started,
        30.0,
    )


def test_criterion_2_duality():
    started = time.monotonic()
    for seed in range(100):
        fam = seeded_family(seed)
        a, b = frame_bounds(fam)
        da, db = frame_bounds(canonical_dual(fam))
        assert da == pytest.approx(1.0 / b, rel=1e-9)
        assert db == pytest.approx(1.0 / a, rel=1e-9)
        rng = np.random.default_rng(10_000 + seed)
        for _ in range(20):
            f = complex_unit(rng, fam.dim_h)
            assert np.linalg.norm(reconstruct(fam, f) - f) <= 1e-9
    report(
        2,
        "canonical dual bounds invert at 1e-9 rel; reconstruction residual "
        "<= 1e-9 on 20 vectors x 100 families",
        started,
        30.0,
    )


def test_criterion_3_projection_method_suite():
    started = time.monotonic()
    lam = 2.0
    for seed, dim_k in ((0, 1), (1, 1), (2, 2)):
        fam = decaying_family(12, dim_k, 48, 0.5, seed=seed)
        a, b = frame_bounds(fam)
        rng = np.random.default_rng(777 + seed)
        f = complex_unit(rng, 12)
        nf = float(np.linalg.norm(f))
        records = convergence_sweep(fam, SectionSchedule.full(48), f, lam=lam)
        t = fam.synthesis_matrix
        blk = dim_k * dim_k
        prev_proj = None
        for r in records:
            assert not r.flagged
            basis = subspace_basis(fam, r.n)
            gap = float(np.linalg.norm(project(basis, f) - f))
            assert r.err_plain <= (gap + r.crit2) / a + 1e-9
            assert r.crit2 <= b * math.sqrt(r.crit3) + 1e-9
            assert r.strong_residual <= b**2 * r.err_plain**2 * nf**2 + 1e-9
            proj = basis.q @ basis.q.conj().T
            if prev_proj is not None:
                assert np.linalg.norm(prev_proj @ proj - prev_proj) <= 1e-10
            prev_proj = proj
            # oversampling certificates at every n
            w = basis.q.conj().T @ t[:, : (r.n + r.m_n) * blk]
            evals = np.linalg.eigvalsh(w @ w.conj().T)
            assert evals[0] >= a / lam - 1e-12
            assert 1.0 / evals[0] <= lam / a + 1e-12
        assert records[-1].err_plain <= 1e-10
        assert records[-1].err_oversampled <= 1e-10
        assert records[-1].crit2 <= 1e-10
        assert records[-1].crit3 <= 1e-10
        assert records[-1].strong_residual <= 1e-10
    report(
        3,
        "proof-chain inequalities, strong-method domination, nesting, "
        "oversampling certificates and final exactness on decaying families",
        started,
        60.0,
    )


def test_criterion_4_closed_form_anchors():
    started = time.monotonic()
    got = predicted_bounds(1.0, 2.0, 0.1, 0.0, 0.0)
    # independent inline evaluation of the displayed formulas
    expect_a = 1.0 * (1.0 - (0.1 + 0.0 + 0.0 / math.sqrt(1.0)) / (1.0 + 0.0)) ** 2
    expect_b = 2.0 * (1.0 + (0.1 + 0.0 + 0.0 / math.sqrt(2.0)) / (1.0 - 0.0)) ** 2
    assert got == (expect_a, expect_b)
    assert got[0] == 0.81
    assert got[1] == pytest.approx(2.42, rel=4 * np.finfo(float).eps)
    assert predicted_bounds_simple(4.0, 9.0, 1.0) == (1.0, 16.0)
    rng = np.random.default_rng(4)
    for _ in range(50):
        a = float(rng.uniform(0.1, 10.0))
        b = a + float(rng.uniform(0.0, 10.0))
        assert predicted_bounds(a, b, 0.0, 0.0, 0.0) == (a, b)
    report(
        4,
        "predicted_bounds(1,2,0.1,0,0) = (0.81, 2.42), "
        "predicted_bounds_simple(4,9,1) = (1,16), identity on 50 pairs",
        started,
        30.0,
    )


def test_criterion_5_stability_soundness_sweep():
    started = time.monotonic()
    rng = np.random.default_rng(55)
    for trial in range(200):
        fam = seeded_family(int(rng.integers(0, 100_000)))
        a_g, b_g = frame_bounds(fam)
        mode = ("additive-analysis", "scale")[trial % 2]
        if mode == "scale":
            magnitude = float(rng.uniform(0.0, 0.85))
        else:
            magnitude = float(rng.uniform(0.0, 0.9)) * math.sqrt(a_g)
        gamma, constants = perturb_family(
            fam, mode, magnitude, seed=int(rng.integers(0, 2**31))
        )
        for check_mode in ("analysis", "synthesis"):
            verdict = check_condition(
                check_mode, fam, gamma, constants
            )
            assert verdict.certified, f"trial {trial} {check_mode} not certified"
            a_p, b_p = verdict.predicted_bounds
            a_c, b_c = verdict.actual_bounds
            assert a_c >= a_p - 1e-9, f"trial {trial}: lower bound violated"
            assert b_c <= b_p + 1e-9, f"trial {trial}: upper bound violated"
        m = analysis_deviation(fam, gamma)
        if m < a_g:
            a_p, b_p = predicted_bounds_simple(a_g, b_g, m)
            a_c, b_c = frame_bounds(gamma)
            assert a_c >= a_p - 1e-9
            assert b_c <= b_p + 1e-9
    # Riesz families under certified synthesis-mode perturbations stay Riesz
    for k in range(20):
        blk_rng = np.random.default_rng(900 + k)
        dim_k = int(blk_rng.integers(1, 3))
        count = int(blk_rng.integers(1, 5))
        dim_h = count * dim_k * dim_k
        values = np.exp(blk_rng.uniform(-1.0, 1.0, size=dim_h))
        fam = riesz_family(dim_h, dim_k, count, SpectrumSpec.explicit(values), seed=k)
        a_g = frame_bounds(fam)[0]
        mu = 0.5 * math.sqrt(a_g)
        gamma, constants = perturb_family(fam, "additive-analysis", mu, seed=k)
        verdict = riesz_stability_check(fam, gamma, constants)
        assert verdict.status == "confirmed"
        assert verdict.riesz_preserved
    report(
        5,
        "200 certified perturbations inside predicted bounds; simple-M "
        "corollary holds; 20 Riesz families stay Riesz",
        started,
        60.0,
    )


def test_criterion_6_scalar_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(6)
    for k in range(20):
        dim = int(rng.integers(2, 8))
        count = int(rng.integers(dim, dim + 6))
        vectors = [
            rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            for _ in range(count)
        ]
        fam = from_scalar_frame(vectors)
        oracle = ScalarFrameOracle(vectors)

        a_o, b_o = oracle.bounds()
        a_g, b_g = frame_bounds(fam)
        assert a_g == pytest.approx(a_o, rel=1e-10)
        assert b_g == pytest.approx(b_o, rel=1e-10)

        f = complex_unit(rng, dim)
        coeffs = analyze(fam, f).blocks[:, 0, 0]
        assert np.allclose(coeffs, oracle.coefficients(f), atol=1e-10)

        dual = canonical_dual(fam)
        for dual_map, dual_vec in zip(dual.maps, oracle.dual_vectors()):
            assert np.allclose(
                dual_map.images[:, 0, 0], dual_vec.conj(), atol=1e-10
            )
        assert np.allclose(reconstruct(fam, f), oracle.reconstruct(f), atol=1e-10)

        perturbed = [v + 0.1 * rng.standard_normal(dim) for v in vectors]
        gamma = from_scalar_frame(perturbed)
        m = analysis_deviation(fam, gamma)
        assert m == pytest.approx(
            oracle.deviation(ScalarFrameOracle(perturbed)), rel=1e-10
        )
        lam1, lam2 = 0.1, 0.05
        mu = 0.2 * math.sqrt(a_g)
        assert predicted_bounds(a_g, b_g, lam1, lam2, mu) == pytest.approx(
            oracle.predicted_bounds(a_o, b_o, lam1, lam2, mu), rel=1e-10
        )
    report(
        6,
        "bounds, coefficients, duals, reconstruction and perturbation "
        "formulas match the vector-level oracle on 20 classical frames",
        started,
        30.0,
    )


def test_criterion_7_kernel_consistency():
    started = time.monotonic()
    from hsframe import kernel_consistency

    fam = from_scalar_frame([[1, 0], [1, 0], [0, 1]])
    t = fam.synthesis_matrix
    rng = np.random.default_rng(7)
    for g_vec, kappa in (
        (np.zeros(2), np.array([1.0, -1.0, 0.0])),
        (np.array([0.3, -0.7 + 0.2j]), np.array([1.0, -1.0, 0.0]) * (0.5 - 1j)),
        (complex_unit(rng, 2), np.zeros(3)),
    ):
        assert np.linalg.norm(t @ kappa) <= 1e-12  # genuinely a kernel sequence
        c_vec = t.conj().T @ g_vec + kappa
        coeffs = CoefficientSequence.from_stacked(c_vec, 1)
        schedule = SectionSchedule.full(3)
        report_kc = kernel_consistency(fam, coeffs, schedule)

        # direct prefix evaluation, written out by hand
        direct_full, direct_kernel = [], []
        for n in schedule:
            prefix = t[:, :n]
            u, s, _ = np.linalg.svd(prefix)
            r = int(np.sum(s > 1e-10 * s[0]))
            q = u[:, :r]
            sec = q.conj().T @ prefix @ prefix.conj().T @ q

            def sec_inv(vec):
                return q @ np.linalg.solve(sec, q.conj().T @ vec)

            x_n = sec_inv(prefix @ c_vec[:n])
            y_n = sec_inv(prefix @ kappa[:n])
            direct_full.append(float(np.linalg.norm(x_n - g_vec)))
            direct_kernel.append(float(np.linalg.norm(y_n)))
        assert np.allclose(report_kc.residual_full, direct_full, atol=1e-12)
        assert np.allclose(report_kc.residual_kernel, direct_kernel, atol=1e-12)
        assert report_kc.co_vanish
        # both statements vanish together at the full section
        assert report_kc.residual_full[-1] <= 1e-12
        assert report_kc.residual_kernel[-1] <= 1e-12
    report(
        7,
        "sectional limits of full and kernel parts match direct prefix "
        "evaluation and co-vanish on repeated-direction families",
        started,
        30.0,
    )


def test_criterion_8_cli_io_round_trips(tmp_path):
    started = time.monotonic()
    # bit-exact save/load on families from every generator
    from hsframe import from_g_frame, GFrameSpec, onb_family, random_family

    rng = np.random.default_rng(8)
    families = [
        onb_family(4),
        from_scalar_frame([rng.standard_normal(3) for _ in range(5)]),
        random_family(6, 2, 4, SpectrumSpec.geometric(0.7), seed=1),
        riesz_family(8, 2, 2, SpectrumSpec.flat(), seed=2),
        decaying_family(5, 1, 12, 0.5, seed=3),
        from_g_frame(GFrameSpec([np.eye(3)[:2], np.eye(3)[2:]])),
    ]
    for idx, fam in enumerate(families):
        path = tmp_path / f"fam{idx}.json"
        save_family(fam, str(path))
        loaded = load_family(str(path))
        assert loaded is not fam
        for m_in, m_out in zip(fam.maps, loaded.maps):
            assert np.array_equal(m_in.images, m_out.images)
        again = tmp_path / f"fam{idx}b.json"
        save_family(loaded, str(again))
        assert path.read_text() == again.read_text()

    # repeated seeded CLI invocations are byte-identical modulo timestamp
    fam_path = tmp_path / "cli_fam.json"
    gen_args = [
        "generate", "--kind", "random", "--dim-h", "6", "--dim-k", "1",
        "--count", "10", "--spectrum", "geometric:0.5", "--seed", "17",
    ]
    assert cli_main(gen_args + ["--out", str(fam_path)]) == 0
    twin_path = tmp_path / "cli_fam_twin.json"
    assert cli_main(gen_args + ["--out", str(twin_path)]) == 0
    assert fam_path.read_text() == twin_path.read_text()

    def strip_csv_ts(text):
        lines = text.splitlines()
        out = [lines[0]]
        for line in lines[1:]:
            cells = line.split(",")
            cells[1] = "<ts>"
            out.append(",".join(cells))
        return "\n".join(out)

    inv_args = ["invert", "--input", str(fam_path), "--seed", "3"]
    assert cli_main(inv_args + ["--out", str(tmp_path / "a.csv")]) == 0
    assert cli_main(inv_args + ["--out", str(tmp_path / "b.csv")]) == 0
    assert strip_csv_ts((tmp_path / "a.csv").read_text()) == strip_csv_ts(
        (tmp_path / "b.csv").read_text()
    )

    def strip_json_ts(text):
        doc = json.loads(text)
        doc["timestamp"] = "<ts>"
        return json.dumps(doc)

    per_args = [
        "perturb", "--input", str(fam_path), "--mode", "additive-analysis",
        "--magnitude", "0.05", "--seed", "5",
    ]
    assert cli_main(per_args + ["--out", str(tmp_path / "v1.json")]) == 0
    assert cli_main(per_args + ["--out", str(tmp_path / "v2.json")]) == 0
    assert strip_json_ts((tmp_path / "v1.json").read_text()) == strip_json_ts(
        (tmp_path / "v2.json").read_text()
    )

    ana_args = ["analyze", "--input", str(fam_path), "--seed", "2"]
    assert cli_main(ana_args + ["--out", str(tmp_path / "r1.json")]) == 0
    assert cli_main(ana_args + ["--out", str(tmp_path / "r2.json")]) == 0
    assert strip_json_ts((tmp_path / "r1.json").read_text()) == strip_json_ts(
        (tmp_path / "r2.json").read_text()
    )
    report(
        8,
        "save/load bit-exact for every generator; seeded CLI reruns "
        "byte-identical modulo timestamp",
        started,
        30.0,
    )
