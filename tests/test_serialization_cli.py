import contextlib
import gc
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hsframe import (
    HSFrameFamily,
    ParseError,
    SpectrumSpec,
    ValidationError,
    decaying_family,
    from_scalar_frame,
    load_family,
    onb_family,
    random_family,
    save_family,
)
from hsframe.cli import main
from hsframe.serialization import family_to_document, format_sig

EDGE_FLOATS = (-0.0, 5e-324, 1e-300, -1e-300, 1e16, 1e22, 1.7976931348623157e308, 0.1)


def exit_code(argv):
    """main's exit code, counting argparse's SystemExit as its code."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def read(path):
    with open(path) as fh:
        return fh.read()


def strip_timestamp_csv(text):
    rows = []
    for i, line in enumerate(text.splitlines()):
        cells = line.split(",")
        if i > 0:
            cells[1] = "<ts>"
        rows.append(",".join(cells))
    return "\n".join(rows)


def strip_timestamp_json(text):
    doc = json.loads(text)
    doc["timestamp"] = "<ts>"
    return json.dumps(doc)


class TestFamilyFile:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_restored(self, tmp_path, enabled):
        path, bad = tmp_path / "fam.json", tmp_path / "bad.json"
        bad.write_text("{ not json")
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            save_family(onb_family(2), str(path))
            load_family(str(path))
            with pytest.raises(ParseError):
                load_family(str(bad))
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_round_trip_bit_exact(self, tmp_path):
        fam = random_family(5, 2, 3, SpectrumSpec.geometric(0.6), seed=11)
        path = tmp_path / "fam.json"
        save_family(fam, str(path))
        loaded = load_family(str(path))
        for m_in, m_out in zip(fam.maps, loaded.maps):
            assert np.array_equal(m_in.images, m_out.images)
        save_family(loaded, str(tmp_path / "fam2.json"))
        assert read(path) == read(tmp_path / "fam2.json")

    def test_saved_text_is_pinned(self, tmp_path):
        """Signed zeros, subnormals and 1e-300 keep their shortest repr, and a
        Fortran-ordered image array is written in index order."""
        images = np.empty((3, 1, 1), dtype=np.complex128)
        images.real = np.array([-0.0, 0.1, -1e-300]).reshape(3, 1, 1)
        images.imag = np.array([1e-300, -0.0, 5e-324]).reshape(3, 1, 1)
        path = tmp_path / "tiny.json"
        fam = HSFrameFamily([np.asfortranarray(images), np.ones((3, 1, 1))])
        save_family(fam, str(path))
        entries = ["-0.0, 1e-300", "0.1, -0.0", "-1e-300, 5e-324"] + ["1.0, 0.0"] * 3

        def image(entry):
            re, im = entry.split(", ")
            return f"   [\n    [\n     [\n      {re},\n      {im}\n     ]\n    ]\n   ]"

        def op(part):
            return "  [\n" + ",\n".join(image(e) for e in part) + "\n  ]"

        header = (
            '{\n "format_version": 1,\n "dim_h": 3,\n "dim_k": 1,\n "count": 2,\n'
            ' "scalar": "complex128",\n "operators": [\n'
        )
        want = header + op(entries[:3]) + ",\n" + op(entries[3:]) + "\n ]\n}\n"
        assert read(path) == want

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        dims=st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)),
        seed=st.integers(0, 2**32 - 1),
        fortran=st.booleans(),
    )
    def test_saved_text_equals_json_dumps(self, tmp_path_factory, dims, seed, fortran):
        """The writer's text is json.dumps(indent=1) of the document, for
        normal entries mixed with signed zeros, subnormals, huge and tiny
        values, whatever the memory order of the images."""
        dim_h, dim_k, count = dims
        rng = np.random.default_rng(seed)
        entries = rng.standard_normal(count * dim_h * dim_k * dim_k * 2)
        edge = rng.random(entries.size) < 0.4
        signs = rng.choice([-1.0, 1.0], edge.sum())
        entries[edge] = rng.choice(EDGE_FLOATS, edge.sum()) * signs
        images = entries.view(np.complex128).reshape(count, dim_h, dim_k, dim_k)
        fam = HSFrameFamily([np.asfortranarray(im) if fortran else im for im in images])
        path = tmp_path_factory.mktemp("writer") / "fam.json"
        save_family(fam, str(path))
        assert read(path) == json.dumps(family_to_document(fam), indent=1) + "\n"

    def test_writer_does_not_run_json_encoder(self, tmp_path, monkeypatch):
        """json.dumps(indent=...) falls back to the pure-Python encoder, which
        made saving most of the cost of ``generate``."""

        def refuse(*args, **kwargs):
            raise AssertionError("json's pure-Python encoder was used")

        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        fam = random_family(6, 2, 6, SpectrumSpec.geometric(0.6), seed=5)
        path = tmp_path / "fam.json"
        save_family(fam, str(path))
        loaded = load_family(str(path))
        for m_in, m_out in zip(fam.maps, loaded.maps):
            assert np.array_equal(m_in.images, m_out.images)

    def test_truncated_file_is_parse_error(self, tmp_path):
        fam = onb_family(3)
        path = tmp_path / "fam.json"
        save_family(fam, str(path))
        text = read(path)
        path.write_text(text[: len(text) // 2])
        with pytest.raises(ParseError):
            load_family(str(path))

    def test_missing_key_is_parse_error(self, tmp_path):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps({"format_version": 1}))
        with pytest.raises(ParseError):
            load_family(str(path))

    def test_wrong_inner_shape_names_offending_index(self, tmp_path):
        doc = family_to_document(onb_family(4))
        doc["operators"][2] = doc["operators"][2][:-1]  # drop one image
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=r"operators\[2\]"):
            load_family(str(path))

    def test_no_partial_object_on_failure(self, tmp_path):
        path = tmp_path / "fam.json"
        path.write_text("{ not json")
        with pytest.raises(ParseError, match="line"):
            load_family(str(path))

    @pytest.mark.parametrize("edit, error, code", [
        (lambda doc: [doc], ParseError, 4),
        (lambda doc: 5, ParseError, 4),  # `key in 5` would raise TypeError
        (lambda doc: {**doc, "format_version": 2}, ParseError, 4),
        (lambda doc: {**doc, "scalar": "float32"}, ParseError, 4),
        (lambda doc: {**doc, "count": 5}, ValidationError, 2),  # 2 operators
        (lambda doc: {**doc, "count": 5, "operators": ["x"] * 5}, ValidationError, 2),
    ], ids=["list", "number", "format_version", "scalar", "operator_count", "operator_entry"])
    def test_bad_document_rejected(self, tmp_path, edit, error, code):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(edit(family_to_document(onb_family(2)))))
        with pytest.raises(error):
            load_family(str(path))
        assert main(["analyze", "--input", str(path)]) == code

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()
        with pytest.raises(IsADirectoryError):
            save_family(onb_family(2), str(target))
        assert list(tmp_path.glob(".hsframe-*.tmp")) == []


class TestGenerateCommand:
    def test_onb_writes_identity_operator(self, tmp_path, capsys):
        out = tmp_path / "onb.json"
        assert main(["generate", "--kind", "onb", "--dim-h", "4", "--out", str(out)]) == 0
        fam = load_family(str(out))
        from hsframe import frame_operator

        assert np.allclose(frame_operator(fam), np.eye(4))
        assert "bounds=(1" in capsys.readouterr().out

    @pytest.mark.parametrize("extra, named", [
        (["--dim-k", "3", "--count", "9", "--spectrum", "flat:5"], "dim_k, count, spectrum"),
        (["--dim-k", "1"], "dim_k"),
    ])
    def test_onb_rejects_shape_flags(self, tmp_path, capsys, extra, named):
        out = tmp_path / "onb.json"
        argv = ["generate", "--kind", "onb", "--dim-h", "3", "--out", str(out)]
        assert main(argv + extra) == 2
        assert named in capsys.readouterr().err and not out.exists()
        assert main(argv) == 0
        assert "dim_k=1 count=3 bounds=(1, 1)" in capsys.readouterr().out

    def test_random_deterministic_bytes(self, tmp_path):
        args = [
            "generate", "--kind", "random", "--dim-h", "8", "--dim-k", "2",
            "--count", "6", "--spectrum", "geometric:0.5", "--seed", "7",
        ]
        main(args + ["--out", str(tmp_path / "a.json")])
        main(args + ["--out", str(tmp_path / "b.json")])
        assert read(tmp_path / "a.json") == read(tmp_path / "b.json")

    def test_infeasible_random_request(self, tmp_path, capsys):
        code = main([
            "generate", "--kind", "random", "--dim-h", "4", "--dim-k", "1",
            "--count", "1", "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_decaying_kind(self, tmp_path):
        out = tmp_path / "d.json"
        assert main([
            "generate", "--kind", "decaying", "--dim-h", "4", "--count", "12",
            "--spectrum", "geometric:0.5", "--seed", "3", "--out", str(out),
        ]) == 0
        fam = load_family(str(out))
        assert fam.count == 12

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        args = [
            "generate", "--kind", "random", "--dim-h", "4", "--dim-k", "1",
            "--count", "5",
        ]
        monkeypatch.setenv("HSFRAME_SEED", "21")
        main(args + ["--out", str(tmp_path / "env.json")])
        monkeypatch.delenv("HSFRAME_SEED")
        main(args + ["--seed", "21", "--out", str(tmp_path / "flag.json")])
        assert read(tmp_path / "env.json") == read(tmp_path / "flag.json")


class TestAnalyzeCommand:
    def test_onb_report(self, tmp_path, capsys):
        fam_path = tmp_path / "onb.json"
        main(["generate", "--kind", "onb", "--dim-h", "3", "--out", str(fam_path)])
        out = tmp_path / "report.json"
        assert main(["analyze", "--input", str(fam_path), "--out", str(out)]) == 0
        doc = json.loads(read(out))
        rep = doc["frame_report"]
        assert rep["frame"] and rep["riesz"]
        assert rep["lower_bound"] == pytest.approx(1.0)
        assert rep["upper_bound"] == pytest.approx(1.0)
        assert doc["canonical_dual"]["bounds"] == pytest.approx([1.0, 1.0])
        assert doc["canonical_dual"]["dual_identity_ok"]
        assert "frame" in capsys.readouterr().out

    def test_redundant_family_not_riesz(self, tmp_path):
        fam = from_scalar_frame([[1, 0], [0, 1], [2**-0.5, 2**-0.5]])
        fam_path = tmp_path / "mb.json"
        save_family(fam, str(fam_path))
        out = tmp_path / "report.json"
        main(["analyze", "--input", str(fam_path), "--out", str(out)])
        doc = json.loads(read(out))
        assert doc["frame_report"]["frame"]
        assert not doc["frame_report"]["riesz"]
        assert doc["frame_report"]["lower_bound"] == pytest.approx(1.0)
        assert doc["frame_report"]["upper_bound"] == pytest.approx(2.0)

    def test_all_zero_family_bessel_only(self, tmp_path, capsys):
        fam = HSFrameFamily([np.zeros((2, 1, 1)), np.zeros((2, 1, 1))])
        fam_path = tmp_path / "zero.json"
        save_family(fam, str(fam_path))
        out = tmp_path / "report.json"
        assert main(["analyze", "--input", str(fam_path), "--out", str(out)]) == 0
        doc = json.loads(read(out))
        assert not doc["frame_report"]["frame"]
        assert not doc["frame_report"]["riesz"]
        assert doc["canonical_dual"] is None
        assert capsys.readouterr().out == f"{fam_path}: not a frame bounds=(0, 0)\n"

    def test_all_zero_family_report_is_strict_json(self, tmp_path):
        fam = HSFrameFamily([np.zeros((2, 1, 1)), np.zeros((2, 1, 1))])
        fam_path = tmp_path / "zero.json"
        save_family(fam, str(fam_path))
        out = tmp_path / "report.json"
        assert main(["analyze", "--input", str(fam_path), "--out", str(out)]) == 0

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        doc = json.loads(read(out), parse_constant=reject)
        assert doc["frame_report"]["pseudo_inverse_norm"] is None

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        assert main(["analyze", "--input", str(tmp_path / "nope.json")]) == 4


class TestInvertCommand:
    def test_onb_errors_equal_tail_norms(self, tmp_path):
        fam_path = tmp_path / "onb.json"
        main(["generate", "--kind", "onb", "--dim-h", "4", "--out", str(fam_path)])
        out = tmp_path / "sweep.csv"
        assert main([
            "invert", "--input", str(fam_path), "--vector", "1,2,3,4",
            "--out", str(out),
        ]) == 0
        f = np.array([1.0, 2.0, 3.0, 4.0])
        lines = read(out).strip().splitlines()
        header = lines[0].split(",")
        idx = header.index("err_plain")
        for row in lines[1:]:
            cells = row.split(",")
            n = int(cells[header.index("n")])
            assert float(cells[idx]) == pytest.approx(
                float(np.linalg.norm(f[n:])), abs=1e-12
            )

    def test_decaying_final_row_exact(self, tmp_path):
        fam_path = tmp_path / "dec.json"
        main([
            "generate", "--kind", "decaying", "--dim-h", "6", "--count", "18",
            "--spectrum", "geometric:0.5", "--seed", "5", "--out", str(fam_path),
        ])
        out = tmp_path / "sweep.csv"
        assert main([
            "invert", "--input", str(fam_path), "--seed", "9", "--out", str(out),
        ]) == 0
        last = read(out).strip().splitlines()[-1].split(",")
        header = read(out).strip().splitlines()[0].split(",")
        assert float(last[header.index("err_plain")]) <= 1e-10
        assert float(last[header.index("err_oversampled")]) <= 1e-10

    def test_schedule_beyond_count_rejected(self, tmp_path, capsys):
        fam_path = tmp_path / "onb.json"
        main(["generate", "--kind", "onb", "--dim-h", "3", "--out", str(fam_path)])
        code = main([
            "invert", "--input", str(fam_path), "--seed", "0",
            "--schedule", "1,5", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2

    def test_flagged_row_keeps_its_oversampled_half(self, tmp_path):
        # row 2's plain section is singular at rank_tol 1e-20
        fam_path = tmp_path / "near.json"
        save_family(from_scalar_frame([[1, 0], [1, 1e-16], [0, 1]]), str(fam_path))
        out = tmp_path / "sweep.csv"
        assert main([
            "invert", "--input", str(fam_path), "--rank-tol", "1e-20",
            "--vector", "1,2", "--out", str(out),
        ]) == 0
        lines = read(out).strip().splitlines()
        row = dict(zip(lines[0].split(","), lines[2].split(",")))
        assert (row["n"], row["m_n"], row["r_n"]) == ("2", "1", "2")
        assert float(row["err_oversampled"]) <= 1e-15
        plain = ("err_plain", "crit2", "crit3", "strong_residual")
        assert [row[k] for k in plain] == ["nan"] * 4

    def test_wrong_vector_length_rejected(self, tmp_path, capsys):
        fam_path = tmp_path / "onb.json"
        main(["generate", "--kind", "onb", "--dim-h", "3", "--out", str(fam_path)])
        code = main([
            "invert", "--input", str(fam_path), "--vector", "1,2",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert "3" in capsys.readouterr().err

    def test_non_frame_input_rejected(self, tmp_path, capsys):
        fam = from_scalar_frame([[1, 0], [1, 0]])
        fam_path = tmp_path / "bad.json"
        save_family(fam, str(fam_path))
        code = main([
            "invert", "--input", str(fam_path), "--seed", "0",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert "lower bound zero" in capsys.readouterr().err

    def test_seeded_reruns_identical_modulo_timestamp(self, tmp_path):
        fam_path = tmp_path / "dec.json"
        main([
            "generate", "--kind", "decaying", "--dim-h", "5", "--count", "10",
            "--spectrum", "geometric:0.5", "--seed", "2", "--out", str(fam_path),
        ])
        args = ["invert", "--input", str(fam_path), "--seed", "3"]
        main(args + ["--out", str(tmp_path / "a.csv")])
        main(args + ["--out", str(tmp_path / "b.csv")])
        assert strip_timestamp_csv(read(tmp_path / "a.csv")) == strip_timestamp_csv(
            read(tmp_path / "b.csv")
        )

    def test_block_valued_family_sweep(self, tmp_path):
        fam_path = tmp_path / "blk.json"
        main([
            "generate", "--kind", "decaying", "--dim-h", "6", "--dim-k", "2",
            "--count", "9", "--spectrum", "geometric:0.5", "--seed", "1",
            "--out", str(fam_path),
        ])
        out = tmp_path / "sweep.csv"
        assert main([
            "invert", "--input", str(fam_path), "--seed", "2", "--out", str(out),
        ]) == 0
        lines = read(out).strip().splitlines()
        assert len(lines) == 10  # header + one row per prefix
        header = lines[0].split(",")
        final = lines[-1].split(",")
        assert int(final[header.index("r_n")]) == 6
        assert float(final[header.index("err_plain")]) <= 1e-10

    def test_report_values_reparse_exactly(self, tmp_path):
        from hsframe import SectionSchedule, convergence_sweep

        fam_path = tmp_path / "dec.json"
        main([
            "generate", "--kind", "decaying", "--dim-h", "4", "--count", "8",
            "--spectrum", "geometric:0.5", "--seed", "4", "--out", str(fam_path),
        ])
        out = tmp_path / "sweep.csv"
        main(["invert", "--input", str(fam_path), "--seed", "6", "--out", str(out)])
        fam = load_family(str(fam_path))
        rng = np.random.default_rng(6)
        f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        f /= np.linalg.norm(f)
        records = convergence_sweep(fam, SectionSchedule.full(8), f)
        lines = read(out).strip().splitlines()
        header = lines[0].split(",")
        for row, rec in zip(lines[1:], records):
            cells = row.split(",")
            for field in ("err_plain", "err_oversampled", "crit2", "crit3",
                          "strong_residual"):
                assert float(cells[header.index(field)]) == getattr(rec, field)


class TestPerturbCommand:
    def test_additive_on_parseval(self, tmp_path):
        fam_path = tmp_path / "onb.json"
        main(["generate", "--kind", "onb", "--dim-h", "4", "--out", str(fam_path)])
        out = tmp_path / "verdict.json"
        assert main([
            "perturb", "--input", str(fam_path), "--mode", "additive-analysis",
            "--magnitude", "0.1", "--seed", "8", "--out", str(out),
        ]) == 0
        doc = json.loads(read(out))
        assert doc["certified"]
        assert doc["predicted_bounds"][0] == pytest.approx(0.81, rel=1e-12)
        assert doc["actual_bounds"][0] >= 0.81 - 1e-9
        assert doc["actual_bounds"][1] <= doc["predicted_bounds"][1] + 1e-9

    def test_zero_magnitude_identity(self, tmp_path):
        fam_path = tmp_path / "onb.json"
        main(["generate", "--kind", "onb", "--dim-h", "3", "--out", str(fam_path)])
        out = tmp_path / "verdict.json"
        main([
            "perturb", "--input", str(fam_path), "--mode", "scale",
            "--magnitude", "0", "--seed", "1", "--out", str(out),
        ])
        doc = json.loads(read(out))
        assert doc["predicted_bounds"] == pytest.approx(doc["original_bounds"])
        assert doc["actual_bounds"] == pytest.approx(doc["original_bounds"])

    def test_inadmissible_override_names_inequality(self, tmp_path, capsys):
        fam_path = tmp_path / "onb.json"
        main(["generate", "--kind", "onb", "--dim-h", "3", "--out", str(fam_path)])
        code = main([
            "perturb", "--input", str(fam_path), "--mode", "additive-analysis",
            "--magnitude", "0.1", "--mu", "1.5", "--seed", "1",
        ])
        assert code == 2
        assert "mu/sqrt(A)" in capsys.readouterr().err

    def test_seeded_rerun_identical_modulo_timestamp(self, tmp_path):
        fam_path = tmp_path / "fam.json"
        main([
            "generate", "--kind", "random", "--dim-h", "5", "--dim-k", "1",
            "--count", "8", "--seed", "12", "--out", str(fam_path),
        ])
        args = [
            "perturb", "--input", str(fam_path), "--mode", "additive-analysis",
            "--magnitude", "0.05", "--seed", "13",
        ]
        main(args + ["--out", str(tmp_path / "a.json")])
        main(args + ["--out", str(tmp_path / "b.json")])
        assert strip_timestamp_json(read(tmp_path / "a.json")) == strip_timestamp_json(
            read(tmp_path / "b.json")
        )


class TestReportKeys:
    """Each fact has one key; a change to the key sets bumps format_version."""

    ANALYZE = {
        "format_version", "experiment", "timestamp", "input", "dim_h", "dim_k",
        "count", "frame_report", "riesz_ratio_check", "frame_operator_hs_norm",
        "canonical_dual",
    }
    FRAME_REPORT = {
        "lower_bound", "upper_bound", "frame", "riesz", "synthesis_norm",
        "pseudo_inverse_norm",
    }
    PERTURB = {
        "format_version", "experiment", "timestamp", "input", "perturbation_mode",
        "magnitude", "seed", "constants", "condition_mode", "certified",
        "empirical_margin", "original_bounds", "predicted_bounds", "actual_bounds",
        "witness",
    }

    @pytest.mark.parametrize(
        "family", [onb_family(3), from_scalar_frame([[1, 0, 0]])], ids=["frame", "not-a-frame"]
    )
    def test_analyze(self, tmp_path, family):
        fam_path, out = tmp_path / "fam.json", tmp_path / "report.json"
        save_family(family, str(fam_path))
        assert main(["analyze", "--input", str(fam_path), "--out", str(out)]) == 0
        doc = json.loads(read(out))
        assert set(doc) == self.ANALYZE and doc["format_version"] == 1
        assert set(doc["frame_report"]) == self.FRAME_REPORT
        assert set(doc["riesz_ratio_check"]) == {"min_ratio"}
        assert set(doc["frame_operator_hs_norm"]) == {"value", "bound"}
        if doc["canonical_dual"] is not None:
            assert set(doc["canonical_dual"]) == {
                "bounds", "dual_identity_ok", "max_residual"
            }

    def test_perturb(self, tmp_path):
        fam_path, out = tmp_path / "fam.json", tmp_path / "verdict.json"
        save_family(onb_family(3), str(fam_path))
        assert main([
            "perturb", "--input", str(fam_path), "--mode", "scale",
            "--magnitude", "0.1", "--out", str(out),
        ]) == 0
        doc = json.loads(read(out))
        assert set(doc) == self.PERTURB and doc["format_version"] == 1
        assert set(doc["constants"]) == {"lambda1", "lambda2", "mu", "nu"}


class TestFormatting:
    def test_seventeen_digits_round_trip(self, rng):
        for _ in range(200):
            x = float(rng.standard_normal() * 10.0 ** rng.integers(-12, 12))
            assert float(format_sig(x)) == x


class TestInputBoundary:
    @pytest.fixture
    def fam_path(self, tmp_path):
        path = tmp_path / "fam.json"
        save_family(random_family(4, 1, 6, SpectrumSpec.flat(), seed=2), str(path))
        return path

    @pytest.mark.parametrize("command", ["analyze", "invert"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_family_entry_rejected(
        self, fam_path, tmp_path, capsys, command, value
    ):
        doc = json.loads(read(fam_path))
        doc["operators"][1][2][0][0][1] = value
        fam_path.write_text(json.dumps(doc))
        code = main([command, "--input", str(fam_path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["dim_h", "dim_k", "count"])
    def test_bool_dimension_rejected(self, tmp_path, key):
        path = tmp_path / "one.json"
        save_family(onb_family(1), str(path))
        doc = json.loads(read(path))
        doc[key] = True
        path.write_text(json.dumps(doc))
        assert main(["analyze", "--input", str(path)]) == 2

    def test_nan_lambda_rejected(self, fam_path, tmp_path):
        code = main([
            "invert", "--input", str(fam_path), "--lambda", "nan",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert not (tmp_path / "x.csv").exists()

    def test_infinite_lambda_rejected(self, fam_path, tmp_path, capsys):
        code = main([
            "invert", "--input", str(fam_path), "--lambda", "inf",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert "lambda" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_overflowing_vector_is_numeric_error(self, fam_path, tmp_path, capsys):
        code = main([
            "invert", "--input", str(fam_path), "--vector", "1e308,1e308,1e308,1e308",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "overflows" in err and "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    def test_huge_spectrum_analyzes(self, tmp_path):
        path, out = tmp_path / "big.json", tmp_path / "a.json"
        assert main([
            "generate", "--kind", "random", "--dim-h", "4", "--count", "6",
            "--spectrum", "flat:1e300", "--out", str(path),
        ]) == 0
        assert main(["analyze", "--input", str(path), "--out", str(out)]) == 0
        hs = json.loads(read(out))["frame_operator_hs_norm"]
        assert hs["value"] == pytest.approx(2e300, rel=1e-12)

    def test_perturb_decides_mixed_constants(self, tmp_path):
        # (1 - 0.1) T against lambda1 = 0.1 and mu = 0.05: holds with room 0.05
        path, out = tmp_path / "f.json", tmp_path / "p.json"
        assert main([
            "generate", "--kind", "random", "--dim-h", "4", "--count", "6",
            "--seed", "1", "--out", str(path),
        ]) == 0
        assert main([
            "perturb", "--input", str(path), "--mode", "scale", "--magnitude", "0.1",
            "--lambda1", "0.1", "--mu", "0.05", "--out", str(out),
        ]) == 0
        doc = json.loads(read(out))
        assert doc["certified"] is True and doc["witness"] is None
        assert doc["empirical_margin"] == pytest.approx(0.05, rel=1e-9)

    @pytest.mark.parametrize("command", ["analyze", "invert"])
    @pytest.mark.parametrize("value", ["0", "1.5", "nan"])
    def test_bad_rank_tol_rejected(self, fam_path, tmp_path, capsys, command, value):
        code = main([
            command, "--input", str(fam_path), "--rank-tol", value,
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "rank_tol" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_nan_magnitude_rejected(self, fam_path):
        code = main([
            "perturb", "--input", str(fam_path), "--mode", "additive-analysis",
            "--magnitude", "nan",
        ])
        assert code == 2

    def test_nan_vector_entry_rejected(self, fam_path, tmp_path):
        code = main([
            "invert", "--input", str(fam_path), "--vector", "1,nan,0,0",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2

    @pytest.mark.parametrize("flag", ["--mu", "--lambda1", "--lambda2"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_constant_rejected(self, fam_path, tmp_path, capsys, flag, value):
        code = main([
            "perturb", "--input", str(fam_path), "--mode", "additive-analysis",
            "--magnitude", "0.1", flag, value, "--out", str(tmp_path / "p.json"),
        ])
        assert code == 2
        assert flag.lstrip("-") in capsys.readouterr().err
        assert not (tmp_path / "p.json").exists()

    @pytest.mark.parametrize("command", ["generate", "perturb", "invert"])
    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_negative_seed_rejected(
        self, fam_path, tmp_path, capsys, monkeypatch, command, source
    ):
        out = str(tmp_path / "out")
        argv = {
            "generate": ["generate", "--kind", "random", "--dim-h", "4", "--count", "6"],
            "perturb": ["perturb", "--input", str(fam_path), "--mode", "scale",
                        "--magnitude", "0.1"],
            "invert": ["invert", "--input", str(fam_path)],
        }[command] + ["--out", out]
        if source == "flag":
            argv += ["--seed=-1"]
        else:
            monkeypatch.setenv("HSFRAME_SEED", "-1")
        assert main(argv) == 2
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind, dim_k", [("decaying", "0"), ("random", "-2"),
                                              ("riesz", "-2"), ("onb", "0")])
    def test_dim_k_below_one_rejected(self, tmp_path, capsys, kind, dim_k):
        code = main([
            "generate", "--kind", kind, "--dim-h", "4", "--dim-k", dim_k, "--count", "1",
            "--spectrum", "geometric:0.5", "--out", str(tmp_path / "f.json"),
        ])
        assert code == 2
        assert "dim_k" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, spectrum", [
        ("random", "flat:inf"), ("random", "explicit:1,2,3,inf"),
        ("riesz", "geometric:1e300"),
    ])
    def test_non_finite_spectrum_rejected(self, tmp_path, capsys, kind, spectrum):
        code = main([
            "generate", "--kind", kind, "--dim-h", "4", "--count", "4",
            "--spectrum", spectrum, "--out", str(tmp_path / "f.json"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "finite" in err and "RuntimeWarning" not in err
        assert not (tmp_path / "f.json").exists()

    def test_overflowing_bound_is_numeric_error(self, fam_path, capsys):
        code = main([
            "perturb", "--input", str(fam_path), "--mode", "additive-analysis",
            "--magnitude", "1e308",
        ])
        assert code == 3
        assert "overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["perturb", "analyze"])
    def test_negative_trials_rejected(self, fam_path, tmp_path, capsys, command):
        # perturb rejects the value; analyze draws nothing and has no --trials
        extra = ["--mode", "scale", "--magnitude", "0.1"] if command == "perturb" else []
        code = exit_code([
            command, "--input", str(fam_path), *extra, "--trials", "-3",
            "--out", str(tmp_path / "r.json"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "trials" in err
        if command == "analyze":
            assert "unrecognized arguments: --trials" in err
        assert not (tmp_path / "r.json").exists()

    def test_negative_trials_rejected_for_non_frame(self, tmp_path, capsys):
        path = tmp_path / "line.json"
        save_family(from_scalar_frame([[1, 0], [2, 0]]), str(path))
        assert exit_code(["analyze", "--input", str(path), "--trials", "-3"]) == 2
        assert "unrecognized arguments: --trials" in capsys.readouterr().err


def test_main_reuses_one_parser(tmp_path, monkeypatch):
    from hsframe import cli

    assert cli.build_parser() is not cli.build_parser()  # callers get a fresh one
    path = tmp_path / "onb.json"
    assert main(["generate", "--kind", "onb", "--dim-h", "2", "--out", str(path)]) == 0
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
    assert main(["analyze", "--input", str(path)]) == 0
    assert main(["generate", "--kind", "onb", "--dim-h", "3", "--out", str(path)]) == 0
    assert load_family(str(path)).dim_h == 3


# value strategies draw usable values often enough that some commands get
# past flag checking into the numerics
FUZZ_FLOATS = st.one_of(
    st.floats(0.001, 0.9).map(repr),
    st.floats(1.1, 3.0).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "0", "-0.5", "5e-324"]),
)
FUZZ_INTS = st.integers(-2, 7).map(str)
FUZZ_TEXT = st.text(alphabet="0123456789,.:-eainfprxltgom", max_size=10)
FUZZ_SPECTRA = st.one_of(
    st.sampled_from(["flat", "flat:2", "flat:1e308", "geometric:0.5", "explicit:1,2,3"]),
    st.sampled_from([
        "flat:nan", "flat:-1", "geometric:inf", "geometric:", "explicit:", "explicit:1,nan",
        "bogus",
    ]),
    FUZZ_TEXT,
)
FUZZ_SCHEDULES = st.one_of(
    st.sampled_from(["prefix:all", "1,2,3", "2,6", "6"]),
    st.sampled_from(["3,1", "0", "-1", "1,,2", "", "prefix:", "99", "1,1"]),
    FUZZ_TEXT,
)
FUZZ_VECTORS = st.one_of(
    st.sampled_from([
        "1,0,0,0", "1e308,1e308,1e308,1e308", "1j,0,0,0", "0,0,0,0", "1,2,3,4",
    ]),
    st.sampled_from(["1,nan,0,0", "inf,0,0,0", "1,2", ""]),
    FUZZ_TEXT,
)
FUZZ_INPUTS = st.sampled_from(
    ["{frame}", "{decaying}", "{frame}", "{decaying}", "{line}", "{missing}", "{garbage}"]
)


def _flags(required=(), **drawn):
    """``--flag=value`` for each drawn flag, the optional ones present or absent
    (the ``=`` form keeps values such as ``-inf`` from reading as flags)."""
    return st.tuples(*(
        value.map(lambda v, f=flag: [f"{f}={v}"])
        if flag in required
        else st.one_of(st.just([]), value.map(lambda v, f=flag: [f"{f}={v}"]))
        for flag, value in drawn.items()
    )).map(lambda parts: [tok for part in parts for tok in part])


FUZZ_ARGV = st.one_of(
    st.tuples(
        st.just(["generate", "--out={out}"]),
        _flags(
            required=("--kind", "--dim-h"),
            **{"--kind": st.sampled_from(["onb", "random", "riesz", "decaying"]),
               "--dim-h": FUZZ_INTS, "--dim-k": FUZZ_INTS, "--count": FUZZ_INTS,
               "--spectrum": FUZZ_SPECTRA, "--seed": FUZZ_INTS},
        ),
    ),
    st.tuples(
        st.just(["analyze", "--out={out}"]),
        _flags(required=("--input",), **{
            "--input": FUZZ_INPUTS, "--rank-tol": FUZZ_FLOATS, "--seed": FUZZ_INTS}),
    ),
    st.tuples(
        st.just(["invert", "--out={out}"]),
        _flags(required=("--input",), **{
            "--input": FUZZ_INPUTS, "--vector": FUZZ_VECTORS, "--seed": FUZZ_INTS,
            "--lambda": FUZZ_FLOATS, "--schedule": FUZZ_SCHEDULES,
            "--rank-tol": FUZZ_FLOATS}),
    ),
    st.tuples(
        st.just(["perturb", "--out={out}"]),
        _flags(required=("--input", "--mode", "--magnitude"), **{
            "--input": FUZZ_INPUTS,
            "--mode": st.sampled_from(["additive-analysis", "scale", "blockwise"]),
            "--magnitude": FUZZ_FLOATS, "--lambda1": FUZZ_FLOATS,
            "--lambda2": FUZZ_FLOATS, "--mu": FUZZ_FLOATS,
            "--seed": FUZZ_INTS}),
    ),
).map(lambda parts: [tok for part in parts for tok in part])


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    files = {name: str(root / f"{name}.json") for name in
             ("frame", "decaying", "line", "missing", "garbage", "out")}
    save_family(random_family(4, 1, 6, SpectrumSpec.flat(), seed=2), files["frame"])
    save_family(decaying_family(4, 1, 6, 0.5, seed=3), files["decaying"])
    save_family(from_scalar_frame([[1, 0, 0, 0], [2, 0, 0, 0]]), files["line"])
    (root / "garbage.json").write_text("{ not json")
    return files


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(argv=FUZZ_ARGV)
@example(argv=["generate", "--out={out}", "--kind=random", "--dim-h=4", "--count=6",
               "--seed=-1"])
@example(argv=["perturb", "--out={out}", "--input={frame}", "--mode=scale",
               "--magnitude=0.1", "--seed=-1"])
@example(argv=["invert", "--out={out}", "--input={frame}", "--seed=-1"])
@example(argv=["generate", "--out={out}", "--kind=decaying", "--dim-h=4", "--dim-k=0",
               "--count=6", "--spectrum=geometric:0.5"])
@example(argv=["generate", "--out={out}", "--kind=random", "--dim-h=4", "--dim-k=-2",
               "--count=6"])
@example(argv=["generate", "--out={out}", "--kind=onb", "--dim-h=4", "--dim-k=0"])
@example(argv=["perturb", "--out={out}", "--input={frame}", "--mode=additive-analysis",
               "--magnitude=1e308"])
@example(argv=["invert", "--out={out}", "--input={frame}",
               "--vector=1e308,1e308,1e308,1e308"])
def test_cli_flag_fuzz(fuzz_files, argv):
    """Whatever the flag values, a command ends with a documented exit code
    (argparse's own exit counts as its code) and never with a traceback."""
    argv = [tok.format(**fuzz_files) for tok in argv]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = exit_code(argv)
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
