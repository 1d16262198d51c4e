import json

import numpy as np
import pytest

from hsframe import (
    HSFrameFamily,
    ParseError,
    SpectrumSpec,
    ValidationError,
    from_scalar_frame,
    load_family,
    onb_family,
    random_family,
    save_family,
)
from hsframe.cli import main
from hsframe.serialization import family_to_document, format_sig


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
    def test_round_trip_bit_exact(self, tmp_path):
        fam = random_family(5, 2, 3, SpectrumSpec.geometric(0.6), seed=11)
        path = tmp_path / "fam.json"
        save_family(fam, str(path))
        loaded = load_family(str(path))
        for m_in, m_out in zip(fam.maps, loaded.maps):
            assert np.array_equal(m_in.images, m_out.images)
        save_family(loaded, str(tmp_path / "fam2.json"))
        assert read(path) == read(tmp_path / "fam2.json")

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


class TestGenerateCommand:
    def test_onb_writes_identity_operator(self, tmp_path, capsys):
        out = tmp_path / "onb.json"
        assert main(["generate", "--kind", "onb", "--dim-h", "4", "--out", str(out)]) == 0
        fam = load_family(str(out))
        from hsframe import frame_operator

        assert np.allclose(frame_operator(fam), np.eye(4))
        assert "bounds=(1" in capsys.readouterr().out

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

    def test_all_zero_family_bessel_only(self, tmp_path):
        fam = HSFrameFamily([np.zeros((2, 1, 1)), np.zeros((2, 1, 1))])
        fam_path = tmp_path / "zero.json"
        save_family(fam, str(fam_path))
        out = tmp_path / "report.json"
        assert main(["analyze", "--input", str(fam_path), "--out", str(out)]) == 0
        doc = json.loads(read(out))
        assert doc["frame_report"]["bessel"]
        assert not doc["frame_report"]["frame"]
        assert not doc["frame_report"]["complete"]
        assert doc["canonical_dual"] is None

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
