import contextlib
import csv
import gc
import io
import json
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hsframe import (
    HSFrameFamily,
    NumericError,
    ParseError,
    PerturbationConstants,
    SpectrumSpec,
    ValidationError,
    analyze_report,
    decaying_family,
    from_scalar_frame,
    load_family,
    onb_family,
    perturb_family,
    perturb_report,
    random_family,
    save_family,
)
import hsframe
import hsframe_script
from hsframe import cli
from hsframe.cli import main
from hsframe.serialization import (
    _finite_or_null,
    family_to_document,
    format_sig,
    write_convergence_csv,
    write_json_report,
)
from conftest import named, shapes

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


needs_dev_fd = pytest.mark.skipif(
    not os.path.isdir("/dev/fd"), reason="names a pipe by /dev/fd (POSIX)"
)


@contextlib.contextmanager
def piped(data):
    """A path whose first read yields ``data`` and every later one nothing:
    the read end of a pipe, named through /dev/fd."""
    assert len(data) <= 4096  # the writes below fit the pipe without a reader
    r, w = os.pipe()
    try:
        with os.fdopen(w, "wb") as fh:
            fh.write(data)
        yield f"/dev/fd/{r}"
    finally:
        os.close(r)


def _entry(doc, j, index):
    """``doc["operators"][j]`` followed down ``index``."""
    item = doc["operators"][j]
    for i in index:
        item = item[i]
    return item


def _with_entry(doc, j, index, value):
    """``doc`` with ``value`` at ``doc["operators"][j]`` followed down ``index``."""
    if not index:
        doc["operators"][j] = value
    else:
        _entry(doc, j, index[:-1])[index[-1]] = value
    return doc


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
        assert loaded is not fam
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
        assert loaded is not fam
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
        (lambda doc: {**doc, "format_version": True}, ParseError, 4),  # True == 1
        (lambda doc: {**doc, "format_version": 1.0}, ParseError, 4),
        (lambda doc: {**doc, "scalar": "float32"}, ParseError, 4),
        (lambda doc: {**doc, "count": 5}, ValidationError, 2),  # 2 operators
        (lambda doc: {**doc, "count": 5, "operators": ["x"] * 5}, ValidationError, 2),
        # an integer entry too large for a float, like 1e400 (read as inf)
        (lambda doc: _with_entry(doc, 1, (0, 0, 0, 0), 10**400), ValidationError, 2),
        # checked against the operators before anything of that size is allocated
        (lambda doc: {**doc, "dim_k": 10**6}, ValidationError, 2),
    ], ids=["list", "number", "format_version", "format_version_true",
            "format_version_float", "scalar", "operator_count",
            "operator_entry", "overflowing_int", "huge_header_dim"])
    def test_bad_document_rejected(self, tmp_path, edit, error, code):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(edit(family_to_document(onb_family(2)))))
        with pytest.raises(error):
            load_family(str(path))
        assert main(["analyze", "--input", str(path)]) == code

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="a call holds its arguments until it returns")
    def test_load_frees_the_bytes_before_the_json_parse(self, tmp_path, monkeypatch):
        """``load_family`` keeps the file's bytes only until they are
        decoded: the bytes and the parsed document are never held at once."""
        path = tmp_path / "fam.json"
        save_family(onb_family(3), str(path))
        events = []

        class Bytes(bytes):
            def __del__(self):
                events.append("bytes freed")

        def loads(*args, _loads=json.loads, **kwargs):
            events.append("json parse")
            return _loads(*args, **kwargs)

        monkeypatch.setattr(hsframe.serialization, "_read",
                            lambda p: Bytes(path.read_bytes()))
        monkeypatch.setattr(json, "loads", loads)
        load_family(str(path))
        assert events == ["bytes freed", "json parse"]

    def test_load_starts_no_collection(self, tmp_path):
        """The parsed document is freed before the collector is enabled again,
        so its thousands of lists leave no allocation count to start a pass."""
        path = tmp_path / "fam.json"
        save_family(random_family(32, 2, 32, SpectrumSpec.flat(), seed=3), str(path))
        starts = []

        def callback(phase, info):
            if phase == "start":
                starts.append(info)

        was_enabled = gc.isenabled()
        gc.enable()
        gc.callbacks.append(callback)
        try:
            gc.collect()
            starts.clear()
            load_family(str(path))
        finally:
            gc.callbacks.remove(callback)
            (gc.enable if was_enabled else gc.disable)()
        assert starts == []

    @pytest.mark.parametrize("depth, kind", [
        *((depth, kind) for depth in range(4)
          for kind in ("short", "string", "dict", "number")),
        *((4, kind) for kind in ("list", "string", "true", "null")),
    ])
    def test_malformed_nesting_names_operator(self, tmp_path, depth, kind):
        """At each depth of operators[1], a short list or a non-list where a
        list belongs (depths 0-3), or a list, a numeric string, true or null
        where a number belongs (depth 4).  The message gives the reason."""
        doc = family_to_document(random_family(2, 2, 3, SpectrumSpec.flat(), seed=1))
        index = (0,) * depth
        item = _entry(doc, 1, index)
        if kind in ("short", "list"):
            bad = item[:-1] if kind == "short" else [item]
        else:
            bad = {"string": "1.0", "dict": {}, "number": 1.0, "true": True,
                   "null": None}[kind]
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(_with_entry(doc, 1, index, bad)))
        if depth == 4:
            reason = {"list": "list", "string": "str", "true": "bool", "null": "NoneType"}[kind]
            reason = f"an entry is a {reason}, not a number"
        elif kind == "short":
            reason = f"a list at depth {depth} is not of length 2"
        else:
            reason = f"an item at depth {depth} is not a list"
        with pytest.raises(ValidationError, match=rf"operators\[1\] .*: {reason}$"):
            load_family(str(path))
        assert main(["analyze", "--input", str(path)]) == 2

    def test_integer_entries_are_numbers(self, tmp_path):
        fam = random_family(2, 1, 3, SpectrumSpec.flat(), seed=4)
        path = tmp_path / "fam.json"
        doc = _with_entry(family_to_document(fam), 2, (1, 0, 0, 1), 3)
        path.write_text(json.dumps(doc))
        expected = fam.images.copy()
        expected[2, 1, 0, 0] = expected[2, 1, 0, 0].real + 3j
        assert np.array_equal(load_family(str(path)).images, expected)

    def test_non_utf8_file_is_parse_error(self, tmp_path):
        path = tmp_path / "fam.json"
        path.write_bytes(b'{"format_version": "\xff"}')
        with pytest.raises(ParseError, match="not UTF-8"):
            load_family(str(path))
        assert main(["analyze", "--input", str(path)]) == 4

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()
        with pytest.raises(IsADirectoryError):
            save_family(onb_family(2), str(target))
        assert list(tmp_path.glob(".hsframe-*.tmp")) == []


class TestOutputPath:
    """A write that fails names the path it was given, never its temporary
    file, and leaves no temporary file behind; the CLI exits 4 with that
    message."""

    @staticmethod
    def target(tmp_path, monkeypatch, where):
        """An output path in a missing directory, an existing directory, or
        the empty path, from a working directory one level below tmp_path."""
        (tmp_path / "cwd" / "adir").mkdir(parents=True)
        monkeypatch.chdir(tmp_path / "cwd")
        return {"missing": os.path.join("missing", "out"), "directory": "adir",
                "empty": ""}[where]

    @pytest.mark.parametrize("where", ["missing", "directory", "empty"])
    @pytest.mark.parametrize("write", [
        lambda path: save_family(onb_family(2), path),
        lambda path: write_convergence_csv(path, [], experiment="x", seed=0),
        lambda path: write_json_report(path, {}),
    ], ids=["save_family", "write_convergence_csv", "write_json_report"])
    def test_library_writers(self, tmp_path, monkeypatch, where, write):
        path = self.target(tmp_path, monkeypatch, where)
        with pytest.raises(OSError) as info:
            write(path)
        message = str(info.value)
        assert message.endswith(f": {path!r}") and ".hsframe-" not in message
        assert list(tmp_path.rglob(".hsframe-*")) == []

    @pytest.mark.parametrize("where", ["missing", "directory", "empty"])
    @pytest.mark.parametrize("command", [
        ["generate", "--kind", "onb", "--dim-h", "3"],
        ["analyze", "--input", "onb.json"],
        ["perturb", "--input", "onb.json", "--mode", "additive-analysis",
         "--magnitude", "0.1"],
        ["invert", "--input", "onb.json"],
    ], ids=lambda argv: argv[0])
    def test_cli_commands(self, tmp_path, monkeypatch, capsys, where, command):
        out = self.target(tmp_path, monkeypatch, where)
        save_family(onb_family(3), "onb.json")
        assert main(command + ["--out", out]) == 4
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and err.endswith(f": {out!r}\n")
        assert ".hsframe-" not in err
        assert list(tmp_path.rglob(".hsframe-*")) == []


class TestMemo:
    """A process does not parse a file its ``generate`` wrote: the CLI keeps
    the family last generated, keyed by the file's bytes.  The library keeps
    nothing."""

    def test_library_keeps_nothing(self, tmp_path):
        """``load_family`` after ``save_family`` parses the file: a new
        family on a new array, with nothing cached."""
        fam = random_family(4, 2, 3, SpectrumSpec.flat(), seed=1)
        fam.svd  # a cached SVD is not handed on either
        path = tmp_path / "fam.json"
        save_family(fam, str(path))
        first, second = load_family(str(path)), load_family(str(path))
        for loaded in (first, second):
            assert loaded is not fam and not np.shares_memory(loaded.images, fam.images)
            assert np.array_equal(loaded.images, fam.images)
            assert "svd" not in vars(loaded)
        assert first is not second

    @staticmethod
    def generate(path):
        assert main(["generate", "--kind", "random", "--dim-h", "4", "--dim-k", "2",
                     "--count", "3", "--seed", "2", "--out", str(path)]) == 0
        kept, fam = cli._written
        assert kept == path.read_bytes()
        return fam

    def test_same_bytes_hit_the_memo(self, tmp_path, monkeypatch):
        """Keyed on content: a copy at another path is the same family, and
        no command parses it."""
        path, copy = tmp_path / "fam.json", tmp_path / "copy.json"
        fam = self.generate(path)
        copy.write_bytes(path.read_bytes())
        for name in ("load_family", "_parse_family"):
            monkeypatch.setattr(cli, name, lambda *a: pytest.fail(f"parsed {a[-1]}"))
        for source in (copy, path):
            assert main(["analyze", "--input", str(source)]) == 0
            assert main(["perturb", "--input", str(source), "--mode", "scale",
                         "--magnitude", "0.1"]) == 0
            assert main(["invert", "--input", str(source),
                         "--out", str(tmp_path / "inv.csv")]) == 0
            assert cli._written[1] is fam

    @needs_dev_fd
    def test_reads_keep_nothing_and_read_once(self, tmp_path, monkeypatch):
        """With no family kept, as in a process that only reads, a command
        takes ``load_family``'s path alone: it compares nothing, reads its
        input once (a pipe, which a second read finds empty) and keeps
        nothing."""
        path = tmp_path / "fam.json"
        save_family(onb_family(3), str(path))
        data = path.read_bytes()
        monkeypatch.setattr(cli, "_written", None)
        for name in ("_read", "_parse_family"):
            monkeypatch.setattr(cli, name, lambda *a, name=name: pytest.fail(name))
        loaded = []

        def spy(p, _load=cli.load_family):
            loaded.append(p)
            return _load(p)

        monkeypatch.setattr(cli, "load_family", spy)
        sources = []
        for command, *rest in (["analyze"],
                               ["perturb", "--mode", "scale", "--magnitude", "0.1"],
                               ["invert", "--out", str(tmp_path / "inv.csv")]):
            with piped(data) as source:
                assert main([command, "--input", source, *rest]) == 0
            sources.append(source)
        assert loaded == sources
        assert cli._written is None

    @needs_dev_fd
    def test_miss_parses_the_bytes_it_read(self, tmp_path, capsys):
        """After ``generate``, a read of other bytes parses the bytes it
        read, not a second read of the file: from a pipe, it gives the
        family the pipe held and drops the kept one."""
        other = tmp_path / "onb.json"
        save_family(onb_family(3), str(other))
        self.generate(tmp_path / "fam.json")
        capsys.readouterr()
        with piped(other.read_bytes()) as source:
            assert main(["analyze", "--input", source]) == 0
        assert capsys.readouterr().out == f"{source}: frame+riesz bounds=(1, 1)\n"
        assert cli._written is None

    def test_miss_frees_the_kept_family_before_parsing(self, tmp_path, monkeypatch):
        """A read of other bytes drops every reference to the kept family
        before the JSON parse starts, so the two are never held at once."""
        other = tmp_path / "onb.json"
        save_family(onb_family(3), str(other))
        kept = weakref.ref(self.generate(tmp_path / "fam.json"))
        alive = []

        def spy(*args, _loads=json.loads, **kwargs):
            alive.append(kept() is not None)
            return _loads(*args, **kwargs)

        monkeypatch.setattr(json, "loads", spy)
        assert main(["analyze", "--input", str(other)]) == 0
        assert alive == [False]

    def test_miss_holds_the_bytes_no_longer_than_load_family(self, tmp_path):
        """A read of other bytes hands them to the parse, as ``load_family``
        does, so they are freed once decoded: its tracemalloc peak is within
        5 % of ``load_family``'s on the same file."""
        path = tmp_path / "decaying.json"
        save_family(decaying_family(48, 2, 48, 0.5, seed=1), str(path))

        def peak(read):
            gc.collect()
            tracemalloc.start()
            try:
                read(str(path))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        parsed = peak(load_family)
        self.generate(tmp_path / "fam.json")
        missed = peak(cli._load)
        assert cli._written is None  # it missed
        assert missed <= 1.05 * parsed

    @pytest.mark.parametrize("edit", [
        lambda text: text + "\n",
        lambda text: text.replace('\n "dim_h"', '\n  "dim_h"', 1),
    ], ids=["trailing_newline", "indent"])
    def test_same_family_other_bytes_is_parsed(self, tmp_path, monkeypatch, edit):
        """The key is the bytes, not the family they hold: an edit that keeps
        the family equal misses, is parsed and drops the kept family, and the
        report is the same bar its timestamp."""
        path, out = tmp_path / "fam.json", tmp_path / "analyze.json"
        fam = self.generate(path)
        assert main(["analyze", "--input", str(path), "--out", str(out)]) == 0
        report = strip_timestamp_json(read(out))
        path.write_text(edit(read(path)))
        assert np.array_equal(load_family(str(path)).images, fam.images)
        parsed = []

        def spy(data, p, _parse=cli._parse_family):
            parsed.append(_parse(data, p))
            return parsed[-1]

        monkeypatch.setattr(cli, "_parse_family", spy)
        assert main(["analyze", "--input", str(path), "--out", str(out)]) == 0
        assert len(parsed) == 1 and parsed[0] is not fam
        assert cli._written is None
        assert strip_timestamp_json(read(out)) == report

    def test_same_length_edit_is_parsed(self, tmp_path, capsys):
        """A rewrite that keeps the size (and may keep the mtime) misses,
        and the kept family is dropped."""
        path = tmp_path / "fam.json"
        assert main(["generate", "--kind", "onb", "--dim-h", "3", "--out", str(path)]) == 0
        text = read(path)
        path.write_text(text.replace("1.0", "2.0", 1))
        assert len(read(path)) == len(text)
        capsys.readouterr()
        assert main(["analyze", "--input", str(path)]) == 0
        assert capsys.readouterr().out == f"{path}: frame+riesz bounds=(1, 4)\n"
        assert cli._written is None

    def test_truncated_rewrite_after_save_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "fam.json"
        self.generate(path)
        text = read(path)
        path.write_text(text[: len(text) // 2])
        capsys.readouterr()
        assert main(["analyze", "--input", str(path)]) == 4
        assert "malformed JSON" in capsys.readouterr().err
        assert cli._written is None

    @pytest.mark.parametrize("text, code", [
        ("{ not json", 4),
        (json.dumps({**family_to_document(onb_family(2)), "count": 5}), 2),
    ], ids=["json", "document"])
    def test_failed_parse_leaves_no_entry(self, tmp_path, monkeypatch, text, code):
        path, bad = tmp_path / "fam.json", tmp_path / "bad.json"
        fam = self.generate(path)
        bad.write_text(text)
        assert main(["analyze", "--input", str(bad)]) == code
        assert cli._written is None
        parsed = []

        def spy(p, _load=cli.load_family):
            parsed.append(_load(p))
            return parsed[-1]

        monkeypatch.setattr(cli, "load_family", spy)
        assert main(["analyze", "--input", str(path)]) == 0
        assert len(parsed) == 1 and parsed[0] is not fam
        assert np.array_equal(parsed[0].images, fam.images)

    def test_cli_outputs_identical_with_memo_cleared(self, tmp_path, monkeypatch):
        """generate, analyze, perturb and invert write the same bytes, bar
        timestamps, whether each command finds the family remembered or
        parses it again."""

        def run(workdir, clear):
            workdir.mkdir()
            fam = str(workdir / "fam.json")
            commands = [
                ["generate", "--kind", "decaying", "--dim-h", "6", "--dim-k", "2",
                 "--count", "9", "--spectrum", "geometric:0.5", "--seed", "3",
                 "--out", fam],
                ["analyze", "--input", fam, "--out", str(workdir / "analyze.json")],
                ["perturb", "--input", fam, "--mode", "additive-analysis",
                 "--magnitude", "0.1", "--seed", "3",
                 "--out", str(workdir / "perturb.json")],
                ["invert", "--input", fam, "--seed", "3",
                 "--out", str(workdir / "invert.csv")],
            ]
            for argv in commands:
                if clear:
                    monkeypatch.setattr(cli, "_written", None)
                assert main(argv) == 0
            return [
                read(workdir / "fam.json"),
                strip_timestamp_json(read(workdir / "analyze.json")),
                strip_timestamp_json(read(workdir / "perturb.json")),
                strip_timestamp_csv(read(workdir / "invert.csv")),
            ]

        remembered = run(tmp_path / "memo", clear=False)
        parsed = run(tmp_path / "cleared", clear=True)
        # the input paths differ; everything else is equal
        parsed = [t.replace("cleared", "memo") for t in parsed]
        assert remembered == parsed

    def test_threads_never_get_another_file_s_family(self, tmp_path):
        """Threads saving and loading different files at once: saves are
        atomic and loads parse, so every load returns the family its own
        file holds."""
        families = [random_family(3, 1, 4, SpectrumSpec.flat(), seed=s) for s in range(4)]
        failures = []

        def worker(j):
            path = str(tmp_path / f"fam{j}.json")
            try:
                for _ in range(40):
                    save_family(families[j], path)
                    if not np.array_equal(load_family(path).images, families[j].images):
                        failures.append(j)
            except Exception as exc:  # reported below, not lost in the thread
                failures.append(exc)

        threads = [threading.Thread(target=worker, args=(j,)) for j in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []

    def test_cli_round_factors_the_family_once(self, tmp_path, linalg_calls):
        """analyze, perturb and invert reuse the SVD of T that generate took:
        the only other whole-family SVD is of the perturbed family.  analyze
        adds the spectral norm of its dual check, a values-only SVD."""
        fam = str(tmp_path / "fam.json")
        assert main(["generate", "--kind", "random", "--dim-h", "4", "--dim-k", "1",
                     "--count", "6", "--seed", "2", "--out", fam]) == 0
        linalg_calls.clear()
        assert main(["analyze", "--input", fam]) == 0
        assert main(["invert", "--input", fam, "--schedule", "6",
                     "--out", str(tmp_path / "inv.csv")]) == 0
        # invert's S_6^-1 f is the k = n solve, a division by s_r^2
        assert shapes(linalg_calls) == [("svd", (4, 4), "values")]
        linalg_calls.clear()
        assert main(["perturb", "--input", fam, "--mode", "scale",
                     "--magnitude", "0.1"]) == 0
        svds = [a.shape for _, a, _ in named(linalg_calls, "svd")]
        # T~ (4 x 6) once; the others factor the deviation (T - T~)^H and
        # its whitened form, 6 x 4: under twice as tall as wide, so they
        # take the plain thin SVD, not the R factor's
        assert svds.count((4, 6)) == 1
        assert shapes(linalg_calls) == [("svd", (4, 6), None), ("svd", (6, 4), None),
                                        ("svd", (6, 4), None)]


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

    def test_env_seed_not_an_integer(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("HSFRAME_SEED", "abc")
        out = tmp_path / "env.json"
        assert main([
            "generate", "--kind", "random", "--dim-h", "4", "--count", "5", "--out", str(out),
        ]) == 2
        assert "HSFRAME_SEED='abc' is not an integer" in capsys.readouterr().err
        assert not out.exists()

    def test_unparsable_spectrum_argument(self, tmp_path, capsys):
        out = tmp_path / "f.json"
        assert main([
            "generate", "--kind", "random", "--dim-h", "4", "--count", "5",
            "--spectrum", "flat:x", "--out", str(out),
        ]) == 2
        assert "bad spectrum argument 'flat:x'" in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize("name", ["a,b.json", 'a"b.json'])
    def test_family_name_is_quoted_in_the_csv(self, tmp_path, name):
        fam_path = tmp_path / name
        main(["generate", "--kind", "onb", "--dim-h", "3", "--out", str(fam_path)])
        out = tmp_path / "sweep.csv"
        assert main(["invert", "--input", str(fam_path), "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        for row in rows:
            assert len(row) == 11 and None not in row.values()
            assert row["experiment"] == f"invert:{name}"

    def test_schedule_beyond_count_rejected(self, tmp_path, capsys):
        fam_path = tmp_path / "onb.json"
        main(["generate", "--kind", "onb", "--dim-h", "3", "--out", str(fam_path)])
        code = main([
            "invert", "--input", str(fam_path), "--seed", "0",
            "--schedule", "1,5", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2

    @pytest.mark.parametrize("schedule, pair", [("3,3", "3 then 3"), ("3,1", "3 then 1")])
    def test_schedule_not_increasing_rejected(self, tmp_path, capsys, schedule, pair):
        fam_path = tmp_path / "onb.json"
        main(["generate", "--kind", "onb", "--dim-h", "4", "--out", str(fam_path)])
        capsys.readouterr()
        code = main([
            "invert", "--input", str(fam_path), "--schedule", schedule,
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: lengths must be strictly increasing integers >= 1, got {pair}\n"
        )
        assert not (tmp_path / "x.csv").exists()

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

    def test_base_family_not_a_frame(self, tmp_path, capsys):
        fam_path = tmp_path / "riesz.json"
        main([
            "generate", "--kind", "riesz", "--dim-h", "4", "--count", "2",
            "--out", str(fam_path),
        ])
        code = main([
            "perturb", "--input", str(fam_path), "--mode", "additive-analysis",
            "--magnitude", "0.1",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "family is not a frame: synthesis rank 2 < dim_h 4" in err
        assert "lower must be" not in err

    def test_underflowing_lower_bound(self, tmp_path, capsys):
        # a frame whose sigma_min^2 underflows to 0: exit 3 naming sigma_min,
        # as invert does for it, not exit 2 naming an internal parameter
        fam_path = tmp_path / "tiny.json"
        save_family(from_scalar_frame([[1, 0], [0, 1e-170]]), str(fam_path))
        code = main([
            "perturb", "--input", str(fam_path), "--mode", "additive-analysis",
            "--magnitude", "0.1",
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "sigma_min = 1e-170" in err and "lower must be" not in err

    def test_uncertified_report_writes_its_witness(self, tmp_path):
        """With mu = 0.05 below |D| = 0.1 the condition fails, and the
        report's witness, a unit vector as [re, im] pairs, is one that D
        stretches past mu."""
        fam_path, out = tmp_path / "fam.json", tmp_path / "verdict.json"
        assert main(["generate", "--kind", "random", "--dim-h", "4", "--count", "6",
                     "--seed", "1", "--out", str(fam_path)]) == 0
        assert main([
            "perturb", "--input", str(fam_path), "--mode", "additive-analysis",
            "--magnitude", "0.1", "--mu", "0.05", "--seed", "2", "--out", str(out),
        ]) == 0
        doc = json.loads(read(out))
        assert doc["certified"] is False
        assert doc["empirical_margin"] == pytest.approx(-0.05, abs=1e-12)
        assert len(doc["witness"]) == 4
        assert all(len(pair) == 2 for pair in doc["witness"])
        w = np.array([complex(re, im) for re, im in doc["witness"]])
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
        fam = load_family(str(fam_path))
        tilde, _ = perturb_family(fam, "additive-analysis", 0.1, seed=2)
        d = (tilde.synthesis_matrix - fam.synthesis_matrix).conj().T
        assert np.linalg.norm(d @ w) == pytest.approx(0.1, abs=1e-12)
        assert np.linalg.norm(d @ w) > 0.05 * np.linalg.norm(w)

    def test_one_given_constant_replaces_the_certified_ones(self, tmp_path):
        """--lambda1 0 alone sets every constant: the others keep their
        default of 0, so the certified mu = 0.1 is gone, the nonzero D fails
        the condition and the report carries a witness."""
        fam_path, out = tmp_path / "fam.json", tmp_path / "verdict.json"
        assert main(["generate", "--kind", "random", "--dim-h", "4", "--count", "6",
                     "--seed", "1", "--out", str(fam_path)]) == 0
        argv = [
            "perturb", "--input", str(fam_path), "--mode", "additive-analysis",
            "--magnitude", "0.1", "--seed", "2", "--out", str(out),
        ]
        assert main(argv) == 0
        assert json.loads(read(out))["constants"]["mu"] == pytest.approx(0.1)
        assert main(argv + ["--lambda1", "0"]) == 0
        doc = json.loads(read(out))
        assert doc["constants"] == {"lambda1": 0.0, "lambda2": 0.0, "mu": 0.0, "nu": 0.0}
        assert doc["certified"] is False
        assert len(doc["witness"]) == 4

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


class TestLinAlgFailure:
    """A LAPACK call outside the family's own SVD that fails exits 3 as that
    SVD's failure does: "numeric error: ...", no traceback, no output."""

    # command -> (numpy.linalg function, which of its calls fail)
    FAILING = {
        "generate": ("qr", lambda a, kwargs: True),  # a draw's QR
        "analyze": ("svd", lambda a, kwargs: kwargs.get("compute_uv") is False),
        "perturb": ("svd", lambda a, kwargs: np.shape(a) == (6, 4)),  # D
        "invert": ("svd", lambda a, kwargs: np.shape(a) == (4, 1)),  # prefix 1's
    }

    @pytest.mark.parametrize("command", sorted(FAILING))
    def test_failed_call_exits_3(self, command, tmp_path, monkeypatch, capsys):
        fam, out = str(tmp_path / "fam.json"), tmp_path / "out"
        assert main(["generate", "--kind", "random", "--dim-h", "4", "--count", "6",
                     "--seed", "1", "--out", fam]) == 0
        argv = {
            "generate": ["--kind", "random", "--dim-h", "4", "--count", "6"],
            "analyze": ["--input", fam],
            "perturb": ["--input", fam, "--mode", "additive-analysis",
                        "--magnitude", "0.1"],
            "invert": ["--input", fam],
        }[command] + ["--out", str(out)]
        name, fails = self.FAILING[command]

        def failing(a, *args, _real=getattr(np.linalg, name), **kwargs):
            if fails(a, kwargs):
                raise np.linalg.LinAlgError(f"{name} did not converge")
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, failing)
        capsys.readouterr()
        assert main([command] + argv) == 3
        err = capsys.readouterr().err
        assert err == f"numeric error: {name} did not converge\n"
        assert not out.exists()

    def test_failed_family_svd_is_numeric_error(self, tmp_path, monkeypatch, capsys):
        """A failed SVD of T itself is named as such, in the library and by
        the CLI's exit 3."""
        fam_path = tmp_path / "fam.json"
        save_family(random_family(4, 1, 6, SpectrumSpec.flat(), seed=1), str(fam_path))

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("svd did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing)
        message = "SVD of the synthesis matrix failed: svd did not converge"
        with pytest.raises(NumericError, match=message):
            load_family(str(fam_path)).svd
        monkeypatch.setattr(cli, "_written", None)
        capsys.readouterr()
        assert main(["analyze", "--input", str(fam_path)]) == 3
        assert capsys.readouterr().err == f"numeric error: {message}\n"


class TestReportKeys:
    """Each fact has one key, in a fixed order, which is part of the report's
    bytes; a change to the key lists bumps format_version."""

    ANALYZE = [
        "format_version", "experiment", "timestamp", "input", "dim_h", "dim_k",
        "count", "frame_report", "riesz_ratio_check", "frame_operator_hs_norm",
        "canonical_dual",
    ]
    FRAME_REPORT = [
        "lower_bound", "upper_bound", "frame", "riesz", "synthesis_norm",
        "pseudo_inverse_norm",
    ]
    PERTURB = [
        "format_version", "experiment", "timestamp", "input", "perturbation_mode",
        "magnitude", "seed", "constants", "condition_mode", "certified",
        "empirical_margin", "original_bounds", "predicted_bounds", "actual_bounds",
        "witness",
    ]

    @pytest.mark.parametrize(
        "family", [onb_family(3), from_scalar_frame([[1, 0, 0]])], ids=["frame", "not-a-frame"]
    )
    def test_analyze(self, tmp_path, family):
        fam_path, out = tmp_path / "fam.json", tmp_path / "report.json"
        save_family(family, str(fam_path))
        assert main(["analyze", "--input", str(fam_path), "--out", str(out)]) == 0
        doc = json.loads(read(out))
        assert list(doc) == self.ANALYZE and doc["format_version"] == 1
        assert list(doc["frame_report"]) == self.FRAME_REPORT
        assert list(doc["riesz_ratio_check"]) == ["min_ratio"]
        assert list(doc["frame_operator_hs_norm"]) == ["value", "bound"]
        if doc["canonical_dual"] is not None:
            assert list(doc["canonical_dual"]) == [
                "bounds", "dual_identity_ok", "max_residual"
            ]

    def test_perturb(self, tmp_path):
        fam_path, out = tmp_path / "fam.json", tmp_path / "verdict.json"
        save_family(onb_family(3), str(fam_path))
        assert main([
            "perturb", "--input", str(fam_path), "--mode", "scale",
            "--magnitude", "0.1", "--out", str(out),
        ]) == 0
        doc = json.loads(read(out))
        assert list(doc) == self.PERTURB and doc["format_version"] == 1
        assert list(doc["constants"]) == ["lambda1", "lambda2", "mu", "nu"]


class TestReportBuilders:
    """``analyze_report`` and ``perturb_report`` are the documents the
    commands write, less the keys of the run: after the strict-JSON
    transform ``write_json_report`` applies, equal key for key and in order."""

    RUN_KEYS = ("format_version", "experiment", "timestamp", "input")
    FRAME = random_family(4, 1, 6, SpectrumSpec.flat(), seed=1)
    ZERO = HSFrameFamily([np.zeros((2, 1, 1)), np.zeros((2, 1, 1))])
    CASES = {
        "analyze-frame": (FRAME, ["analyze"], analyze_report),
        # pseudo_inverse_norm is inf, written as null
        "analyze-all-zero": (ZERO, ["analyze"], analyze_report),
        # mu = 0.05 below |D| = 0.1: uncertified, with a witness
        "perturb-witness": (
            FRAME,
            ["perturb", "--mode", "additive-analysis", "--magnitude", "0.1",
             "--seed", "2", "--mu", "0.05"],
            lambda fam: perturb_report(fam, "additive-analysis", 0.1, seed=2,
                                       constants=PerturbationConstants(mu=0.05)),
        ),
        # no constants given: decided against the certified ones; a numpy
        # seed is reported as the int it holds, which json can write
        "perturb-certified": (
            FRAME,
            ["perturb", "--mode", "blockwise", "--magnitude", "0.1", "--seed", "3"],
            lambda fam: perturb_report(fam, "blockwise", 0.1, seed=np.int64(3)),
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_cli_writes_the_library_document(self, tmp_path, case):
        family, argv, build = self.CASES[case]
        fam_path, out = tmp_path / "fam.json", tmp_path / "report.json"
        save_family(family, str(fam_path))
        assert main([*argv, "--input", str(fam_path), "--out", str(out)]) == 0
        written = json.loads(read(out))
        written = {k: v for k, v in written.items() if k not in self.RUN_KEYS}
        built = _finite_or_null(build(load_family(str(fam_path))))
        assert json.dumps(built) == json.dumps(written)
        if case == "analyze-all-zero":
            assert built["frame_report"]["pseudo_inverse_norm"] is None
        if case.startswith("perturb"):
            assert (built["witness"] is None) == (case == "perturb-certified")

    def test_constants_checked_before_drawing(self):
        # a NaN magnitude would be rejected by perturb_family, which draws
        with pytest.raises(ValidationError, match="^constants must be"):
            perturb_report(self.FRAME, "additive-analysis", float("nan"),
                           constants={"mu": 0.1})


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

    def test_underflowing_sigma_squared_is_numeric_error(self, tmp_path, capsys):
        # sigma_min = 1e-170 keeps the family a frame at rank_tol 1e-200,
        # but sigma_min^2 underflows to 0: exit 3 naming |f| and sigma_min,
        # and no numpy warning (the suite turns one into an error)
        fam_path = tmp_path / "tiny.json"
        save_family(from_scalar_frame([[1, 0], [0, 1e-170]]), str(fam_path))
        code = main([
            "invert", "--input", str(fam_path), "--rank-tol", "1e-200",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "S^-1 f overflows" in err and "sigma_min = 1e-170" in err
        assert "Warning" not in err
        assert not (tmp_path / "x.csv").exists()

    def test_zero_vector_on_underflowing_lower_bound(self, tmp_path, capsys):
        # S^-1 0 = 0 passes, then A = sigma_min^2 = 0 cannot bound the
        # oversampled sections: exit 3 naming sigma_min, not a traceback
        fam_path = tmp_path / "tiny.json"
        save_family(from_scalar_frame([[1, 0], [0, 1e-170]]), str(fam_path))
        code = main([
            "invert", "--input", str(fam_path), "--rank-tol", "1e-200",
            "--vector", "0,0", "--out", str(tmp_path / "zero.csv"),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "lower frame bound" in err and "sigma_min = 1e-170" in err
        assert "Warning" not in err and "Traceback" not in err
        assert not (tmp_path / "zero.csv").exists()

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

    @pytest.mark.parametrize("command", ["generate", "analyze", "perturb", "invert"])
    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_negative_seed_rejected(
        self, fam_path, tmp_path, capsys, monkeypatch, command, source
    ):
        out = str(tmp_path / "out")
        argv = {
            "generate": ["generate", "--kind", "random", "--dim-h", "4", "--count", "6"],
            "analyze": ["analyze", "--input", str(fam_path)],
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

    @pytest.mark.parametrize("command", ["analyze", "perturb", "invert"])
    @pytest.mark.parametrize("where", ["top", "operators"])
    def test_nesting_beyond_the_decoder_is_parse_error(
        self, tmp_path, capsys, monkeypatch, command, where
    ):
        """json's decoder raises RecursionError past its depth limit; the
        command exits 4 naming the file, not with a traceback."""
        path = tmp_path / "deep.json"
        if where == "top":
            path.write_text("[" * 100_000 + "]" * 100_000)
        else:
            header = json.dumps({**family_to_document(onb_family(1)), "operators": 0})
            path.write_text(header.replace('"operators": 0', '"operators": '
                                           + "[" * 50_000 + "]" * 50_000))
        monkeypatch.setattr(cli, "_written", None)
        extra = {"analyze": [], "invert": ["--out", str(tmp_path / "x.csv")],
                 "perturb": ["--mode", "scale", "--magnitude", "0.1"]}[command]
        assert main([command, "--input", str(path), *extra]) == 4
        err = capsys.readouterr().err
        assert err == f"i/o error: {path}: nested too deeply to parse\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["perturb", "analyze"])
    def test_trials_flag_is_unrecognized(self, fam_path, tmp_path, capsys, command):
        # no command takes --trials: argparse rejects it as an unknown flag
        # before anything is written
        extra = ["--mode", "scale", "--magnitude", "0.1"] if command == "perturb" else []
        code = exit_code([
            command, "--input", str(fam_path), *extra, "--trials", "-3",
            "--out", str(tmp_path / "r.json"),
        ])
        assert code == 2
        assert "unrecognized arguments: --trials" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_trials_flag_is_unrecognized_for_non_frame(self, tmp_path, capsys):
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


def test_console_script_runs_on_one_blas_thread(tmp_path):
    """The console script's module, ``hsframe_script``, sets one BLAS thread
    where the environment names none, so a seeded ``generate --kind
    random`` and an ``analyze`` of its file write the same bytes, bar the
    report's timestamp, with no thread variable set as with
    OPENBLAS_NUM_THREADS=1.  With the package's own ``main`` the family's
    bytes differ on a machine with two or more cores, where OpenBLAS
    starts one thread per core; on one core the two runs match either way,
    so there the test cannot fail."""
    src = str(Path(hsframe.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = path
    commands = [
        ["generate", "--kind", "random", "--dim-h", "56", "--dim-k", "2", "--count", "56",
         "--spectrum", "flat", "--seed", "7", "--out", "family.json"],
        ["analyze", "--input", "family.json", "--out", "analyze.json"],
    ]
    program = ("import json, sys, hsframe_script\n"
               "sys.exit(max(hsframe_script.main(a) for a in json.loads(sys.argv[1])))")
    outputs = []
    for name, extra in (("unset", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
        cwd = tmp_path / name
        cwd.mkdir()
        proc = subprocess.run([sys.executable, "-c", program, json.dumps(commands)],
                              env={**env, **extra}, cwd=cwd, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(((cwd / "family.json").read_bytes(),
                        strip_timestamp_json(read(cwd / "analyze.json"))))
    assert outputs[0] == outputs[1]


def test_console_script_keeps_a_thread_count_the_user_set(tmp_path, monkeypatch):
    """``hsframe_script.main`` sets to 1 only the thread variables that are
    unset, then runs the CLI's ``main`` on its argv."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    for name in ("OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(name, "x")  # so that the undo restores the real state
        monkeypatch.delenv(name)
    out = tmp_path / "onb.json"
    assert hsframe_script.main(["generate", "--kind", "onb", "--dim-h", "3",
                                "--out", str(out)]) == 0
    assert load_family(str(out)).dim_h == 3
    assert [os.environ[k] for k in hsframe_script.THREAD_VARIABLES] == ["2", "1", "1"]


def test_module_entry_point_exit_codes(tmp_path):
    """``python -m hsframe.cli`` runs ``main`` under its ``__main__`` check
    and exits with its code: 0 for a family written, 2 for a rejected flag,
    4 for a missing input file."""
    src = str(Path(hsframe.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = str(tmp_path / "onb.json")
    for argv, code in [
        (["generate", "--kind", "onb", "--dim-h", "3", "--out", out], 0),
        (["generate", "--kind", "onb", "--dim-h", "3", "--count", "2", "--out", out], 2),
        (["analyze", "--input", str(tmp_path / "missing.json")], 4),
    ]:
        proc = subprocess.run([sys.executable, "-m", "hsframe.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == code, (argv, proc.stderr)
        assert "Traceback" not in proc.stderr
    assert load_family(out).dim_h == 3
