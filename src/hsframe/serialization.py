"""Family files and report emission.

Families are stored as JSON: ``operators[j][i]`` is the d_k x d_k matrix
the j-th map assigns to the i-th basis vector, every complex entry a
``[re, im]`` pair.  The file format is unchanged since format_version 1:
a family file is exactly ``json.dumps(family_to_document(F), indent=1)``
plus a newline.  The writer emits those bytes without json's encoder,
whose ``indent`` mode is pure Python.  The text of one operator differs
between maps only in its floats, so it is built once per family as a
template with ``%s`` at every float.  Each float is written as
``float.__repr__`` writes it, the shortest round-trip form json writes, so
load(save(F)) reproduces F bit for bit; ``_shortest.reprs`` computes those
digits for a block of floats at once, identical to ``repr``, with
subnormals through ``repr`` itself.  The file is streamed a block of whole
operators at a time.  The reader checks the parsed ``operators`` level by
level and converts them with one ``np.fromiter`` call.  Report numerics use
17 significant digits for the same reason; JSON reports are strict, with a
non-finite value written as ``null``, and carry ``format_version``
(``REPORT_FORMAT_VERSION``).  All writes go through a temporary file in the
target's directory plus rename; a failed write removes it, and its
``OSError`` names the target.

This module owns the report layout: ``analyze_report`` and
``perturb_report`` build the ``analyze`` and ``perturb`` documents key by
key, and ``write_json_report`` stamps and writes them.  The commands of
``hsframe.cli`` only add the run's ``experiment``, ``timestamp`` and
``input``.

The module keeps no state: ``save_family`` only writes, and
``load_family`` always parses.  The commands of ``hsframe.cli`` keep the
family ``generate`` last wrote, so a read of that file in the same
process skips the parse and the SVD; the library does not.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import gc
import io
import itertools
import json
import math
import os
import tempfile
from collections.abc import Iterable, Iterator
from datetime import datetime, timezone

import numpy as np

from . import _shortest
from .core import check_instance, check_int
from .errors import ParseError, ValidationError
from .family import (
    DEFAULT_RANK_TOL,
    HSFrameFamily,
    canonical_dual,
    classify,
    frame_bounds,
    frame_operator_hs_norm_bound,
    riesz_inequality_check,
    verify_alternate_dual,
)
from .perturbation import PerturbationConstants, check_condition, perturb_family
from .projection import ConvergenceRecord

__all__ = [
    "FORMAT_VERSION",
    "REPORT_FORMAT_VERSION",
    "CONVERGENCE_COLUMNS",
    "family_to_document",
    "family_from_document",
    "save_family",
    "load_family",
    "format_sig",
    "write_convergence_csv",
    "write_json_report",
    "analyze_report",
    "perturb_report",
    "utc_timestamp",
]

FORMAT_VERSION = 1
#: Layout of the ``analyze`` and ``perturb`` JSON reports; bumped when a key
#: is added, removed or changes meaning.
REPORT_FORMAT_VERSION = 1

#: The run's three columns, then every ``ConvergenceRecord`` field but
#: ``flagged`` (a flagged row reads nan in its plain columns).
_RECORD_COLUMNS = tuple(
    f.name for f in dataclasses.fields(ConvergenceRecord) if f.name != "flagged"
)
CONVERGENCE_COLUMNS = ("experiment", "timestamp", "seed") + _RECORD_COLUMNS


def utc_timestamp() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def format_sig(x: float) -> str:
    """17 significant digits: enough for exact double round-trip."""
    return f"{x:.17g}"


def _atomic_write(path: str, chunks: Iterable[bytes]) -> None:
    """Write the concatenated chunks through a temporary file in ``path``'s
    directory plus rename.  A failure leaves no temporary file, and an
    ``OSError`` names ``path``, not the temporary file."""
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path) or ".", prefix=".hsframe-", suffix=".tmp"
        )
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def _metadata(family: HSFrameFamily) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "dim_h": family.dim_h,
        "dim_k": family.dim_k,
        "count": family.count,
        "scalar": "complex128",
    }


def _float_pairs(images: np.ndarray) -> np.ndarray:
    """C-contiguous complex128 ``images`` as float64 with a trailing (re, im) axis."""
    return images.view(np.float64).reshape(*images.shape, 2)


def family_to_document(family: HSFrameFamily) -> dict:
    check_instance("family", family, HSFrameFamily)
    return {**_metadata(family), "operators": _float_pairs(family.images).tolist()}


def family_from_document(doc) -> HSFrameFamily:
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")
    for key in ("format_version", "dim_h", "dim_k", "count", "scalar", "operators"):
        if key not in doc:
            raise ParseError(f"missing key {key!r}")
    # an int, not a bool or float that compares equal to one
    if type(doc["format_version"]) is not int or doc["format_version"] != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {doc['format_version']!r}")
    if doc["scalar"] != "complex128":
        raise ParseError(f"unsupported scalar type {doc['scalar']!r}")
    dim_h, dim_k, count = (check_int(k, doc[k], 1) for k in ("dim_h", "dim_k", "count"))
    operators = doc["operators"]
    if not isinstance(operators, list) or len(operators) != count:
        raise ValidationError(
            f"operators must list {count} maps, got "
            f"{len(operators) if isinstance(operators, list) else type(operators).__name__}"
        )
    shape = (dim_h, dim_k, dim_k, 2)
    try:
        floats = _flat_floats(operators, shape)
    except (TypeError, ValueError, OverflowError):
        # the first operator that does not convert on its own names the fault
        for j, op in enumerate(operators):
            _check_operator(j, op, shape)
        raise
    # the float view of complex pairs keeps signed zeros through the round trip
    return HSFrameFamily._of_images(floats.view(np.complex128).reshape(count, *shape[:-1]))


def _flat_floats(items: list, shape: tuple[int, ...]) -> np.ndarray:
    """The numbers of ``items``, a list of nested lists of ``shape``, in order
    as one float64 array.  Each level is checked in one C-level pass (a non-list
    item fails ``list.__len__``), reached through ``chain.from_iterable``
    without building a list of it, and so are the entries' types;
    ``TypeError``, ``ValueError`` or ``OverflowError`` if any item is not a
    list of its level's length or an entry is not a number a float holds.  A
    JSON number is an int or a float; a bool, a string or None is not one,
    although ``float()`` would take it."""
    size = len(items)
    for depth, n in enumerate(shape):
        try:
            lengths = set(map(list.__len__, _nested(items, depth)))
        except TypeError:
            raise TypeError(f"an item at depth {depth} is not a list") from None
        if lengths != {n}:
            raise ValueError(f"a list at depth {depth} is not of length {n}")
        size *= n
    for kind in set(map(type, _nested(items, len(shape)))):
        if kind is bool or not issubclass(kind, (int, float)):
            raise TypeError(f"an entry is a {kind.__name__}, not a number")
    return np.fromiter(_nested(items, len(shape)), dtype=float, count=size)


def _nested(items: list, depth: int) -> Iterator:
    """The items ``depth`` levels down in ``items``, lazily, in order."""
    for _ in range(depth):
        items = itertools.chain.from_iterable(items)
    return items


def _check_operator(j: int, op, shape: tuple[int, ...]) -> None:
    """``ValidationError`` naming ``operators[j]`` unless ``op`` converts."""
    try:
        _flat_floats([op], shape)
    except OverflowError as exc:
        raise ValidationError(
            f"operators[{j}] has an entry too large for a float: {exc}"
        ) from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            f"operators[{j}] is not nested lists of shape {shape} of numbers: {exc}"
        ) from exc


@contextlib.contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector while a family file is parsed.
    The parsed document's tens of thousands of lists hold no reference
    cycles, so a collection pass over them reclaims nothing.  Measured on a
    2-vCPU Xeon with CPython 3.11, medians of six sets of 25 reads:
    ``load_family`` of a 128/2/128 family took 0.13 s with the collector
    running and 0.11 s with it paused."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _template(shape: tuple[int, ...], depth: int) -> str:
    """What ``json.dumps(indent=1)`` writes for a nested float list of this
    shape at nesting ``depth``, with ``%s`` in place of every float."""
    if not shape:
        return "%s"
    pad = "\n" + " " * (depth + 1)
    item = _template(shape[1:], depth + 1)
    return "[" + pad + ("," + pad).join([item] * shape[0]) + "\n" + " " * depth + "]"


def _family_text(family: HSFrameFamily) -> Iterator[bytes]:
    """``json.dumps(family_to_document(family), indent=1)`` and a newline,
    encoded, a block of whole operators at a time."""
    fields = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in _metadata(family).items()]
    yield ("{\n " + ",\n ".join(fields) + ',\n "operators": [\n  ').encode()
    # the family's images are stored C-contiguous and finite
    pairs = _float_pairs(family.images)
    template = _template(pairs.shape[1:], 2).encode()
    operators = pairs.reshape(family.count, -1)
    per_block = max(1, _shortest.BLOCK // operators.shape[1])
    for start in range(0, family.count, per_block):
        block = operators[start:start + per_block]
        if start:
            yield b",\n  "
        text = b",\n  ".join([template] * len(block))
        yield text % tuple(_shortest.reprs(block.ravel()))
    yield b"\n ]\n}\n"


def save_family(family: HSFrameFamily, path: str) -> None:
    """Write ``family`` to ``path``."""
    check_instance("family", family, HSFrameFamily)
    _atomic_write(path, _family_text(family))


def load_family(path: str) -> HSFrameFamily:
    """The family parsed from the file at ``path``."""
    # passed, not bound: on CPython 3.11+ a call hands its arguments over, so
    # the parse holds the only reference and frees the bytes once decoded
    return _parse_family(_read(path), path)


def _read(path: str) -> bytes:
    """The bytes of the file at ``path``, read once."""
    with open(path, "rb") as fh:
        return fh.read()


def _parse_family(data: bytes, path: str) -> HSFrameFamily:
    """The family in ``data``, the bytes read from ``path``, which the
    messages name."""
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    del data
    with _collector_paused():
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(
                f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: "
                f"{exc.msg}"
            ) from exc
        except RecursionError as exc:  # deeper than json's decoder goes
            raise ParseError(f"{path}: nested too deeply to parse") from exc
        del text  # not kept through the conversion
        try:
            family = family_from_document(doc)
        except (ParseError, ValidationError) as exc:
            exc.args = (f"{path}: {exc.args[0]}",) + exc.args[1:]
            raise
        # freed while the collector is paused, so its allocation count drops
        # back and enabling it starts no pass over the parsed lists
        del doc
    return family


def write_convergence_csv(
    path: str, records: list[ConvergenceRecord], experiment: str, seed
) -> None:
    """One row per record, each stamped with the current ``utc_timestamp``;
    ``format_sig`` of an int is its ``str``.  A field is quoted only when it
    needs it, as an experiment id naming a family file with a comma or a
    double quote in its name does."""
    ts = utc_timestamp()
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(CONVERGENCE_COLUMNS)
    for r in records:
        values = (format_sig(getattr(r, name)) for name in _RECORD_COLUMNS)
        writer.writerow([experiment, ts, str(seed), *values])
    _atomic_write(path, (text.getvalue().encode(),))


def _finite_or_null(value):
    """The report document with every non-finite float replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def write_json_report(path: str, doc: dict) -> None:
    """Strict JSON stamped with ``format_version``: a non-finite float (e.g.
    an infinite norm) is written as null."""
    doc = {"format_version": REPORT_FORMAT_VERSION, **doc}
    text = json.dumps(_finite_or_null(doc), indent=1, allow_nan=False)
    _atomic_write(path, (text.encode(), b"\n"))


def analyze_report(family: HSFrameFamily, rank_tol: float = DEFAULT_RANK_TOL) -> dict:
    """The ``analyze`` report of ``family``: its shape, its ``classify``
    report, the Riesz ratio, |S|_HS against its bound, and the canonical
    dual's bounds and dual-identity check, or None for a family that is not
    a frame.  A non-finite value stays a float here; ``write_json_report``
    writes it as null.  ``hsframe analyze`` writes the report after
    ``experiment``, ``timestamp`` and ``input``."""
    report = classify(family, rank_tol)
    hs, hs_bound = frame_operator_hs_norm_bound(family)
    doc = {
        "dim_h": family.dim_h,
        "dim_k": family.dim_k,
        "count": family.count,
        "frame_report": dataclasses.asdict(report),
        "riesz_ratio_check": {"min_ratio": riesz_inequality_check(family)},
        "frame_operator_hs_norm": {"value": hs, "bound": hs_bound},
        "canonical_dual": None,
    }
    if report.frame:
        dual = canonical_dual(family, rank_tol)
        dual_check = verify_alternate_dual(family, dual)
        doc["canonical_dual"] = {
            "bounds": list(frame_bounds(dual)),
            "dual_identity_ok": dual_check.ok,
            "max_residual": dual_check.max_residual,
        }
    return doc


def perturb_report(
    family: HSFrameFamily, mode: str, magnitude: float, seed: int = 0, constants=None
) -> dict:
    """The ``perturb`` report: ``perturb_family(family, mode, magnitude,
    seed)`` decided by ``check_condition`` in analysis mode against
    ``constants``, or, when they are None, against the constants
    ``perturb_family`` certifies.  Given constants are checked before
    anything is drawn.  ``hsframe perturb`` writes the report after
    ``experiment``, ``timestamp`` and ``input``."""
    if constants is not None:
        check_instance("constants", constants, PerturbationConstants)
    gamma, certified = perturb_family(family, mode, magnitude, seed=seed)
    constants = certified if constants is None else constants
    verdict = check_condition("analysis", family, gamma, constants)
    return {
        "perturbation_mode": mode,
        "magnitude": float(magnitude),
        "seed": int(seed),
        "constants": dataclasses.asdict(constants),
        "condition_mode": verdict.mode,
        "certified": verdict.certified,
        "empirical_margin": verdict.empirical_margin,
        "original_bounds": list(frame_bounds(family)),
        "predicted_bounds": list(verdict.predicted_bounds),
        "actual_bounds": list(verdict.actual_bounds),
        "witness": None if verdict.witness is None
        else [[z.real, z.imag] for z in verdict.witness],
    }
